"""Acceptance gate: every verification target at its pinned tolerance, one
pass/fail line per check (run with -s to see them).

The `01` checks encode a fixed shallow-launch protocol verbatim: launch from
x = -60 and compare with the decaying model at x = 4, tolerance 5e-3.  The
launch-data error there is amplified ~4.5e2 to ~2.4e3 times through the
turning region (the growing linearized mode reaches e^{(2/3) x^{3/2}} ~ 2e2
at x = 4 on top of algebraic factors), so the protocol holds only with
launch data accurate well beyond the leading oscillatory model: the left
launch seeds from the expansion through s^{-13/4} (``v_neg_launch``), whose
data error at x = -60 is ~1e-6 or less.  The remaining seam, ~3e-4 to
~1.1e-3, is the truncation floor of the decaying model at x = 4 (see the
README's "Accuracy model"); the `01b` checks find the same floor in the
production evaluator, whose single launch starts at x = -240.
"""

import cmath
import math
import time

import numpy as np
import pytest

from painleve_mkdv.asymptotics import (loglog_slope, remainder_envelope,
                                       v_pos_asym)
from painleve_mkdv.integrals import (TailPolicy, pv_total_integral,
                                     total_integral_formula, v_hat)
from painleve_mkdv.mkdv import (InitialDataCoefficients, SelfSimilarField,
                                ab_to_params, pde_residual_closure,
                                pde_residual_fd, u_hat)
from painleve_mkdv.pii import (fit_oscillation, solve_left_launch,
                               solve_right_launch_homogeneous, tuned_solution)
from painleve_mkdv.rh_verify import (SIGMA2, ContourCircle, parametrix_decay,
                                     residue_check_origin,
                                     stationary_identity, t_left_parametrix,
                                     t_right_parametrix)
from painleve_mkdv.specfun import log_gamma, pcf_d
from painleve_mkdv.stokes import (connection_constants, make_params,
                                  rh_constants, stokes_triple)

PAIRS = [
    (0.0, 0.3),
    (0.0, 0.5),
    (0.25, 0.3),
    (-0.3, -0.4),
    (0.4, 0.5 * math.cos(0.4 * math.pi)),
]

C_025_03 = 0.45288070667073726  # (1/2) ln((cos(pi/4)+0.3)/(cos(pi/4)-0.3))


def _report(label: str, err, tol, extra: str = "") -> None:
    status = "PASS" if err <= tol else "FAIL"
    print(f"[{status}] {label}: abs_err={err:.3e} tol={tol:.1e} {extra}")


# -- 1: connection-formula round trip ----------------------------------------

@pytest.fixture(scope="module")
def round_trip_runs():
    runs = {}
    start = time.perf_counter()
    for pair in PAIRS:
        p = make_params(*pair)
        grid = solve_left_launch(p, -60.0, 4.0, 1e-10)
        seam = abs(grid.evaluate(4.0)[0] - v_pos_asym(4.0, p.alpha)[0])
        runs[pair] = seam
    runs["runtime"] = time.perf_counter() - start
    return runs


@pytest.mark.parametrize("pair", PAIRS)
def test_01_connection_round_trip(round_trip_runs, pair):
    seam = round_trip_runs[pair]
    _report(f"01 round trip {pair}", seam, 5e-3)
    assert seam < 5e-3, (
        f"round trip from -60 misses by {seam:.2e}: the launch-data error, "
        "amplified ~4.5e2-2.4e3x through the turning region, exceeds the "
        "tolerance (see README, 'Accuracy model')")


def test_01_runtime_budget(round_trip_runs):
    _report("01 runtime", round_trip_runs["runtime"], 60.0, "seconds")
    assert round_trip_runs["runtime"] < 60.0


@pytest.mark.parametrize("pair", PAIRS)
def test_01b_round_trip_depth_adapted(pair):
    # the same round trip through the production evaluator (one launch from
    # x = -240): the connection formulas parameterize the solution that
    # decays on the right
    sol = tuned_solution(make_params(*pair))
    _report(f"01b tuned round trip {pair}", sol.seam_jump, 5e-3,
            f"depth={-sol.grid.launch_point:.0f}")
    assert sol.seam_jump < 5e-3


# -- 2: homogeneous cross-validation ------------------------------------------

def test_02_right_launch_cross_validation():
    grid = solve_right_launch_homogeneous(0.5, 12.0, -60.0, 1e-11)
    d_fit, phi_fit = fit_oscillation(grid, (-60.0, -30.0), 0.0)
    c = connection_constants(make_params(0.0, 0.5))
    d_err = abs(d_fit - c.d)
    phi_err = abs(math.remainder(phi_fit - c.phi, 2.0 * math.pi))
    _report("02 cross-validation d", d_err, 1e-2)
    _report("02 cross-validation phi", phi_err, 5e-2)
    assert d_err < 1e-2
    assert phi_err < 5e-2


# -- 3: remainder-order improvement -------------------------------------------

def test_03_remainder_orders(sol_025_03):
    full = loglog_slope(remainder_envelope(sol_025_03, True))
    osc_only = loglog_slope(remainder_envelope(sol_025_03, False))
    _report("03 slope with alpha/x removed", full, -1.6, "(<= -1.6 passes)")
    _report("03 slope with alpha/x kept", abs(osc_only + 1.0), 0.15)
    assert full <= -1.6
    assert abs(osc_only + 1.0) <= 0.15


# -- 4: total integral ---------------------------------------------------------

@pytest.mark.parametrize("pair", PAIRS)
def test_04_total_integral(pair):
    p = make_params(*pair)
    got = pv_total_integral(p, TailPolicy(cutoff=60.0))
    want = total_integral_formula(p)
    err = abs(got - want)
    _report(f"04 total integral {pair}", err, 1e-3)
    assert err < 1e-3


def test_04_zero_at_k_zero():
    p = make_params(0.25, 0.0)
    err = abs(pv_total_integral(p))
    _report("04 total integral k=0", err, 1e-3)
    assert err < 1e-3


def test_04_antisymmetry_in_k():
    plus = pv_total_integral(make_params(0.25, 0.3))
    minus = pv_total_integral(make_params(0.25, -0.3))
    err = abs(plus + minus)
    _report("04 antisymmetry", err, 2e-3)
    assert err < 2e-3


# -- 5: transform limits -------------------------------------------------------

@pytest.mark.parametrize("xi", [1e-3, -1e-3])
def test_05_v_hat_limit(sol_025_03, xi):
    p = sol_025_03.params
    got = v_hat(p, xi, solution=sol_025_03)
    want = complex(C_025_03, -math.pi * p.alpha * math.copysign(1.0, xi))
    err = abs(got - want)
    _report(f"05 v_hat({xi:+.0e})", err, 1e-2)
    assert err < 1e-2


# -- 6: initial-data limit -----------------------------------------------------

def test_06_initial_data_limit():
    coeffs = InitialDataCoefficients(1.0, 0.5)
    p = ab_to_params(coeffs)
    sol = tuned_solution(p)
    for xi in (1.0, -1.0):
        want = complex(1.0, -math.copysign(0.5 * math.pi, xi))
        errs = [abs(u_hat(SelfSimilarField(p, t, solution=sol), xi) - want)
                for t in (1e-2, 1e-4, 1e-6)]
        _report(f"06 u_hat limit xi={xi:+.0f}", errs[-1], 5e-2,
                f"monotone {errs[0]:.2e} >= {errs[1]:.2e} >= {errs[2]:.2e}")
        assert errs[-1] < 5e-2
        assert errs[0] >= errs[1] >= errs[2]


# -- 7: mKdV PDE ---------------------------------------------------------------

def test_07_pde_residuals(sol_0_05):
    field = SelfSimilarField(sol_0_05.params, 1.0, solution=sol_0_05)
    r1 = pde_residual_fd(field, (-3.0, 3.0), 0.05)
    r2 = pde_residual_fd(field, (-3.0, 3.0), 0.025)
    ratio_err = abs(r1 / r2 - 4.0)
    closure = pde_residual_closure(field, (-3.0, 3.0))
    _report("07 pde h-convergence ratio", ratio_err, 0.5, f"ratio={r1/r2:.3f}")
    _report("07 pde closure residual", closure, 1e-9)
    assert ratio_err <= 0.5
    assert closure < 1e-9


# -- 8: residue identity --------------------------------------------------------

def test_08_residue_identity():
    worst = 0.0
    for pair in PAIRS:
        nu = rh_constants(make_params(*pair)).nu
        vals = [residue_check_origin(ContourCircle(0.0, r), nu)
                for r in (0.05, 0.1, 0.2)]
        worst = max(worst, *(abs(v + 2j * math.pi) for v in vals))
        worst = max(worst, *(abs(v - vals[0]) for v in vals))
    _report("08 residue identity", worst, 1e-8)
    assert worst < 1e-8


# -- 9: stationary-point identity ------------------------------------------------

@pytest.mark.parametrize("pair", [(0.0, 0.5), (0.25, 0.3)])
def test_09_stationary_identity(pair):
    p = make_params(*pair)
    worst = max(abs(lhs - rhs) for lhs, rhs in
                (stationary_identity(p, t) for t in (20.0, 50.0, 100.0)))
    _report(f"09 stationary identity {pair}", worst, 1e-6)
    assert worst < 1e-6


# -- 10: parametrix decay ---------------------------------------------------------

@pytest.mark.parametrize("pair", [(0.0, 0.5), (0.25, 0.3)])
def test_10_parametrix_decay(pair):
    p = make_params(*pair)
    slope = loglog_slope(parametrix_decay(p))
    z = 0.5 + 0.15 * cmath.exp(1j * (0.0371 + 2.0 * math.pi * 3.0 / 16.0))
    sym = np.max(np.abs(t_left_parametrix(p, 50.0, -z)
                        - SIGMA2 @ t_right_parametrix(p, 50.0, z) @ SIGMA2))
    _report(f"10 parametrix decay slope {pair}", slope, -1.4, "(<= -1.4 passes)")
    _report(f"10 sigma2 symmetry {pair}", float(sym), 1e-15)
    assert slope <= -1.4
    assert sym <= 1e-15


# -- 11: special-function suite ----------------------------------------------------

def test_11_specfun_suite():
    worst_d0 = max(abs(pcf_d(0.0, z)[0] - cmath.exp(-complex(z) ** 2 / 4.0))
                   for z in (1.3, -2.0, 0.8j, 2.0 + 2.0j))
    _report("11 D_0 gaussian identity", worst_d0, 1e-14)
    assert worst_d0 < 1e-14

    worst_rec = 0.0
    for nu in (-0.5j, 0.3, 1 + 0.2j):
        for z in (1.0 + 1.0j, -2.5, 3.0j, -1.0 - 2.0j):
            v_hi, _ = pcf_d(nu + 1.0, z)
            v_mid, d_mid = pcf_d(nu, z)
            v_lo, _ = pcf_d(nu - 1.0, z)
            worst_rec = max(worst_rec,
                            abs(v_hi - z * v_mid + nu * v_lo),
                            abs(d_mid + 0.5 * z * v_mid - nu * v_lo))
    _report("11 pcf recurrences", worst_rec, 1e-10)
    assert worst_rec < 1e-10

    # reflection identity |Gamma(iy)|^2 = pi/(y sinh(pi y)) at y = 1; the
    # oracle evaluates to 0.52156404686493984
    gamma_err = abs(abs(cmath.exp(log_gamma(1j)))
                    - math.sqrt(math.pi / math.sinh(math.pi)))
    _report("11 |Gamma(i)| reflection", gamma_err, 1e-10)
    assert gamma_err < 1e-10

    worst_h = 0.0
    for pair in PAIRS:
        p = make_params(*pair)
        rc = rh_constants(p)
        s = stokes_triple(p)
        worst_h = max(worst_h, abs(rc.h0 * rc.h1 * (1.0 - s.s1 * s.s3)
                                   - s.s1 * s.s3))
    _report("11 h0 h1 identity", worst_h, 1e-12)
    assert worst_h < 1e-12
