"""Acceptance gate: every verification target at its pinned tolerance, one
pass/fail line per check (run with -s to see them).

Each check is defined once, in the suites of `painleve_mkdv.cli`:
`test_suite` runs every suite on each acceptance pair, and `fourier-limit`
once more with initial-data coefficients (a, b) = (1, 0.5), and asserts that
every report passed.  Some numbered tests (`01b`, `02`, `05`, `09`, `10`)
assert one suite check each, read from the same cached suite run; `03`
runs `connection.launch_expansion` against a model without its alpha/x
term; the rest hold what no suite checks.

The `01` checks encode a fixed shallow-launch protocol verbatim: launch from
x = -60 and compare with the decaying model at x = 4, tolerance 5e-3.  The
launch-data error there is amplified ~4.5e2 to ~2.4e3 times through the
turning region (the growing linearized mode reaches e^{(2/3) x^{3/2}} ~ 2e2
at x = 4 on top of algebraic factors), so the protocol holds only with
launch data accurate well beyond the leading oscillatory model: the left
launch seeds from the expansion through s^{-25/4} (``v_neg_launch``), whose
data error at x = -60 is ~1e-11 or less for these pairs.  The remaining
seam, ~3e-4 to ~1.1e-3, is the truncation floor of the decaying model at
x = 4 (see the README's "Accuracy model"); the suite check
`connection.seam_at_x_match` finds the same floor in the production
evaluator, whose single launch starts at its own x_left (-60 for these
pairs).
"""

import functools
import math
import time

import pytest

import painleve_mkdv.cli as cli
from painleve_mkdv.asymptotics import v_pos_asym
from painleve_mkdv.cli import SUITES, run_suite
from painleve_mkdv.integrals import pv_total_integral
from painleve_mkdv.mkdv import (InitialDataCoefficients, SelfSimilarField,
                                ab_to_params, u_hat)
from painleve_mkdv.pii import solve_left_launch, tuned_solution
from painleve_mkdv.stokes import make_params
from pairs import ACCEPTANCE_PAIRS

AB = InitialDataCoefficients(1.0, 0.5)

CASES = [pytest.param(suite, pair, id=f"{suite}-pair{i}")
         for i, pair in enumerate(ACCEPTANCE_PAIRS) for suite in SUITES if suite != "all"]
CASES.append(pytest.param("fourier-limit", AB, id="fourier-limit-ab"))


def _report(label: str, err, tol, extra: str = "") -> None:
    status = "PASS" if err <= tol else "FAIL"
    print(f"[{status}] {label}: abs_err={err:.3e} tol={tol:.1e} {extra}")


@functools.cache
def _reports(suite: str, data) -> list:
    """`run_suite` on an (alpha, k) pair or on initial-data coefficients;
    each suite runs once per input."""
    if isinstance(data, InitialDataCoefficients):
        return run_suite(suite, {"coeffs": data, "params": ab_to_params(data)})
    return run_suite(suite, {"params": make_params(*data)})


def _assert_check(suite: str, pair, check_id: str) -> None:
    r = next(r for r in _reports(suite, pair) if r.check_id == check_id)
    _report(f"{check_id} {pair}", r.abs_err, r.tol)
    assert r.passed


# -- the CLI suites ------------------------------------------------------------

@pytest.mark.parametrize("suite, data", CASES)
def test_suite(suite, data):
    reports = _reports(suite, data)
    for r in reports:
        _report(f"{r.check_id} {data}", r.abs_err, r.tol)
    assert reports
    assert all(r.passed for r in reports), [r.check_id for r in reports if not r.passed]


# -- 1: connection-formula round trip ----------------------------------------

@pytest.fixture(scope="module")
def round_trip_runs():
    runs = {}
    start = time.perf_counter()
    for pair in ACCEPTANCE_PAIRS:
        p = make_params(*pair)
        grid = solve_left_launch(p, -60.0, 4.0, 1e-10)
        seam = abs(grid.evaluate(4.0)[0] - v_pos_asym(4.0, p.alpha)[0])
        runs[pair] = seam
    runs["runtime"] = time.perf_counter() - start
    return runs


@pytest.mark.parametrize("pair", ACCEPTANCE_PAIRS)
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


@pytest.mark.parametrize("pair", ACCEPTANCE_PAIRS)
def test_01b_round_trip_depth_adapted(pair):
    # the same round trip through the production evaluator (one launch from
    # its x_left): the connection formulas parameterize the solution that
    # decays on the right
    _assert_check("connection", pair, "connection.seam_at_x_match")


# -- 2: homogeneous cross-validation ------------------------------------------

def test_02_right_launch_cross_validation():
    _assert_check("connection", (0.0, 0.5), "connection.right_launch_d")
    _assert_check("connection", (0.0, 0.5), "connection.right_launch_phi")


# -- 3: the alpha/x term of the launch expansion -----------------------------

def test_03_launch_expansion_needs_alpha_over_x(monkeypatch):
    # connection.launch_expansion against the expansion without alpha/x: the
    # gap is then |alpha|/|x| at the window's end x = -20, to within the
    # check's bound, and far above that bound
    alpha = 0.25
    launch = cli.v_neg_launch

    def without_alpha_term(x, p, c):
        v, v_prime = launch(x, p, c)
        return v - p.alpha / x, v_prime + p.alpha / x ** 2

    monkeypatch.setattr(cli, "v_neg_launch", without_alpha_term)
    r = next(r for r in run_suite("connection", {"params": make_params(alpha, 0.3)})
             if r.check_id == "connection.launch_expansion")
    _report("03 gap - |alpha|/20 with alpha/x dropped", abs(r.abs_err - alpha / 20.0),
            r.tol)
    assert abs(r.abs_err - alpha / 20.0) <= r.tol < 1e-5 * r.abs_err


# -- 4: total integral ---------------------------------------------------------

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
def test_05_v_hat_limit(xi):
    _assert_check("fourier-limit", (0.25, 0.3), f"fourier.v_hat_limit_xi={xi:+.0e}")


# -- 6: initial-data limit -----------------------------------------------------

def test_06_initial_data_limit():
    # the limit itself, at t = 1e-6, is fourier.u_hat_limit; here u_hat
    # approaches it monotonically as t -> 0
    p = ab_to_params(AB)
    sol = tuned_solution(p)
    for xi in (1.0, -1.0):
        want = complex(AB.a, -math.copysign(math.pi * AB.b, xi))
        errs = [abs(u_hat(SelfSimilarField(p, t, solution=sol), xi) - want)
                for t in (1e-2, 1e-4, 1e-6)]
        _report(f"06 u_hat monotone xi={xi:+.0f}", errs[-1], 5e-2,
                f"{errs[0]:.2e} >= {errs[1]:.2e} >= {errs[2]:.2e}")
        assert errs[0] >= errs[1] >= errs[2]


# -- 9, 10: stationary-point identity and parametrix decay -------------------

@pytest.mark.parametrize("pair", [(0.0, 0.5), (0.25, 0.3)])
def test_09_stationary_identity(pair):
    _assert_check("rh-checks", pair, "rh.stationary_identity")


@pytest.mark.parametrize("pair", [(0.0, 0.5), (0.25, 0.3)])
def test_10_parametrix_decay(pair):
    _assert_check("rh-checks", pair, "rh.parametrix_decay_factor")
