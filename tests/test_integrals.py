"""Principal-value total integral and the transform near xi = 0."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import painleve_mkdv.integrals as integrals
from painleve_mkdv.errors import DomainError
from painleve_mkdv.integrals import (_core_quadrature, _power_tail,
                                     pv_total_integral,
                                     total_integral_formula, v_hat)
from painleve_mkdv.pii import tuned_solution
from painleve_mkdv.stokes import make_params


def test_formula_values():
    assert total_integral_formula(make_params(0.25, 0.0)) == 0.0
    assert total_integral_formula(make_params(0.0, 0.5)) == pytest.approx(
        0.5 * math.log(3.0), abs=1e-15)
    # frozen 30-digit evaluation
    assert total_integral_formula(make_params(0.25, 0.3)) == pytest.approx(
        0.45288070667073726, abs=1e-15)


@given(st.tuples(st.floats(-0.45, 0.45), st.floats(0.001, 0.9)).filter(
    lambda ak: ak[1] < 0.99 * math.cos(math.pi * ak[0])))
@settings(max_examples=100, deadline=None)
def test_formula_antisymmetry(ak):
    alpha, k = ak
    plus = total_integral_formula(make_params(alpha, k))
    minus = total_integral_formula(make_params(alpha, -k))
    assert plus == -minus  # exact formula parity


def test_formula_near_the_edge():
    # as |k| -> cos(pi alpha) the formula's error is that of c - |k| over
    # 2 (c - |k|), so c must be the edge-accurate cos(pi alpha) that bounds
    # |k|.  Measured on these 1200 draws (|alpha| in [0.25, 0.49], g/c^2 in
    # [1e-12, 1e-1], g = cos^2(pi alpha) - k^2): at most 9.5e-5 absolute
    # against mpmath, 9.3e-4 with c = cos(pi alpha) formed directly
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1200):
        alpha = math.copysign(rng.uniform(0.25, 0.49), rng.uniform(-1.0, 1.0))
        c = math.cos(math.pi * alpha)
        k = math.copysign(c * math.sqrt(1.0 - 10.0 ** rng.uniform(-12.0, -1.0)),
                          rng.uniform(-1.0, 1.0))
        got = total_integral_formula(make_params(alpha, k))
        with mp.workdps(40):
            c_mp, k_mp = mp.cos(mp.pi * mp.mpf(alpha)), mp.mpf(k)
            ref = float(mp.log((c_mp + k_mp) / (c_mp - k_mp)) / 2)
        worst = max(worst, abs(got - ref))
    assert worst < 2e-4


def test_pv_cutoff_validation():
    # unguarded, an infinite cutoff walks its panels from -inf without end,
    # and so does 1e20, where the panel step is below the spacing of doubles
    for cutoff in (10.0, math.inf, math.nan, 1e20):
        with pytest.raises(DomainError):
            pv_total_integral(make_params(0.0, 0.5), cutoff=cutoff)


def test_pv_degenerate():
    assert pv_total_integral(make_params(0.0, 0.0)) == 0.0


def test_pv_matches_formula(sol_0_05, sol_025_03):
    for sol in (sol_0_05, sol_025_03):
        p = sol.params
        got = pv_total_integral(p, solution=sol)
        assert abs(got - total_integral_formula(p)) < 1e-3


def test_pv_cutoff_invariance(sol_0_05):
    p = sol_0_05.params
    vals = [pv_total_integral(p, x, solution=sol_0_05)
            for x in (40.0, 60.0, 80.0)]
    assert max(vals) - min(vals) < 2e-3


@pytest.mark.parametrize("pair", [(0.0, 0.5), (0.25, 0.3), (-0.3, -0.4)])
def test_core_quadrature_converged_on_its_panels(pair, monkeypatch):
    # no panel spans the jump of the evaluator at x_match, so the 10-node rule
    # is converged on every panel: measured <= 3.3e-12 against 40 nodes on
    # the same panels (1.7e-5 ... 3.7e-5 with 20 nodes when a panel spans it)
    sol = tuned_solution(make_params(*pair))
    xis = (0.0, 0.25, 1.0)
    got = [_core_quadrature(sol, -60.0, 60.0, xi) for xi in xis]
    nodes, weights = np.polynomial.legendre.leggauss(40)
    monkeypatch.setattr(integrals, "_GL_NODES", nodes)
    monkeypatch.setattr(integrals, "_GL_WEIGHTS", weights)
    for xi, value in zip(xis, got):
        assert abs(value - _core_quadrature(sol, -60.0, 60.0, xi)) < 1e-10


@pytest.mark.parametrize("power", [2.5, 4.0])
def test_power_tail_matches_mpmath(power):
    # F(p; xi) = int_X^inf s^{-p} e^{i xi s} ds = X^{1-p} E_p(-i xi X);
    # measured worst relative error 3.5e-11, at |xi| = 1
    x_cut = 60.0
    for xi in (1e-3, 0.0144, 0.067, 0.25, 1.0):
        for x in (xi, -xi):
            got = _power_tail(power, x, x_cut)
            with mp.workdps(30):
                ref = complex(mp.mpf(x_cut) ** (1 - mp.mpf(power))
                              * mp.expint(mp.mpf(power), -1j * mp.mpf(x) * x_cut))
            assert abs(got - ref) <= 1e-10 * abs(ref)
        assert _power_tail(power, -xi, x_cut) == _power_tail(power, xi, x_cut).conjugate()
    assert _power_tail(power, 0.0, x_cut) == x_cut ** (1.0 - power) / (power - 1.0)


@pytest.mark.parametrize("pair", [(0.4, 0.155), (-0.3, -0.4)])
def test_pv_error_flat_in_cutoff(pair):
    # with every row of the launch expansion in the left tail, what is left
    # of the error is the evaluator's right-model floor, whatever X is.
    # Measured spreads over X = 30, 60, 120: 8.5e-7 and 3.0e-6 (3.9e-3 and
    # 1.8e-3 with the leading row alone by parts)
    p = make_params(*pair)
    sol = tuned_solution(p)
    errs = [pv_total_integral(p, x, solution=sol)
            - total_integral_formula(p) for x in (30.0, 60.0, 120.0)]
    assert max(errs) - min(errs) < 1e-4


def test_v_hat_validation(sol_0_05):
    with pytest.raises(DomainError):
        v_hat(sol_0_05.params, 0.0, solution=sol_0_05)
    with pytest.raises(DomainError):
        v_hat(sol_0_05.params, 1.5, solution=sol_0_05)
    for xi in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            v_hat(sol_0_05.params, xi, solution=sol_0_05)


def test_v_hat_reality_symmetry(sol_025_03):
    p = sol_025_03.params
    for xi in (1e-3, 0.2, 0.8):
        plus = v_hat(p, xi, solution=sol_025_03)
        minus = v_hat(p, -xi, solution=sol_025_03)
        assert abs(plus - minus.conjugate()) < 1e-6


def test_v_hat_zero_limit(sol_025_03):
    # vhat(xi) -> c -/+ i pi alpha as xi -> 0 +/-
    p = sol_025_03.params
    c = total_integral_formula(p)
    for xi in (1e-3, -1e-3):
        got = v_hat(p, xi, solution=sol_025_03)
        want = complex(c, -math.copysign(math.pi * p.alpha, xi))
        assert abs(got - want) < 1e-2


def test_v_hat_odd_part_is_f_limit(sol_025_03):
    # the odd-in-xi part isolates the alpha/x contribution -/+ i pi alpha
    p = sol_025_03.params
    odd = 0.5 * (v_hat(p, 1e-3, solution=sol_025_03)
                 - v_hat(p, -1e-3, solution=sol_025_03))
    assert abs(odd - complex(0.0, -math.pi * p.alpha)) < 1e-3


@pytest.mark.parametrize("xi,tol", [(0.0, 1e-3), (0.25, 1e-2)])
def test_tail_remainder_warning_fires(sol_025_03, xi, tol):
    # the public entry points stay under their tolerances on the acceptance
    # pairs, so the transform is driven with a tol on either side of its own
    # estimate; under -W error a warning on the quiet side fails the test
    est = integrals._tails(sol_025_03, 20.0, xi)[1]
    assert 0.0 < est < tol
    quiet = integrals._symmetric_transform(sol_025_03, xi, 20.0, 2.0 * est)
    with pytest.warns(UserWarning, match="tail remainder"):
        loud = integrals._symmetric_transform(sol_025_03, xi, 20.0, 0.5 * est)
    assert loud == quiet
