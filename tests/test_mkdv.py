"""Self-similar mKdV fields: parameter map, PDE residuals, frequency limits."""

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from painleve_mkdv.errors import DomainError, GridRangeError
from painleve_mkdv.mkdv import (InitialDataCoefficients, SelfSimilarField,
                                ab_to_params, pde_residual_closure,
                                pde_residual_fd, u_hat)
from painleve_mkdv.integrals import pv_total_integral, v_hat
from painleve_mkdv.pii import tuned_solution
from painleve_mkdv.stokes import make_params


def test_ab_to_params_values():
    p = ab_to_params(InitialDataCoefficients(0.0, 0.0))
    assert p.degenerate
    p = ab_to_params(InitialDataCoefficients(1.0, 0.0))
    assert p.alpha == 0.0
    assert p.k == pytest.approx(math.tanh(-0.5), abs=1e-15)
    p = ab_to_params(InitialDataCoefficients(0.0, 0.5))
    assert p.alpha == -0.25 and p.k == 0.0
    with pytest.raises(DomainError):
        InitialDataCoefficients(0.0, 1.0)


def test_field_requires_positive_time():
    # an infinite time would read both PDE residuals as 0.0
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="0 < t < inf"):
            SelfSimilarField(make_params(0.0, 0.5), t)


def test_profile_of_another_pair_is_rejected():
    # unguarded, the core quadrature read the profile while the tails, a4 and
    # alpha/x read p: the total integral gave -0.8306, neither pair's value
    # (0.4523 and -0.8294), and the field kept both pairs
    p = make_params(0.25, 0.3)
    other = tuned_solution(make_params(-0.3, -0.4))
    for build in (lambda: pv_total_integral(p, solution=other),
                  lambda: v_hat(p, 0.25, solution=other),
                  lambda: u_hat(SelfSimilarField(p, 1.0, solution=other), 0.25)):
        with pytest.raises(DomainError, match="profile solved for"):
            build()


def test_profile_rejects_non_finite_x(sol_0_05):
    # unguarded, nan gave (nan, nan), -inf nan with a RuntimeWarning from the
    # launch model and inf (0.0, -0.0)
    for x in (math.nan, math.inf, -math.inf, np.array([-3.0, math.nan, 2.0])):
        with pytest.raises(DomainError, match="finite x"):
            sol_0_05.v(x)
    field = SelfSimilarField(sol_0_05.params, 1.0, solution=sol_0_05)
    with pytest.raises(DomainError, match="finite x"):
        field.u(math.nan)


def test_u_at_special_time(sol_0_05):
    # (3t) = 1 makes u(t, x) = -2 v(x) exactly
    field = SelfSimilarField(sol_0_05.params, 1.0 / 3.0, solution=sol_0_05)
    for x in (-20.0, -3.3, 0.0, 2.5):
        assert field.u(x) == pytest.approx(-2.0 * sol_0_05.v(x)[0], abs=1e-15)


def test_degenerate_field_zero():
    field = SelfSimilarField(make_params(0.0, 0.0), 0.7)
    xs = np.linspace(-5.0, 5.0, 11)
    assert np.all(field.u(xs) == 0.0)


def test_scaling_invariance(sol_0_05):
    field = SelfSimilarField(sol_0_05.params, 1.0, solution=sol_0_05)
    for lam in (0.5, 2.0, 10.0):
        for x in (-4.0, -1.2, 0.8):
            lhs = lam * SelfSimilarField(field.params, lam ** 3 * 1.0,
                                         solution=sol_0_05).u(lam * x)
            rhs = field.u(x)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_u_real(sol_0_05):
    field = SelfSimilarField(sol_0_05.params, 0.37, solution=sol_0_05)
    u = field.u(np.linspace(-8.0, 2.0, 50))
    assert np.isrealobj(u) and np.all(np.isfinite(u))


def test_u_hat_matches_v_hat(sol_025_03):
    # uhat(t, xi) = -2 vhat(xi (3t)^{1/3}) by the change of variables
    field = SelfSimilarField(sol_025_03.params, 2.0, solution=sol_025_03)
    xi = 0.3
    got = u_hat(field, xi)
    want = -2.0 * v_hat(sol_025_03.params, xi * (3.0 * 2.0) ** (1.0 / 3.0),
                        solution=sol_025_03)
    assert got == want


def test_initial_data_frequency_limit():
    # (a, b) = (1, 0.5): uhat(t, +-1) -> 1 -/+ i pi/2 as t -> 0+,
    # non-increasing error over t in {1e-2, 1e-4, 1e-6}
    coeffs = InitialDataCoefficients(1.0, 0.5)
    p = ab_to_params(coeffs)
    sol = tuned_solution(p)
    for xi in (1.0, -1.0):
        want = complex(coeffs.a, -math.copysign(math.pi * coeffs.b, xi))
        errs = []
        for t in (1e-2, 1e-4, 1e-6):
            field = SelfSimilarField(p, t, solution=sol)
            errs.append(abs(u_hat(field, xi) - want))
        assert errs[-1] < 5e-2
        assert errs[0] >= errs[1] >= errs[2]


def test_pde_residual_second_order(sol_0_05):
    field = SelfSimilarField(sol_0_05.params, 1.0, solution=sol_0_05)
    r1 = pde_residual_fd(field, (-3.0, 3.0), 0.05)
    r2 = pde_residual_fd(field, (-3.0, 3.0), 0.025)
    assert r1 / r2 == pytest.approx(4.0, abs=0.5)


class _CountingProfile:
    """A profile whose ``v`` counts its calls."""

    def __init__(self, sol):
        self.sol, self.params, self.x_match, self.calls = sol, sol.params, sol.x_match, 0

    def v(self, x):
        self.calls += 1
        return self.sol.v(x)


def _seven_call_residual(field, window, h):
    # the stencil one row per call, each through the u of a field at its time
    t = field.t
    xs = np.arange(window[0], window[1] + 0.5 * h, h)
    u_plus, u_minus = (SelfSimilarField(field.params, t_row, solution=field.solution).u(xs)
                       for t_row in (t + h, t - h))
    u_t = (u_plus - u_minus) / (2.0 * h)
    um2 = field.u(xs - 2 * h)
    um1 = field.u(xs - h)
    u0 = field.u(xs)
    up1 = field.u(xs + h)
    up2 = field.u(xs + 2 * h)
    u_x = (up1 - um1) / (2.0 * h)
    u_xxx = (-0.5 * um2 + um1 - up1 + 0.5 * up2) / h ** 3
    return float(np.max(np.abs(u_t + u_xxx - 1.5 * u0 ** 2 * u_x)))


@pytest.mark.parametrize("pair", [(0.0, 0.5), (0.25, 0.3), (-0.3, -0.4)])
def test_pde_residual_is_one_call_and_bit_identical(pair):
    # the seven stencil rows go through one profile call, and each point is
    # evaluated as field.u evaluates it
    sol = tuned_solution(make_params(*pair))
    for t, h in ((1.0, 0.05), (1.0, 0.025), (0.3, 0.01)):
        counting = _CountingProfile(sol)
        field = SelfSimilarField(sol.params, t, solution=counting)
        got = pde_residual_fd(field, (-3.0, 3.0), h)
        assert counting.calls == 1
        assert got == _seven_call_residual(field, (-3.0, 3.0), h)


def test_pde_residual_closure(sol_0_05):
    field = SelfSimilarField(sol_0_05.params, 1.0, solution=sol_0_05)
    assert pde_residual_closure(field, (-3.0, 3.0)) < 1e-9


def test_pde_residual_degenerate():
    field = SelfSimilarField(make_params(0.0, 0.0), 1.0)
    assert pde_residual_fd(field, (-3.0, 3.0), 0.05) == 0.0


def test_non_finite_transform_and_window_rejected(sol_0_05):
    field = SelfSimilarField(sol_0_05.params, 0.5, solution=sol_0_05)
    for xi in (math.nan, math.inf):
        with pytest.raises(DomainError):
            u_hat(field, xi)
    for window in [(math.nan, 3.0), (-3.0, math.nan), (-math.inf, 3.0), (-3.0, math.inf)]:
        with pytest.raises(DomainError):
            pde_residual_closure(field, window)
        with pytest.raises(DomainError):
            pde_residual_fd(field, window, 0.05)
    for h in (math.nan, math.inf):
        with pytest.raises(DomainError):
            pde_residual_fd(field, (-3.0, 3.0), h)


def test_pde_window_out_of_range(sol_0_05):
    field = SelfSimilarField(sol_0_05.params, 1e-4, solution=sol_0_05)
    # tiny t squeezes the window far outside the dense profile grid
    with pytest.raises(GridRangeError):
        pde_residual_fd(field, (-30.0, 30.0), 0.05)


def test_pde_window_reaches_the_deepest_launch_point(sol_0_05):
    # windows are admitted down to y = -240 whatever the profile's x_left:
    # left of it the profile is its launch expansion
    assert sol_0_05.x_left == -60.0
    field = SelfSimilarField(sol_0_05.params, 1e-5, solution=sol_0_05)
    # y = x (3e-5)^{-1/3} reaches -96.5 and -238; the residual's terms are
    # ~1e8 at this t, so 1e-6 is rounding
    assert pde_residual_closure(field, (-3.0, 0.0)) < 1e-6
    assert pde_residual_closure(field, (-7.4, -3.0)) < 1e-6
    with pytest.raises(GridRangeError):
        pde_residual_closure(field, (-7.5, 0.0))


def _pv_pairing_target(coeffs, phi):
    # a phi(0) + b p.v. int phi(x)/x dx, the principal value through the odd
    # part (smooth integrand), evaluated independently of the solver
    xs = np.linspace(1e-9, 60.0, 400001)
    pv = trapezoid((phi(xs) - phi(-xs)) / xs, xs)
    return coeffs.a * phi(0.0) + coeffs.b * pv


@pytest.mark.parametrize("phi", [
    lambda x: np.exp(-(x - 1.0) ** 2),
    lambda x: np.cosh(x - 1.0) ** -2.0,
], ids=["gaussian", "sech2"])
def test_initial_data_pairing(phi):
    # the distributional limit tested against two rapidly decaying test
    # functions; the pairing approaches a delta + p.v. combination
    coeffs = InitialDataCoefficients(1.0, 0.5)
    p = ab_to_params(coeffs)
    sol = tuned_solution(p)
    target = _pv_pairing_target(coeffs, phi)
    xs = np.linspace(-8.0, 8.0, 400001)
    errs = []
    for t in (1e-2, 1e-4):
        field = SelfSimilarField(p, t, solution=sol)
        errs.append(abs(trapezoid(field.u(xs) * phi(xs), xs) - target))
    assert errs[-1] < 5e-2
    assert errs[-1] <= errs[0]
