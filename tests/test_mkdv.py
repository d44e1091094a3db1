"""Self-similar mKdV fields: parameter map, PDE residuals, frequency limits."""

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from painleve_mkdv.errors import DomainError, GridRangeError
from painleve_mkdv.mkdv import (InitialDataCoefficients, SelfSimilarField,
                                ab_to_params, pde_residual_closure,
                                pde_residual_fd, u_hat)
from painleve_mkdv.integrals import v_hat
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
    with pytest.raises(DomainError):
        SelfSimilarField(make_params(0.0, 0.5), 0.0)


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
            lhs = lam * field.u(lam * x, t=lam ** 3 * 1.0)
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


def test_pde_residual_closure(sol_0_05):
    field = SelfSimilarField(sol_0_05.params, 1.0, solution=sol_0_05)
    assert pde_residual_closure(field, (-3.0, 3.0)) < 1e-9


def test_pde_residual_degenerate():
    field = SelfSimilarField(make_params(0.0, 0.0), 1.0)
    assert pde_residual_fd(field, (-3.0, 3.0), 0.05) == 0.0


def test_pde_window_out_of_range(sol_0_05):
    field = SelfSimilarField(sol_0_05.params, 1e-4, solution=sol_0_05)
    # tiny t squeezes the window far outside the dense profile grid
    with pytest.raises(GridRangeError):
        pde_residual_fd(field, (-30.0, 30.0), 0.05)


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
