"""ODE evaluation of v(x; alpha, k): launches, dense grids, oscillation fits."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from painleve_mkdv.asymptotics import v_neg_asym, v_neg_launch
from painleve_mkdv.errors import (BlowupError, DomainError, GridRangeError)
from painleve_mkdv.pii import (dense_residual, fit_oscillation, pii_rhs,
                               solve_left_launch,
                               solve_right_launch_homogeneous, tuned_solution,
                               _integrate, _max_step_for)
from painleve_mkdv.specfun import airy_ai
from painleve_mkdv.stokes import connection_constants, make_params


def test_pii_rhs_values():
    assert pii_rhs(0.0, 0.0, 0.0) == 0.0
    assert pii_rhs(1.0, 1.0, 0.0) == 3.0
    assert pii_rhs(-2.0, 0.5, 0.25) == pytest.approx(-1.0, abs=1e-15)


def test_degenerate_zero_grid():
    g = solve_left_launch(make_params(0.0, 0.0), -40.0, 4.0, 1e-10)
    xs = np.linspace(-40.0, 4.0, 10)
    v, vp = g.evaluate(xs)
    assert np.all(v == 0.0) and np.all(vp == 0.0)
    assert tuned_solution(make_params(0.0, 0.0)).v(1.2345) == (0.0, 0.0)


def test_launch_domain_validation():
    p = make_params(0.0, 0.5)
    with pytest.raises(DomainError):
        solve_left_launch(p, -10.0, 4.0)
    with pytest.raises(DomainError):
        solve_left_launch(p, -40.0, 8.0)
    with pytest.raises(DomainError):
        solve_right_launch_homogeneous(1.2)
    with pytest.raises(DomainError):
        solve_right_launch_homogeneous(0.5, 5.0)


def test_two_launch_agreement_at_origin():
    # launch-data error budget: 2 * 40^{-7/4} + integration tolerance
    p = make_params(0.0, 0.5)
    g40 = solve_left_launch(p, -40.0, 0.5, 1e-10)
    g60 = solve_left_launch(p, -60.0, 0.5, 1e-10)
    diff = abs(g40.evaluate(0.0)[0] - g60.evaluate(0.0)[0])
    assert diff < 2.0 * 40.0 ** -1.75 + 1e-6


def test_right_launch_cross_validation():
    # independent read-back of the connection constants (alpha = 0 family)
    grid = solve_right_launch_homogeneous(0.5, 12.0, -60.0, 1e-11)
    d_fit, phi_fit = fit_oscillation(grid, (-60.0, -30.0), 0.0)
    c = connection_constants(make_params(0.0, 0.5))
    assert abs(d_fit - c.d) < 1e-2
    assert abs(math.remainder(phi_fit - c.phi, 2.0 * math.pi)) < 5e-2


def test_near_boundary_probe_degrades():
    # approaching |k| = 1 the Airy seed mis-scales; the fit error grows by
    # orders of magnitude relative to k = 0.5 (measured ~4e-3 vs ~4e-5)
    grid = solve_right_launch_homogeneous(0.999, 12.0, -60.0, 1e-10)
    d_fit, _ = fit_oscillation(grid, (-60.0, -30.0), 0.0)
    d_true = math.sqrt(-math.log(1.0 - 0.999 ** 2) / math.pi)
    assert abs(d_fit - d_true) > 5e-4


class _ModelGrid:
    """Synthetic stand-in grid built from the oscillatory model itself."""

    def __init__(self, d, phi, alpha):
        self.d, self.phi, self.alpha = d, phi, alpha

    def covers(self, x_lo, x_hi):
        return True

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        s = -x
        psi = (2.0 / 3.0) * s ** 1.5 - 0.75 * self.d ** 2 * np.log(s) + self.phi
        v = self.d * s ** -0.25 * np.cos(psi) + self.alpha / x
        return v, np.zeros_like(v)


def test_fit_oscillation_round_trip():
    grid = _ModelGrid(0.3, 1.0, 0.0)
    d_fit, phi_fit = fit_oscillation(grid, (-60.0, -30.0), 0.0)
    assert abs(d_fit - 0.3) < 1e-10
    assert abs(phi_fit - 1.0) < 1e-10


def test_fit_oscillation_window_validation():
    grid = _ModelGrid(0.3, 1.0, 0.0)
    with pytest.raises(DomainError):
        fit_oscillation(grid, (-31.0, -30.0), 0.0)  # < 3 periods
    g = solve_left_launch(make_params(0.0, 0.3), -30.0, 4.0, 1e-8)
    with pytest.raises(GridRangeError):
        fit_oscillation(g, (-60.0, -35.0), 0.0)


def test_left_launch_self_consistency():
    # the launch grid reproduces the (d, phi) it was seeded with
    p = make_params(0.25, 0.3)
    c = connection_constants(p)
    g = solve_left_launch(p, -60.0, 4.0, 1e-10)
    d_fit, phi_fit = fit_oscillation(g, (-55.0, -25.0), p.alpha)
    assert abs(d_fit - c.d) < 2e-3
    assert abs(math.remainder(phi_fit - c.phi, 2.0 * math.pi)) < 1e-2


def test_reversal_consistency():
    p = make_params(0.0, 0.5)
    c = connection_constants(p)
    y0 = v_neg_asym(-40.0, p, c, True)
    fwd = _integrate(y0, -40.0, 0.0, 0.0, 1e-10, "left")
    y_mid = fwd.evaluate(0.0)
    back = _integrate(y_mid, 0.0, -40.0, 0.0, 1e-10, "left")
    y_back = back.evaluate(-40.0)
    assert abs(y_back[0] - y0[0]) < 100.0 * 1e-10
    assert abs(y_back[1] - y0[1]) < 100.0 * 1e-10 * 10.0


def _scipy_dop853(y0, x_start, x_end, alpha, tol):
    return solve_ivp(lambda x, y: (y[1], pii_rhs(x, y[0], alpha)), (x_start, x_end),
                     y0, method="DOP853", rtol=tol, atol=tol * 1e-6,
                     dense_output=True, max_step=_max_step_for((x_start, x_end)))


@pytest.mark.parametrize("launch", ["left", "right"])
def test_stepper_matches_scipy_dop853(launch):
    # same tableau and step control as scipy's DOP853: the same steps, and
    # dense values that differ only by rounding
    if launch == "left":
        p = make_params(0.0, 0.5)
        x0, x1, tol = -240.0, 4.0, 1e-10
        y0 = v_neg_launch(x0, p, connection_constants(p))
        grid = solve_left_launch(p, x0, x1, tol)
    else:
        x0, x1, tol = 12.0, -60.0, 1e-11
        y0 = tuple(0.5 * a for a in airy_ai(x0))
        grid = solve_right_launch_homogeneous(0.5, x0, x1, tol)
    ref = _scipy_dop853(y0, x0, x1, 0.0, tol)
    assert len(grid.abscissas) == len(ref.t)
    xs = np.linspace(min(x0, x1), max(x0, x1), 4001)
    for pts in (xs, grid.abscissas, np.array([x0, x1])):
        assert np.max(np.abs(np.array(grid.evaluate(pts)) - ref.sol(pts))) < 1e-10


def test_blowup_raises_with_location():
    # v(0) = 3 blows up well before x = 5; the error names where
    with pytest.raises(BlowupError) as info:
        _integrate((3.0, 0.0), 0.0, 5.0, 0.0, 1e-10, "left")
    x_reached = float(str(info.value).split("near x = ")[1].split(";")[0])
    assert 0.0 < x_reached < 5.0


def test_dense_residual_consistency():
    # the dense interpolant obeys the equation; the finite-difference probe
    # of the interpolant bottoms out near 1e-8 (interpolation error), well
    # below any model scale used downstream
    p = make_params(0.0, 0.5)
    g = solve_left_launch(p, -40.0, 4.0, 1e-10)
    xs = np.linspace(-38.0, 3.0, 200)
    assert dense_residual(g, xs, 0.0) < 2e-7


@pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.25, 0.4])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pole_freeness_matrix(alpha, sign):
    # No blow-up across the oscillatory region for the admissible matrix.
    # Transport past the turning point is excluded here: near the family
    # boundary (alpha = 0.4, |k| ~ 0.97 cos(pi alpha)) the launch-data error
    # amplified by the x > 0 growing mode can leave the bounded basin even
    # though the exact solution is pole-free.
    for frac in (0.3, 0.6 * math.cos(math.pi * alpha)):
        k = sign * frac
        if abs(k) >= math.cos(math.pi * alpha):
            continue
        p = make_params(alpha, k)
        solve_left_launch(p, -60.0, 0.0, 1e-9)  # raises BlowupError on poles


def test_evaluator_dispatch(sol_025_03):
    sol = sol_025_03
    # far right: decaying model
    v10, _ = sol.v(10.0)
    assert v10 == pytest.approx(0.025046875, abs=5e-3)
    # far left: oscillatory model
    c = sol.connection
    x = sol.x_left - 50.0
    assert sol.v(x)[0] == pytest.approx(
        v_neg_asym(x, sol.params, c, True)[0], abs=1e-15)
    # vector call mixes all three regions
    xs = np.array([sol.x_left - 10.0, -5.0, 0.0, sol.x_match + 3.0])
    v, vp = sol.v(xs)
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(vp))


def test_tuned_seam_meets_contract(sol_0_05, sol_025_03):
    assert sol_0_05.seam_jump < 5e-3
    assert sol_025_03.seam_jump < 5e-3


def test_seam_at_large_d():
    # d ~ 1.51, beyond the acceptance pairs: the seam at x = 4 stays at the
    # decaying-model floor
    assert tuned_solution(make_params(0.0, 0.9996)).seam_jump < 5e-3


def test_grid_range_error(sol_025_03):
    with pytest.raises(GridRangeError):
        sol_025_03.grid.evaluate(sol_025_03.x_match + 1.0)
