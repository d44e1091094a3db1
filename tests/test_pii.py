"""ODE evaluation of v(x; alpha, k): launches, dense grids, oscillation fits."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.integrate._ivp.rk import Dop853DenseOutput  # oracle only
from scipy.optimize import least_squares

import painleve_mkdv.pii as pii
from painleve_mkdv.asymptotics import (LAUNCH_DEPTHS, launch_depth, v_neg_asym,
                                      v_neg_launch)
from painleve_mkdv.errors import (BlowupError, DomainError, FitConvergenceError,
                                  GridRangeError)
from painleve_mkdv.pii import (fit_oscillation, pii_rhs, solve_left_launch,
                               solve_right_launch_homogeneous, tuned_solution,
                               _integrate, _max_step_for)
from painleve_mkdv.specfun import airy_ai
from painleve_mkdv.stokes import (ASParams, ConnectionConstants,
                                  connection_constants, make_params)


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


def test_zero_profile_is_solved_like_any_other():
    # the zero pair's grid is a real solve from (v, v') = (0, 0): exactly 0
    # on its range, and out of range it raises as every grid does
    sol = tuned_solution(make_params(0.0, 0.0))
    v, vp = sol.v(np.linspace(-300.0, 50.0, 3501))
    assert np.all(v == 0.0) and np.all(vp == 0.0)
    assert len(sol.grid.abscissas) > 2 and sol.seam_jump == 0.0
    with pytest.raises(GridRangeError):
        sol.grid.evaluate(10.0)


@pytest.mark.parametrize("x", [-5.0, 2.0])
def test_profile_near_the_zero_pair_is_k_ai(x):
    # at k = 1e-9 the profile is k Ai to within O(k^3); d^2 = 3.2e-19 is
    # kept by log1p, where ln((c - k)(c + k)) rounds it to 0
    k = 1e-9
    v = tuned_solution(make_params(0.0, k)).v(x)[0]
    assert abs(v / (k * airy_ai(x)[0]) - 1.0) < 1e-6


def test_launch_domain_validation():
    p = make_params(0.0, 0.5)
    with pytest.raises(DomainError, match="x_start <= -20"):
        solve_left_launch(p, -10.0, 4.0, 1e-10)
    with pytest.raises(DomainError, match="x_end <= 6"):
        solve_left_launch(p, -40.0, 8.0, 1e-10)
    with pytest.raises(DomainError, match=r"\|k\| < 1"):
        solve_right_launch_homogeneous(1.2, 12.0, -60.0, 1e-11)
    with pytest.raises(DomainError, match="x_start >= 8"):
        solve_right_launch_homogeneous(0.5, 5.0, -60.0, 1e-11)
    # unguarded, x_start = -inf and k = nan never return (a nan step size is
    # neither accepted nor rejected), a right launch to x_end = nan returns
    # a one-node grid, and the others fail deep in the solve
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="x_start"):
            solve_left_launch(p, bad, 4.0, 1e-10)
        with pytest.raises(DomainError, match="x_end"):
            solve_left_launch(p, -40.0, bad, 1e-10)
        with pytest.raises(DomainError, match=r"\|k\| < 1"):
            solve_right_launch_homogeneous(bad, 12.0, -60.0, 1e-10)
        with pytest.raises(DomainError, match="x_start"):
            solve_right_launch_homogeneous(0.5, bad, -60.0, 1e-10)
        with pytest.raises(DomainError, match="x_end"):
            solve_right_launch_homogeneous(0.5, 12.0, bad, 1e-10)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10, math.inf])
def test_launch_tolerance_validation(tol):
    # unguarded, nan keeps the step size at nan and never ends, 0 divides
    # by zero and a negative tol integrates anyway
    with pytest.raises(DomainError, match="tolerance"):
        solve_left_launch(make_params(0.0, 0.5), -40.0, 4.0, tol)
    with pytest.raises(DomainError, match="tolerance"):
        solve_right_launch_homogeneous(0.5, 12.0, -60.0, tol)


def test_two_launch_agreement_at_origin():
    # launch-data error budget: 2 * 40^{-7/4} + integration tolerance
    p = make_params(0.0, 0.5)
    g40 = solve_left_launch(p, -40.0, 0.5, 1e-10)
    g60 = solve_left_launch(p, -60.0, 0.5, 1e-10)
    diff = abs(g40.evaluate(0.0)[0] - g60.evaluate(0.0)[0])
    assert diff < 2.0 * 40.0 ** -1.75 + 1e-6


# k: bounds on the (d, phi) errors of the right-launch read-back, ~5-15x the
# measured 1.2e-12 / 7.1e-11, 1.8e-12 / 7.2e-11, 1.2e-12 / 6.7e-11,
# 3.9e-12 / 7.9e-11 and 1.3e-10 / 1.2e-9 at d = 0.17, 0.30, 0.73, 1.12, 1.41
# (1.9e-10 / 7.8e-9 up to 4.6e-7 / 4.4e-6 fitting the expansion through
# s^{-13/4}, 6.6e-6 / 3.7e-4 up to 4.2e-3 / 4.1e-2 fitting the leading model)
_READ_BACK_BOUNDS = {0.3: (2e-11, 1e-9), 0.5: (2e-11, 1e-9), 0.9: (2e-11, 1e-9),
                     0.99: (4e-11, 1e-9), 0.999: (1e-9, 1e-8)}


@pytest.mark.parametrize("k", sorted(_READ_BACK_BOUNDS))
def test_right_launch_read_back_near_the_edge(k):
    # independent read-back of the connection constants (alpha = 0 family)
    d_bound, phi_bound = _READ_BACK_BOUNDS[k]
    grid = solve_right_launch_homogeneous(k, 12.0, -60.0, 1e-11)
    d_fit, phi_fit = fit_oscillation(grid, (-60.0, -30.0), 0.0)
    c = connection_constants(make_params(0.0, k))
    assert abs(d_fit - c.d) < d_bound
    assert abs(math.remainder(phi_fit - c.phi, 2.0 * math.pi)) < phi_bound


@pytest.mark.parametrize("k", [0.3, 0.999])
def test_read_back_uses_the_solver_states(k, monkeypatch):
    # the fit reads the accepted states, never the dense output
    grid = solve_right_launch_homogeneous(k, 12.0, -60.0, 1e-11)

    def no_dense_output(self, x):
        raise AssertionError("fit_oscillation evaluated the dense output")

    monkeypatch.setattr(pii.SolutionGrid, "evaluate", no_dense_output)
    d_fit, phi_fit = fit_oscillation(grid, (-60.0, -30.0), 0.0)
    c = connection_constants(make_params(0.0, k))
    d_bound, phi_bound = _READ_BACK_BOUNDS[k]
    assert abs(d_fit - c.d) < d_bound
    assert abs(math.remainder(phi_fit - c.phi, 2.0 * math.pi)) < phi_bound


@pytest.mark.parametrize("k", [1e-9, 1e-7])
def test_read_back_phase_at_small_d(k):
    # d ~ 0.56 k: the fit's stopping tolerances must not act on the scale of d
    grid = solve_right_launch_homogeneous(k, 12.0, -60.0, 1e-11)
    d_fit, phi_fit = fit_oscillation(grid, (-60.0, -30.0), 0.0)
    c = connection_constants(make_params(0.0, k))
    assert abs(d_fit - c.d) < 1e-6 * c.d
    assert abs(math.remainder(phi_fit - c.phi, 2.0 * math.pi)) <= 1e-9


@pytest.mark.parametrize("k", [0.3, 0.99])
def test_fit_stops_on_its_gradient_tolerance(k, monkeypatch):
    # gtol lies above the optimality the fit reaches, so the fit stops there
    # (status 1), not one evaluation later on xtol (status 3)
    results = []

    def recorded(*args, **kwargs):
        results.append(least_squares(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pii, "least_squares", recorded)
    grid = solve_right_launch_homogeneous(k, 12.0, -60.0, 1e-11)
    fit_oscillation(grid, (-60.0, -30.0), 0.0)
    assert [r.status for r in results] == [1]


def test_read_back_of_the_zero_grid():
    # k = 0 gives the zero profile, whose nodes in the window all carry v = 0
    grid = solve_right_launch_homogeneous(0.0, 12.0, -60.0, 1e-11)
    assert fit_oscillation(grid, (-50.0, -30.0), 0.0) == (0.0, 0.0)


def _model_grid(d, phi, alpha):
    """Synthetic grid: the launch expansion itself, sampled at the step cap of
    a launch from -60."""
    xs = np.arange(-60.0, -20.0, _max_step_for((-60.0, 4.0)))
    states = np.column_stack(v_neg_launch(xs, ASParams(alpha, 0.0),
                                          ConnectionConstants(d, phi)))
    return pii.SolutionGrid(xs, states)


def test_fit_oscillation_round_trip():
    grid = _model_grid(0.3, 1.0, 0.0)
    d_fit, phi_fit = fit_oscillation(grid, (-60.0, -30.0), 0.0)
    assert abs(d_fit - 0.3) < 1e-10
    assert abs(phi_fit - 1.0) < 1e-10


def test_grid_without_dense_output_raises_typed_error():
    # a grid of states alone has no interpolant; evaluating it must say so
    grid = _model_grid(0.3, 1.0, 0.0)
    with pytest.raises(GridRangeError, match="dense output"):
        grid.evaluate(-30.0)
    with pytest.raises(GridRangeError, match="dense output"):
        grid.evaluate(np.linspace(-50.0, -30.0, 5))


def test_fit_oscillation_window_validation():
    grid = _model_grid(0.3, 1.0, 0.0)
    with pytest.raises(DomainError):
        fit_oscillation(grid, (-31.0, -30.0), 0.0)  # < 3 periods
    g = solve_left_launch(make_params(0.0, 0.3), -30.0, 4.0, 1e-8)
    with pytest.raises(GridRangeError):
        fit_oscillation(g, (-60.0, -35.0), 0.0)


def test_fit_oscillation_budget_exhausted(monkeypatch):
    monkeypatch.setattr(pii, "_FIT_MAX_NFEV", 1)
    with pytest.raises(FitConvergenceError):
        fit_oscillation(_model_grid(0.3, 1.0, 0.0), (-60.0, -30.0), 0.0)


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
    fwd = _integrate(y0, -40.0, 0.0, 0.0, 1e-10)
    y_mid = fwd.evaluate(0.0)
    back = _integrate(y_mid, 0.0, -40.0, 0.0, 1e-10)
    y_back = back.evaluate(-40.0)
    assert abs(y_back[0] - y0[0]) < 100.0 * 1e-10
    assert abs(y_back[1] - y0[1]) < 100.0 * 1e-10 * 10.0


def _scipy_dop853(y0, x_start, x_end, alpha, tol):
    return solve_ivp(lambda x, y: (y[1], pii_rhs(x, y[0], alpha)), (x_start, x_end),
                     y0, method="DOP853", rtol=tol, atol=tol * 1e-6,
                     dense_output=True, max_step=_max_step_for((x_start, x_end)))


# (alpha, k, launch point) of the left launches to 4 at tol 1e-10; alpha != 0
# checks the step's -alpha term
_LEFT_LAUNCHES = {"left": (0.0, 0.5, -240.0), "left-alpha": (0.25, 0.3, -60.0)}


@pytest.mark.parametrize("launch", ["left", "right", "left-alpha"])
def test_stepper_matches_scipy_dop853(launch):
    # same tableau and step control as scipy's DOP853: the same steps, and
    # dense values that differ only by rounding
    if launch in _LEFT_LAUNCHES:
        alpha, k, x0 = _LEFT_LAUNCHES[launch]
        p = make_params(alpha, k)
        x1, tol = 4.0, 1e-10
        y0 = v_neg_launch(x0, p, connection_constants(p))
        grid = solve_left_launch(p, x0, x1, tol)
    else:
        alpha, x0, x1, tol = 0.0, 12.0, -60.0, 1e-11
        y0 = tuple(0.5 * a for a in airy_ai(x0))
        grid = solve_right_launch_homogeneous(0.5, x0, x1, tol)
    ref = _scipy_dop853(y0, x0, x1, alpha, tol)
    assert len(grid.abscissas) == len(ref.t)
    xs = np.linspace(min(x0, x1), max(x0, x1), 4001)
    for pts in (xs, grid.abscissas, np.array([x0, x1])):
        assert np.max(np.abs(np.array(grid.evaluate(pts)) - ref.sol(pts))) < 1e-10


# the DOP853 step as loops over scipy's tableau rows, zero coefficients
# dropped: the reference for the generated straight-line step
_C = [float(c) for c in _dop.C[:_dop.N_STAGES]]
_A_ROWS = [[(j, float(a)) for j, a in enumerate(row[:s]) if a != 0.0]
           for s, row in enumerate(_dop.A[:_dop.N_STAGES])]
_B = [(j, float(b)) for j, b in enumerate(_dop.B) if b != 0.0]
_E5 = [(j, float(e)) for j, e in enumerate(_dop.E5) if e != 0.0]
_E3 = [(j, float(e)) for j, e in enumerate(_dop.E3) if e != 0.0]


def _loop_step(x, v, w, fw, h, alpha):
    kv, kw = [w], [fw]
    for c, row in zip(_C[1:], _A_ROWS[1:]):
        dv = dw = 0.0
        for j, a in row:
            dv += a * kv[j]
            dw += a * kw[j]
        kv.append(w + dw * h)
        kw.append(pii_rhs(x + c * h, v + dv * h, alpha))
    dv = dw = 0.0
    for j, b in _B:
        dv += b * kv[j]
        dw += b * kw[j]
    v_new, w_new = v + h * dv, w + h * dw
    kv.append(w_new)
    kw.append(pii_rhs(x + h, v_new, alpha))
    errors = []
    for table in (_E5, _E3):
        ev = ew = 0.0
        for j, e in table:
            ev += e * kv[j]
            ew += e * kw[j]
        errors += [ev, ew]
    return (v_new, w_new, *errors, tuple(kv + kw))


def _bits(step_result):
    *values, stages = step_result
    return [float(u).hex() for u in (*values, *stages)]


def test_generated_step_matches_loop_step():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        x = rng.uniform(-240.0, 12.0)
        v, w = rng.normal(size=2) * 10.0 ** rng.uniform(-8.0, 1.0)
        alpha = rng.uniform(-0.5, 0.5)
        fw = pii_rhs(x, v, alpha) if rng.uniform() < 0.5 else rng.normal()
        h = math.copysign(10.0 ** rng.uniform(-8.0, 0.0), rng.uniform(-1.0, 1.0))
        args = (x, v, w, fw, h, alpha)
        assert _bits(pii._dop853_step(*args)) == _bits(_loop_step(*args))


def _launches():
    p = make_params(0.25, 0.3)
    yield lambda: solve_left_launch(p, -240.0, 4.0, 1e-10)
    yield lambda: solve_right_launch_homogeneous(0.5, 12.0, -60.0, 1e-11)


@pytest.mark.parametrize("launch", list(_launches()), ids=["left", "right"])
def test_generated_step_solve_is_bit_identical(launch, monkeypatch):
    grid = launch()
    monkeypatch.setattr(pii, "_dop853_step", _loop_step)
    ref = launch()
    xs = np.linspace(grid.x_min, grid.x_max, 4001)
    assert np.array_equal(grid.abscissas, ref.abscissas)
    assert np.array_equal(grid.states, ref.states)
    assert np.array_equal(grid.evaluate(xs), ref.evaluate(xs))
    assert (grid.rejected_steps, grid.rhs_evals) == (ref.rejected_steps, ref.rhs_evals)


@pytest.mark.parametrize("launch", list(_launches()), ids=["left", "right"])
def test_dense_output_is_scipys_interpolant(launch):
    # the stacked store evaluates bit for bit as scipy's own per-step
    # interpolants built from the same arrays, ascending and descending
    grid = launch()
    ts = grid.abscissas
    ref = OdeSolution(ts, [Dop853DenseOutput(*ts[i:i + 2].tolist(), grid.states[i], f)
                           for i, f in enumerate(grid.coefficients)])
    xs = np.linspace(grid.x_min, grid.x_max, 20001)
    for pts in (xs, xs[::-1], ts):
        assert np.array_equal(grid.evaluate(pts), ref(pts))
    for x in (*xs[::1000], *ts[::100]):
        assert grid.evaluate(x) == tuple(ref(x))


def test_launch_holds_its_dense_output_compactly():
    # one -60 -> 4 launch (1579 steps) with its evaluator built holds 0.22 MB
    # as one stacked coefficient array, against 0.90 MB as one scipy
    # interpolant object per step
    p = make_params(0.25, 0.3)
    solve_left_launch(p, -60.0, 4.0, pii.LAUNCH_TOL)  # fills the launch caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid = solve_left_launch(p, -60.0, 4.0, pii.LAUNCH_TOL)
        grid.evaluate(0.0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.3e6


def test_cached_grid_is_read_only(sol_025_03):
    # tuned_solution hands every caller the same grid: a write must raise,
    # not move the next caller's profile
    grid = sol_025_03.grid
    with pytest.raises(ValueError):
        grid.states[:, 0] = 0.0
    for a in (grid.abscissas, grid.coefficients):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("launch", list(_launches()), ids=["left", "right"])
def test_step_record_bookkeeping(launch, monkeypatch):
    # every attempted step is one call of the step, and the record counts
    # every evaluation of f: 12 per attempt plus those made through pii_rhs
    counts = {"steps": 0, "rhs": 0}
    step, rhs = pii._dop853_step, pii.pii_rhs

    def counted_step(*args):
        counts["steps"] += 1
        return step(*args)

    def counted_rhs(x, v, alpha):
        out = rhs(x, v, alpha)
        counts["rhs"] += np.size(out)
        return out

    monkeypatch.setattr(pii, "_dop853_step", counted_step)
    monkeypatch.setattr(pii, "pii_rhs", counted_rhs)
    grid = launch()
    accepted = len(grid.abscissas) - 1
    assert grid.rejected_steps == counts["steps"] - accepted
    assert grid.rhs_evals == counts["rhs"] + 12 * counts["steps"]


def test_step_record_matches_scipy_on_rejections():
    # a trajectory heading for a pole: scipy rejects 7 of its 34 attempts,
    # and its nfev (dense stages included) is the record's rhs_evals
    grid = _integrate((0.0, 1.0), 0.0, 1.5, 0.0, 1e-10)
    ref = _scipy_dop853((0.0, 1.0), 0.0, 1.5, 0.0, 1e-10)
    assert len(grid.abscissas) == len(ref.t)
    assert grid.rejected_steps == 7
    assert grid.rhs_evals == ref.nfev


def test_blowup_raises_with_location():
    # v(0) = 3 blows up well before x = 5; the error names where
    with pytest.raises(BlowupError) as info:
        _integrate((3.0, 0.0), 0.0, 5.0, 0.0, 1e-10)
    x_reached = float(str(info.value).split("near x = ")[1].split(";")[0])
    assert 0.0 < x_reached < 5.0


def test_dense_residual_consistency():
    # the dense interpolant obeys the equation; the central difference of its
    # v' bottoms out near 1e-8 (interpolation error), well below any model
    # scale used downstream
    p = make_params(0.0, 0.5)
    g = solve_left_launch(p, -40.0, 4.0, 1e-10)
    xs = np.linspace(-38.0, 3.0, 200)
    h = 1e-6
    implied = (g.evaluate(xs + h)[1] - g.evaluate(xs - h)[1]) / (2.0 * h)
    assert np.max(np.abs(implied - pii_rhs(xs, g.evaluate(xs)[0], 0.0))) < 2e-7


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
    # far left: the launch expansion the grid is seeded from
    x = sol.x_left - 50.0
    assert sol.v(x) == v_neg_launch(x, sol.params, sol.connection)
    # vector call mixes all three regions
    xs = np.array([sol.x_left - 10.0, -5.0, 0.0, sol.x_match + 3.0])
    v, vp = sol.v(xs)
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(vp))


def test_evaluator_continuous_at_x_left(sol_025_03):
    # the grid starts from v_neg_launch(x_left), so the two sides meet there
    # (4.6e-6 in v with the leading model on the left)
    sol = sol_025_03
    outside = np.nextafter(sol.x_left, -np.inf)
    for got, want in zip(sol.v(outside), sol.v(sol.x_left)):
        assert abs(got - want) < 1e-12


def test_tuned_seam_meets_contract(sol_0_05, sol_025_03):
    assert sol_0_05.seam_jump < 5e-3
    assert sol_025_03.seam_jump < 5e-3


def test_seam_at_large_d():
    # d ~ 1.51, beyond the acceptance pairs: the seam at x = 4 stays at the
    # decaying-model floor
    assert tuned_solution(make_params(0.0, 0.9996)).seam_jump < 5e-3


# k: bounds on the evaluator's error on [-20, -5] against the Airy-seeded
# right launch, the errors measured from a launch at x = -240 with the
# expansion through s^{-13/4} (d = 0.17, 0.30, 0.73, 1.12, 1.41); from -60
# with that expansion they were 9.0e-11, 1.8e-10, 1.1e-9, 5.6e-8 and 5.0e-7,
# and through s^{-25/4} 5.8e-11, 9.8e-11, 2.0e-10, 2.2e-10 and 1.9e-10
_PROFILE_BOUNDS = {0.3: 4.6e-10, 0.5: 7.7e-10, 0.9: 1.4e-9, 0.99: 1.1e-9,
                   0.999: 3.8e-9}


@pytest.mark.parametrize("k", sorted(_PROFILE_BOUNDS))
def test_profile_matches_right_launch(k):
    # the reference runs on to -60 so that its step cap is the profile's
    ref = solve_right_launch_homogeneous(k, 12.0, -60.0, 1e-12)
    sol = tuned_solution(make_params(0.0, k))
    xs = np.linspace(-20.0, -5.0, 1501)
    assert np.max(np.abs(sol.v(xs)[0] - ref.evaluate(xs)[0])) < _PROFILE_BOUNDS[k]


def _pair_with_d(alpha, d):
    return make_params(alpha, math.sqrt(math.cos(math.pi * alpha) ** 2
                                        - math.exp(-math.pi * d * d)))


@pytest.mark.parametrize("alpha, d", [(0.0, 0.5), (0.2, 1.0), (0.2, 1.7),
                                      (0.35, 2.0), (0.45, 2.6), (0.1, 3.0)])
def test_launch_point_is_odd_symmetric(alpha, d):
    # v(x; -alpha, -k) = -v(x; alpha, k) needs both profiles on one grid
    p = _pair_with_d(alpha, d)
    q = make_params(-p.alpha, -p.k)
    launch = [launch_depth(connection_constants(r), r.alpha) for r in (p, q)]
    assert launch[0] == launch[1]


def test_launch_point_follows_the_omitted_orders():
    # shallow launches for small d, deeper ones for larger d, and the
    # estimate meets the solve's tolerance (to rounding) wherever x_left is
    # not at its cap
    tol = pii.LAUNCH_TOL * (1.0 + 1e-12)
    s_min, s_max = LAUNCH_DEPTHS
    depths = []
    for d in (0.5, 1.5, 1.9, 2.3, 2.8, 4.0):
        s, err = launch_depth(ConnectionConstants(d, 0.0), 0.3)
        assert err <= tol or s == s_max
        depths.append(s)
    assert depths[0] == s_min and depths[-1] == s_max
    assert depths == sorted(depths) and s_min < depths[2] < depths[3] < s_max
    sol = tuned_solution(_pair_with_d(0.3, 1.7))
    assert sol.x_left == -launch_depth(sol.connection, 0.3)[0] < -s_min
    assert sol.grid.launch_point == sol.x_left
    assert sol.launch_error <= tol
    assert sol.seam_jump < 5e-3


def test_grid_range_error(sol_025_03):
    with pytest.raises(GridRangeError):
        sol_025_03.grid.evaluate(sol_025_03.x_match + 1.0)
