"""Numerical evaluation of the Ablowitz-Segur solutions v(x; alpha, k) of

    v'' = x v + 2 v^3 - alpha

on the real line.  Trajectories are launched from the oscillatory region
(or, for alpha = 0, from the Airy-decay region on the right) with initial
data taken from the asymptotic models, and integrated with an adaptive
high-order embedded Runge-Kutta method with dense output.  A nonlinear
least-squares fit of the oscillatory tail provides an independent read-back
of the connection constants (d, phi).

The one evaluator, ``tuned_solution(p)``, is a cached
``AblowitzSegurSolution``: a single left launch from x = -240, seeded from
the oscillatory expansion through s^{-13/4}, with dense output on
[-240, 4] and the asymptotic models beyond.  Its seam at x = 4 is the
truncation floor of the decaying model there, below 5e-3 for d up to 1.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import least_squares

from .asymptotics import v_neg_asym, v_neg_launch, v_pos_asym
from .errors import (BlowupError, DomainError, FitConvergenceError,
                     GridRangeError)
from .specfun import airy_ai
from .stokes import ASParams, connection_constants, reduce_angle

__all__ = [
    "pii_rhs",
    "SolutionGrid",
    "solve_left_launch",
    "solve_right_launch_homogeneous",
    "fit_oscillation",
    "AblowitzSegurSolution",
    "tuned_solution",
    "dense_residual",
]

BLOWUP_THRESHOLD = 1.0e6

DEFAULT_TOL = 1.0e-10
DEFAULT_X_LEFT = -60.0
DEFAULT_X_MATCH = 4.0

_FIT_MAX_NFEV = 200  # least-squares evaluation budget of fit_oscillation
_FD_STEP = 1e-6  # central-difference step of dense_residual


def pii_rhs(x: float, v: float, alpha: float) -> float:
    """Right-hand side of the second-order equation: v'' = x v + 2 v^3 - alpha."""
    return x * v + 2.0 * v ** 3 - alpha


def _system(x, y, alpha):
    v = y[0]
    return (y[1], x * v + 2.0 * v * v * v - alpha)


def _blowup_event(x, y, alpha):
    return abs(y[0]) - BLOWUP_THRESHOLD


_blowup_event.terminal = True


@dataclass
class SolutionGrid:
    """Dense ODE output: solver abscissas, (v, v') states, and metadata.

    ``evaluate`` uses the integrator's dense output and is vectorized over x.
    A degenerate grid (identically zero solution) carries no interpolant.
    """

    abscissas: np.ndarray
    states: np.ndarray
    launch_point: float
    launch_side: str
    tolerance: float
    _dense: object = field(default=None, repr=False)

    @property
    def x_min(self) -> float:
        return float(min(self.abscissas[0], self.abscissas[-1]))

    @property
    def x_max(self) -> float:
        return float(max(self.abscissas[0], self.abscissas[-1]))

    def covers(self, x_lo: float, x_hi: float) -> bool:
        return self.x_min <= x_lo and x_hi <= self.x_max

    def evaluate(self, x):
        x_arr = np.asarray(x, dtype=float)
        if self._dense is None:
            v = np.zeros_like(x_arr)
            vp = np.zeros_like(x_arr)
        else:
            if np.any(x_arr < self.x_min - 1e-12) or np.any(x_arr > self.x_max + 1e-12):
                raise GridRangeError(
                    f"x outside grid range [{self.x_min:g}, {self.x_max:g}]")
            out = self._dense(x_arr)
            v, vp = out[0], out[1]
        if x_arr.ndim == 0:
            return float(v), float(vp)
        return v, vp


def _max_step_for(span_edges) -> float:
    # oscillation period ~ 2*pi/sqrt(s); cap the step at 1/20 of the
    # shortest period encountered on the span
    s_max = max(1.0, *(abs(e) for e in span_edges))
    return 2.0 * math.pi / (20.0 * math.sqrt(s_max))


def _integrate(y0, x_start, x_end, alpha, tol, launch_side):
    sol = solve_ivp(
        _system, (x_start, x_end), y0,
        method="DOP853",
        rtol=tol, atol=tol * 1e-6,
        dense_output=True,
        events=_blowup_event,
        max_step=_max_step_for((x_start, x_end)),
        args=(alpha,),
    )
    if sol.status == 1:
        raise BlowupError(
            f"|v| exceeded {BLOWUP_THRESHOLD:g} near x = {sol.t[-1]:.4g}; "
            "launch data error was amplified (the exact solution is pole-free)")
    if not sol.success:
        raise BlowupError(f"integration failed: {sol.message}")
    return SolutionGrid(sol.t, sol.y.T, float(x_start), launch_side, tol, sol.sol)


def _zero_grid(x_start, x_end, side, tol):
    xs = np.array([x_start, x_end], dtype=float)
    return SolutionGrid(xs, np.zeros((2, 2)), float(x_start), side, tol, None)


def solve_left_launch(p: ASParams, x_start: float = DEFAULT_X_LEFT,
                      x_end: float = DEFAULT_X_MATCH,
                      tol: float = DEFAULT_TOL) -> SolutionGrid:
    """Integrate rightward from the oscillatory region.

    Initial data comes from the oscillatory expansion through s^{-13/4}
    (``v_neg_launch``) at x_start <= -20; the far end must satisfy
    x_end <= 6, beyond which forward error growth makes accuracy claims
    meaningless.  From x_start = -60 the launch-data error is small enough
    that the turning-region amplification leaves the decaying tail at x = 4
    within ~1e-3 (the truncation floor of ``v_pos_asym`` there).
    """
    if x_start > -20.0:
        raise DomainError("left launch requires x_start <= -20")
    if not (x_start < x_end <= 6.0):
        raise DomainError("left launch requires x_start < x_end <= 6")
    if p.degenerate:
        return _zero_grid(x_start, x_end, "left", tol)
    c = connection_constants(p)
    y0 = v_neg_launch(x_start, p, c)
    return _integrate(y0, x_start, x_end, p.alpha, tol, "left")


def solve_right_launch_homogeneous(k: float, x_start: float = 12.0,
                                   x_end: float = DEFAULT_X_LEFT,
                                   tol: float = DEFAULT_TOL) -> SolutionGrid:
    """Integrate leftward from Airy-decay initial data (alpha = 0 family).

    Seeds (v, v') = k (Ai, Ai')(x_start); only valid for |k| < 1, and only
    the homogeneous family admits this boundary characterization.
    """
    if abs(k) >= 1.0:
        raise DomainError("right launch requires |k| < 1")
    if x_start < 8.0:
        raise DomainError("right launch requires x_start >= 8")
    if x_end >= x_start:
        raise DomainError("right launch integrates leftward: x_end < x_start")
    if k == 0.0:
        return _zero_grid(x_start, x_end, "right", tol)
    ai, aip = airy_ai(x_start)
    return _integrate((k * ai, k * aip), x_start, x_end, 0.0, tol, "right")


def fit_oscillation(grid: SolutionGrid, window: tuple[float, float],
                    alpha: float) -> tuple[float, float]:
    """Recover (d, phi) by least squares against the oscillatory tail model.

    The window must lie on the negative axis, be covered by the grid, and
    span at least three oscillation periods.  Initial guesses come from the
    s^{1/4}-rescaled envelope and a coarse phase scan.
    """
    x_lo, x_hi = float(window[0]), float(window[1])
    if not (x_lo < x_hi < 0.0):
        raise DomainError("fit window must satisfy x_lo < x_hi < 0")
    if not grid.covers(x_lo, x_hi):
        raise GridRangeError("grid does not cover the fit window")
    period_max = 2.0 * math.pi / math.sqrt(-x_hi)
    if (x_hi - x_lo) < 3.0 * period_max:
        raise DomainError("fit window shorter than 3 oscillation periods")
    n = max(600, int(40.0 * (x_hi - x_lo) / (2.0 * math.pi / math.sqrt(-x_lo))))
    xs = np.linspace(x_lo, x_hi, n)
    data = grid.evaluate(xs)[0]
    s = -xs
    background = alpha / xs
    resid0 = data - background
    d0 = float(np.max(np.abs(resid0) * s ** 0.25))
    if d0 == 0.0:
        return 0.0, 0.0

    def model_resid(theta):
        d, phi = theta
        psi = (2.0 / 3.0) * s ** 1.5 - 0.75 * d * d * np.log(s) + phi
        return d * s ** -0.25 * np.cos(psi) + background - data

    best_phi, best_cost = 0.0, math.inf
    for phi_try in np.linspace(-math.pi, math.pi, 64, endpoint=False):
        cost = float(np.sum(model_resid((d0, phi_try)) ** 2))
        if cost < best_cost:
            best_phi, best_cost = phi_try, cost
    res = least_squares(model_resid, (d0, best_phi),
                        bounds=((0.0, -2.0 * math.pi), (np.inf, 2.0 * math.pi)),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=_FIT_MAX_NFEV)
    if not res.success or not np.all(np.isfinite(res.x)):
        raise FitConvergenceError(f"oscillation fit did not converge: {res.message}")
    d_fit, phi_fit = res.x
    return float(d_fit), reduce_angle(float(phi_fit))


class AblowitzSegurSolution:
    """Piecewise evaluator for v(x; alpha, k) over the whole real line.

    Left of the dense window [x_left, x_match] = [-240, 4] the oscillatory
    model is used, on it the dense output of one left launch from x_left
    (``solve_left_launch``, seeded from the expansion through s^{-13/4}),
    and right of x_match the decaying model.  The jump at the right seam is
    recorded at construction time; it sits at the truncation floor of the
    decaying model there (~3e-4 to ~1e-3 for the acceptance pairs).
    """

    x_left = -240.0
    x_match = DEFAULT_X_MATCH

    def __init__(self, params: ASParams):
        self.params = params
        self.connection = None if params.degenerate else connection_constants(params)
        self.grid = solve_left_launch(params, self.x_left, self.x_match, DEFAULT_TOL)
        v_grid = self.grid.evaluate(self.x_match)[0]
        self.seam_jump = abs(v_grid - v_pos_asym(self.x_match, params.alpha)[0])

    def v(self, x):
        """Return (v, v') at x (scalar or array)."""
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr).astype(float)
        v = np.empty_like(x_arr)
        vp = np.empty_like(x_arr)
        if self.params.degenerate:
            v[:] = 0.0
            vp[:] = 0.0
        else:
            left = x_arr < self.x_left
            right = x_arr > self.x_match
            mid = ~(left | right)
            if np.any(left):
                v[left], vp[left] = v_neg_asym(x_arr[left], self.params,
                                               self.connection, True)
            if np.any(mid):
                v[mid], vp[mid] = self.grid.evaluate(x_arr[mid])
            if np.any(right):
                v[right], vp[right] = v_pos_asym(x_arr[right], self.params.alpha)
        if scalar:
            return float(v[0]), float(vp[0])
        return v, vp


@lru_cache(maxsize=32)
def tuned_solution(p: ASParams) -> AblowitzSegurSolution:
    """The evaluator for p, cached per parameter pair (bounded, least
    recently used first out): solves take seconds and grids are immutable."""
    return AblowitzSegurSolution(p)


def dense_residual(grid: SolutionGrid, xs, alpha: float) -> float:
    """Max |d(v')/dx - (x v + 2 v^3 - alpha)| over xs, differentiating the
    dense-output interpolant."""
    xs = np.asarray(xs, dtype=float)
    if grid._dense is None:
        return 0.0
    v, _ = grid.evaluate(xs)
    vp_plus = grid.evaluate(xs + _FD_STEP)[1]
    vp_minus = grid.evaluate(xs - _FD_STEP)[1]
    implied = (vp_plus - vp_minus) / (2.0 * _FD_STEP)
    return float(np.max(np.abs(implied - (xs * v + 2.0 * v ** 3 - alpha))))
