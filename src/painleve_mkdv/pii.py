"""Numerical evaluation of the Ablowitz-Segur solutions v(x; alpha, k) of

    v'' = x v + 2 v^3 - alpha

on the real line.  Trajectories are launched from the oscillatory region
(or, for alpha = 0, from the Airy-decay region on the right) with initial
data taken from the asymptotic models, and integrated with an adaptive
high-order embedded Runge-Kutta method with dense output.  A nonlinear
least-squares fit of the oscillatory tail provides an independent read-back
of the connection constants (d, phi).

The integrator is DOP853 written out for the 2-state system (v, v') on
Python floats.  Its tableau is scipy's (``scipy.integrate._ivp.
dop853_coefficients``) and so is its step control (safety 0.9, step factor
in [0.2, 10], exponent -1/8, the err5/err3 RMS norm), so it takes the same
steps as ``solve_ivp(method="DOP853")`` without scipy's per-step numpy
work on a 2-vector, which took most of the time of a solve.
The three extra dense stages are formed for all steps in one numpy pass
after the loop, and the interpolants are scipy's ``Dop853DenseOutput``
inside a public ``OdeSolution``: dense evaluation stays scipy's tested code
path, and only the stepping that feeds it is new.

The one evaluator, ``tuned_solution(p)``, is a cached
``AblowitzSegurSolution``: a single left launch from x = -240, seeded from
the oscillatory expansion through s^{-13/4}, with dense output on
[-240, 4] and the asymptotic models beyond.  Its seam at x = 4 is the
truncation floor of the decaying model there, below 5e-3 for d up to 1.5.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import OdeSolution
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.integrate._ivp.rk import Dop853DenseOutput
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


# scipy's DOP853 tableau as Python floats, zero coefficients dropped, and the
# constants of its step controller (``scipy.integrate._ivp.rk``)
_C = [float(c) for c in _dop.C[:_dop.N_STAGES]]
_A_ROWS = [[(j, float(a)) for j, a in enumerate(row[:s]) if a != 0.0]
           for s, row in enumerate(_dop.A[:_dop.N_STAGES])]
_B = [(j, float(b)) for j, b in enumerate(_dop.B) if b != 0.0]
_E5 = [(j, float(e)) for j, e in enumerate(_dop.E5) if e != 0.0]
_E3 = [(j, float(e)) for j, e in enumerate(_dop.E3) if e != 0.0]
_N_KEPT = _dop.N_STAGES + 1  # the main stages plus f at the step end
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)


def _initial_step(x, v, w, fw, x_end, direction, max_step, alpha, rtol, atol):
    # Hairer, Norsett & Wanner, Sec. II.4, with the RMS norm over (v, v');
    # the derivative of (v, v') is (v', fw)
    sv, sw = atol + abs(v) * rtol, atol + abs(w) * rtol
    d0 = math.sqrt(((v / sv) ** 2 + (w / sw) ** 2) / 2.0)
    d1 = math.sqrt(((w / sv) ** 2 + (fw / sw) ** 2) / 2.0)
    span = abs(x_end - x)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    v1, w1 = v + h0 * direction * w, w + h0 * direction * fw
    fw1 = pii_rhs(x + h0 * direction, v1, alpha)
    d2 = math.sqrt((((w1 - w) / sv) ** 2 + ((fw1 - fw) / sw) ** 2) / 2.0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, span, max_step)


def _dense_output(xs, ys, stages, alpha):
    """scipy's DOP853 interpolants for every step, from the kept stages."""
    t = np.array(xs)
    y = np.frombuffer(ys).reshape(-1, 2)
    h = np.diff(t)
    n = len(h)
    k = np.frombuffer(stages).reshape(n, 2, _N_KEPT)
    extra = np.empty((n, 2, _dop.N_STAGES_EXTENDED - _N_KEPT))
    y_old = y[:-1]
    for i, s in enumerate(range(_N_KEPT, _dop.N_STAGES_EXTENDED)):
        a = _dop.A[s]
        dy = (k @ a[:_N_KEPT] + extra[:, :, :i] @ a[_N_KEPT:s]) * h[:, None]
        extra[:, 0, i] = y_old[:, 1] + dy[:, 1]
        extra[:, 1, i] = pii_rhs(t[:-1] + _dop.C[s] * h, y_old[:, 0] + dy[:, 0], alpha)
    delta = y[1:] - y_old
    f = np.empty((n, _dop.INTERPOLATOR_POWER, 2))
    f[:, 0] = delta
    f[:, 1] = h[:, None] * k[:, :, 0] - delta
    f[:, 2] = 2.0 * delta - h[:, None] * (k[:, :, _N_KEPT - 1] + k[:, :, 0])
    f[:, 3:] = h[:, None, None] * (np.einsum("ds,njs->ndj", _dop.D[:, :_N_KEPT], k)
                                   + np.einsum("ds,njs->ndj", _dop.D[:, _N_KEPT:], extra))
    return OdeSolution(t, [Dop853DenseOutput(t[i], t[i + 1], y_old[i], f[i])
                           for i in range(n)])


def _integrate(y0, x_start, x_end, alpha, tol, launch_side):
    """DOP853 from x_start to x_end (either direction) with dense output;
    raises ``BlowupError`` at the first step that ends with |v| above
    ``BLOWUP_THRESHOLD``."""
    rtol, atol = tol, tol * 1e-6
    max_step = _max_step_for((x_start, x_end))
    direction = 1.0 if x_end > x_start else -1.0
    x, x_end = float(x_start), float(x_end)
    v, w = float(y0[0]), float(y0[1])
    fw = pii_rhs(x, v, alpha)
    h_abs = _initial_step(x, v, w, fw, x_end, direction, max_step, alpha, rtol, atol)
    xs, ys, stages = [x], array("d", (v, w)), array("d")
    while direction * (x - x_end) < 0.0:
        min_step = 10.0 * abs(math.nextafter(x, direction * math.inf) - x)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise BlowupError(
                    f"integration failed near x = {x:.4g}: required step "
                    "size is less than spacing between numbers")
            x_new = x + h_abs * direction
            if direction * (x_new - x_end) > 0.0:
                x_new = x_end
            h = x_new - x
            h_abs = abs(h)
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
            sv = atol + max(abs(v), abs(v_new)) * rtol
            sw = atol + max(abs(w), abs(w_new)) * rtol
            e5v = e5w = e3v = e3w = 0.0
            for j, e in _E5:
                e5v += e * kv[j]
                e5w += e * kw[j]
            for j, e in _E3:
                e3v += e * kv[j]
                e3w += e * kw[j]
            err5 = (e5v / sv) ** 2 + (e5w / sw) ** 2
            err3 = (e3v / sv) ** 2 + (e3w / sw) ** 2
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if abs(v_new) > BLOWUP_THRESHOLD:
            raise BlowupError(
                f"|v| exceeded {BLOWUP_THRESHOLD:g} near x = {x_new:.4g}; "
                "launch data error was amplified (the exact solution is pole-free)")
        stages.extend(kv)
        stages.extend(kw)
        x, v, w, fw = x_new, v_new, w_new, kw[-1]
        xs.append(x)
        ys.extend((v, w))
    dense = _dense_output(xs, ys, stages, alpha)
    return SolutionGrid(dense.ts, np.frombuffer(ys).reshape(-1, 2),
                        float(x_start), launch_side, tol, dense)


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
    return float(np.max(np.abs(implied - pii_rhs(xs, v, alpha))))
