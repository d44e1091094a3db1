"""Numerical evaluation of the Ablowitz-Segur solutions v(x; alpha, k) of

    v'' = x v + 2 v^3 - alpha

on the real line.  Trajectories are launched from the oscillatory region
(or, for alpha = 0, from the Airy-decay region on the right) with initial
data taken from the asymptotic models, and integrated with an adaptive
high-order embedded Runge-Kutta method with dense output.  Least squares
of the launch expansion (``v_neg_launch``) on a grid's accepted states
reads the connection constants (d, phi) back; on an Airy-seeded right
launch that read-back is independent of the connection formulas.

The integrator is DOP853 written out for the 2-state system (v, v') on
Python floats.  Its tableau is scipy's (``scipy.integrate._ivp.
dop853_coefficients``) and so is its step control (safety 0.9, step factor
in [0.2, 10], exponent -1/8, the err5/err3 RMS norm), so it takes the same
steps as ``solve_ivp(method="DOP853")``.  The step is straight-line code
generated from the tableau at import, with every stage sum written out and
the right-hand side inlined; it rounds as a loop over the tableau rows does.
The three extra dense stages and all steps' interpolant coefficients are
formed in one numpy pass into one (n, 7, 2) array (~0.23 MB from -60 to 4),
evaluated bit for bit as scipy's DOP853 dense output in a public ``OdeSolution``.

The one evaluator, ``tuned_solution(p)``, is a cached
``AblowitzSegurSolution``: a single left launch from x_left, seeded from the
oscillatory expansion through s^{-25/4}, with dense output on
[x_left, 4]; left of x_left it is that expansion and right of 4 the
decaying model.  x_left is -60 unless the orders the expansion omits are
above the solve's tolerance there, which happens only for d above 1.3
(1.75 at alpha = 0); it reaches -240 at d ~ 3.35.  The seam at x = 4 is
the truncation floor of the decaying model there, below 5e-3 for d up to
1.5.

The zero profile, (alpha, k) = (0, 0), takes the same path with (d, phi) =
(0, 0): every model is then 0, and so is the solve from (v, v') = (0, 0).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np
from scipy.integrate import OdeSolution
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import least_squares

from .asymptotics import (LAUNCH_TOL, launch_depth, psi_tilde, v_neg_launch,
                          v_pos_asym)
from .errors import (BlowupError, DomainError, FitConvergenceError,
                     GridRangeError)
from .specfun import airy_ai
from .stokes import (ASParams, ConnectionConstants, connection_constants,
                     reduce_angle)

__all__ = [
    "pii_rhs",
    "SolutionGrid",
    "solve_left_launch",
    "solve_right_launch_homogeneous",
    "fit_oscillation",
    "AblowitzSegurSolution",
    "tuned_solution",
]

BLOWUP_THRESHOLD = 1.0e6

_FIT_MAX_NFEV = 200  # least-squares evaluation budget of fit_oscillation


def pii_rhs(x: float, v: float, alpha: float) -> float:
    """Right-hand side of the second-order equation: v'' = x v + 2 v^3 - alpha."""
    return x * v + 2.0 * v ** 3 - alpha


class _Interpolants:
    """A grid's steps as ``OdeSolution`` indexes them, each doing scipy's DOP853
    dense-output arithmetic on its row of the store.  One searchsorted + Horner
    pass replaces this once the benchmark can read its speed (ROADMAP item 6)."""

    def __init__(self, grid):
        self.ts, self.ys, self.fs = grid.abscissas, grid.states, grid.coefficients

    def __len__(self):
        return len(self.fs)

    def __getitem__(self, i):
        return partial(self._interpolate, i)

    def _interpolate(self, i, t):
        t = np.asarray(t)
        t_old = self.ts.item(i)
        x = (t - t_old) / (self.ts.item(i + 1) - t_old)
        x, y = x[:, None] if t.ndim else x, np.zeros(t.shape + (2,))
        for f, factor in zip(reversed(self.fs[i]), (x, 1 - x) * 4):
            y += f
            y *= factor
        y += self.ys[i]
        return y.T


@dataclass
class SolutionGrid:
    """Dense ODE output: solver abscissas, (v, v') states, and metadata.

    ``evaluate`` uses the integrator's dense output and is vectorized over x;
    every grid the solver returns carries one, the zero profile's included:
    read-only ``coefficients`` (n, 7, 2) for the steps from ``states[:-1]``,
    ~0.23 MB from -60 to 4.
    """

    abscissas: np.ndarray
    states: np.ndarray
    rejected_steps: int = 0  # accepted steps: len(abscissas) - 1
    rhs_evals: int = 0
    coefficients: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def _dense(self):
        return OdeSolution(self.abscissas, _Interpolants(self))

    @property
    def launch_point(self) -> float:
        return self.abscissas.item(0)

    @property
    def x_min(self) -> float:
        return float(min(self.abscissas[0], self.abscissas[-1]))

    @property
    def x_max(self) -> float:
        return float(max(self.abscissas[0], self.abscissas[-1]))

    def evaluate(self, x):
        if self.coefficients is None:
            raise GridRangeError("grid has no dense output (coefficients is None)")
        x_arr = np.asarray(x, dtype=float)
        if not np.all((x_arr >= self.x_min - 1e-12) & (x_arr <= self.x_max + 1e-12)):
            raise GridRangeError(
                f"x outside grid range [{self.x_min:g}, {self.x_max:g}]")
        v, vp = self._dense(x_arr)
        if x_arr.ndim == 0:
            return float(v), float(vp)
        return v, vp


def _max_step_for(span_edges) -> float:
    # oscillation period ~ 2*pi/sqrt(s); cap the step at 1/20 of the
    # shortest period encountered on the span
    s_max = max(1.0, *(abs(e) for e in span_edges))
    return 2.0 * math.pi / (20.0 * math.sqrt(s_max))


# constants of scipy's DOP853 step controller (``scipy.integrate._ivp.rk``)
_N_KEPT = _dop.N_STAGES + 1  # the main stages plus f at the step end
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)


def _generate_step():
    """``_dop853_step(x, v, w, fw, h, alpha)``, one DOP853 step of (v, v') from
    (v, w) with fw = f(x, v), compiled from scipy's tableau written out: each
    sum runs left to right from 0.0 without zero terms.  It returns (v_new,
    w_new, e5v, e5w, e3v, e3w, stages): 13 stages of v', then 13 of v''."""
    kv = ["w"] + [f"kv{s}" for s in range(1, _N_KEPT)]
    kw = ["fw"] + [f"kw{s}" for s in range(1, _N_KEPT)]

    def sums(coeffs):
        return [" + ".join(["0.0"] + [f"{float(a)!r} * {n}" for a, n in zip(coeffs, k)
                                      if a != 0.0]) for k in (kv, kw)]

    lines = ["def _dop853_step(x, v, w, fw, h, alpha):"]
    for s in range(1, _dop.N_STAGES):
        lines += ["dv, dw = {}, {}".format(*sums(_dop.A[s, :s])),
                  f"{kv[s]} = w + dw * h", "vs = v + dv * h",
                  f"{kw[s]} = (x + {float(_dop.C[s])!r} * h) * vs + 2.0 * vs ** 3 - alpha"]
    lines += ["v_new, w_new = v + h * ({}), w + h * ({})".format(*sums(_dop.B)),
              f"{kv[-1]} = w_new", f"{kw[-1]} = (x + h) * v_new + 2.0 * v_new ** 3 - alpha",
              "e5v, e5w = {}, {}".format(*sums(_dop.E5)),
              "e3v, e3w = {}, {}".format(*sums(_dop.E3)),
              f"return v_new, w_new, e5v, e5w, e3v, e3w, ({', '.join(kv + kw)})"]
    namespace = {}
    exec(compile("\n    ".join(lines), "<dop853 step>", "exec"), namespace)
    return namespace["_dop853_step"]


_dop853_step = _generate_step()


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


def _dense_coefficients(t, y, stages, alpha):
    """scipy's DOP853 interpolant coefficients, (n, 7, 2), from the kept stages."""
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
    return f


def _integrate(y0, x_start, x_end, alpha, tol):
    """DOP853 from x_start to x_end (either direction) with dense output;
    raises ``DomainError`` unless 0 < tol < inf, and ``BlowupError`` at the
    first step that ends with |v| above ``BLOWUP_THRESHOLD``."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"launch tolerance {tol!r} outside (0, inf)")
    rtol, atol = tol, tol * 1e-6
    max_step = _max_step_for((x_start, x_end))
    direction = 1.0 if x_end > x_start else -1.0
    x, x_end = float(x_start), float(x_end)
    v, w = float(y0[0]), float(y0[1])
    fw = pii_rhs(x, v, alpha)
    h_abs = _initial_step(x, v, w, fw, x_end, direction, max_step, alpha, rtol, atol)
    xs, ys, stages = [x], array("d", (v, w)), array("d")
    n_rejected = 0
    while direction * (x - x_end) < 0.0:
        min_step = 10.0 * abs(math.nextafter(x, direction * math.inf) - x)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a nan step is never accepted or rejected
                raise BlowupError(
                    f"integration failed near x = {x:.4g}: required step "
                    "size is less than spacing between numbers")
            x_new = x + h_abs * direction
            if direction * (x_new - x_end) > 0.0:
                x_new = x_end
            h = x_new - x
            h_abs = abs(h)
            v_new, w_new, e5v, e5w, e3v, e3w, k = _dop853_step(x, v, w, fw, h, alpha)
            sv = atol + max(abs(v), abs(v_new)) * rtol
            sw = atol + max(abs(w), abs(w_new)) * rtol
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
            n_rejected += 1
        if abs(v_new) > BLOWUP_THRESHOLD:
            raise BlowupError(
                f"|v| exceeded {BLOWUP_THRESHOLD:g} near x = {x_new:.4g}; "
                "launch data error was amplified (the exact solution is pole-free)")
        stages.extend(k)
        x, v, w, fw = x_new, v_new, w_new, k[-1]
        xs.append(x)
        ys.extend((v, w))
    t, y = np.array(xs), np.frombuffer(ys).reshape(-1, 2)
    f = _dense_coefficients(t, y, stages, alpha)
    t.flags.writeable = y.flags.writeable = f.flags.writeable = False  # profiles are shared
    n = len(xs) - 1  # f: twice before the loop, 12 per attempt, 3 per interpolant
    return SolutionGrid(t, y, n_rejected, 2 + 12 * (n + n_rejected) + 3 * n, f)


def solve_left_launch(p: ASParams, x_start: float, x_end: float,
                      tol: float) -> SolutionGrid:
    """Integrate rightward from the oscillatory region.

    Initial data comes from the oscillatory expansion (``v_neg_launch``) at
    x_start <= -20; the far end must satisfy x_end <= 6, beyond which
    forward error growth makes accuracy claims meaningless.  From
    x_start = -60 the launch-data error is small enough that the
    turning-region amplification leaves the decaying tail at x = 4 within
    ~1e-3 (the truncation floor of ``v_pos_asym`` there) for d up to 1.5.
    """
    if not -math.inf < x_start <= -20.0:
        raise DomainError("left launch requires a finite x_start <= -20")
    if not x_start < x_end <= 6.0:
        raise DomainError("left launch requires x_start < x_end <= 6")
    y0 = v_neg_launch(x_start, p, connection_constants(p))
    return _integrate(y0, x_start, x_end, p.alpha, tol)


def solve_right_launch_homogeneous(k: float, x_start: float, x_end: float,
                                   tol: float) -> SolutionGrid:
    """Integrate leftward from Airy-decay initial data (alpha = 0 family).

    Seeds (v, v') = k (Ai, Ai')(x_start); only valid for |k| < 1, and only
    the homogeneous family admits this boundary characterization.
    """
    if not abs(k) < 1.0:
        raise DomainError("right launch requires |k| < 1")
    if not 8.0 <= x_start < math.inf:
        raise DomainError("right launch requires a finite x_start >= 8")
    if not -math.inf < x_end < x_start:
        raise DomainError("right launch integrates leftward: a finite x_end < x_start")
    ai, aip = airy_ai(x_start)
    return _integrate((k * ai, k * aip), x_start, x_end, 0.0, tol)


def fit_oscillation(grid: SolutionGrid, window: tuple[float, float],
                    alpha: float) -> tuple[float, float]:
    """Recover (d, phi) by least squares against the launch expansion
    ``v_neg_launch``, the model the left launches are seeded from.

    The window must lie on the negative axis, be covered by the grid, and span
    at least three periods.  The data are v at the grid's nodes in it:
    ``_max_step_for`` caps each step at 1/20 of the period at the span's far
    end, at or beyond x_lo, so every period holds >= 20 nodes.  The start is
    linear: d0 from the s^{1/4}-rescaled envelope (0 on the zero grid), then
    (d cos phi, -d sin phi) by least squares on s^{-1/4} (cos, sin)(PsiTilde).
    """
    x_lo, x_hi = float(window[0]), float(window[1])
    if not (x_lo < x_hi < 0.0):
        raise DomainError("fit window must satisfy x_lo < x_hi < 0")
    if not grid.x_min <= x_lo < x_hi <= grid.x_max:
        raise GridRangeError("grid does not cover the fit window")
    if x_hi - x_lo < 6.0 * math.pi / math.sqrt(-x_hi):
        raise DomainError("fit window shorter than 3 oscillation periods")
    inside = (grid.abscissas >= x_lo) & (grid.abscissas <= x_hi)
    xs, data = grid.abscissas[inside], grid.states[inside, 0]
    s = -xs
    resid0 = data - alpha / xs
    d0 = float(np.max(np.abs(resid0) * s ** 0.25))
    if d0 == 0.0:
        return 0.0, 0.0
    psi0 = psi_tilde(s, ConnectionConstants(d0, 0.0))[0]
    basis = s[:, None] ** -0.25 * np.column_stack((np.cos(psi0), np.sin(psi0)))
    a, b = np.linalg.lstsq(basis, resid0, rcond=None)[0]
    p = ASParams(alpha, 0.0)

    def model_resid(theta):
        return (v_neg_launch(xs, p, ConnectionConstants(*theta))[0] - data) / d0

    # residuals in units of d0, so the tolerances act alike at every d; the
    # fit is good to ~1e-10 at best, and its optimality stalls at <= 7.4e-12
    # (right launches, k = 0.05 ... 0.9999), which gtol = 1e-10 stops on
    res = least_squares(model_resid, (math.hypot(a, b), math.atan2(-b, a)),
                        bounds=((0.0, -2.0 * math.pi), (np.inf, 2.0 * math.pi)),
                        xtol=1e-12, ftol=1e-12, gtol=1e-10, max_nfev=_FIT_MAX_NFEV)
    if not res.success or not np.all(np.isfinite(res.x)):
        raise FitConvergenceError(f"oscillation fit did not converge: {res.message}")
    d_fit, phi_fit = res.x
    return float(d_fit), reduce_angle(float(phi_fit))


class AblowitzSegurSolution:
    """Piecewise evaluator for v(x; alpha, k) over the whole real line.

    On the dense window [x_left, x_match] it is the dense output of one left
    launch from x_left (``solve_left_launch``), left of x_left the launch
    expansion that seeds it (``v_neg_launch``), so the profile is continuous
    there, and right of x_match the decaying model.

    x_left is set per profile before the solve: -s, for the smallest s in
    [60, 240] at which the orders the launch expansion omits are below the
    solve's own tolerance (``asymptotics.launch_depth``).  ``launch_error``
    is that estimate at x_left; above the tolerance only where s = 240 does
    not suffice.  The jump at the right seam is recorded at construction
    time; it sits at the truncation floor of the decaying model there (~3e-4
    to ~1e-3 for the acceptance pairs).
    """

    x_match = 4.0

    def __init__(self, params: ASParams):
        self.params = params
        self.connection = connection_constants(params)
        s_left, self.launch_error = launch_depth(self.connection, params.alpha)
        self.grid = solve_left_launch(params, -s_left, self.x_match, LAUNCH_TOL)
        v_grid = self.grid.evaluate(self.x_match)[0]
        self.seam_jump = abs(v_grid - v_pos_asym(self.x_match, params.alpha)[0])

    @property
    def x_left(self) -> float:
        return self.grid.launch_point

    def v(self, x):
        """Return (v, v') at x (scalar or array of finite values)."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if not (np.abs(x_arr) < math.inf).all():
            raise DomainError("profile evaluation requires finite x")
        v = np.empty_like(x_arr)
        vp = np.empty_like(x_arr)
        left, right = x_arr < self.x_left, x_arr > self.x_match
        for mask, model in ((left, lambda xs: v_neg_launch(xs, self.params, self.connection)),
                            (~(left | right), self.grid.evaluate),
                            (right, lambda xs: v_pos_asym(xs, self.params.alpha))):
            if np.any(mask):
                v[mask], vp[mask] = model(x_arr[mask])
        if np.ndim(x) == 0:
            return float(v[0]), float(vp[0])
        return v, vp


@lru_cache(maxsize=32)
def tuned_solution(p: ASParams) -> AblowitzSegurSolution:
    """The evaluator for p, cached per parameter pair (bounded, least
    recently used first out): grids are read-only, ~0.23 MB from -60, so 32
    hold ~7 MB (~28 MB as one scipy interpolant object per step)."""
    return AblowitzSegurSolution(p)


def _profile_for(p: ASParams, solution: AblowitzSegurSolution | None
                 ) -> AblowitzSegurSolution:
    """p's profile: ``solution`` if it was solved for p, ``tuned_solution(p)`` if None."""
    if solution is None:
        return tuned_solution(p)
    if solution.params != p:
        raise DomainError(f"profile solved for {solution.params}, not for {p}")
    return solution
