"""Self-similar solutions of the defocusing mKdV equation

    u_t + u_xxx - (3/2) u^2 u_x = 0,   u(t,x) = -2 (3t)^{-1/3} v(x (3t)^{-1/3}),

with the map from delta / principal-value initial-data coefficients (a, b)
to the profile parameters (alpha, k), and finite-difference / closed-form
verification of the PDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridRangeError
from .integrals import TailPolicy, v_hat
from .pii import AblowitzSegurSolution, tuned_solution
from .stokes import ASParams, _edge_cosine, make_params

__all__ = [
    "InitialDataCoefficients",
    "SelfSimilarField",
    "ab_to_params",
    "u_hat",
    "pde_residual_fd",
    "pde_residual_closure",
]


@dataclass(frozen=True)
class InitialDataCoefficients:
    """Coefficients of the initial datum a*delta(x) + b*p.v.(1/x), |b| < 1."""

    a: float
    b: float

    def __post_init__(self):
        if not abs(self.b) < 1.0:
            raise DomainError("initial-data coefficient b must satisfy |b| < 1")


def ab_to_params(coeffs: InitialDataCoefficients) -> ASParams:
    """Profile parameters realizing the initial datum:
    alpha = -b/2 and k = cos(pi alpha) tanh(-a/2) (inverting the total
    integral (1/2) ln((cos pi alpha + k)/(cos pi alpha - k)) = -a/2)."""
    alpha = -0.5 * coeffs.b
    k = _edge_cosine(alpha) * math.tanh(-0.5 * coeffs.a)
    return make_params(alpha, k)


class SelfSimilarField:
    """View u(t, .) = -2 (3t)^{-1/3} v(. (3t)^{-1/3}) at a fixed time t > 0."""

    def __init__(self, params: ASParams, t: float,
                 solution: AblowitzSegurSolution | None = None):
        if not t > 0.0:
            raise DomainError("self-similar field requires t > 0")
        self.params = params
        self.t = float(t)
        self._solution = solution

    @property
    def solution(self) -> AblowitzSegurSolution:
        if self._solution is None:
            self._solution = tuned_solution(self.params)
        return self._solution

    def u(self, x, t: float | None = None):
        """u(t, x); vectorized over x.  An explicit t reuses the same profile
        grid (self-similarity), never a new solve."""
        t_eval = self.t if t is None else float(t)
        scale = (3.0 * t_eval) ** (-1.0 / 3.0)
        x_arr = np.asarray(x, dtype=float)
        v = self.solution.v(x_arr * scale)[0]
        u = -2.0 * scale * v
        if x_arr.ndim == 0:
            return float(u)
        return u


def u_hat(field: SelfSimilarField, xi: float,
          policy: TailPolicy | None = None) -> complex:
    """uhat(t, xi) = -2 vhat(xi (3t)^{1/3}) under the e^{-i xi x} convention."""
    xi_scaled = xi * (3.0 * field.t) ** (1.0 / 3.0)
    return -2.0 * v_hat(field.params, xi_scaled, policy=policy,
                        solution=field.solution)


def _y_window_check(field: SelfSimilarField, xs: np.ndarray, t: float):
    scale = (3.0 * t) ** (-1.0 / 3.0)
    ys = xs * scale
    sol = field.solution
    if np.min(ys) < sol.x_left or np.max(ys) > sol.x_match:
        raise GridRangeError(
            "window leaves the dense ODE region after self-similar rescaling")


def pde_residual_fd(field: SelfSimilarField, window: tuple[float, float],
                    h: float) -> float:
    """Max norm over the window of the centered-difference residual of
    u_t + u_xxx - (3/2) u^2 u_x, second order in h.

    Time derivatives reuse the same profile grid at rescaled arguments.
    """
    x_lo, x_hi = float(window[0]), float(window[1])
    if not (h > 0.0 and x_lo < x_hi):
        raise DomainError("need x_lo < x_hi and h > 0")
    t = field.t
    xs = np.arange(x_lo, x_hi + 0.5 * h, h)
    for t_check in (t - h, t, t + h):
        _y_window_check(field, np.array([x_lo - 2 * h, x_hi + 2 * h]), t_check)
    u_t = (field.u(xs, t + h) - field.u(xs, t - h)) / (2.0 * h)
    um2 = field.u(xs - 2 * h)
    um1 = field.u(xs - h)
    u0 = field.u(xs)
    up1 = field.u(xs + h)
    up2 = field.u(xs + 2 * h)
    u_x = (up1 - um1) / (2.0 * h)
    u_xxx = (-0.5 * um2 + um1 - up1 + 0.5 * up2) / h ** 3
    resid = u_t + u_xxx - 1.5 * u0 ** 2 * u_x
    return float(np.max(np.abs(resid)))


def pde_residual_closure(field: SelfSimilarField, window: tuple[float, float],
                         n_points: int = 201) -> float:
    """Residual with all derivatives taken in closed form from (v, v') and
    the profile ODE closure (v''' = v + y v' + 6 v^2 v'); identically zero up
    to the accuracy of the stored states, so this guards the wiring."""
    x_lo, x_hi = float(window[0]), float(window[1])
    t = field.t
    xs = np.linspace(x_lo, x_hi, n_points)
    _y_window_check(field, xs, t)
    scale = (3.0 * t) ** (-1.0 / 3.0)
    ys = xs * scale
    v, vp = field.solution.v(ys)
    pref = (3.0 * t) ** (-4.0 / 3.0)
    u_t = 2.0 * pref * (v + ys * vp)
    u_xxx = -2.0 * pref * (v + ys * vp + 6.0 * v * v * vp)
    u = -2.0 * scale * v
    u_x = -2.0 * scale ** 2 * vp
    resid = u_t + u_xxx - 1.5 * u * u * u_x
    return float(np.max(np.abs(resid)))
