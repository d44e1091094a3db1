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

from .asymptotics import LAUNCH_DEPTHS
from .errors import DomainError, GridRangeError
from .integrals import v_hat
from .pii import AblowitzSegurSolution, _profile_for
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


def _scale(t: float) -> float:
    """The self-similar scale (3t)^{-1/3}: u = -2 scale v(x scale)."""
    return (3.0 * t) ** (-1.0 / 3.0)


class SelfSimilarField:
    """View u(t, .) = -2 (3t)^{-1/3} v(. (3t)^{-1/3}) at t > 0, v the profile of params."""

    def __init__(self, params: ASParams, t: float,
                 solution: AblowitzSegurSolution | None = None):
        if not 0.0 < t < math.inf:
            raise DomainError("self-similar field requires 0 < t < inf")
        self.t = float(t)
        self.solution = _profile_for(params, solution)

    @property
    def params(self) -> ASParams:
        return self.solution.params

    def u(self, x):
        """u(t, x); vectorized over x."""
        scale = _scale(self.t)
        return -2.0 * scale * self.solution.v(np.asarray(x, dtype=float) * scale)[0]


def u_hat(field: SelfSimilarField, xi: float) -> complex:
    """uhat(t, xi) = -2 vhat(xi (3t)^{1/3}) under the e^{-i xi x} convention."""
    xi_scaled = xi * (3.0 * field.t) ** (1.0 / 3.0)
    return -2.0 * v_hat(field.params, xi_scaled, solution=field.solution)


def _checked_window(field: SelfSimilarField, window: tuple[float, float],
                    t: float) -> tuple[float, float]:
    """(x_lo, x_hi) of a finite window x_lo < x_hi whose abscissae,
    rescaled at time t, stay within [-LAUNCH_DEPTHS[1], x_match]."""
    x_lo, x_hi = float(window[0]), float(window[1])
    if not -math.inf < x_lo < x_hi < math.inf:
        raise DomainError("need a finite window x_lo < x_hi")
    scale = _scale(t)
    # left of x_left the profile is its launch expansion, as exact as the
    # solved part down to the deepest launch point; right of x_match it is
    # the decaying model, across a jump
    if x_lo * scale < -LAUNCH_DEPTHS[1] or x_hi * scale > field.solution.x_match:
        raise GridRangeError(
            f"window leaves [{-LAUNCH_DEPTHS[1]:g}, x_match] after self-similar "
            "rescaling")
    return x_lo, x_hi


def pde_residual_fd(field: SelfSimilarField, window: tuple[float, float],
                    h: float) -> float:
    """Max norm over the window of the centered-difference residual of
    u_t + u_xxx - (3/2) u^2 u_x, second order in h.

    Time derivatives reuse the same profile grid at rescaled arguments; the
    seven stencil rows are evaluated in one call, each point as ``u`` of a
    field at that row's time evaluates it.
    """
    t = field.t
    if not 0.0 < h < t:
        raise DomainError("pde_residual_fd needs a step 0 < h < t")
    x_lo, x_hi = window
    if not x_lo < x_hi:  # widening by 2h below orders some reversed windows
        raise DomainError("need a finite window x_lo < x_hi")
    # the stencil reaches 2h past the window, and furthest in y at its
    # earliest row, t - h
    _checked_window(field, (x_lo - 2 * h, x_hi + 2 * h), t - h)
    xs = np.arange(x_lo, x_hi + 0.5 * h, h)
    rows = ((xs, t + h), (xs, t - h), (xs - 2 * h, t), (xs - h, t), (xs, t),
            (xs + h, t), (xs + 2 * h, t))
    scales = np.array([_scale(t_row) for _, t_row in rows])
    v = field.solution.v(np.concatenate([x * s for (x, _), s in zip(rows, scales)]))[0]
    u_rows = -2.0 * scales[:, None] * v.reshape(len(rows), -1)
    u_plus, u_minus, um2, um1, u0, up1, up2 = u_rows
    u_t = (u_plus - u_minus) / (2.0 * h)
    u_x = (up1 - um1) / (2.0 * h)
    u_xxx = (-0.5 * um2 + um1 - up1 + 0.5 * up2) / h ** 3
    resid = u_t + u_xxx - 1.5 * u0 ** 2 * u_x
    return float(np.max(np.abs(resid)))


def pde_residual_closure(field: SelfSimilarField, window: tuple[float, float]) -> float:
    """Residual on 201 points of the window with all derivatives taken in
    closed form from (v, v') and the profile ODE closure
    (v''' = v + y v' + 6 v^2 v'); identically zero up to the accuracy of the
    stored states, so this guards the wiring."""
    t = field.t
    x_lo, x_hi = _checked_window(field, window, t)
    xs = np.linspace(x_lo, x_hi, 201)
    scale = _scale(t)
    ys = xs * scale
    v, vp = field.solution.v(ys)
    pref = (3.0 * t) ** (-4.0 / 3.0)
    u_t = 2.0 * pref * (v + ys * vp)
    u_xxx = -2.0 * pref * (v + ys * vp + 6.0 * v * v * vp)
    u = -2.0 * scale * v
    u_x = -2.0 * scale ** 2 * vp
    resid = u_t + u_xxx - 1.5 * u * u * u_x
    return float(np.max(np.abs(resid)))
