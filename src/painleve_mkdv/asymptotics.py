"""Asymptotic models for v(x; alpha, k) on both ends of the real line, with
analytic derivatives, plus the remainder envelope and log-log slope fit
used to verify remainder orders.

The oscillatory model lives on s = -x > 0:

    v(x) ~ d s^{-1/4} cos(PsiTilde(s)) + alpha/x,
    PsiTilde(s) = (2/3) s^{3/2} - (3/4) d^2 ln s + phi,

and the decaying model on x > 0 is v(x) ~ alpha/x + 2 alpha (1-alpha^2) x^{-4}.

The leading oscillatory model is only the first two terms of the expansion
v = s^{-1/4} sum_n s^{-3n/4} F_n(PsiTilde), whose later terms are fixed
order by order by v_ss = -s v + 2 v^3 - alpha.  ``v_neg_launch`` carries it
through s^{-13/4}; the left ODE launches take their initial data from it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .stokes import ASParams, ConnectionConstants

__all__ = [
    "psi_tilde",
    "psi_stationary_threshold",
    "v_neg_asym",
    "v_neg_launch",
    "v_pos_asym",
    "remainder_envelope",
    "loglog_slope",
]


def psi_tilde(s, c: ConnectionConstants):
    """Phase PsiTilde(s) and its s-derivative, s > 0.

    PsiTilde'(s) = s^{1/2} - (3/4) d^2 / s.
    """
    s = np.asarray(s, dtype=float)
    if (s <= 0.0).any():
        raise DomainError("psi_tilde requires s > 0")
    d2 = c.d * c.d
    value = (2.0 / 3.0) * s ** 1.5 - 0.75 * d2 * np.log(s) + c.phi
    deriv = np.sqrt(s) - 0.75 * d2 / s
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def psi_stationary_threshold(d: float) -> float:
    """Largest s at which PsiTilde' can vanish: s0 = ((3/4) d^2)^{2/3}."""
    return (0.75 * d * d) ** (2.0 / 3.0)


def v_neg_asym(x, p: ASParams, c: ConnectionConstants, include_alpha_term: bool = True):
    """Oscillatory model of v and its exact x-derivative for x < 0.

    With s = -x:  v = d s^{-1/4} cos(PsiTilde(s)) [+ alpha/x], and
    dv/dx = -d/ds of the model, chain rule through s = -x.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x >= 0.0):
        raise DomainError("v_neg_asym requires x < 0")
    s = -x
    psi, dpsi = psi_tilde(s, c)
    cos_psi = np.cos(psi)
    sin_psi = np.sin(psi)
    amp = c.d * s ** -0.25
    v = amp * cos_psi
    # d/dx [amp cos psi] = -d/ds [...] = 0.25 d s^{-5/4} cos + amp sin * dpsi
    v_prime = 0.25 * c.d * s ** -1.25 * cos_psi + amp * sin_psi * dpsi
    if include_alpha_term:
        v = v + p.alpha / x
        v_prime = v_prime - p.alpha / (x * x)
    if v.ndim == 0:
        return float(v), float(v_prime)
    return v, v_prime


def _next_order_terms(d: float, alpha: float):
    """Terms s^{-power} (C cos(m psi) + S sin(m psi)) of the oscillatory
    expansion beyond ``v_neg_asym``, as rows (power, m, C, S).

    Substituting v = s^{-1/4} sum_n s^{-3n/4} F_n(psi) into
    v_ss = -s v + 2 v^3 - alpha gives F_n'' + F_n = (terms of lower n) at
    each order.  The non-resonant harmonics of the right side give the
    particular solution; requiring the resonant cos/sin(psi) part to vanish
    at order n + 2 fixes the homogeneous part of F_n for n >= 1.  At order 2
    the -(3/4) d^2 ln s in psi cancels the resonant part, so d and phi stay
    the only free data.  The odd orders carry odd powers of alpha.
    """
    d2, a2 = d * d, alpha * alpha
    d3, d5 = d2 * d, d2 * d2 * d
    d7, d9 = d5 * d2, d5 * d2 * d2
    return (
        # n = 2: s^{-7/4}
        (1.75, 1, 0.375 * d3, 5.0 / 48.0 * d - 17.0 / 32.0 * d5 - 2.0 * a2 * d),
        (1.75, 3, -d3 / 16.0, 0.0),
        # n = 3: s^{-5/2}, alpha d^2 (cos 2psi - 3)
        (2.5, 0, -3.0 * alpha * d2, 0.0),
        (2.5, 2, alpha * d2, 0.0),
        # n = 4: s^{-13/4}
        (3.25, 1,
         -2.0 * a2 * a2 * d - 17.0 / 16.0 * a2 * d5 + 41.0 / 24.0 * a2 * d
         - 289.0 / 2048.0 * d9 + 497.0 / 768.0 * d5 - 385.0 / 4608.0 * d,
         -29.0 / 4.0 * a2 * d3 - 11.0 / 16.0 * d7 + 51.0 / 128.0 * d3),
        (3.25, 3, -39.0 / 256.0 * d5,
         0.375 * a2 * d3 + 51.0 / 512.0 * d7 - 23.0 / 256.0 * d3),
        (3.25, 5, d5 / 256.0, 0.0),
    )


def v_neg_launch(x, p: ASParams, c: ConnectionConstants):
    """Launch data (v, dv/dx) for x < 0: ``v_neg_asym`` (alpha/x included)
    plus the expansion terms through s^{-13/4}, with the exact x-derivative.

    The ODE residual of this model falls off as s^{-3} (s^{-15/4} for
    alpha = 0), against s^{-3/4} for the leading model, so the launch-data
    error left for the turning region to amplify is ~ s^{-4} instead of
    ~ s^{-7/4}.
    """
    x = np.asarray(x, dtype=float)
    v, v_prime = v_neg_asym(x, p, c, include_alpha_term=True)
    s = -x
    psi, dpsi = psi_tilde(s, c)
    for power, m, cos_c, sin_c in _next_order_terms(c.d, p.alpha):
        cos_m, sin_m = np.cos(m * psi), np.sin(m * psi)
        f = cos_c * cos_m + sin_c * sin_m
        df = m * (sin_c * cos_m - cos_c * sin_m)
        scale = s ** -power
        v = v + scale * f
        # d/dx = -d/ds
        v_prime = v_prime + scale * (power * f / s - df * dpsi)
    if x.ndim == 0:
        return float(v), float(v_prime)
    return v, v_prime


def v_pos_asym(x, alpha: float):
    """Decaying model of v and its derivative for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("v_pos_asym requires x > 0")
    a4 = 2.0 * alpha * (1.0 - alpha * alpha)
    v = alpha / x + a4 / x ** 4
    v_prime = -alpha / x ** 2 - 4.0 * a4 / x ** 5
    if v.ndim == 0:
        return float(v), float(v_prime)
    return v, v_prime


def remainder_envelope(sol, include_alpha_term: bool):
    """Envelope of |v - v_neg_asym| over s = -x in [20, 200]: one
    (block centre, max) pair per oscillation period, 50 samples each.

    ``sol`` is a profile evaluator (``v``, ``params``, ``connection``, as
    ``pii.AblowitzSegurSolution``); ``loglog_slope`` of the envelope is the
    observed remainder order.
    """
    p, c = sol.params, sol.connection
    blocks = []
    s = 20.0
    while s < 200.0:
        width = 2.0 * math.pi / math.sqrt(s)
        xs = np.linspace(-min(s + width, 200.0), -s, 50)
        v = sol.v(xs)[0]
        model = v_neg_asym(xs, p, c, include_alpha_term)[0]
        blocks.append((s + 0.5 * width, float(np.max(np.abs(v - model)))))
        s += width
    return blocks


def loglog_slope(points) -> float:
    """Least-squares slope of ln(value) against ln(abscissa).

    Expects >= 5 points with positive abscissas and values; raises
    ``DomainError`` on degenerate input (coincident abscissas).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 5:
        raise DomainError("loglog_slope needs at least 5 (abscissa, value) pairs")
    if np.any(pts <= 0.0):
        raise DomainError("loglog_slope needs positive abscissas and values")
    log_s = np.log(pts[:, 0])
    if np.ptp(log_s) == 0.0:
        raise DomainError("coincident abscissas")
    slope, _ = np.polyfit(log_s, np.log(pts[:, 1]), 1)
    return float(slope)
