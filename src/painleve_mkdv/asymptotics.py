"""Asymptotic models for v(x; alpha, k) on both ends of the real line, with
analytic derivatives.

The oscillatory model lives on s = -x > 0:

    v(x) ~ d s^{-1/4} cos(PsiTilde(s)) + alpha/x,
    PsiTilde(s) = (2/3) s^{3/2} - (3/4) d^2 ln s + phi,

and the decaying model on x > 0 is v(x) ~ alpha/x + 2 alpha (1-alpha^2) x^{-4}.

The leading oscillatory model is only the first two terms of the expansion
v = s^{-1/4} sum_n s^{-3n/4} F_n(PsiTilde), whose later terms are fixed
order by order by v_ss = -s v + 2 v^3 - alpha.  A numeric recursion fills
them for given (d, alpha) through F_8 (s^{-25/4}), plus two more orders that
only estimate what the sum omits; the n = 1 term alpha/x is added on its
own.  ``v_neg_asym`` sums F_0 = d cos PsiTilde, ``v_neg_launch`` (the left
launches' initial data) every order plus alpha/x, and ``launch_depth``
finds where the omitted orders fall below ``LAUNCH_TOL``.  The CLI's
``connection.launch_expansion`` check takes its bound from the same orders.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError
from .stokes import ASParams, ConnectionConstants

__all__ = [
    "psi_tilde",
    "v_neg_asym",
    "v_neg_launch",
    "launch_depth",
    "v_pos_asym",
]


def psi_tilde(s, c: ConnectionConstants):
    """Phase PsiTilde(s) and its s-derivative, s > 0.

    PsiTilde'(s) = s^{1/2} - (3/4) d^2 / s.
    """
    s = np.asarray(s, dtype=float)
    if not ((s > 0.0) & (s < np.inf)).all():
        raise DomainError("psi_tilde requires 0 < s < inf")
    d2 = c.d * c.d
    value = (2.0 / 3.0) * s ** 1.5 - 0.75 * d2 * np.log(s) + c.phi
    deriv = np.sqrt(s) - 0.75 * d2 / s
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


# A profile is launched from x_left = -s, s in LAUNCH_DEPTHS, where what the
# expansion omits is at most LAUNCH_TOL, the tolerance of the solve it seeds.
LAUNCH_TOL = 1.0e-10
LAUNCH_DEPTHS = (60.0, 240.0)

# The launch expansion sums F_0 .. F_8, through s^{-25/4}.  Order n carries
# the harmonics m <= n + 1 of the parity of n + 1 (m <= n - 1 for odd n), and
# so does its forcing.  The recursion runs to order _ORDER + 4, whose resonance
# fixes the homogeneous part of F_{_ORDER + 2}, the last order it keeps.
_ORDER = 8
_KEPT = _ORDER + 3
_HARM = np.arange(_ORDER + 6)
_RATE = 0.25 + 0.75 * np.arange(_KEPT)  # order n is s^{-(1 + 3n)/4} F_n
_ALLOWED = np.array([(_HARM % 2 != n % 2) & (_HARM <= n + 1 - 2 * (n % 2))
                     for n in range(_KEPT)])
# (F'' + F)^{-1} on each order's harmonics; the resonant m = 1 is left out
_RESOLVENT = (_ALLOWED & (_HARM != 1)) / np.where(_HARM == 1, 1.0, 1.0 - _HARM ** 2)
# products are pointwise on _L samples of a period, enough for every harmonic
_L = 2 * _HARM.size
_PSI = 2.0 * np.pi * np.arange(_L) / _L
_COS, _SIN = np.cos(_PSI), np.sin(_PSI)
_PHASES = np.outer(_PSI, _HARM)
# samples = _TO_SAMPLES @ K.view(float), with K_m stored as (Re K_m, Im K_m)
_TO_SAMPLES = np.stack((np.cos(_PHASES), -np.sin(_PHASES)), axis=2).reshape(_L, -1)
# (_FROM_SAMPLES @ samples).view(complex): the harmonics of twice the samples,
# so that the cube's samples give the forcing 2 v^3
_FROM_SAMPLES = (np.where(_HARM == 0, 2.0, 4.0)[:, None, None] / _L
                 * np.stack((np.cos(_PHASES.T), -np.sin(_PHASES.T)), axis=1)
                 ).reshape(-1, _L)
# besides 2 v^3, order n >= 2 is forced by (3/2) d^2 F'' + (3k/2) F' of F_k,
# k = n - 2, and by -(9/16) d^4 F'' - (3/4 + (3/2) a) d^2 F' - a (a + 1) F of
# F_{n-4}, a = _RATE[n - 4]
_NEAR = 1.5j * np.arange(_KEPT)[:, None] * _HARM
_FAR_1 = 1j * (0.75 + 1.5 * _RATE[:, None]) * _HARM
_FAR_0 = (_RATE * (_RATE + 1.0))[:, None]


@lru_cache(maxsize=16)
def _coefficients(d: float, alpha: float) -> np.ndarray:
    """The expansion's orders F_0 .. F_{_ORDER + 2} as harmonic coefficients
    K[n, m], F_n(psi) = Re sum_m K[n, m] e^{i m psi} (read-only).  Row 1 is
    zero: the n = 1 term alpha/x is added on its own.

    Substituting v = s^{-1/4} sum_n s^{-3n/4} F_n(psi) into
    v_ss = -s v + 2 v^3 - alpha gives F_n'' + F_n = (terms of lower n) at
    each order.  The non-resonant harmonics of the right side give the
    particular solution.  Requiring the resonant cos/sin(psi) part to vanish
    at order n + 2 fixes the homogeneous part h e^{i psi} of F_n for even
    n >= 2 (odd orders carry no such harmonic) from a 2 x 2 system of
    determinant (3n/2)^2, so every resonance closes and no log-secular term
    appears.  At order 2 the -(3/4) d^2 ln s in psi cancels the resonant
    part, so d and phi stay the only free data.  The odd orders carry odd
    powers of alpha.

    The cube is formed pointwise on samples of one period, and each order's
    forcing goes back to harmonics through one matrix product.  Cached
    (bounded): the launch, its launch point, the integral tails and the
    evaluator left of the launch all ask for the same (d, alpha).
    """
    d2 = d * d
    near = _NEAR - (1.5 * d2) * _HARM ** 2
    far = (0.5625 * d2 * d2) * _HARM ** 2 - d2 * _FAR_1 - _FAR_0
    K = np.zeros((_KEPT, _HARM.size), complex)
    S = np.empty((_KEPT, _L))  # samples of F_n
    P = np.empty((_KEPT, _L))  # samples of sum_{i+j=n} F_i F_j
    K[0, 1], S[0] = d, d * _COS
    K[1, 0], S[1] = -alpha, -alpha
    for n in range(2, _ORDER + 5):
        k = n - 2
        P[k] = np.einsum("ij,ij->j", S[:k + 1], S[k::-1])
        if n >= _KEPT and k % 2:
            continue  # F_n is not kept, and odd F_k has no resonance to fix
        cube = np.einsum("ij,ij->j", P[:k + 1], S[k::-1])
        force = (_FROM_SAMPLES @ cube).view(complex) + near[k] * K[k]
        if n >= 4:
            force += far[n - 4] * K[n - 4]
        if k >= 2 and k % 2 == 0:
            r = complex(force[1])
            x = -r.imag / (1.5 * k)
            y = (r.real + 3.0 * d2 * x) / (1.5 * k)
            K[k, 1] = complex(x, y)
            h = x * _COS - y * _SIN
            S[k] += h
            P[k] += 2.0 * S[0] * h
            force[3] += 1.5 * d2 * K[k, 1]  # the rest of 6 F_0^2 h; m = 1 cancels r
        if n < _KEPT:
            K[n] = force * _RESOLVENT[n]
            S[n] = _TO_SAMPLES @ K[n].view(float)
    K[1] = 0.0
    K.flags.writeable = False
    return K


def _oscillatory_rows(d: float, alpha: float):
    """The summed orders of the expansion as rows (power, m, C, S), each the
    term s^{-power} (C cos(m psi) + S sin(m psi)), one per harmonic an order
    carries; row 0 is the leading model (0.25, 1, d, 0), and the n = 1 term
    alpha/x is not a row.  ``_coefficients`` holds the recursion."""
    K = _coefficients(d, alpha)
    return tuple((float(_RATE[n]), int(m), float(K[n, m].real), float(-K[n, m].imag))
                 for n in range(_ORDER + 1) if n != 1
                 for m in _HARM[_ALLOWED[n]])


def _omitted_orders(c: ConnectionConstants, alpha: float, s: float) -> np.ndarray:
    """Sizes at s of the two orders after the last summed one.

    Order n is bounded by s^{-(1 + 3n)/4} sum_m |K[n, m]|, which falls with
    s.  Two orders, because every odd order vanishes at alpha = 0.
    """
    size = np.abs(_coefficients(c.d, alpha)[_ORDER + 1:]).sum(axis=1)
    return size * s ** -_RATE[_ORDER + 1:]


def launch_depth(c: ConnectionConstants, alpha: float) -> tuple[float, float]:
    """(s, estimate): the smallest s in ``LAUNCH_DEPTHS`` at which the larger
    of the two orders after the last summed one (``_omitted_orders``) is at
    most ``LAUNCH_TOL`` (to rounding), and that larger order's size at s.
    Each order falls as a power of s, so s follows in closed form from their
    sizes at s = 1.
    """
    size = _omitted_orders(c, alpha, 1.0)
    s_min, s_max = LAUNCH_DEPTHS
    s = min(max(s_min, float(np.max((size / LAUNCH_TOL)
                                    ** (1.0 / _RATE[_ORDER + 1:])))), s_max)
    return s, float(np.max(_omitted_orders(c, alpha, s)))


def _sum_orders(x, p: ASParams, c: ConnectionConstants, n_orders: int,
                include_alpha_term: bool):
    """(v, dv/dx) of the orders n < ``n_orders`` of the expansion
    [+ alpha/x] for x < 0, with the exact x-derivative.  Each harmonic's
    amplitude is summed over the orders by one matrix product; the
    harmonics are then summed by Horner's rule in one e^{i psi}."""
    x = np.asarray(x, dtype=float)
    if not ((x < 0.0) & (x > -np.inf)).all():
        raise DomainError("the oscillatory model requires -inf < x < 0")
    s = -x.reshape(-1)
    psi, dpsi = psi_tilde(s, c)
    table = _coefficients(c.d, p.alpha)[:n_orders, :n_orders + 1]
    rate = _RATE[:n_orders, None]
    n_harm = table.shape[1]
    # per harmonic m, the weights of a_m = sum_n K[n, m] s^{-rate_n}, of
    # s da_m/dx = -s da_m/ds and of m a_m
    weights = np.stack((table, rate * table, _HARM[:n_harm] * table), axis=2)
    terms = (s[:, None] ** -rate.T @ weights.view(float).reshape(n_orders, -1)
             ).view(complex).reshape(s.size, n_harm, 3)
    wave = np.exp(1j * psi)[:, None]
    total = terms[:, -1].copy()
    for m in range(n_harm - 2, -1, -1):
        total *= wave
        total += terms[:, m]
    v = total[:, 0].real
    # d/dx (a_m e^{i m psi}) = (da_m/dx - i m psi' a_m) e^{i m psi}
    v_prime = total[:, 1].real / s + dpsi * total[:, 2].imag
    if include_alpha_term:
        v = v - p.alpha / s
        v_prime = v_prime - p.alpha / (s * s)
    if x.ndim == 0:
        return float(v[0]), float(v_prime[0])
    return v.reshape(x.shape), v_prime.reshape(x.shape)


def v_neg_asym(x, p: ASParams, c: ConnectionConstants, include_alpha_term: bool = True):
    """Leading oscillatory model of v and its exact x-derivative for x < 0:
    row 0 of the expansion, v = d s^{-1/4} cos(PsiTilde(s)) [+ alpha/x]
    with s = -x."""
    return _sum_orders(x, p, c, 1, include_alpha_term)


def v_neg_launch(x, p: ASParams, c: ConnectionConstants):
    """Launch data (v, dv/dx) for x < 0: the expansion through F_8
    (s^{-25/4}) plus alpha/x, with the exact x-derivative.

    The ODE residual of this model falls off as s^{-6} (s^{-27/4} for
    alpha = 0, where the odd orders vanish), against s^{-3/4} for the
    leading model.  ``launch_depth`` bounds what it omits.
    """
    return _sum_orders(x, p, c, _ORDER + 1, True)


def _decay_coefficients(alpha: float) -> tuple[float, float]:
    """(a4, a7): the decaying model's x^{-4} coefficient 2 alpha (1 - alpha^2)
    and the x^{-7} one it omits, a4 (20 - 6 alpha^2)."""
    a4 = 2.0 * alpha * (1.0 - alpha * alpha)
    return a4, a4 * (20.0 - 6.0 * alpha * alpha)


def v_pos_asym(x, alpha: float):
    """Decaying model of v and its derivative for x > 0."""
    x = np.asarray(x, dtype=float)
    if not ((x > 0.0) & (x < np.inf)).all():
        raise DomainError("v_pos_asym requires 0 < x < inf")
    a4 = _decay_coefficients(alpha)[0]
    v = alpha / x + a4 / x ** 4
    v_prime = -alpha / x ** 2 - 4.0 * a4 / x ** 5
    if v.ndim == 0:
        return float(v), float(v_prime)
    return v, v_prime

