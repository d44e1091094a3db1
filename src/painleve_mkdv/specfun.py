"""Special-function kernels: Airy Ai, complex log-Gamma, and parabolic
cylinder functions D_nu(z).

Downstream verification needs these at complex parameter values (purely
imaginary order for D_nu) and at accuracies pinned by tests against an
independent high-precision oracle.

Numerical layout:

* ``airy_ai`` and ``log_gamma`` wrap ``scipy.special.airy`` and
  ``scipy.special.loggamma``, which meet the pinned accuracy (worst error on
  [-30, 30] against a 40-digit oracle: 2.2e-14 for Airy); the wrappers only
  fix this package's input checks and branch convention.  The reciprocal
  Gamma factors of ``pcf_d`` come from ``scipy.special.rgamma``, which is
  exactly zero at the poles.
* ``pcf_d`` is built here, since scipy has no complex-order D_nu.  Its one
  path chooser, ``_pcf_core``, reflects (through ``_pcf_core`` again) where
  |arg z| > pi/2 and |z| >= 7.6 or Re z^2 > 6, and otherwise takes the
  large-z expansion beyond |z| = 7.6 and the even/odd Kummer series below.
  Two regions below the ring, where the series cancels, take other paths:
  - where D_nu is recessive (Re z > 0, Re z^2 > 0; the series loses
    e^{Re z^2/2}), the right near-real wedge Re z^2 > 6 and the band points
    below: D_{nu+1}/D_nu from its continued fraction (Gautschi, SIAM Rev. 9
    (1967); at most 128 terms, 78 seen on |nu| <= 2.3), scaled by the
    Wronskian with the dominant D_{-nu-1}(-+iz) (DLMF 12.2);
  - elsewhere in the band |Im z^2| > 18, Re z^2 <= 6 (terms cancel by
    e^{|Im z^2|/2}): Taylor transport of the Weber ODE outward from
    (D_nu(0), D_nu'(0)) in closed form, where both solutions start O(1), in
    steps of |h| <= 1 of at most 64 coefficients, each stopping once three
    terms in a row fall below 1e-18 of the value (8 terms at least).
  Both read at most 1.0e-12 relative to 30-digit mpmath in D and D' (320
  seeded wedge and 120 band points at 11 orders, |nu| <= 2).
* The series sums its even and odd Kummer sums, which share w = z^2/2, in
  one loop, and the expansion its terms; the factors that depend on the term
  index alone come from tables built at import.  Each term keeps one fixed
  order of operations, so the tables change no bit of D_nu.
* ``_pcf_core`` keeps its last two points: the wedge path's partner is the
  other column of the parametrix matrix Z, so a Z point evaluates each
  column once.  The last pair of Kummer sums is cached as well: by Kummer's
  transformation M(a, c, w) = e^w M(c - a, c, -w), D_{-nu-1}(+-iw) and
  D_nu(+-w) share their two sums, so Z's second column reuses the first
  column's whenever both take the series path.  The seeds
  (D_nu(0), D_nu'(0)) of the last two orders are cached too: a parametrix
  sweep alternates nu and -nu-1.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from scipy.special import airy, loggamma, rgamma

from .errors import DomainError, PoleError, SpecFunRangeError

__all__ = ["airy_ai", "log_gamma", "pcf_d"]

_SQRT_PI = math.sqrt(math.pi)


def airy_ai(x: float) -> tuple[float, float]:
    """Return (Ai(x), Ai'(x)) for real x, accuracy ~1e-13: relative for
    x > 0, against the (1+|x|)^{-/+1/4} envelope for x <= 0."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("airy_ai requires finite x")
    ai, aip, _, _ = airy(x)
    return float(ai), float(aip)


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    exp(log_gamma(z)) == Gamma(z) and the imaginary part is continuous off
    the negative real axis.  Raises ``PoleError`` at non-positive integers;
    real negative (non-integer) arguments get the limit from the upper
    half-plane, whatever the sign of a zero imaginary part.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("log_gamma requires finite z")
    if z.imag == 0.0:
        if z.real <= 0.0 and z.real == int(z.real):
            raise PoleError(f"log_gamma pole at z = {z.real:g}")
        z = complex(z.real, 0.0)  # scipy takes the lower side for -0.0j
    return complex(loggamma(z))


# ---------------------------------------------------------------------------
# Parabolic cylinder functions
# ---------------------------------------------------------------------------

_PCF_ASYM_RADIUS = 7.6
_PCF_MAX_ABS = 50.0
_TAYLOR_TERMS = 64  # coefficients per band transport step of |h| <= _BAND_STEP
_BAND_STEP = 1.0
_CF_TERMS = 128  # continued-fraction terms; 78 seen on |nu| <= 2.3


# per Kummer term k: the denominators (c + k)(k + 1) of the even (c = 1/2)
# and odd (c = 3/2) sums, and the weight k + 1 of dM/dw
_KUMMER_TABLE = tuple(((0.5 + k) * (k + 1.0), (1.5 + k) * (k + 1.0), k + 1.0)
                      for k in range(600))


def _kummer_pair(nu: complex, w: complex) -> tuple[complex, ...]:
    """(M(a, 1/2, w), dM/dw, M(b, 3/2, w), dM/dw) with a = -nu/2 and
    b = (1 - nu)/2: the even and odd sums of D_nu at w = z^2/2.

    Arguments with Re w < 0 are routed through M(a,c,w) = e^w M(c-a, c, -w)
    so the summed series never alternates in its dominant scale.
    """
    a, b = -0.5 * nu, 0.5 * (1.0 - nu)
    if w == 0:
        return 1.0 + 0.0j, a / 0.5, 1.0 + 0.0j, b / 1.5
    if w.real < 0.0:
        m1, dm1, m2, dm2 = _kummer_sums(0.5 - a, 1.5 - b, -w)
        ew = cmath.exp(w)
        return ew * m1, ew * (m1 - dm1), ew * m2, ew * (m2 - dm2)
    return _kummer_sums(a, b, w)


# The two columns of the parabolic-cylinder parametrix evaluate D_{-nu-1}(+-iw)
# and D_nu(+-w); the Kummer reflection above maps the first column's pair of
# sums onto exactly the second's (c - a gives -nu/2 and (1 - nu)/2), bit for
# bit when nu is purely imaginary, so the last pcf_d call's pair is kept.
@lru_cache(maxsize=1)
def _kummer_sums(a: complex, b: complex, w: complex) -> tuple[complex, ...]:
    """M(a, 1/2, w), dM/dw, M(b, 3/2, w), dM/dw for Re w >= 0 and
    |Im w| <= 9, each sum stopping on its own test.  A larger imaginary part
    oscillates (cancellation ~ e^{|Im w|}); ``pcf_d`` then transports from
    z = 0 instead of summing."""
    term1 = term2 = total1 = total2 = 1.0 + 0.0j
    weighted1 = weighted2 = 0.0 + 0.0j  # sums of k * term_k
    done1 = done2 = False
    for k, (den1, den2, k1) in enumerate(_KUMMER_TABLE):
        if not done1:
            term1 = term1 * w * (a + k) / den1
            total1 += term1
            weighted1 += k1 * term1
            done1 = k > 3 and abs(term1) < 1e-17 * (abs(total1) + 1e-300)
        if not done2:
            term2 = term2 * w * (b + k) / den2
            total2 += term2
            weighted2 += k1 * term2
            done2 = k > 3 and abs(term2) < 1e-17 * (abs(total2) + 1e-300)
        if done1 and done2:
            break
    return total1, weighted1 / w, total2, weighted2 / w


@lru_cache(maxsize=2)  # the orders nu and -nu-1 of a parametrix sweep
def _pcf_at_zero(nu: complex) -> tuple[complex, complex]:
    # D_nu(0) = 2^{nu/2} sqrt(pi) / Gamma((1 - nu)/2) and
    # D_nu'(0) = -2^{(nu+1)/2} sqrt(pi) / Gamma(-nu/2): the even and odd
    # prefactors of the series
    pre = cmath.exp(0.5 * nu * math.log(2.0))
    return (_SQRT_PI * pre * complex(rgamma(0.5 * (1.0 - nu))),
            -math.sqrt(2.0 * math.pi) * pre * complex(rgamma(-0.5 * nu)))


def _pcf_series(nu: complex, z: complex) -> tuple[complex, complex]:
    w = 0.5 * z * z
    s1, ds1, s2, ds2 = _kummer_pair(nu, w)
    a_coef, b_coef = _pcf_at_zero(nu)
    env = cmath.exp(-0.5 * w)
    even = a_coef * s1
    odd = b_coef * z * s2
    value = env * (even + odd)
    deriv = env * (-0.5 * z * (even + odd)
                   + a_coef * ds1 * z + b_coef * s2 + b_coef * z * z * ds2)
    return value, deriv


# per asymptotic term s: 2s, the denominator 2(s + 1), and the weight s + 1
_ASYM_TABLE = tuple((2.0 * s, 2.0 * (s + 1.0), s + 1.0) for s in range(40))


def _pcf_asym(nu: complex, z: complex) -> tuple[complex, complex]:
    # e^{-z^2/4} z^nu sum_s (-1)^s (-nu)_{2s} / (s! 2^s z^{2s}),  |arg z| < 3pi/4
    inv_z2 = 1.0 / (z * z)
    minus_nu = -nu
    term = 1.0 + 0.0j
    total = term
    weighted = 0.0 + 0.0j
    prev = math.inf
    for two_s, den, s1 in _ASYM_TABLE:
        rising = minus_nu + two_s
        term = -term * rising * (rising + 1.0) * inv_z2 / den
        mag = abs(term)
        if mag > prev:
            break
        total += term
        weighted += s1 * term
        prev = mag
        if mag < 1e-18 * abs(total):
            break
    envelope = cmath.exp(-0.25 * z * z + nu * cmath.log(z))
    value = envelope * total
    deriv = envelope * ((-0.5 * z + nu / z) * total - 2.0 * weighted / z)
    return value, deriv


def _pcf_connect(nu: complex, z: complex) -> tuple[complex, complex]:
    """Reflection identity, each term through ``_pcf_core``.

    The rotation sign is tied to the half-plane so that both reflected
    arguments land in sectors where ``_pcf_core`` is accurate; the two terms
    live on different exponential scales, so the sum never cancels.
    """
    if z.imag >= 0.0:
        phase, rot = 1.0, -1.0j
    else:
        phase, rot = -1.0, 1.0j
    c1 = cmath.exp(phase * 1j * math.pi * nu)
    c2 = (math.sqrt(2.0 * math.pi) * complex(rgamma(-nu))
          * cmath.exp(phase * 1j * math.pi * (nu + 1.0) / 2.0))
    v1, d1 = _pcf_core(nu, -z)
    v2, d2 = _pcf_core(-nu - 1.0, rot * z)
    return c1 * v1 + c2 * v2, -c1 * d1 + c2 * rot * d2


# per Taylor term m of a transport step: 1/((m+2)(m+1)) and m+2
_TERM_TABLE = tuple((1.0 / ((m + 2.0) * (m + 1.0)), m + 2.0)
                    for m in range(_TAYLOR_TERMS - 2))


def _pcf_origin(nu: complex, z: complex) -> tuple[complex, complex]:
    """Carry (D_nu, D_nu') from z = 0 outward along the segment to z, in equal
    Taylor steps of |h| <= ``_BAND_STEP`` of the Weber ODE
    u'' = (z^2/4 - nu - 1/2) u."""
    u, up = _pcf_at_zero(nu)
    n_steps = max(1, math.ceil(abs(z) / _BAND_STEP))
    h = z / n_steps
    q = nu + 0.5
    h2 = h * h
    h4 = 0.25 * h2 * h2
    for i in range(n_steps):
        c = i * h
        p0 = (0.25 * c * c - q) * h2
        p1 = 0.5 * c * h2 * h
        # The Taylor coefficients about c obey (m+2)(m+1) a_{m+2} =
        # (c^2/4 - q) a_m + (c/2) a_{m-1} + a_{m-2}/4; the step carries
        # b_m = a_m h^m, at most _TAYLOR_TERMS of them.  The value is sum b_m
        # and h u' is sum m b_m; the step stops once three terms in a row
        # fall below 1e-18 of the value, after at least 8 terms.
        bm2, bm1, bm, bp1 = 0j, 0j, u, up * h  # b_{m-2}, b_{m-1}, b_m, b_{m+1}
        val = u + bp1
        der = bp1
        small = 0
        for m, (inv, mp2) in enumerate(_TERM_TABLE):
            b_new = (p0 * bm + p1 * bm1 + h4 * bm2) * inv
            val += b_new
            der += mp2 * b_new
            small = small + 1 if abs(b_new) < 1e-18 * abs(val) else 0
            if small >= 3 and m >= 5:
                break
            bm2, bm1, bm, bp1 = bm1, bm, bp1, b_new
        u, up = val, der / h
    return u, up


def _pcf_wedge(nu: complex, z: complex) -> tuple[complex, complex]:
    """D_nu where it is recessive (Re z > 0, Re z^2 > 0, |z| < 7.6): there it
    is the minimal solution of D_{nu+1} - z D_nu + nu D_{nu-1} = 0 as the
    order falls, so f = D_{nu+1}/D_nu = z - nu/(z + (1-nu)/(z + ...)) by
    modified Lentz, and D_nu'/D_nu = z/2 - f.  The Wronskian with the dominant
    partner, W{D_nu(z), D_{-nu-1}(sz)} = -s e^{-s pi nu/2}, sets the scale.
    It holds for s = +-i; s = -i for Im z >= 0, else +i, is Z's other column."""
    f = c = z
    d = 0j
    for k in range(_CF_TERMS):
        a = k - nu
        d = 1.0 / (z + a * d or 1e-300)
        c = z + a / c or 1e-300
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 5e-16:  # two units in the last place
            break
    else:
        raise SpecFunRangeError(f"continued fraction of D_nu at nu = {nu}, z = {z} "
                                f"needs more than {_CF_TERMS} terms")
    s = -1j if z.imag >= 0.0 else 1j
    rho = 0.5 * z - f
    vp, dp = _pcf_core(-nu - 1.0, s * z)
    value = -s * cmath.exp(-0.5 * math.pi * s * nu) / (s * dp - rho * vp)
    return value, rho * value


def pcf_d(nu: complex, z: complex) -> tuple[complex, complex]:
    """Parabolic cylinder function: return (D_nu(z), d/dz D_nu(z)).

    Intended range |nu| <= 2, |z| <= 50.  Relative accuracy is ~1e-12 in the
    right wedge and the band (see the module notes), ~2e-11 elsewhere, but
    ~1e-10 where D_nu is small next to its even and odd series parts: near
    |nu| = 2, |z| ~ 4-6, arg z ~ +-45 degrees (8.3e-11 in D and 1.1e-10 in D'
    at nu = -1 + 2i, z = 3.48 + 2.53i, relative to mpmath).
    """
    nu = complex(nu)
    z = complex(z)
    if not (cmath.isfinite(nu) and cmath.isfinite(z)):
        raise DomainError("pcf_d requires finite nu, z")
    r = abs(z)
    if r > _PCF_MAX_ABS:
        raise SpecFunRangeError(f"pcf_d argument |z| = {r:.3g} exceeds supported range 50")
    return _pcf_core(nu, z)


@lru_cache(maxsize=2)  # a wedge point and its partner, Z's two columns
def _pcf_core(nu: complex, z: complex) -> tuple[complex, complex]:
    # Past |arg z| = pi/2 the reflection identity takes over on the ring, where
    # the Stokes phenomenon switches on a subdominant exponential, and in the
    # left wedge Re z^2 > 6 below it, where D is dominant and the series
    # cancels: the reflected arguments keep |z| and have |arg| <= pi/2.
    z2 = z * z
    r = abs(z)
    if (r >= _PCF_ASYM_RADIUS or z2.real > 6.0) and abs(cmath.phase(z)) > 0.5 * math.pi:
        return _pcf_connect(nu, z)
    if r >= _PCF_ASYM_RADIUS:
        return _pcf_asym(nu, z)
    # Below the ring the series cancels in the right wedge Re z^2 > 6 and in the
    # band |Im z^2| > 18 (module notes); where D is recessive there, the wedge path.
    if z.real > 0.0 and (z2.real > 6.0 or (z2.real > 0.0 and abs(z2.imag) > 18.0)):
        return _pcf_wedge(nu, z)
    if abs(z2.imag) > 18.0:
        return _pcf_origin(nu, z)
    return _pcf_series(nu, z)
