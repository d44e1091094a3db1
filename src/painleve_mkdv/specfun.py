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
  large-z expansion beyond |z| = 7.6.  Below the ring:
  - where D_nu is recessive in the right wedge Re z^2 > 6 and in the band
    |Im z^2| > 18, Re z^2 > 0: D_{nu+1}/D_nu from its continued fraction
    (Gautschi, SIAM Rev. 9 (1967); at most 128 terms, 78 seen on
    |nu| <= 2.3), scaled by the Wronskian with the dominant D_{-nu-1}(-+iz)
    (DLMF 12.2);
  - everywhere else: Taylor transport of the Weber ODE outward from
    (D_nu(0), D_nu'(0)) in closed form, in equal steps of |h| <= 4 (one up
    to |z| = 4, two beyond) of at most 160 coefficients, each stopping once
    three terms in a row fall below 1e-18 of the value.  The first step is
    centred at 0, so its even and odd parts run apart (at most 80
    coefficients seen on |nu| <= 2.8).
  Against 30-digit mpmath in D and D', the seeded oracle sets read at most
  9.0e-13 relative at 11 orders with |nu| <= 2 in the wedge and band, and
  2.5e-12 on 100 points of the rest at |nu| = 2; at the edge orders -2.58i
  and -1 + 2.58i, 6.0e-12 in the band and 5.1e-12 elsewhere.  Wider
  probes (1000 points each) reach 1.3e-11 (|nu| = 2) and 2.6e-11 (edge)
  in the recessive sector Re z > 0, 0 < Re z^2 <= 6, where the transport
  carries the dominant solution's rounding.
* The transport and the expansion sum over tables, built at import, of the
  factors that depend on the term index alone.
* ``_pcf_core`` keeps its last two points: the wedge path's partner is the
  other column of the parametrix matrix Z, so a Z point evaluates each
  column once.  The first step's parts depend on (nu, h) only through
  q h^2 and h^4 (q = nu + 1/2), and Z's columns D_{-nu-1}(+-iw) and
  D_nu(+-w) solve one Weber ODE in w, so they share them bit for bit when
  nu is purely imaginary: the last parts are cached.  So are the seeds of
  the last two orders, since a parametrix sweep alternates nu and -nu-1.
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
_TAYLOR_TERMS = 160  # coefficients per transport step of |h| <= _BAND_STEP
_BAND_STEP = 4.0  # two steps for every band point (4.24 < |z| < 7.6)
_CF_TERMS = 128  # continued-fraction terms; 78 seen on |nu| <= 2.3


@lru_cache(maxsize=2)  # the orders nu and -nu-1 of a parametrix sweep
def _pcf_at_zero(nu: complex) -> tuple[complex, complex]:
    # D_nu(0) = 2^{nu/2} sqrt(pi) / Gamma((1 - nu)/2) and
    # D_nu'(0) = -2^{(nu+1)/2} sqrt(pi) / Gamma(-nu/2): the transport's seeds
    pre = cmath.exp(0.5 * nu * math.log(2.0))
    return (_SQRT_PI * pre * complex(rgamma(0.5 * (1.0 - nu))),
            -math.sqrt(2.0 * math.pi) * pre * complex(rgamma(-0.5 * nu)))


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


@lru_cache(maxsize=1)  # Z's two columns share them (module notes)
def _origin_parts(p0: complex, h4: complex) -> tuple[complex, ...]:
    """The even and odd parts of a Taylor step h from z = 0, where the
    coefficients obey (m+2)(m+1) a_{m+2} = -q a_m + a_{m-2}/4: with
    b_m = a_m h^m, p0 = -q h^2 and h4 = h^4/4, (sum b_m, sum m b_m) over the
    even m for a_0 = 1, a_1 = 0 and over the odd m for a_0 = 0, a_1 h = 1.
    Each table entry pair gives one term of each part; the loop stops once
    both parts' terms fall below 1e-18 of their sums three times in a row."""
    even, even_d, odd, odd_d = 1.0 + 0j, 0j, 1.0 + 0j, 1.0 + 0j
    e2, e, o2, o = 0j, even, 0j, odd  # b_{m-2}, b_m of each part
    small = 0
    terms = iter(_TERM_TABLE)
    for (inv_e, m2_e), (inv_o, m2_o) in zip(terms, terms):
        e_new = (p0 * e + h4 * e2) * inv_e
        o_new = (p0 * o + h4 * o2) * inv_o
        even += e_new
        even_d += m2_e * e_new
        odd += o_new
        odd_d += m2_o * o_new
        tiny = abs(e_new) < 1e-18 * abs(even) and abs(o_new) < 1e-18 * abs(odd)
        small = small + 1 if tiny else 0
        if small >= 3:
            break
        e2, e, o2, o = e, e_new, o, o_new
    return even, even_d, odd, odd_d


def _pcf_origin(nu: complex, z: complex) -> tuple[complex, complex]:
    """Carry (D_nu, D_nu') from z = 0 outward along the segment to z, in equal
    Taylor steps of |h| <= ``_BAND_STEP`` of the Weber ODE
    u'' = (z^2/4 - nu - 1/2) u: one step up to |z| = 4, two beyond.  The
    first step sums the even and odd parts of ``_origin_parts``."""
    u, up = _pcf_at_zero(nu)
    if z == 0:
        return u, up
    n_steps = math.ceil(abs(z) / _BAND_STEP)
    h = z / n_steps
    q = nu + 0.5
    h2 = h * h
    h4 = 0.25 * h2 * h2
    even, even_d, odd, odd_d = _origin_parts(-q * h2, h4)
    u, up = u * even + up * h * odd, u * even_d / h + up * odd_d
    for i in range(1, n_steps):
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

    Tested range: |z| <= 50 and |nu| <= 2 on every path; below the ring
    also at the orders -2.58i and -1 + 2.58i (|nu| <= 2.77), near those of
    the parametrix at the edge pair (alpha, k) = (0.4999, 0).  Relative
    accuracy is ~1e-12 in the right wedge and the band at |nu| <= 2, and
    ~1.5e-11 past the ring; below it, elsewhere, up to 1.3e-11 at |nu| = 2
    and 2.8e-11 at the edge orders (see the module notes).
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
    # Below the ring, where D is recessive in the right wedge Re z^2 > 6 and in
    # the band |Im z^2| > 18, the wedge path; elsewhere transport from z = 0.
    if z.real > 0.0 and (z2.real > 6.0 or (z2.real > 0.0 and abs(z2.imag) > 18.0)):
        return _pcf_wedge(nu, z)
    return _pcf_origin(nu, z)
