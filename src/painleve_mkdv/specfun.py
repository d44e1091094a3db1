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
* ``pcf_d`` is built here, since scipy has no complex-order D_nu.  It uses the
  even/odd Kummer series below |z| = 7.6 and the large-z expansion (plus the
  reflection connection into the left sectors) beyond.  Once the argument
  oscillates hard the series sums in exact integer fixed point at 2^-120;
  each term there is divided as (x >> 239) // m with the small integer
  m = 2(c+k)(k+1), which equals x // (m << 239) bit for bit.  The series
  prefactors are only double precision, so near the real axis, where D_nu is
  recessive and the even/odd split cancels by e^{Re z^2/2}, the mid range is
  instead bridged by Taylor transport of the Weber ODE
  u'' = (z^2/4 - nu - 1/2) u from the asymptotic ring inward; with D
  recessive at the seed that direction cannot amplify the seed error.  Each
  Taylor step of h = 1 sums at most 48 coefficients and stops early once
  three terms in a row fall below 1e-18 of the value (8 terms at least).
* The last two Kummer sums are cached.  By Kummer's transformation
  M(a, c, w) = e^w M(c - a, c, -w), D_{-nu-1}(+-iw) and D_nu(+-w) share
  their two sums, so the second column of the parametrix matrix Z reuses
  the first column's whenever both take the series path.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from scipy.special import airy, loggamma, rgamma

from .errors import PoleError, SpecFunRangeError

__all__ = ["airy_ai", "log_gamma", "pcf_d"]

_SQRT_PI = math.sqrt(math.pi)


def airy_ai(x: float) -> tuple[float, float]:
    """Return (Ai(x), Ai'(x)) for real x, accuracy ~1e-13: relative for
    x > 0, against the (1+|x|)^{-/+1/4} envelope for x <= 0."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("airy_ai requires finite x")
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
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("log_gamma requires finite z")
    if z.imag == 0.0:
        if z.real <= 0.0 and z.real == int(z.real):
            raise PoleError(f"log_gamma pole at z = {z.real:g}")
        z = complex(z.real, 0.0)  # scipy takes the lower side for -0.0j
    return complex(loggamma(z))


def _rgamma(z: complex) -> complex:
    """1/Gamma(z), zero at the poles of Gamma."""
    return complex(rgamma(z))


# ---------------------------------------------------------------------------
# Parabolic cylinder functions
# ---------------------------------------------------------------------------

_PCF_ASYM_RADIUS = 7.6
_PCF_CONNECT_ARG = 0.5 * math.pi
_PCF_MAX_ABS = 50.0
_FIX_BITS = 120
_FIX_ONE = 1 << _FIX_BITS
_DIV_SHIFT = 2 * _FIX_BITS - 1
_MARCH_TERMS = 48


def _kummer(a: complex, c: complex, w: complex) -> tuple[complex, complex]:
    """Confluent hypergeometric M(a, c, w) and dM/dw by direct summation.

    Arguments with Re w < 0 are routed through M(a,c,w) = e^w M(c-a, c, -w)
    so the summed series never alternates in its dominant scale.
    """
    if w == 0:
        return 1.0 + 0.0j, a / c
    if w.real < 0.0:
        m, dm = _kummer_sum(c - a, c, -w)
        ew = cmath.exp(w)
        return ew * m, ew * (m - dm)
    return _kummer_sum(a, c, w)


# The two columns of the parabolic-cylinder parametrix evaluate D_{-nu-1}(+-iw)
# and D_nu(+-w); the Kummer reflection above maps the first column's two sums
# onto exactly the second's (c - a gives -nu/2 and (1 - nu)/2), bit for bit
# when nu is purely imaginary, so the last pcf_d call's pair is kept.
@lru_cache(maxsize=2)
def _kummer_sum(a: complex, c: complex, w: complex) -> tuple[complex, complex]:
    """M(a, c, w) and dM/dw for Re w >= 0.  A large imaginary part still
    oscillates (cancellation ~ e^{|Im w|}); the sum then runs in exact
    integer fixed point at 2^-120."""
    if abs(w.imag) > 9.0:
        return _kummer_fixed(a, c, w)
    term = 1.0 + 0.0j
    total = term
    weighted = 0.0 + 0.0j  # sum of k * term_k
    for k in range(0, 600):
        term = term * w * (a + k) / ((c + k) * (k + 1.0))
        total += term
        weighted += (k + 1.0) * term
        if k > 3 and abs(term) < 1e-17 * (abs(total) + 1e-300):
            break
    return total, weighted / w


def _kummer_fixed(a: complex, c: float, w: complex) -> tuple[complex, complex]:
    # Same sum in exact integer fixed point: w, a and the terms are integers
    # at 2^-120 (scaling a float by a power of two and taking int() is
    # exact).  c is 1/2 or 3/2, the only values _pcf_series passes, so
    # den = 2(c+k)(k+1) is an integer and each term is one complex integer
    # product, a shift and a floor division by den; floor(floor(x/a)/b) =
    # floor(x/(ab)) for positive integers a, b, so shifting first changes no
    # bit of the quotient.  Each division is off by < 2^-120; grown by at
    # most the largest term (< 2^42 for |z| < 7.6), 600 terms stay < 2^-68,
    # far below the e^{|Im w|} cancellation the double sum would suffer.
    # The weighted sum comes from the partial sums T_j, exactly:
    # sum_{j<=n} j t_j = n T_n - sum_{j<n} T_j.
    wr, wi = int(w.real * _FIX_ONE), int(w.imag * _FIX_ONE)
    ar, ai = int(a.real * _FIX_ONE), int(a.imag * _FIX_ONE)
    ur, ui = wr * ar - wi * ai, wr * ai + wi * ar  # w (a + k) at 2^-240
    wsr, wsi = wr << _FIX_BITS, wi << _FIX_BITS    # w at 2^-240
    c2 = int(2.0 * c)
    tr, ti = _FIX_ONE, 0
    total_r, total_i = tr, ti
    run_r = run_i = 0  # sum of the partial sums before the newest term
    scale = _FIX_ONE
    for k in range(0, 600):
        # term * w (a + k) / ((c + k)(k + 1)): x at 2^-360, x // (den << 239)
        run_r += total_r
        run_i += total_i
        den = (c2 + 2 * k) * (k + 1)
        tr, ti = (((tr * ur - ti * ui) >> _DIV_SHIFT) // den,
                  ((tr * ui + ti * ur) >> _DIV_SHIFT) // den)
        total_r += tr
        total_i += ti
        mag = abs(tr) + abs(ti)
        if mag > scale:
            scale = mag
        elif mag < scale >> 113 and k > 3:  # below 2^-113 of the largest term
            break
        ur += wsr
        ui += wsi
    n = k + 1
    m = complex(total_r / _FIX_ONE, total_i / _FIX_ONE)
    dm = complex((n * total_r - run_r) / _FIX_ONE,
                 (n * total_i - run_i) / _FIX_ONE) / w
    return m, dm


def _pcf_series(nu: complex, z: complex) -> tuple[complex, complex]:
    w = 0.5 * z * z
    s1, ds1 = _kummer(-0.5 * nu, 0.5, w)
    s2, ds2 = _kummer(0.5 * (1.0 - nu), 1.5, w)
    pre = cmath.exp(0.5 * nu * math.log(2.0))
    a_coef = _SQRT_PI * pre * _rgamma(0.5 * (1.0 - nu))
    b_coef = -math.sqrt(2.0 * math.pi) * pre * _rgamma(-0.5 * nu)
    env = cmath.exp(-0.5 * w)
    even = a_coef * s1
    odd = b_coef * z * s2
    value = env * (even + odd)
    deriv = env * (-0.5 * z * (even + odd)
                   + a_coef * ds1 * z + b_coef * s2 + b_coef * z * z * ds2)
    return value, deriv


def _pcf_asym(nu: complex, z: complex) -> tuple[complex, complex]:
    # e^{-z^2/4} z^nu sum_s (-1)^s (-nu)_{2s} / (s! 2^s z^{2s}),  |arg z| < 3pi/4
    inv_z2 = 1.0 / (z * z)
    term = 1.0 + 0.0j
    total = term
    weighted = 0.0 + 0.0j
    prev = math.inf
    for s in range(0, 40):
        term = -term * (-nu + 2.0 * s) * (-nu + 2.0 * s + 1.0) * inv_z2 / (2.0 * (s + 1.0))
        mag = abs(term)
        if mag > prev:
            break
        total += term
        weighted += (s + 1.0) * term
        prev = mag
        if mag < 1e-18 * abs(total):
            break
    envelope = cmath.exp(-0.25 * z * z + nu * cmath.log(z))
    value = envelope * total
    deriv = envelope * ((-0.5 * z + nu / z) * total - 2.0 * weighted / z)
    return value, deriv


def _pcf_connect(nu: complex, z: complex, ev) -> tuple[complex, complex]:
    """Reflection identity with sub-evaluations through ``ev``.

    The rotation sign is tied to the half-plane so that both reflected
    arguments land in sectors where ``ev`` is accurate; the two terms live on
    different exponential scales, so the sum never cancels.
    """
    if z.imag >= 0.0:
        phase, rot = 1.0, -1.0j
    else:
        phase, rot = -1.0, 1.0j
    c1 = cmath.exp(phase * 1j * math.pi * nu)
    c2 = (math.sqrt(2.0 * math.pi) * _rgamma(-nu)
          * cmath.exp(phase * 1j * math.pi * (nu + 1.0) / 2.0))
    v1, d1 = ev(nu, -z)
    v2, d2 = ev(-nu - 1.0, rot * z)
    return c1 * v1 + c2 * v2, -c1 * d1 + c2 * rot * d2


def _pcf_far(nu: complex, z: complex) -> tuple[complex, complex]:
    """|z| >= asymptotic radius, any direction.

    Beyond |arg z| = pi/2 the subdominant exponential switched on by the
    Stokes phenomenon is no longer negligible, so the one-sided expansion is
    replaced by the reflection identity (both reflected arguments then sit
    within |arg| <= pi/2, where their expansions are complete).
    """
    if abs(cmath.phase(z)) <= _PCF_CONNECT_ARG:
        return _pcf_asym(nu, z)
    return _pcf_connect(nu, z, _pcf_asym)


def _pcf_march(nu: complex, z: complex) -> tuple[complex, complex]:
    """Taylor transport of u'' = (z^2/4 - nu - 1/2) u inward along the ray."""
    z0 = z * (_PCF_ASYM_RADIUS / abs(z))
    u, up = _pcf_far(nu, z0)
    n_steps = max(1, math.ceil(abs(z - z0)))  # steps of |h| <= 1
    h = (z - z0) / n_steps
    q = nu + 0.5
    for i in range(n_steps):
        c = z0 + i * h
        p0 = 0.25 * c * c - q
        p1 = 0.5 * c
        # a_{m+2} = (p0 a_m + p1 a_{m-1} + 0.25 a_{m-2}) / ((m+2)(m+1)), at
        # most _MARCH_TERMS coefficients.  The value sum a_m h^m and the
        # derivative sum m a_m h^{m-1} accumulate as the coefficients come;
        # the step stops once three terms in a row fall below 1e-18 of the
        # value, after at least 8 terms.
        am2, am1, am, ap1 = 0j, 0j, u, up  # a_{m-2}, a_{m-1}, a_m, a_{m+1}
        val = u + up * h
        der = up
        hp = h  # h^{m+1}
        small = 0
        for m in range(0, _MARCH_TERMS - 2):
            a_new = (p0 * am + p1 * am1 + 0.25 * am2) / ((m + 2.0) * (m + 1.0))
            der += (m + 2.0) * a_new * hp
            hp *= h
            term = a_new * hp
            val += term
            small = small + 1 if abs(term) < 1e-18 * abs(val) else 0
            if small >= 3 and m >= 5:
                break
            am2, am1, am, ap1 = am1, am, ap1, a_new
        u, up = val, der
    return u, up


def pcf_d(nu: complex, z: complex) -> tuple[complex, complex]:
    """Parabolic cylinder function: return (D_nu(z), d/dz D_nu(z)).

    Intended range |nu| <= 2, |z| <= 50.  Relative accuracy is ~1e-11 on
    most of it, but only ~1e-10 where D_nu is small next to the even and
    odd parts of its series: complex orders near |nu| = 2, |z| ~ 4-6 about
    arg z = +-45 degrees (at nu = -1 + 2i, z = 3.48 + 2.53i, D is off by
    8.3e-11 and D' by 1.1e-10 relative to mpmath).
    """
    nu = complex(nu)
    z = complex(z)
    for part in (nu.real, nu.imag, z.real, z.imag):
        if not math.isfinite(part):
            raise ValueError("pcf_d requires finite nu, z")
    r = abs(z)
    if r > _PCF_MAX_ABS:
        raise SpecFunRangeError(f"pcf_d argument |z| = {r:.3g} exceeds supported range 50")
    return _pcf_core(nu, z)


def _pcf_core(nu: complex, z: complex) -> tuple[complex, complex]:
    if abs(z) >= _PCF_ASYM_RADIUS:
        return _pcf_far(nu, z)
    # Below the asymptotic ring the even/odd series loses e^{Re z^2/2} to
    # prefactor cancellation wherever D is recessive (right near-real wedge),
    # where inward ODE transport from the ring is stable instead.  The left
    # near-real wedge (D dominant, transport unstable) reflects into the
    # right wedge and the near-imaginary wedge.  Elsewhere the
    # (fixed-point) series is accurate.
    if (z * z).real > 6.0:
        if z.real >= 0.0:
            return _pcf_march(nu, z)
        return _pcf_connect(nu, z, _pcf_core)
    return _pcf_series(nu, z)
