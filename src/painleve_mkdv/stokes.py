"""Parameter domain of the real Ablowitz-Segur family and the constants
attached to it: Stokes multipliers, the oscillation amplitude/phase pair
(d, phi) of the x -> -infinity tail, and the monodromy-side constants
(nu, h0, h1) used by the local parametrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateParamsError, DomainError
from .specfun import log_gamma

__all__ = [
    "ASParams",
    "StokesTriple",
    "ConnectionConstants",
    "RHConstants",
    "make_params",
    "stokes_triple",
    "connection_constants",
    "rh_constants",
    "h_factors",
    "reduce_angle",
]

_TAU = 2.0 * math.pi


def reduce_angle(phi: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    r = math.remainder(phi, _TAU)
    if r <= -math.pi:
        r += _TAU
    return r


@dataclass(frozen=True)
class ASParams:
    """The pair (alpha, k) selecting a real Ablowitz-Segur solution.

    Valid domain: |alpha| < 1/2 and |k| < cos(pi*alpha).  The pair (0, 0)
    is flagged degenerate: it corresponds to the identically zero solution.
    ``make_params`` also rejects a nonzero pair so near it that d^2 underflows.
    """

    alpha: float
    k: float

    @property
    def degenerate(self) -> bool:
        return self.alpha == 0.0 and self.k == 0.0


@dataclass(frozen=True)
class StokesTriple:
    s1: complex
    s2: complex
    s3: complex

    def constraint_residual(self, alpha: float) -> complex:
        """s1 - s2 + s3 + s1*s2*s3 + 2 sin(pi*alpha); zero on the family."""
        return (self.s1 - self.s2 + self.s3 + self.s1 * self.s2 * self.s3
                + 2.0 * math.sin(math.pi * alpha))


@dataclass(frozen=True)
class ConnectionConstants:
    """Amplitude d >= 0 and phase phi in (-pi, pi] of the oscillatory tail."""

    d: float
    phi: float


@dataclass(frozen=True)
class RHConstants:
    """nu = -i d^2/2 plus the triangular-factor constants h0, h1."""

    nu: complex
    h0: complex
    h1: complex


def _edge_cosine(alpha: float) -> float:
    # cos(pi alpha) as sin(pi (1/2 - |alpha|)): 1/2 - |alpha| is exact for
    # |alpha| >= 1/4, so the bound on |k| stays accurate as |alpha| -> 1/2
    return math.sin(math.pi * (0.5 - abs(alpha)))


def make_params(alpha: float, k: float) -> ASParams:
    alpha = float(alpha)
    k = float(k)
    if not (math.isfinite(alpha) and math.isfinite(k)):
        raise DomainError("alpha and k must be finite")
    if abs(alpha) >= 0.5:
        raise DomainError(f"alpha = {alpha:g} outside (-1/2, 1/2)")
    bound = _edge_cosine(alpha)
    if abs(k) >= bound:
        raise DomainError(f"k = {k:g} outside (-cos(pi*alpha), cos(pi*alpha)) = (+-{bound:g})")
    p = ASParams(alpha, k)
    if not p.degenerate and _d_squared(p) == 0.0:
        raise DomainError(f"d^2 underflows to zero at (alpha, k) = ({alpha:g}, {k:g})")
    return p


def stokes_triple(p: ASParams) -> StokesTriple:
    s = math.sin(math.pi * p.alpha)
    return StokesTriple(complex(-s, -p.k), 0.0 + 0.0j, complex(-s, p.k))


def _d_squared(p: ASParams) -> float:
    """d^2 = -ln(cos^2(pi alpha) - k^2) / pi."""
    # g = cos^2(pi alpha) - k^2 = 1 - s1*s3: near the edge (c - k)(c + k) keeps
    # its digits and is > 0 wherever make_params accepts k (same c); near (0, 0)
    # g rounds towards 1 and ln g loses d^2, so there log1p takes s1*s3 itself
    c, k = _edge_cosine(p.alpha), abs(p.k)
    g = (c - k) * (c + k)
    if g > 0.5:
        return -math.log1p(-(math.sin(math.pi * p.alpha) ** 2 + k * k)) / math.pi
    return -math.log(g) / math.pi


def connection_constants(p: ASParams) -> ConnectionConstants:
    """Amplitude and phase of the leading oscillation of v(x) as x -> -infinity.

    d   = sqrt(-ln(cos^2(pi alpha) - k^2) / pi)
    phi = -(3/2) d^2 ln 2 + arg Gamma(i d^2 / 2) - pi/4 - arg(-sin(pi alpha) - i k)

    with principal-branch arguments, the result reduced to (-pi, pi].  The
    zero profile (0, 0), whose phi is undefined, takes (0, 0); a nonzero pair
    so close to it that d^2 underflows raises ``DegenerateParamsError``.
    """
    if p.degenerate:
        return ConnectionConstants(0.0, 0.0)
    d2 = _d_squared(p)
    if d2 == 0.0:
        raise DegenerateParamsError("d underflows to zero for these parameters")
    d = math.sqrt(d2)
    arg_gamma = log_gamma(0.5j * d2).imag
    arg_s1 = cmath.phase(stokes_triple(p).s1)
    phi = -1.5 * d2 * math.log(2.0) + arg_gamma - 0.25 * math.pi - arg_s1
    return ConnectionConstants(d, reduce_angle(phi))


def h_factors(nu: complex) -> tuple[complex, complex]:
    """Triangular-factor constants h0 = -i sqrt(2 pi)/Gamma(nu+1) and
    h1 = sqrt(2 pi) e^{i pi nu}/Gamma(-nu) of the parabolic-cylinder
    parametrix, with h1 = 0 where 1/Gamma(-nu) has its zeros
    (nu = 0, 1, 2, ...)."""
    h0 = -1j * math.sqrt(_TAU) * cmath.exp(-log_gamma(nu + 1.0))
    if nu.imag == 0.0 and nu.real >= 0.0 and nu.real == int(nu.real):
        h1 = 0.0 + 0.0j
    else:
        h1 = math.sqrt(_TAU) * cmath.exp(1j * math.pi * nu - log_gamma(-nu))
    return h0, h1


def rh_constants(p: ASParams) -> RHConstants:
    """nu, h0, h1 for the parametrix bookkeeping.

    nu is purely imaginary (= -i d^2/2); h0, h1 are ``h_factors(nu)``, with
    h1 = 0 at the degenerate point nu = 0.
    """
    d2 = _d_squared(p)
    nu = complex(0.0, -0.5 * d2)
    return RHConstants(nu, *h_factors(nu))
