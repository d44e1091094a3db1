"""Numerical verification of the computable Riemann-Hilbert identities:
phase maps, the diagonal matrix N(z), the power factor beta(z), the origin
residue identity, the stationary-point contour identity reproducing the
oscillatory tail, and the parabolic-cylinder local parametrices with their
first-order predictions and the log-log fit of their observed decay order.

The stationary identity integrates m_pred's own first-order terms
(``_f_terms``), so it certifies what the parametrix decay is measured
against.  Points z and orders nu must be finite (``DomainError``).

Conventions fixed here and used throughout:

* contour circles are traversed clockwise (the residue identity evaluates
  to -2 pi i times the residue);
* powers of (z + 1/2)/(z - 1/2) are principal-branch with the cut on the
  segment [-1/2, 1/2];
* the argument of sqrt(t) zeta(z) is continued over the sector chain
  (-pi/4, 7 pi/4), which on the right ring equals
  3 pi/4 + Arg(z - 1/2) + Arg(z + 1)/2; with the segment-cut ratio power
  this makes beta(z) single-valued and analytic on the punctured disc.
"""

from __future__ import annotations

import bisect
import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (BranchCutError, DegenerateParamsError, DomainError,
                     QuadratureError, SectorBoundaryError)
from .specfun import pcf_d
from .stokes import (ASParams, connection_constants, rh_constants,
                     stokes_triple)

__all__ = [
    "SIGMA2",
    "ContourCircle",
    "phase_maps",
    "n_matrix",
    "beta_fn",
    "residue_check_origin",
    "stationary_identity",
    "z_parametrix",
    "t_right_parametrix",
    "t_left_parametrix",
    "m_pred",
    "parametrix_decay",
    "loglog_slope",
]

SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

_RING_PHASE = 0.75 * math.pi
_ZETA_SCALE = 4.0 * math.sqrt(3.0) / 3.0
_ZETA_FACTOR = _ZETA_SCALE * cmath.exp(1j * _RING_PHASE)
_LOG_ZETA_SCALE = math.log(_ZETA_SCALE)
_SQRT_HALF = math.sqrt(0.5)
_SQRT_TWO = math.sqrt(2.0)


@dataclass(frozen=True)
class ContourCircle:
    """Quadrature circle, traversed clockwise; radius < 1/4 keeps the branch
    points and the segment cut on the correct sides for circles about 0 and
    +-1/2."""

    center: complex
    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius < 0.25:
            raise DomainError("radius must lie in (0, 1/4)")


def _finite(x, name: str):
    if not cmath.isfinite(x):
        raise DomainError(f"{name} must be finite")
    return x


def _with_module(z):
    """(z, cmath) for a scalar, (z as a complex array, numpy) for an array,
    so each formula below is written once for both; z must be finite."""
    if isinstance(z, np.ndarray):
        z = z.astype(complex, copy=False)
        if not np.isfinite(z).all():
            raise DomainError("z must be finite")
        return z, np
    return _finite(complex(z), "z"), cmath


def _checked_time(t, name: str) -> float:
    t = float(t)
    if not 0.0 < t < math.inf:
        raise DomainError(f"{name} requires 0 < t < inf")
    return t


def phase_maps(z):
    """eta = z - 4z^3/3, theta_tilde = -i eta = i(4z^3/3 - z), and
    zeta = (4 sqrt(3)/3) e^{3 pi i/4} (z - 1/2) sqrt(z + 1) (principal root),
    returned as (theta_tilde, eta, zeta).

    zeta solves zeta^2 = -4(theta_tilde(z) - theta_tilde(1/2)).  Takes a
    complex scalar or an array, elementwise.  Warns when z sits within 1e-9
    of the sqrt branch cut (-inf, -1].
    """
    z, xm = _with_module(z)
    eta = z - 4.0 * z ** 3 / 3.0
    w = z + 1.0
    near_cut = (abs(w.imag) < 1e-9) & (w.real <= 0.0)
    if near_cut if xm is cmath else near_cut.any():
        warnings.warn("zeta evaluated within 1e-9 of its branch cut (-inf, -1]",
                      stacklevel=2)
    zeta = _ZETA_FACTOR * (z - 0.5) * xm.sqrt(w)
    return -1j * eta, eta, zeta


def n_matrix(z: complex, nu: complex) -> np.ndarray:
    """Diagonal matrix ((z+1/2)/(z-1/2))^{nu sigma3}, cut on [-1/2, 1/2]."""
    z = _finite(complex(z), "z")
    _finite(nu, "nu")
    if abs(z.imag) <= 1e-12 and -0.5 - 1e-12 <= z.real <= 0.5 + 1e-12:
        raise BranchCutError("n_matrix undefined on the segment [-1/2, 1/2]")
    ratio = (z + 0.5) / (z - 0.5)
    power = cmath.exp(nu * cmath.log(ratio))
    return np.array((power, 0.0, 0.0, 1.0 / power), dtype=complex).reshape(2, 2)


def beta_fn(z, t: float, nu: complex):
    """beta(z) = (sqrt(t) zeta(z) (z+1/2)/(z-1/2))^nu near z = +1/2.

    The zeta argument is continued over the parametrix sector chain; combined
    with the segment-cut power of the ratio, the z - 1/2 factors cancel and
    the product is single-valued and analytic on the punctured disc about
    +1/2: its base is sqrt(t) (4 sqrt(3)/3) e^{3 pi i/4} sqrt(z+1) (z+1/2).
    Takes a complex scalar or an array, elementwise.
    """
    z, xm = _with_module(z)
    _finite(nu, "nu")
    t = _checked_time(t, "beta_fn")
    at_branch = (abs(z + 0.5) < 1e-12) | (abs(z + 1.0) < 1e-12)
    if at_branch if xm is cmath else at_branch.any():
        raise BranchCutError("beta_fn undefined at the left branch points")
    log_base = (0.5 * math.log(t) + _LOG_ZETA_SCALE + 1j * _RING_PHASE
                + 0.5 * xm.log(z + 1.0) + xm.log(z + 0.5))
    return xm.exp(nu * log_base)


_CIRCLE_NODES, _CIRCLE_MAX_NODES, _CIRCLE_TOL = 64, 16384, 1e-10


def _circle_sum(f, circle: ContourCircle, theta: np.ndarray, n: int) -> complex:
    # the n-node trapezoid rule's terms at the angles theta
    pos = np.exp(-1j * theta)
    zs = circle.center + circle.radius * pos
    dz = -1j * circle.radius * pos * (2.0 * math.pi / n)
    return complex(np.sum(f(zs) * dz))


def _circle_integral(f, circle: ContourCircle) -> complex:
    """Spectral trapezoid quadrature of a clockwise contour integral over the
    circle, node-doubling from _CIRCLE_NODES until two successive
    refinements agree to _CIRCLE_TOL (relative above 1).  The rules are
    nested: each doubling evaluates f only at the new midpoints and adds
    them to half the previous sum."""
    n = _CIRCLE_NODES
    total = _circle_sum(f, circle, 2.0 * math.pi * np.arange(n) / n, n)
    while n < _CIRCLE_MAX_NODES:
        mids = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        n *= 2
        prev, total = total, 0.5 * total + _circle_sum(f, circle, mids, n)
        if abs(total - prev) < _CIRCLE_TOL * max(1.0, abs(total)):
            return total
    raise QuadratureError("circle quadrature did not converge: successive rules "
                          f"differ by {abs(total - prev):.3g} at {n} nodes")


def residue_check_origin(circle: ContourCircle, nu: complex) -> complex:
    """Clockwise integral of E11(z)^2 / eta(z) over a circle about 0, where
    E11 = ((z+1/2)/(1/2-z))^nu; equals -2 pi i for every nu."""
    if circle.center != 0:
        raise DomainError("residue check runs on a circle about the origin")
    _finite(nu, "nu")

    def integrand(zs):
        e11 = np.exp(nu * (np.log(zs + 0.5) - np.log(0.5 - zs)))
        return e11 ** 2 / phase_maps(zs)[1]

    return _circle_integral(integrand, circle)


# the circle about +1/2 of the stationary-point identity
_STATIONARY_CIRCLE = ContourCircle(0.5, 0.15)


def _f_terms(c12: complex, c21: complex, t: float, beta, zeta):
    """The off-diagonal first-order terms (F12, F21) = (c12 e^{2it/3} beta^2,
    c21 e^{-2it/3} beta^{-2}) / zeta of m_pred, at a point or elementwise."""
    osc = cmath.exp(2j * t / 3.0)
    return c12 * osc * beta ** 2 / zeta, c21 / osc * beta ** -2 / zeta


def stationary_identity(p: ASParams, t: float) -> tuple[complex, complex]:
    """Both sides of the stationary-point contour identity.

    lhs: t^{-1/2} times the clockwise integral of F12 + F21, m_pred's own
    off-diagonal terms, over the circle about +1/2.  It stands for the sum
    over the circles about +-1/2: under z -> -z, which keeps the orientation,
    the term about -1/2 is the F21 part of this one.
    rhs: -i pi d t^{-1/2} cos((2/3) t - (3/4) d^2 ln t^{2/3} + phi).
    The identity is exact for every t > 0.
    """
    t = _checked_time(t, "stationary identity")
    if p.degenerate:
        return 0.0 + 0.0j, 0.0 + 0.0j
    cc = connection_constants(p)
    nu, _, c12, c21 = _pair_terms(p)

    def f(zs):
        f12, f21 = _f_terms(c12, c21, t, beta_fn(zs, t, nu), phase_maps(zs)[2])
        return f12 + f21

    lhs = t ** -0.5 * _circle_integral(f, _STATIONARY_CIRCLE)
    phase = (2.0 / 3.0) * t - 0.75 * cc.d ** 2 * math.log(t ** (2.0 / 3.0)) + cc.phi
    rhs = -1j * math.pi * cc.d * t ** -0.5 * math.cos(phase)
    return lhs, rhs


_SECTOR_RAYS = (-0.25 * math.pi, 0.0, 0.5 * math.pi, math.pi,
                1.5 * math.pi, 1.75 * math.pi)


def _chain_arg(w: complex) -> float:
    a = cmath.phase(w)
    return a + 2.0 * math.pi if a < -0.25 * math.pi else a


def _z_sector(w: complex) -> int:
    # the rays are pi/4 or more apart, so only the found sector's two edges
    # can lie within 1e-8 of arg
    arg = _chain_arg(w)
    sector = bisect.bisect_right(_SECTOR_RAYS[1:5], arg)
    if arg - _SECTOR_RAYS[sector] < 1e-8 or _SECTOR_RAYS[sector + 1] - arg < 1e-8:
        raise SectorBoundaryError(f"w on a sector boundary ray (arg = {arg:.6f})")
    return sector


# Per sector: (rotation rot_r of the recessive column with D_nu, rotation
# rot_g of the growing column with D_{-nu-1}, both inside the |arg| < 3pi/4
# validity cone of the respective large-w behavior, and powers g, r of
# E = e^{i pi nu/2}).  The reflection formulas of D_nu (DLMF 12.2) turn the
# unipotent products into rot_g E^g D_{-nu-1}(rot_g w) and E^r D_nu(rot_r w).
_SECTOR_BASIS = {
    0: (1.0, 1.0j, 1, 0),
    1: (1.0, -1.0j, -1, 0),
    2: (-1.0, -1.0j, -1, 2),
    3: (-1.0, 1.0j, -3, 2),
    4: (1.0, 1.0j, -3, 4),
}


def _z_entries(nu: complex, w: complex) -> tuple[complex, ...]:
    # row-major; the rows carry the scaling 2^{-sigma3/2}
    rot_r, rot_g, g, r = _SECTOR_BASIS[_z_sector(w)]
    e = cmath.exp(0.5j * math.pi * nu)
    cg = rot_g * e ** g
    cr = e ** r
    vg, dg = pcf_d(-nu - 1.0, rot_g * w)
    vr, dr = pcf_d(nu, rot_r * w)
    return (_SQRT_HALF * cg * vg, _SQRT_HALF * cr * vr,
            _SQRT_TWO * cg * rot_g * dg, _SQRT_TWO * cr * rot_r * dr)


def z_parametrix(nu: complex, w: complex) -> np.ndarray:
    """Sectionally holomorphic parabolic-cylinder matrix Z(w).

    In the base sector Z builds on D_{-nu-1}(iw) and D_nu(w); crossing each
    boundary ray of the chain multiplies by a unipotent factor, so
    det Z == -1 everywhere.  Numerically the unipotent products mix columns
    of opposite exponential scale (a 2 Re(w^2)/4-digit cancellation at large
    |w|), so each sector instead writes every column as one function
    recessive or growing *in that sector*, times an exact constant.
    """
    return np.array(_z_entries(nu, complex(w)), dtype=complex).reshape(2, 2)


@lru_cache(maxsize=32)  # as tuned_solution: as many pairs as profiles cached
def _pair_terms(p: ASParams) -> tuple | None:
    """(nu, a, -nu s3/h1, -h1/s3) with a = sqrt(-h1/s3): what the parametrix,
    m_pred and the stationary identity take from the pair alone.  None where
    nu = 0: (0, 0), or a pair so near it that d^2 underflows."""
    rc = rh_constants(p)
    if rc.nu == 0:
        return None
    s3 = stokes_triple(p).s3
    return rc.nu, cmath.sqrt(-rc.h1 / s3), -(rc.nu * s3 / rc.h1), -(rc.h1 / s3)


def t_right_parametrix(p: ASParams, t: float, z: complex) -> np.ndarray:
    """Local parametrix about z = +1/2 on the annulus 0.05 <= |z-1/2| <= 0.2:
    T = l^{sigma3} P(w) Z(w) r^{sigma3} with P(w) = [[w, 1], [1, 0]],
    l = beta e^{it/3} / (a sqrt 2), r = a e^{t theta} and a = sqrt(-h1/s3)."""
    z = complex(z)
    if not 0.05 - 1e-12 <= abs(z - 0.5) <= 0.2 + 1e-12:
        raise DomainError("t_right_parametrix expects 0.05 <= |z - 1/2| <= 0.2")
    t = _checked_time(t, "t_right_parametrix")
    pair = _pair_terms(p)
    if pair is None:
        raise DegenerateParamsError("parametrix prefactor -h1/s3 undefined where nu = 0")
    nu, a_fac, _, _ = pair
    (theta, _, zeta), beta = phase_maps(z), beta_fn(z, t, nu)
    w = math.sqrt(t) * zeta
    left = beta / a_fac * cmath.exp(1j * t / 3.0) * _SQRT_HALF
    right = cmath.exp(t * theta) * a_fac
    z00, z01, z10, z11 = _z_entries(nu, w)
    return np.array((left * (w * z00 + z10) * right, left * (w * z01 + z11) / right,
                     z00 * right / left, z01 / (left * right)), dtype=complex).reshape(2, 2)


def t_left_parametrix(p: ASParams, t: float, z: complex) -> np.ndarray:
    """Mirror parametrix about z = -1/2: sigma2 T_right(-z) sigma2."""
    return SIGMA2 @ t_right_parametrix(p, t, -complex(z)) @ SIGMA2


def m_pred(p: ASParams, t: float, z: complex, side: str = "right") -> np.ndarray:
    """First-order prediction I + t^{-1/2} F + t^{-1} G for T N^{-1} on the
    circle about +1/2 (side='right') or, mirrored as sigma2 m_pred(-z)
    sigma2, about -1/2 (side='left')."""
    if side not in ("right", "left"):
        raise DomainError("side must be 'right' or 'left'")
    z = _finite(complex(z), "z")
    if side == "left":
        return SIGMA2 @ m_pred(p, t, -z, "right") @ SIGMA2
    t = _checked_time(t, "m_pred")
    pair = _pair_terms(p)
    if pair is None:
        return np.eye(2, dtype=complex)
    nu, _, c12, c21 = pair
    zeta, beta = phase_maps(z)[2], beta_fn(z, t, nu)
    f12, f21 = _f_terms(c12, c21, t, beta, zeta)
    two_zeta2 = 2.0 * zeta ** 2
    g11 = nu * (nu + 1.0) / two_zeta2
    g22 = -nu * (nu - 1.0) / two_zeta2
    rt = math.sqrt(t)
    return np.array((1.0 + g11 / t, f12 / rt, f21 / rt, 1.0 + g22 / t),
                    dtype=complex).reshape(2, 2)


def parametrix_decay(p: ASParams) -> list[tuple[float, float]]:
    """Decay of the right parametrix against its first-order prediction:
    (t, max |T N^{-1} - m_pred|) for 13 times t on geomspace(10, 1000), the
    maximum over 16 points of the circle |z - 1/2| = 0.15.

    ``loglog_slope`` of the result is the observed order in t.  N(z) takes
    its order from ``rh_constants(p)``, as ``t_right_parametrix`` and
    ``m_pred`` do.
    """
    nu = rh_constants(p).nu
    zs = [0.5 + 0.15 * cmath.exp(1j * (0.0371 + 2.0 * math.pi * j / 16.0))
          for j in range(16)]
    n_inv = [n_matrix(z, -nu) for z in zs]
    pts = []
    for t in np.geomspace(10.0, 1000.0, 13).tolist():
        nrm = max(np.linalg.norm(t_right_parametrix(p, t, z) @ n - m_pred(p, t, z, "right"))
                  for z, n in zip(zs, n_inv))
        pts.append((t, float(nrm)))
    return pts


def loglog_slope(points) -> float:
    """Least-squares slope of ln(value) against ln(abscissa).

    Expects >= 5 points with finite positive abscissas and values; raises
    ``DomainError`` on degenerate input (coincident abscissas).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 5:
        raise DomainError("loglog_slope needs at least 5 (abscissa, value) pairs")
    if not np.all((pts > 0.0) & (pts < np.inf)):
        raise DomainError("loglog_slope needs finite positive abscissas and values")
    log_s = np.log(pts[:, 0])
    if np.ptp(log_s) == 0.0:
        raise DomainError("coincident abscissas")
    slope, _ = np.polyfit(log_s, np.log(pts[:, 1]), 1)
    return float(slope)
