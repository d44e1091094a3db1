"""Principal-value total integral of v and its Fourier transform near xi = 0.

The symmetric-limit integral splits into a quadrature core on [-X, X], a
closed-form decaying tail on the right, and an oscillatory tail on the left
handled by integration by parts against the phase (the alpha/x pieces of the
two infinite tails cancel exactly in the symmetric limit).  The remaining
absolutely integrable remainder is *estimated*, never added as a value: its
order constant is only known empirically.

Fourier convention (normative for the package): vhat(xi) = int v(x) e^{-i xi x} dx.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from .asymptotics import psi_tilde
from .errors import DomainError
from .pii import AblowitzSegurSolution, tuned_solution
from .stokes import ASParams, ConnectionConstants, _edge_cosine

__all__ = [
    "TailPolicy",
    "total_integral_formula",
    "pv_total_integral",
    "v_hat",
]

# Empirical coefficient for the size of the omitted absolutely-integrable
# remainder tail: |int_X^inf (v - model)| ~ H_TAIL_COEFF * d^3 * X^{-3/4},
# calibrated from the X-sweep diagnostics (scripts/remainder_slopes.py).
H_TAIL_COEFF = 0.1


@dataclass(frozen=True)
class TailPolicy:
    """Cutoff X >= 20 for the quadrature core; the oscillatory tail beyond
    it takes two integration-by-parts levels."""

    cutoff: float = 60.0

    def __post_init__(self):
        if not self.cutoff >= 20.0:
            raise DomainError("tail cutoff must be >= 20")


def total_integral_formula(p: ASParams) -> float:
    """Closed form of the principal-value integral of v over the line:
    (1/2) ln((cos(pi alpha) + k)/(cos(pi alpha) - k)).

    Written as a difference of logarithms so the antisymmetry in k holds
    exactly in floating point; cos(pi alpha) is the edge-accurate form that
    bounds |k| in ``make_params``, so c - |k| keeps its digits near the edge.
    """
    c = _edge_cosine(p.alpha)
    return 0.5 * (math.log(c + p.k) - math.log(c - p.k))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _panel_edges(x_lo: float, x_hi: float, xi: float) -> np.ndarray:
    """Panel breakpoints resolving both the solution's oscillation (period
    2 pi / sqrt(-x) on the left) and the transform kernel."""
    cap_kernel = math.pi / (4.0 * abs(xi)) if xi != 0.0 else math.inf
    edges = [x_lo]
    x = x_lo
    while x < x_hi:
        local = 2.0 * math.pi / (2.0 * math.sqrt(-x)) if x < -1.0 else 1.0
        x = min(x + min(local, 1.0, cap_kernel), x_hi)
        edges.append(x)
    return np.asarray(edges)


def _core_quadrature(sol: AblowitzSegurSolution, x_lo: float, x_hi: float,
                     xi: float):
    edges = _panel_edges(x_lo, x_hi, xi)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    ws = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    v = sol.v(xs)[0]
    if xi == 0.0:
        return float(np.sum(ws * v))
    return complex(np.sum(ws * v * np.exp(-1j * xi * xs)))


def _psi_pieces(c: ConnectionConstants, s: float):
    psi, dpsi = psi_tilde(s, c)
    ddpsi = 0.5 / math.sqrt(s) + 0.75 * (c.d * c.d) / (s * s)
    return psi, dpsi, ddpsi


def _q_factor(c: ConnectionConstants, s: float) -> float:
    # (s^{1/4} Psi')' / (s^{1/2} Psi'^2), the kernel of the second IBP level
    _, dpsi, ddpsi = _psi_pieces(c, s)
    return (0.25 * s ** -0.75 * dpsi + s ** 0.25 * ddpsi) / (math.sqrt(s) * dpsi * dpsi)


def _osc_tail(c: ConnectionConstants, x_cut: float,
              xi: float) -> tuple[complex, float]:
    """int_{X}^{inf} d s^{-1/4} cos(PsiTilde(s)) e^{i xi s} ds by parts,
    two levels.

    Returns (value, magnitude estimate of the first omitted terms).  With
    xi = 0 this is the left tail of the principal-value integral.
    """
    d = c.d
    s = x_cut
    psi, dpsi, _ = _psi_pieces(c, s)
    kernel = complex(math.cos(xi * s), math.sin(xi * s))
    q = _q_factor(c, s)
    b1 = -d * kernel * math.sin(psi) / (s ** 0.25 * dpsi)
    b2 = d * kernel * q * math.cos(psi) / dpsi
    b3 = -d * 1j * xi * kernel * math.cos(psi) / (s ** 0.25 * dpsi * dpsi)
    # next-level magnitudes: differentiate the level-2 kernels once more
    h = 1e-4 * s
    dq_over = ((_q_factor(c, s + h) / _psi_pieces(c, s + h)[1]
                - _q_factor(c, s - h) / _psi_pieces(c, s - h)[1]) / (2.0 * h))
    est = (d * abs(dq_over) / dpsi
           + d * abs(xi) * abs(q) / dpsi ** 2
           + d * xi * xi * s ** -0.25 / dpsi ** 3)
    return b1 + b2 + b3, est


def pv_total_integral(p: ASParams, policy: TailPolicy | None = None,
                      tol: float = 1e-3,
                      solution: AblowitzSegurSolution | None = None) -> float:
    """Principal-value integral of v over the real line (symmetric limit).

    Warns when the estimated uncomputed remainder exceeds ``tol``.
    """
    if p.degenerate:
        return 0.0
    policy = policy or TailPolicy()
    sol = solution if solution is not None else tuned_solution(p)
    x_cut = policy.cutoff
    core = _core_quadrature(sol, -x_cut, x_cut, 0.0)
    right_tail = (2.0 / 3.0) * p.alpha * (1.0 - p.alpha ** 2) * x_cut ** -3
    left_tail, est = _osc_tail(sol.connection, x_cut, 0.0)
    d = sol.connection.d
    est += H_TAIL_COEFF * d ** 3 * x_cut ** -0.75
    if est > tol:
        warnings.warn(f"estimated tail remainder {est:.2e} exceeds tol {tol:.2e}",
                      stacklevel=2)
    return core + right_tail + float(left_tail.real)


def v_hat(p: ASParams, xi: float, policy: TailPolicy | None = None,
          tol: float = 1e-2,
          solution: AblowitzSegurSolution | None = None) -> complex:
    """Fourier transform vhat(xi) = int v(x) e^{-i xi x} dx, symmetric-limit
    sense, for 0 < |xi| <= 1.

    Built from the quadrature core, the sine-integral closed form of the
    alpha/x tails, and the oscillatory left tail by parts.  The absolutely
    integrable remainder tail is only estimated (warning when above ``tol``).
    """
    xi = float(xi)
    if xi == 0.0 or abs(xi) > 1.0:
        raise DomainError("v_hat requires 0 < |xi| <= 1")
    if p.degenerate:
        return 0.0 + 0.0j
    policy = policy or TailPolicy()
    sol = solution if solution is not None else tuned_solution(p)
    x_cut = policy.cutoff
    core = _core_quadrature(sol, -x_cut, x_cut, xi)
    si_val = float(sici(abs(xi) * x_cut)[0])
    f_tail = -2j * p.alpha * math.copysign(1.0, xi) * (0.5 * math.pi - si_val)
    # left oscillatory tail: x = -s turns e^{-i xi x} into e^{+i xi s}
    g_tail, est = _osc_tail(sol.connection, x_cut, xi)
    d = sol.connection.d
    est += H_TAIL_COEFF * d ** 3 * x_cut ** -0.75
    est += (2.0 / 3.0) * abs(p.alpha) * x_cut ** -3
    if est > tol:
        warnings.warn(f"estimated tail remainder {est:.2e} exceeds tol {tol:.2e}",
                      stacklevel=2)
    return core + f_tail + g_tail
