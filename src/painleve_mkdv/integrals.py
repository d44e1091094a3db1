"""Principal-value total integral of v and its Fourier transform near xi = 0.

A quadrature core on [-X, X], 10 Gauss-Legendre nodes on panels of at most
half a period whose edges include the evaluator's seams x_left and x_match
(v jumps by ``seam_jump`` at x_match), plus tails summed from the expansions
the package carries: on the left every row of the launch expansion's table
(``asymptotics._oscillatory_rows``), oscillatory rows by parts and zero
harmonics exactly; on the right the x^{-4} term of the decaying model.
The alpha/x pieces cancel in the symmetric limit, and give a sine integral
when xi != 0.  The estimate set against the tolerance (1e-3 for the total
integral, 1e-2 for v_hat) is the first order each model omits: the next
by-parts level of every row, plus the x^{-7} term and the k Ai mode that
the evaluator's decaying model drops on [x_match, inf).

Fourier convention (normative for the package): vhat(xi) = int v(x) e^{-i xi x} dx.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.special import fresnel, itairy, sici

from .asymptotics import LAUNCH_DEPTHS, _decay_coefficients, _oscillatory_rows, psi_tilde
from .errors import DomainError
from .pii import AblowitzSegurSolution, _profile_for
from .stokes import ASParams, _edge_cosine

__all__ = [
    "total_integral_formula",
    "pv_total_integral",
    "v_hat",
]


def total_integral_formula(p: ASParams) -> float:
    """Closed form of the principal-value integral of v over the line:
    (1/2) ln((cos(pi alpha) + k)/(cos(pi alpha) - k)).

    Written as a difference of logarithms so the antisymmetry in k holds
    exactly in floating point; cos(pi alpha) is the edge-accurate form that
    bounds |k| in ``make_params``, so c - |k| keeps its digits near the edge.
    """
    c = _edge_cosine(p.alpha)
    return 0.5 * (math.log(c + p.k) - math.log(c - p.k))


# 10 nodes per panel: no panel spans a seam of the evaluator, so the
# integrand is smooth on each, and a panel is at most half a period
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _panel_edges(x_lo: float, x_hi: float, xi: float, seams) -> np.ndarray:
    """Panel breakpoints resolving both the solution's oscillation (period
    2 pi / sqrt(-x) on the left) and the transform kernel; every seam inside
    (x_lo, x_hi) is an edge."""
    cap_kernel = math.pi / (4.0 * abs(xi)) if xi != 0.0 else math.inf
    edges = [x_lo]
    x = x_lo
    for stop in sorted({s for s in seams if x_lo < s < x_hi} | {x_hi}):
        while x < stop:
            local = 2.0 * math.pi / (2.0 * math.sqrt(-x)) if x < -1.0 else 1.0
            x = min(x + min(local, 1.0, cap_kernel), stop)
            edges.append(x)
    return np.asarray(edges)


def _core_quadrature(sol: AblowitzSegurSolution, x_lo: float, x_hi: float,
                     xi: float):
    # the evaluator switches models at x_left and x_match; at x_match v jumps
    # by seam_jump, which no panel may span
    edges = _panel_edges(x_lo, x_hi, xi, (sol.x_left, sol.x_match))
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    ws = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    v = sol.v(xs)[0]
    if xi == 0.0:
        return float(np.sum(ws * v))
    return complex(np.sum(ws * v * np.exp(-1j * xi * xs)))


def _power_tail(power: float, xi: float, x_cut: float) -> complex:
    """F(p; xi) = int_X^inf s^{-p} e^{i xi s} ds for p > 1, p a whole or
    half-whole number.

    Upward recursion F(p) = X^{1-p} e^{i xi X}/(p-1) + i xi F(p-1)/(p-1)
    from F(1/2) (Fresnel integrals) or F(1) (cosine and sine integrals).
    F(p; -xi) is exactly conj F(p; xi).
    """
    if xi == 0.0:
        return complex(x_cut ** (1.0 - power) / (power - 1.0))
    sign = math.copysign(1.0, xi)
    t = abs(xi) * x_cut
    if power % 1.0 == 0.5:
        s_f, c_f = fresnel(math.sqrt(2.0 * t / math.pi))
        f = math.sqrt(2.0 * math.pi / abs(xi)) * complex(
            0.5 - float(c_f), (0.5 - float(s_f)) * sign)
        q = 0.5
    else:
        si, ci = sici(t)
        f = complex(-float(ci), (0.5 * math.pi - float(si)) * sign)
        q = 1.0
    kernel = complex(math.cos(xi * x_cut), math.sin(xi * x_cut))
    while q < power:
        q += 1.0
        f = (x_cut ** (1.0 - q) * kernel
             + complex(-xi * f.imag, xi * f.real)) / (q - 1.0)
    return f


def _by_parts(amp: complex, power: float, s: float,
              phase: float, d1: float, d2: float, d3: float):
    """int_s^inf amp t^{-power} e^{i Phi(t)} dt, two levels of
    int A e^{i Phi} = i A u e^{i Phi}|_s + i int (A u)' e^{i Phi} with
    A = t^{-power}, u = 1/Phi', given Phi(s) = phase and the first three
    derivatives d1, d2, d3 of Phi at s.  Returns (value, |next level|).
    """
    u = 1.0 / d1
    du = -d2 * u * u
    ddu = (2.0 * d2 * d2 * u - d3) * u * u
    a = s ** -power
    da = -power * a / s
    dda = power * (power + 1.0) * a / (s * s)
    au_prime = da * u + a * du
    next_level = ((dda * u + 2.0 * da * du + a * ddu) * u + au_prime * du) * u
    value = (1j * amp * complex(math.cos(phase), math.sin(phase))
             * complex(a * u, au_prime * u))
    return value, abs(amp) * abs(next_level)


def _tails(sol: AblowitzSegurSolution, x_cut: float, xi: float
           ) -> tuple[complex, float]:
    """Both tails of the profile beyond the core, alpha/x excluded: the left
    int_X^inf (v(-s) + alpha/s) e^{i xi s} ds over the launch expansion's
    table as it stands, row 0 (the leading model) included, and the right
    a4 int_X^inf x^{-4} e^{-i xi x} dx.

    A row s^{-power} (C cos m psi + S sin m psi) with m > 0 splits into
    (C -/+ i S)/2 e^{+/- i m psi}, of phase derivative +/- m psi' + xi, each
    integrated by parts; a zero harmonic is C F(power; xi).  Returns
    (value, estimate of what is omitted).
    """
    p, c, x_match = sol.params, sol.connection, sol.x_match
    s = x_cut
    psi, dpsi = psi_tilde(s, c)
    d2 = c.d * c.d
    ddpsi = 0.5 / math.sqrt(s) + 0.75 * d2 / (s * s)
    dddpsi = -0.25 / (s * math.sqrt(s)) - 1.5 * d2 / (s * s * s)
    a4, a7 = _decay_coefficients(p.alpha)
    value = a4 * _power_tail(4.0, -xi, s)
    # the evaluator's decaying model omits a7 x^{-7} and k Ai(x) on [x_match, inf)
    est = (abs(a7) * x_match ** -6 / 6.0
           + abs(p.k) * (1.0 / 3.0 - float(itairy(x_match)[0])))
    for power, m, cos_c, sin_c in _oscillatory_rows(c.d, p.alpha):
        if m == 0:
            value += cos_c * _power_tail(power, xi, s)
            continue
        for sigma in (1.0, -1.0):
            sm = sigma * m
            part, omitted = _by_parts(0.5 * complex(cos_c, -sigma * sin_c),
                                      power, s, sm * psi + xi * s,
                                      sm * dpsi + xi, sm * ddpsi, sm * dddpsi)
            value += part
            est += omitted
    return value, est


def _check_cutoff(x_cut: float) -> None:
    """``DomainError`` unless 20 <= x_cut <= 240: past the deepest launch point
    the core would integrate, at a cost ~ x_cut^1.5, what the tails sum."""
    if not 20.0 <= x_cut <= LAUNCH_DEPTHS[1]:
        raise DomainError(f"tail cutoff must lie in [20, {LAUNCH_DEPTHS[1]:g}]")


def _symmetric_transform(sol: AblowitzSegurSolution, xi: float, x_cut: float,
                         tol: float) -> complex:
    """int v(x) e^{-i xi x} dx of the profile in the symmetric-limit sense:
    the quadrature core on [-x_cut, x_cut] plus the tails, warning when the
    estimate of what they omit exceeds ``tol``."""
    tails, est = _tails(sol, x_cut, xi)
    value = _core_quadrature(sol, -x_cut, x_cut, xi) + tails
    if xi != 0.0:
        # alpha/x on both tails: -2 i alpha int_X^inf sin(xi x)/x dx
        si_val = float(sici(abs(xi) * x_cut)[0])
        value += -2j * sol.params.alpha * math.copysign(1.0, xi) * (0.5 * math.pi - si_val)
    if est > tol:
        warnings.warn(f"estimated tail remainder {est:.2e} exceeds tol {tol:.2e}",
                      stacklevel=3)
    return value


def pv_total_integral(p: ASParams, cutoff: float = 60.0,
                      solution: AblowitzSegurSolution | None = None) -> float:
    """Principal-value integral of v over the real line (symmetric limit).

    Quadrature on [-cutoff, cutoff] (20 <= cutoff <= 240), the tails beyond
    it summed from the expansions of ``solution``, which must be p's profile.
    Warns when the estimated uncomputed remainder exceeds 1e-3.
    """
    _check_cutoff(cutoff)
    return _symmetric_transform(_profile_for(p, solution), 0.0, cutoff, 1e-3).real


def v_hat(p: ASParams, xi: float,
          solution: AblowitzSegurSolution | None = None) -> complex:
    """Fourier transform vhat(xi) = int v(x) e^{-i xi x} dx, symmetric-limit
    sense, for 0 < |xi| <= 1.

    Built from p's profile (``solution``, if given): the quadrature core on
    [-60, 60], the sine-integral closed form of the alpha/x tails and the
    expansion tails (warning when the estimate of what they omit exceeds 1e-2).
    """
    xi = float(xi)
    if not 0.0 < abs(xi) <= 1.0:
        raise DomainError("v_hat requires 0 < |xi| <= 1")
    return _symmetric_transform(_profile_for(p, solution), xi, 60.0, 1e-2)
