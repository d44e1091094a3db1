"""Reference values computed apart from the library, from the closed forms
of the paper and from scipy/mpmath, for the benchmark's correctness checks.
Nothing here imports painleve_mkdv.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import airy, loggamma


def connection_d_phi(alpha: float, k: float) -> tuple[float, float]:
    """(d, phi) of the oscillatory tail:
    d^2 = -ln(cos^2(pi alpha) - k^2)/pi,
    phi = -(3/2) d^2 ln 2 + arg Gamma(i d^2/2) - pi/4 - arg(-sin(pi alpha) - i k).
    """
    d2 = -math.log(math.cos(math.pi * alpha) ** 2 - k * k) / math.pi
    arg_gamma = float(np.imag(loggamma(0.5j * d2)))
    phi = (-1.5 * d2 * math.log(2.0) + arg_gamma - 0.25 * math.pi
           - cmath.phase(complex(-math.sin(math.pi * alpha), -k)))
    return math.sqrt(d2), phi


def total_integral(alpha: float, k: float) -> float:
    """(1/2) ln((cos(pi alpha) + k)/(cos(pi alpha) - k))."""
    c = math.cos(math.pi * alpha)
    return 0.5 * math.log((c + k) / (c - k))


def decay_model(x, alpha: float):
    """alpha/x + 2 alpha (1 - alpha^2) x^-4, the decaying side at x > 0."""
    return alpha / x + 2.0 * alpha * (1.0 - alpha * alpha) / x ** 4


def ode_rhs(x, v, alpha: float):
    return x * v + 2.0 * v ** 3 - alpha


def fd_ode_residual(x, v, h: float, alpha: float) -> np.ndarray:
    """|D^2 v - (x v + 2 v^3 - alpha)| relative to the size of the terms,
    with the fourth-order centred second difference of the samples
    v = (v(x - 2h), v(x - h), v(x), v(x + h), v(x + 2h))."""
    vm2, vm1, v0, vp1, vp2 = v
    d2 = (-vm2 + 16.0 * vm1 - 30.0 * v0 + 16.0 * vp1 - vp2) / (12.0 * h * h)
    scale = np.abs(x * v0) + 2.0 * np.abs(v0) ** 3 + abs(alpha) + 1.0
    return np.abs(d2 - ode_rhs(x, v0, alpha)) / scale


def airy_seeded_profile(k: float, x_start: float, x_end: float):
    """alpha = 0 profile integrated leftward from (v, v') = k (Ai, Ai')(x_start)
    with scipy's own Airy function and DOP853; returns the dense solution."""
    ai, aip, _, _ = airy(x_start)
    sol = solve_ivp(lambda x, y: (y[1], x * y[0] + 2.0 * y[0] ** 3),
                    (x_start, x_end), (k * ai, k * aip), method="DOP853",
                    rtol=1e-12, atol=1e-20, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.sol


def osc_model(x, alpha: float, k: float):
    """Leading oscillatory model d s^{-1/4} cos((2/3) s^{3/2} - (3/4) d^2 ln s + phi), s = -x."""
    d, phi = connection_d_phi(alpha, k)
    s = -np.asarray(x, dtype=float)
    return d * s ** -0.25 * np.cos((2.0 / 3.0) * s ** 1.5 - 0.75 * d * d * np.log(s) + phi)


def angle_gap(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def mp_airy(x: float) -> tuple[float, float]:
    import mpmath
    with mpmath.workdps(30):
        return float(mpmath.airyai(x)), float(mpmath.airyai(x, derivative=1))


def mp_loggamma(z: complex) -> complex:
    import mpmath
    with mpmath.workdps(30):
        return complex(mpmath.loggamma(z))


def mp_pcfd(nu: complex, z: complex) -> tuple[complex, complex]:
    """D_nu(z) and dD_nu/dz = (z/2) D_nu(z) - D_{nu+1}(z)."""
    import mpmath
    with mpmath.workdps(30):
        val = mpmath.pcfd(nu, z)
        der = 0.5 * z * val - mpmath.pcfd(nu + 1, z)
        return complex(val), complex(der)
