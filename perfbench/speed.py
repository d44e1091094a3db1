"""Machine-speed probe that the benchmark's times are scaled by.

The shared 2-core machine this benchmark was written on changes speed by up
to 2x within seconds (identical work, no steal time, CPU time equal to wall
time), so raw seconds spread between runs far beyond any useful bound.
After each call into the library the benchmark therefore runs a fixed
reference unit of work, until reference work has taken a tenth of the time
the calls took, and reports every time scaled to a nominal speed:

    scaled seconds = raw seconds * REFERENCE_S / (mean seconds per reference unit)

The reference unit (8 to 11 ms here) mixes what the library spends its time on:
a DOP853 integration through scipy's Python-level stepper, complex
arithmetic in a Python loop, dense-output evaluation at scattered points of
a stored 2000-step solution (built once per run, in set-up), and numpy
transcendental functions on a 4000-point array.  Spreading it after every
call samples the machine's speed often enough to average out swings that
last a fraction of a second.  It lives in the benchmark, so no change to
the library moves it; a change that slows the library shows in full.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import solve_ivp

# seconds per reference unit that define the nominal speed (near the median
# on the machine the README's reference figures come from)
REFERENCE_S = 0.010
SHARE = 0.1


def _rhs(x, y):
    return (y[1], -x * y[0])


def _solve(x_end: float, max_step: float, dense: bool):
    return solve_ivp(_rhs, (0.0, x_end), (1.0, 0.0), method="DOP853", rtol=1e-10,
                     atol=1e-14, max_step=max_step, dense_output=dense)


def reference_unit(stored) -> None:
    _solve(3.0, 0.05, False)
    acc = 0j
    for j in range(500):
        z = complex(j * 1e-3, 0.5)
        acc += (z * z + 1.0) / (z + 2.0)
    stored(_SCATTER)
    for xi in (0.1, 0.2, 0.3):
        np.sum(np.exp(-1j * xi * _ARRAY) * np.cos(_ARRAY))


_SCATTER = np.linspace(0.0, 20.0, 60)
_ARRAY = np.linspace(0.0, 50.0, 4000)


class Speed:
    """Runs reference units worth ``SHARE`` of the timed time, spread over
    the run, and turns raw seconds into scaled seconds."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0
        self._owed = 0.0
        self._stored = _solve(20.0, 0.01, True).sol

    def after(self, busy_s: float) -> None:
        """Call after each timed call, with the seconds it took."""
        self._owed += SHARE * busy_s
        while self._owed > 0.0:
            start = time.perf_counter()
            reference_unit(self._stored)
            dt = time.perf_counter() - start
            self.units += 1
            self.seconds += dt
            self._owed -= dt

    @property
    def factor(self) -> float:
        return REFERENCE_S * self.units / self.seconds
