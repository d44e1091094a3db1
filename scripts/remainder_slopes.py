#!/usr/bin/env python3
"""Remainder diagnostics for the oscillatory tail.

Produces (a) the log-log slope of the deviation from the oscillatory model,
with and without the alpha/x correction, over s in [20, 200]; (b) the
envelope coefficient of the absolutely integrable remainder, which
calibrates the omitted-tail estimate used by the principal-value integral
(H_TAIL_COEFF); and (c) the cutoff sweep of the principal-value integral
against its closed form."""

from painleve_mkdv.asymptotics import loglog_slope, remainder_envelope
from painleve_mkdv.integrals import (TailPolicy, pv_total_integral,
                                     total_integral_formula)
from painleve_mkdv.pii import tuned_solution
from painleve_mkdv.stokes import make_params

PAIRS = [(0.0, 0.5), (0.25, 0.3), (-0.3, -0.4)]


def main():
    for alpha, k in PAIRS:
        p = make_params(alpha, k)
        sol = tuned_solution(p)
        full = remainder_envelope(sol, True)
        osc = remainder_envelope(sol, False)
        coeff = max(val * s ** 1.75 for s, val in full)
        d = sol.connection.d
        print(f"(alpha, k) = ({alpha}, {k}):  d = {d:.4f}, "
              f"launch depth {-sol.grid.launch_point:.0f}")
        print(f"  slope with alpha/x removed : {loglog_slope(full):+.3f}")
        print(f"  slope with alpha/x kept    : {loglog_slope(osc):+.3f}")
        print(f"  remainder envelope coeff   : {coeff:.3e}"
              f"  (per d^3: {coeff / d ** 3:.3e})")
        want = total_integral_formula(p)
        for cutoff in (40.0, 60.0, 80.0):
            got = pv_total_integral(p, TailPolicy(cutoff=cutoff), solution=sol)
            print(f"  pv integral, X = {cutoff:3.0f}      : error {got - want:+.3e}")


if __name__ == "__main__":
    main()
