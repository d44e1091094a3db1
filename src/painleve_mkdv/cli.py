"""Batch verification driver.

Runs named check suites against the library, writes one JSON record per
check (machine readable) plus a human-readable pass/fail line per check, and
emits solution grids as CSV.  Exit codes: 0 all checks pass, 1 check failed,
2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .asymptotics import (LAUNCH_TOL, _omitted_orders, v_neg_asym,
                          v_neg_launch, v_pos_asym)
from .errors import ConfigError, PainleveError
from .integrals import pv_total_integral, total_integral_formula, v_hat
from .mkdv import (InitialDataCoefficients, SelfSimilarField, ab_to_params,
                   pde_residual_closure, pde_residual_fd, u_hat)
from .pii import solve_right_launch_homogeneous, fit_oscillation, tuned_solution
from .rh_verify import (ContourCircle, loglog_slope, parametrix_decay,
                        residue_check_origin, stationary_identity)
from .specfun import airy_ai, log_gamma, pcf_d
from .stokes import g_factor, make_params, rh_constants, stokes_triple

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_CONFIG_KEYS = {
    "alpha": float,
    "k": float,
    "a": float,
    "b": float,
    "x_lo": float,
    "x_hi": float,
    "step": float,
    "tol": float,
    "cutoff": float,
    "out": str,
}
_FLAG_KEYS = ("alpha", "k", "a", "b", "out", "tol")  # the keys also given as --flags
_FLAG_HELP = {"out": "output path (report .jsonl or grid .csv)"}


@dataclass
class CheckReport:
    check_id: str
    lhs: object
    rhs: object
    abs_err: float
    tol: float
    passed: bool
    runtime_ms: float

    def to_json(self) -> str:
        def enc(v):
            return [float(v.real), float(v.imag)] if np.iscomplexobj(v) else float(v)
        rec = {
            "check_id": self.check_id,
            "lhs": enc(self.lhs),
            "rhs": enc(self.rhs),
            "abs_err": self.abs_err,
            "tol": self.tol,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
        }
        return json.dumps(rec)


def parse_config(path: str) -> dict:
    """Plain-text KEY = VALUE configuration; '#' comments; unknown keys are
    rejected."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected KEY = VALUE")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    return values


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a temporary file; ``ConfigError`` if it cannot."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".painleve-mkdv-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_specfun(opts) -> Iterator[tuple]:
    ai0, aip0 = airy_ai(0.0)
    yield "airy.ai0", ai0, 0.3550280538878172, 1e-13
    yield "airy.aip0", aip0, -0.2588194037928068, 1e-13
    yield "airy.ai10", airy_ai(10.0)[0], 1.1047532552898685e-10, 1e-20
    gamma_i = abs(cmath.exp(log_gamma(1j)))
    yield "gamma.reflection_i", gamma_i, math.sqrt(math.pi / math.sinh(math.pi)), 1e-12
    z = 0.7 - 0.3j
    yield "gamma.recurrence", log_gamma(z + 1.0) - log_gamma(z) - cmath.log(z), 0.0, 1e-13
    worst = max(abs(pcf_d(0.0, zz)[0] - cmath.exp(-complex(zz) ** 2 / 4.0))
                for zz in (1.3, -2.0, 0.8j, 2.0 + 2.0j))
    yield "pcf.gaussian_identity", worst, 0.0, 1e-14
    # D_{nu+1} - z D_nu + nu D_{nu-1} = 0 and D_nu' + (z/2) D_nu - nu D_{nu-1} = 0
    worst = 0.0
    for nu in (-0.5j, 0.3, 1.0 + 0.2j):
        for zz in (1.0 + 1.0j, -2.0 + 0.5j, 3.0 - 2.0j, -2.5, 3.0j, -1.0 - 2.0j,
                   4.0 + 3.5j):
            v_hi, _ = pcf_d(nu + 1.0, zz)
            v_mid, d_mid = pcf_d(nu, zz)
            v_lo, _ = pcf_d(nu - 1.0, zz)
            worst = max(worst, abs(v_hi - zz * v_mid + nu * v_lo),
                        abs(d_mid + 0.5 * zz * v_mid - nu * v_lo))
    yield "pcf.three_term_recurrence", worst, 0.0, 1e-10


def _suite_connection(opts) -> Iterator[tuple]:
    p = opts["params"]
    sol = tuned_solution(p)
    yield "connection.seam_at_x_match", sol.seam_jump, 0.0, 5e-3
    c = sol.connection
    if p.alpha == 0.0:
        grid = solve_right_launch_homogeneous(p.k, 12.0, -60.0, 1e-11)
        d_fit, phi_fit = fit_oscillation(grid, (-60.0, -30.0), 0.0)
        yield "connection.right_launch_d", d_fit, c.d, 1e-5
        dphi = abs(math.remainder(phi_fit - c.phi, 2.0 * math.pi))
        yield "connection.right_launch_phi", dphi, 0.0, 1e-4
    # the solved profile against the expansion it was launched from, on
    # [x_left, -20]: what the expansion omits is largest at s = 20, where the
    # orders beyond the two omitted ones still add a fraction (hence the 2),
    # and 10 LAUNCH_TOL covers the solve's own error
    xs = np.linspace(sol.x_left, -20.0, int(round(100.0 * (-20.0 - sol.x_left))) + 1)
    gap = np.max(np.abs(sol.v(xs)[0] - v_neg_launch(xs, p, c)[0]))
    bound = 2.0 * np.sum(_omitted_orders(c, p.alpha, 20.0)) + 10.0 * LAUNCH_TOL
    yield "connection.launch_expansion", float(gap), 0.0, float(bound)


def _suite_total_integral(opts) -> Iterator[tuple]:
    p = opts["params"]
    got = pv_total_integral(p, opts.get("cutoff", 60.0))
    yield "total_integral.formula", got, total_integral_formula(p), opts.get("tol", 1e-3)


def _suite_fourier(opts) -> Iterator[tuple]:
    p = opts["params"]
    c = total_integral_formula(p)
    for xi in (1e-3, -1e-3):
        want = complex(c, -math.pi * p.alpha * math.copysign(1.0, xi))
        yield f"fourier.v_hat_limit_xi={xi:+.0e}", v_hat(p, xi), want, 1e-2
    if "coeffs" in opts:
        coeffs = opts["coeffs"]
        pf = ab_to_params(coeffs)
        for xi in (1.0, -1.0):
            got = u_hat(SelfSimilarField(pf, 1e-6), xi)
            want = complex(coeffs.a, -math.pi * coeffs.b * math.copysign(1.0, xi))
            yield f"fourier.u_hat_limit_xi={xi:+.0f}", got, want, 5e-2


def _suite_pde(opts) -> Iterator[tuple]:
    field = SelfSimilarField(opts["params"], 1.0)
    r1 = pde_residual_fd(field, (-3.0, 3.0), 0.05)
    r2 = pde_residual_fd(field, (-3.0, 3.0), 0.025)
    if r2 > 0.0:  # the zero field's residual is 0 at every h
        yield "pde.fd_convergence_ratio", r1 / r2, 4.0, 0.5
    yield "pde.closure_residual", pde_residual_closure(field, (-3.0, 3.0)), 0.0, 1e-9


def _suite_rh(opts) -> Iterator[tuple]:
    p = opts["params"]
    rc = rh_constants(p)
    st = stokes_triple(p)
    vals = [residue_check_origin(ContourCircle(0.0, r), rc.nu)
            for r in (0.05, 0.1, 0.2)]
    yield "rh.residue_origin", max(abs(v + 2j * math.pi) for v in vals), 0.0, 1e-8
    spread = max(abs(v - vals[0]) for v in vals)
    yield "rh.residue_radius_independent", spread, 0.0, 1e-8
    worst = max(abs(lhs - rhs) for lhs, rhs in
                (stationary_identity(p, t) for t in (20.0, 50.0, 100.0)))
    yield "rh.stationary_identity", worst, 0.0, 1e-6
    prod = rc.h0 * rc.h1 * g_factor(p) - st.s1 * st.s3
    yield "rh.h0h1_identity", prod, 0.0, 1e-12
    if not p.degenerate:
        # the fitted decay over t = 10 .. 1000; its order depends only on d
        # (-1.52 as d -> 0, -2.41 at d = 2.5), so the bound is one-sided
        factor = 100.0 ** loglog_slope(parametrix_decay(p))
        yield "rh.parametrix_decay_factor", factor, 0.0, 100.0 ** -1.4


_SUITE_FUNCS = {
    "connection": _suite_connection,
    "total-integral": _suite_total_integral,
    "fourier-limit": _suite_fourier,
    "pde": _suite_pde,
    "rh-checks": _suite_rh,
    "specfun": _suite_specfun,
}
SUITES = (*_SUITE_FUNCS, "all")


def run_suite(name: str, opts: dict) -> list[CheckReport]:
    """Run one suite, or every suite for "all".  Each suite yields
    (check_id, lhs, rhs, tol); a check's runtime is the time its suite took
    to yield it."""
    names = list(_SUITE_FUNCS) if name == "all" else [name]
    reports: list[CheckReport] = []
    for n in names:
        t0 = time.perf_counter()
        for check_id, lhs, rhs, tol in _SUITE_FUNCS[n](opts):
            t1 = time.perf_counter()
            err = float(abs(lhs - rhs))
            reports.append(CheckReport(check_id, lhs, rhs, err, float(tol),
                                       err <= tol, 1000.0 * (t1 - t0)))
            t0 = t1
    return reports


# ---------------------------------------------------------------------------
# grid emission
# ---------------------------------------------------------------------------

def emit_grid(opts: dict) -> str:
    p = opts["params"]
    x_lo = opts.get("x_lo", -60.0)
    x_hi = opts.get("x_hi", 4.0)
    step = opts.get("step", 0.01)
    # the bounds first: a zero step would make the row count a division by zero
    if not (0.0 < step < math.inf and -math.inf < x_lo < x_hi < math.inf
            and (x_hi - x_lo) / step < math.inf):
        raise ConfigError("grid needs finite x_lo < x_hi and step > 0, and a finite row count")
    n = int(round((x_hi - x_lo) / step))
    xs = x_lo + step * np.arange(n + 1)
    sol = tuned_solution(p)
    v, vp = sol.v(xs)
    # one array call per model column; "nan" marks rows outside a model
    osc = np.full_like(xs, np.nan)
    r_full = np.full_like(xs, np.nan)
    neg = xs <= -1.0
    osc[neg] = v_neg_asym(xs[neg], p, sol.connection, include_alpha_term=False)[0]
    r_full[neg] = np.abs(v[neg] - osc[neg] - p.alpha / xs[neg])
    pos = np.full_like(xs, np.nan)
    right = xs >= 1.0
    pos[right] = v_pos_asym(xs[right], p.alpha)[0]
    lines = [f"# painleve-mkdv {__version__} alpha={p.alpha:.17g} k={p.k:.17g} "
             f"x_lo={x_lo:.17g} x_hi={x_hi:.17g} step={step:.17g} "
             f"x_left={sol.x_left:.17g} launch_error={sol.launch_error:.3e} "
             f"seam_jump={sol.seam_jump:.3e}",
             "x,v,v_prime,v_neg_asym,v_pos_asym,residual_osc,residual_full"]
    columns = (xs, v, vp, osc, pos, np.abs(v - osc), r_full)
    row_format = ",".join(["%.17g"] * len(columns))
    lines.extend(row_format % row for row in zip(*columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="painleve-mkdv",
        description="verification suites and solution grids for real "
                    "Ablowitz-Segur Painleve II profiles")
    ap.add_argument("command", choices=SUITES + ("grid",))
    ap.add_argument("--config", help="plain-text KEY = VALUE configuration file")
    for key in _FLAG_KEYS:
        ap.add_argument(f"--{key}", type=_CONFIG_KEYS[key], help=_FLAG_HELP.get(key))
    return ap


def _resolve_options(args) -> dict:
    opts: dict = {}
    if args.config:
        opts.update(parse_config(args.config))
    for key in _FLAG_KEYS:
        val = getattr(args, key)
        if val is not None:
            opts[key] = val
    has_ab = "a" in opts or "b" in opts
    has_alpha_k = "alpha" in opts or "k" in opts
    if has_ab and has_alpha_k:
        raise ConfigError("give either (alpha, k) or (a, b), not both")
    if has_ab:
        coeffs = InitialDataCoefficients(opts.get("a", 0.0), opts.get("b", 0.0))
        opts["coeffs"] = coeffs
        opts["params"] = ab_to_params(coeffs)
    else:
        opts["params"] = make_params(opts.get("alpha", 0.0), opts.get("k", 0.5))
    # a bad cutoff or tol is bad input: checked here, it exits as a config error
    if "cutoff" in opts and not 20.0 <= opts["cutoff"] < math.inf:
        raise ConfigError("cutoff must be finite and >= 20")
    if "tol" in opts and not 0.0 < opts["tol"] < math.inf:
        raise ConfigError("tol must be finite and > 0")
    # environment may override output paths only
    env_out = os.environ.get("PAINLEVE_MKDV_OUT")
    if env_out:
        opts["out"] = env_out
    return opts


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _resolve_options(args)
    except (ConfigError, PainleveError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "grid":
            out_path = opts.get("out", "painleve-mkdv-grid.csv")
            _atomic_write(out_path, emit_grid(opts))
            print(f"grid written to {out_path}")
            return EXIT_OK
        reports = run_suite(args.command, opts)
        out_path = opts.get("out", "painleve-mkdv-report.jsonl")
        _atomic_write(out_path, "".join(r.to_json() + "\n" for r in reports))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PainleveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    all_pass = True
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        print(f"[{status}] {r.check_id}: abs_err={r.abs_err:.3e} tol={r.tol:.1e} "
              f"({r.runtime_ms:.0f} ms)")
    print(f"report written to {out_path}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
