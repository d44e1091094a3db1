"""The three workloads.  Each one has a set-up, a timed part made of whole
rounds of the same operations, and correctness checks that run after the
timed part, outside every timed region.

Inputs come from ``--seed`` (see ``draw_pairs``); the library receives only
the generated inputs and is reached only through public names.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
from speed import Speed

# the five (alpha, k) pairs of the acceptance tests
ACCEPTANCE = (
    ("a0", 0.0, 0.3),
    ("a1", 0.0, 0.5),
    ("a2", 0.25, 0.3),
    ("a3", -0.3, -0.4),
    ("a4", 0.4, 0.5 * math.cos(0.4 * math.pi)),
)
SOLVE_SLOTS = ("a0", "a1", "a2", "a3", "a4", "s0", "s1")
FIELDS_SLOTS = ("a2", "f0", "ab0", "ab1")
RH_SLOTS = SOLVE_SLOTS
PII_SLOTS = SOLVE_SLOTS + ("f0", "ab0", "ab1")  # slots that get a profile solve

# fixed argument sets of the special-function kernels
AIRY_ARGS = tuple(float(x) for x in np.linspace(-15.0, 15.0, 128))
LOG_GAMMA_ARGS = tuple(complex(r * cmath.exp(2j * math.pi * (j + 0.37) / 32))
                       for r in np.geomspace(0.05, 19.0, 16) for j in range(32))
PCF_ARGS = tuple((nu, complex(r * cmath.exp(2j * math.pi * (j + 0.37) / 8)))
                 for base in (-0.0458j, -0.5j) for nu in (base, -base - 1.0)
                 for r in (1.5, 5.0, 9.0, 13.0) for j in range(8))

V_HAT_XI = (0.25, 1.0, -0.25, -1.0)
U_HAT_T = (1e-4, 1e-6)
EVAL_POINTS = 2000


@dataclass
class Pair:
    slot: str
    alpha: float
    k: float
    ab: tuple[float, float] | None = None  # (a, b) initial data, if drawn so


def _drawn_pair(rng, slot: str, d_max: float) -> Pair:
    """alpha < 0 < k with d uniform in [0.1, d_max]."""
    d = rng.uniform(0.1, d_max)
    alpha_max = math.acos(math.exp(-0.5 * math.pi * d * d)) / math.pi
    alpha = -rng.uniform(0.2, 0.9) * alpha_max
    k = math.sqrt(math.cos(math.pi * alpha) ** 2 - math.exp(-math.pi * d * d))
    return Pair(slot, alpha, k)


def draw_pairs(seed: int) -> dict[str, Pair]:
    """Acceptance pairs plus the seed-drawn ones.

    s0: alpha < 0 < k with d in [0.1, 1.0]; s1 = (-alpha, -k), its mirror.
    f0: alpha < 0 < k with d in [0.1, 0.6].
    ab0, ab1: (a, b) initial data, b in [0.1, 0.5] with a in [-1.2, -0.2],
    and the same with both signs flipped (d <= 0.58).
    All drawn pairs have alpha k < 0, where ``tuned_solution`` stops at its
    first launch depth, so a run's cost does not hinge on the draw; the
    acceptance pairs a3 and a4 exercise the depth escalation every run.
    The d ranges stop where the checks' tolerances stop holding (see the
    README).
    """
    rng = np.random.default_rng(seed)
    pairs = {slot: Pair(slot, a, k) for slot, a, k in ACCEPTANCE}
    s0 = pairs["s0"] = _drawn_pair(rng, "s0", 1.0)
    pairs["s1"] = Pair("s1", -s0.alpha, -s0.k)
    pairs["f0"] = _drawn_pair(rng, "f0", 0.6)
    for slot, sign in (("ab0", 1.0), ("ab1", -1.0)):
        b = sign * rng.uniform(0.1, 0.5)
        a = -sign * rng.uniform(0.2, 1.2)
        alpha = -0.5 * b
        k = math.cos(math.pi * alpha) * math.tanh(-0.5 * a)
        pairs[slot] = Pair(slot, alpha, k, (a, b))
    return pairs


@dataclass
class Outcome:
    """Raw seconds of a run (set-up, and the timed calls of each round),
    operation counts, failed checks, and the speed probe that scales the
    seconds."""

    setup_s: float = 0.0
    call_s: float = 0.0  # seconds of every library call so far, set-up included
    round_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    # per-layer figures read from outputs rather than from spans
    extras: dict = field(default_factory=dict)
    speed: Speed = field(default_factory=Speed)

    def check(self, label: str, ok, detail="") -> None:
        if not ok:
            self.errors.append(f"{label}: {detail}")

    def setup_done(self, t0: float) -> None:
        """Set-up ends: its seconds leave out the speed probe's, and the
        probe catches up on the part spent outside library calls."""
        self.setup_s = time.perf_counter() - t0 - self.speed.seconds
        self.speed.after(self.setup_s - self.call_s)



class Runner:
    """Makes the calls into the library: times each one, runs the speed
    probe after it and, when traced, wraps it in a span of the layer it
    enters.  Calls from the first ``new_round`` on are the timed part and
    count as operations; calls before it are set-up."""

    def __init__(self, tracer, outcome: Outcome):
        self.tracer = tracer
        self.out = outcome

    def new_round(self) -> None:
        self.out.round_s.append(0.0)

    def call(self, name: str, fn, *args, slot=None, points=None, n=None, **kwargs):
        attrs = {k: v for k, v in (("slot", slot), ("points", points), ("n", n))
                 if v is not None}
        with self.tracer.span(name, name.split(".")[0], **attrs) as span:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
        self.out.call_s += seconds
        self.out.speed.after(seconds)
        if self.out.round_s:
            self.out.round_s[-1] += seconds
            self.out.attempted += n or 1
        if span is not None and name == "pii.tuned_solution":
            span.attrs.update(depth=-result.grid.launch_point,
                              steps=len(result.grid.abscissas),
                              seam=result.seam_jump)
        return result

    def batch(self, name: str, fn, args_list):
        return self.call(name, lambda: [fn(*args) for args in args_list],
                         n=len(args_list))


def _import_library():
    from painleve_mkdv import (asymptotics, cli, integrals, mkdv, pii,
                               rh_verify, specfun, stokes)
    return dict(asymptotics=asymptotics, cli=cli, integrals=integrals,
                mkdv=mkdv, pii=pii, rh_verify=rh_verify, specfun=specfun,
                stokes=stokes)


def _params(lib, run: Runner, pair: Pair, slot=None):
    if pair.ab is None:
        return run.call("stokes.make_params", lib["stokes"].make_params,
                        pair.alpha, pair.k, slot=slot)
    coeffs = lib["mkdv"].InitialDataCoefficients(*pair.ab)
    return run.call("mkdv.ab_to_params", lib["mkdv"].ab_to_params, coeffs, slot=slot)


def _fd_residual(evaluate, x_lo: float, x_hi: float, alpha: float,
                 centres: int = 400, h: float = 2e-3) -> float:
    xs = np.linspace(x_lo + 2 * h, x_hi - 2 * h, centres)
    return float(np.max(oracle.fd_ode_residual(
        xs, [evaluate(xs + j * h) for j in (-2, -1, 0, 1, 2)], h, alpha)))


# ---------------------------------------------------------------------------
# solve: cold profile solves
# ---------------------------------------------------------------------------

def run_solve(tracer, seed: int, seconds: float, t0: float) -> Outcome:
    """One round: per pair a cold ``tuned_solution``, the launch model at
    x = -60, ``solve_left_launch(p, -60, 4, 1e-10)`` and, for alpha = 0, the
    Airy-seeded right launch with ``fit_oscillation``.  The round outlasts
    ``seconds`` and is not repeated: ``tuned_solution`` caches per pair, so a
    second round in the same process would not be cold."""
    out = Outcome()
    run = Runner(tracer, out)
    lib = _import_library()
    pairs = [draw_pairs(seed)[slot] for slot in SOLVE_SLOTS]
    out.setup_done(t0)

    results = {}
    run.new_round()
    for pair in pairs:
        slot = pair.slot
        with tracer.span("pair", "bench", slot=slot):
            p = _params(lib, run, pair, slot)
            sol = run.call("pii.tuned_solution", lib["pii"].tuned_solution, p, slot=slot)
            c = run.call("stokes.connection_constants",
                         lib["stokes"].connection_constants, p, slot=slot)
            y0 = run.call("asymptotics.v_neg_launch", lib["asymptotics"].v_neg_launch,
                          -60.0, p, c, slot=slot)
            left = run.call("pii.solve_left_launch", lib["pii"].solve_left_launch,
                            p, -60.0, 4.0, 1e-10, slot=slot)
            right = fit = None
            if pair.alpha == 0.0:
                right = run.call("pii.solve_right_launch_homogeneous",
                                 lib["pii"].solve_right_launch_homogeneous,
                                 pair.k, 12.0, -60.0, 1e-11, slot=slot)
                fit = run.call("pii.fit_oscillation", lib["pii"].fit_oscillation,
                               right, (-60.0, -30.0), 0.0, slot=slot)
        results[slot] = (pair, sol, y0, left, right, fit)

    _check_solve(out, results)
    return out


def _check_solve(out: Outcome, results: dict) -> None:
    for slot, (pair, sol, y0, left, right, fit) in results.items():
        a, k = pair.alpha, pair.k
        tag = f"solve[{slot}]"
        want4 = oracle.decay_model(4.0, a)
        out.check(f"{tag} tuned decay at x=4", abs(sol.v(4.0)[0] - want4) <= 5e-3,
                  sol.v(4.0)[0] - want4)
        out.check(f"{tag} left launch decay at x=4",
                  abs(left.evaluate(4.0)[0] - want4) <= 5e-3,
                  left.evaluate(4.0)[0] - want4)
        res = _fd_residual(lambda x: sol.v(x)[0], sol.x_left, sol.x_match, a)
        out.check(f"{tag} tuned FD ODE residual", res <= 1e-5, res)
        res = _fd_residual(lambda x: left.evaluate(x)[0], -60.0, 4.0, a)
        out.check(f"{tag} left launch FD ODE residual", res <= 1e-5, res)
        gap = abs(y0[0] - sol.v(-60.0)[0])
        out.check(f"{tag} launch model vs profile at x=-60", gap <= 1e-5, gap)
        d, phi = oracle.connection_d_phi(a, k)
        lead = oracle.osc_model(-60.0, a, k) + a / -60.0
        out.check(f"{tag} launch model near leading model",
                  abs(y0[0] - lead) <= 1e-2 * max(d, 0.1), y0[0] - lead)
        if right is not None:
            ref = oracle.airy_seeded_profile(k, 12.0, -12.0)
            xs = np.linspace(-10.0, 3.0, 401)
            gap = float(np.max(np.abs(sol.v(xs)[0] - ref(xs)[0])))
            out.check(f"{tag} profile vs Airy-seeded integration", gap <= 1e-6, gap)
            xs = np.linspace(-10.0, 10.0, 401)
            gap = float(np.max(np.abs(right.evaluate(xs)[0] - ref(xs)[0])))
            out.check(f"{tag} right launch vs Airy-seeded integration", gap <= 1e-8, gap)
            out.check(f"{tag} fit d", abs(fit[0] - d) <= 1e-2, fit[0] - d)
            out.check(f"{tag} fit phi", oracle.angle_gap(fit[1], phi) <= 5e-2,
                      oracle.angle_gap(fit[1], phi))
    s0, s1 = results["s0"][1], results["s1"][1]
    xs = np.linspace(max(s0.x_left, s1.x_left), 4.0, 2001)
    gap = float(np.max(np.abs(s0.v(xs)[0] + s1.v(xs)[0])))
    out.check("solve v(x;-alpha,-k) = -v(x;alpha,k)", gap <= 1e-8, gap)
    xs = np.linspace(-60.0, 4.0, 2001)
    gap = float(np.max(np.abs(results["s0"][3].evaluate(xs)[0]
                              + results["s1"][3].evaluate(xs)[0])))
    out.check("solve left launch antisymmetry", gap <= 1e-8, gap)


# ---------------------------------------------------------------------------
# fields: dense evaluation, transforms, CSV grids and CLI suites
# ---------------------------------------------------------------------------

def _fields_round(lib, run: Runner, inputs) -> dict:
    outputs = {}
    mkdv, integrals, asym, cli = (lib[m] for m in
                                  ("mkdv", "integrals", "asymptotics", "cli"))
    for pair, p, sol, xs_v, xs_u, opts in inputs:
        slot = pair.slot
        r = {}
        with run.tracer.span("pair", "bench", slot=slot):
            r["v"] = run.call("pii.AblowitzSegurSolution.v", sol.v, xs_v,
                              slot=slot, points=len(xs_v))
            field1 = mkdv.SelfSimilarField(p, 1.0, solution=sol)
            r["u"] = run.call("mkdv.SelfSimilarField.u", field1.u, xs_u,
                              slot=slot, points=len(xs_u))
            xs_neg = xs_v[xs_v < -1.0]
            xs_pos = np.linspace(1.0, 40.0, EVAL_POINTS)
            r["model"] = (run.call("asymptotics.v_neg_asym", asym.v_neg_asym, xs_neg,
                                   p, sol.connection, True, slot=slot,
                                   points=len(xs_neg)),
                          run.call("asymptotics.v_pos_asym", asym.v_pos_asym, xs_pos,
                                   p.alpha, slot=slot, points=len(xs_pos)))
            r["pv"] = run.call("integrals.pv_total_integral",
                               integrals.pv_total_integral, p, solution=sol, slot=slot)
            r["v_hat"] = [run.call("integrals.v_hat", integrals.v_hat, p, xi,
                                   solution=sol, slot=slot) for xi in V_HAT_XI]
            r["u_hat"] = [[run.call("mkdv.u_hat", mkdv.u_hat,
                                    mkdv.SelfSimilarField(p, t, solution=sol), xi,
                                    slot=slot) for t in U_HAT_T] for xi in (1.0, -1.0)]
            r["pde"] = (run.call("mkdv.pde_residual_fd", mkdv.pde_residual_fd,
                                 field1, (-3.0, 3.0), 0.05, slot=slot),
                        run.call("mkdv.pde_residual_fd", mkdv.pde_residual_fd,
                                 field1, (-3.0, 3.0), 0.025, slot=slot),
                        run.call("mkdv.pde_residual_closure", mkdv.pde_residual_closure,
                                 field1, (-3.0, 3.0), slot=slot))
            r["csv"] = run.call("cli.emit_grid", cli.emit_grid, opts, slot=slot)
            r["suites"] = {}
            for suite in ("total-integral", "fourier-limit", "pde"):
                reports = run.call(f"cli.run_suite.{suite}", cli.run_suite, suite,
                                   opts, slot=slot)
                if not all(rep.passed for rep in reports):
                    run.out.failed += 1
                r["suites"][suite] = [(rep.check_id, rep.lhs, rep.passed)
                                      for rep in reports]
        outputs[slot] = r
    return outputs


def run_fields(tracer, seed: int, seconds: float, t0: float) -> Outcome:
    """Set-up solves every pair cold; each timed round then evaluates v and
    u(1, x) on grids across the dense region, the asymptotic models, the
    total integral, v_hat, u_hat as t -> 0, the PDE residuals, the CSV grid
    and the CLI suites total-integral, fourier-limit and pde, per pair."""
    out = Outcome()
    run = Runner(tracer, out)
    lib = _import_library()
    pairs = [draw_pairs(seed)[slot] for slot in FIELDS_SLOTS]
    inputs = []
    for pair in pairs:
        p = _params(lib, run, pair, pair.slot)
        sol = run.call("pii.tuned_solution", lib["pii"].tuned_solution, p, slot=pair.slot)
        xs_v = np.linspace(sol.x_left, sol.x_match, EVAL_POINTS)
        xs_u = xs_v * 3.0 ** (1.0 / 3.0) * (1.0 - 1e-12)
        opts = {"params": p}
        if pair.ab is not None:
            opts["coeffs"] = lib["mkdv"].InitialDataCoefficients(*pair.ab)
        inputs.append((pair, p, sol, xs_v, xs_u, opts))
    out.setup_done(t0)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        run.new_round()
        with tracer.span("round", "bench"):
            rounds.append(_fields_round(lib, run, inputs))

    _check_fields(out, lib, inputs, rounds)
    return out


def _same(a, b) -> bool:
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _check_fields(out: Outcome, lib, inputs, rounds) -> None:
    first = rounds[0]
    for i, later in enumerate(rounds[1:], 2):
        out.check(f"fields round {i} repeats round 1", _same(first, later))
    for pair, p, sol, xs_v, xs_u, _ in inputs:
        r = first[pair.slot]
        tag = f"fields[{pair.slot}]"
        a_k, k = p.alpha, p.k
        c = oracle.total_integral(a_k, k)
        a0, b0 = pair.ab if pair.ab is not None else (-2.0 * c, -2.0 * a_k)
        v, vp = r["v"]
        u = r["u"]
        scale = 3.0 ** (-1.0 / 3.0)
        gap = float(np.max(np.abs(u + 2.0 * scale * sol.v(xs_u * scale)[0])))
        out.check(f"{tag} u = -2 (3t)^(-1/3) v", gap <= 1e-12, gap)
        res = _fd_residual(lambda x: sol.v(x)[0], sol.x_left, sol.x_match, a_k)
        out.check(f"{tag} FD ODE residual of v", res <= 1e-5, res)
        out.check(f"{tag} v at x=4 decays", abs(v[-1] - oracle.decay_model(4.0, a_k)) <= 5e-3)
        xs_neg = xs_v[xs_v < -1.0]
        neg, pos = r["model"]
        gap = float(np.max(np.abs(neg[0] - oracle.osc_model(xs_neg, a_k, k) - a_k / xs_neg)))
        out.check(f"{tag} v_neg_asym vs closed form", gap <= 1e-9, gap)
        xs_pos = np.linspace(1.0, 40.0, EVAL_POINTS)
        gap = float(np.max(np.abs(pos[0] - oracle.decay_model(xs_pos, a_k))))
        out.check(f"{tag} v_pos_asym vs closed form", gap <= 1e-14, gap)
        out.extras[f"integrals.pv_abs_err.{pair.slot}"] = abs(r["pv"] - c)
        out.check(f"{tag} total integral", abs(r["pv"] - c) <= 1e-3, r["pv"] - c)
        for xi, got in zip(V_HAT_XI[:2], r["v_hat"][:2]):
            mirror = r["v_hat"][V_HAT_XI.index(-xi)]
            gap = abs(mirror - got.conjugate())
            out.check(f"{tag} v_hat(-{xi}) = conj v_hat({xi})", gap <= 1e-10, gap)
        for xi, (far, near) in zip((1.0, -1.0), r["u_hat"]):
            want = complex(a0, -math.pi * b0 * math.copysign(1.0, xi))
            out.check(f"{tag} u_hat(t->0, {xi:+.0f}) limit", abs(near - want) <= 5e-2,
                      abs(near - want))
            out.check(f"{tag} u_hat approaches its limit as t -> 0",
                      abs(far - want) >= abs(near - want))
        r1, r2, closure = r["pde"]
        out.check(f"{tag} pde h-convergence ratio", abs(r1 / r2 - 4.0) <= 0.5, r1 / r2)
        out.check(f"{tag} pde closure", closure < 1e-9, closure)
        _check_csv(out, lib, tag, r["csv"], p, sol, pair)
        _check_suites(out, tag, r["suites"], c, a_k, pair)


def _check_csv(out: Outcome, lib, tag, text: str, p, sol, pair) -> None:
    lines = text.splitlines()
    rows = np.array([[float(f) for f in line.split(",")] for line in lines[2:]])
    xs = -60.0 + 0.01 * np.arange(len(rows))
    out.check(f"{tag} csv rows", len(rows) == 6401 and np.array_equal(rows[:, 0], xs))
    v, vp = sol.v(xs)
    out.check(f"{tag} csv v, v' match direct evaluation",
              np.array_equal(rows[:, 1], v) and np.array_equal(rows[:, 2], vp))
    neg = xs <= -1.0
    gap = float(np.max(np.abs(rows[neg, 3] - oracle.osc_model(xs[neg], p.alpha, p.k))))
    out.check(f"{tag} csv v_neg_asym column", gap <= 1e-9, gap)
    pos = xs >= 1.0
    gap = float(np.max(np.abs(rows[pos, 4] - oracle.decay_model(xs[pos], p.alpha))))
    out.check(f"{tag} csv v_pos_asym column", gap <= 1e-14, gap)
    # a second emission through the command line must be byte-identical
    path = os.path.join(".perfbench", f"grid-{pair.slot}.csv")
    os.makedirs(".perfbench", exist_ok=True)
    args = (["--alpha", repr(p.alpha), "--k", repr(p.k)] if pair.ab is None
            else ["--a", repr(pair.ab[0]), "--b", repr(pair.ab[1])])
    os.environ.pop("PAINLEVE_MKDV_OUT", None)
    with contextlib.redirect_stdout(io.StringIO()):
        code = lib["cli"].main(["grid", *args, "--out", path])
    with open(path, "r", encoding="utf-8", newline="") as fh:
        again = fh.read()
    out.check(f"{tag} csv rerun byte-identical", code == 0 and again == text)


def _check_suites(out: Outcome, tag, suites: dict, c: float, alpha: float, pair) -> None:
    for check_id, lhs, passed in suites["total-integral"]:
        out.check(f"{tag} suite {check_id}", passed and abs(lhs - c) <= 1e-3, lhs)
    for check_id, lhs, passed in suites["pde"]:
        ok = (abs(lhs - 4.0) <= 0.5 if check_id == "pde.fd_convergence_ratio"
              else lhs < 1e-9)
        out.check(f"{tag} suite {check_id}", passed and ok, lhs)
    for check_id, lhs, passed in suites["fourier-limit"]:
        if check_id.startswith("fourier.v_hat"):
            xi = float(check_id.split("=")[1])
            want, tol = complex(c, -math.pi * alpha * math.copysign(1.0, xi)), 1e-2
        else:
            a0, b0 = pair.ab
            xi = float(check_id.split("=")[1])
            want, tol = complex(a0, -math.pi * b0 * math.copysign(1.0, xi)), 5e-2
        # the library value must be right; the suite's own verdict may be
        # wrong (its expected limit drops the sign of alpha and b), which
        # counts as a failed operation, not as a wrong result
        out.check(f"{tag} suite {check_id} value", abs(lhs - want) <= tol,
                  abs(lhs - want))


# ---------------------------------------------------------------------------
# rh: Riemann-Hilbert identities and the special-function kernels
# ---------------------------------------------------------------------------

def _rh_round(lib, run: Runner, params) -> dict:
    rv, st, sf = lib["rh_verify"], lib["stokes"], lib["specfun"]
    outputs = {}
    for slot, p in params:
        r = {}
        with run.tracer.span("pair", "bench", slot=slot):
            rc = run.call("stokes.rh_constants", st.rh_constants, p, slot=slot)
            run.call("stokes.stokes_triple", st.stokes_triple, p, slot=slot)
            run.call("stokes.connection_constants", st.connection_constants, p, slot=slot)
            r["residue"] = [run.call("rh_verify.residue_check_origin",
                                     rv.residue_check_origin, rv.ContourCircle(0.0, rad),
                                     rc.nu, slot=slot) for rad in (0.05, 0.1, 0.2)]
            r["stationary"] = [run.call("rh_verify.stationary_identity",
                                        rv.stationary_identity, p, t, slot=slot)
                               for t in (20.0, 50.0, 100.0)]
            r["z"] = run.batch("rh_verify.z_parametrix", rv.z_parametrix,
                               [(rc.nu, 2.3 * cmath.exp(1j * (mid + 0.11)))
                                for mid in (-0.125 * math.pi, 0.25 * math.pi,
                                            0.75 * math.pi, 1.25 * math.pi,
                                            1.625 * math.pi)])
            r["decay"] = run.call("rh_verify.parametrix_decay", _parametrix_decay,
                                  rv, p, rc.nu, slot=slot, n=13 * 16 * 3)
        outputs[slot] = r
    with run.tracer.span("kernels", "bench"):
        outputs["airy"] = run.batch("specfun.airy_ai", sf.airy_ai,
                                    [(x,) for x in AIRY_ARGS])
        outputs["log_gamma"] = run.batch("specfun.log_gamma", sf.log_gamma,
                                         [(z,) for z in LOG_GAMMA_ARGS])
        outputs["pcf"] = run.batch("specfun.pcf_d", sf.pcf_d, PCF_ARGS)
    return outputs


_DECAY_Z = [0.5 + 0.15 * cmath.exp(1j * (0.0371 + 2.0 * math.pi * j / 16.0))
            for j in range(16)]


def _parametrix_decay(rv, p, nu) -> list:
    """max over the circle |z - 1/2| = 0.15 of |T_right N^{-1} - m_pred|,
    for 13 times t in [10, 1000]."""
    pts = []
    for t in np.geomspace(10.0, 1000.0, 13):
        nrm = max(np.linalg.norm(rv.t_right_parametrix(p, t, z)
                                 @ np.linalg.inv(rv.n_matrix(z, nu))
                                 - rv.m_pred(p, t, z, "right")) for z in _DECAY_Z)
        pts.append((float(t), float(nrm)))
    return pts


def run_rh(tracer, seed: int, seconds: float, t0: float) -> Outcome:
    """Each timed round: per pair the origin residue (3 radii), the
    stationary identity (t = 20, 50, 100), Z in all five sectors and the
    parametrix decay on t in [10, 1000]; then the three kernels over their
    fixed argument sets."""
    out = Outcome()
    run = Runner(tracer, out)
    lib = _import_library()
    drawn = draw_pairs(seed)
    params = [(slot, lib["stokes"].make_params(drawn[slot].alpha, drawn[slot].k))
              for slot in RH_SLOTS]
    out.setup_done(t0)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        run.new_round()
        with tracer.span("round", "bench"):
            rounds.append(_rh_round(lib, run, params))

    _check_rh(out, params, rounds)
    return out


def _check_rh(out: Outcome, params, rounds) -> None:
    first = rounds[0]
    for i, later in enumerate(rounds[1:], 2):
        out.check(f"rh round {i} repeats round 1", _same(first, later))
    for slot, p in params:
        r = first[slot]
        tag = f"rh[{slot}]"
        worst = max(abs(v + 2j * math.pi) for v in r["residue"])
        out.check(f"{tag} residue = -2 pi i", worst <= 1e-8, worst)
        worst = max(abs(lhs - rhs) for lhs, rhs in r["stationary"])
        out.check(f"{tag} stationary identity", worst <= 1e-6, worst)
        worst = max(abs(np.linalg.det(z) + 1.0) for z in r["z"])
        out.check(f"{tag} det Z = -1 in all sectors", worst <= 1e-10, worst)
        log_t = np.log([t for t, _ in r["decay"]])
        slope = float(np.polyfit(log_t, np.log([n for _, n in r["decay"]]), 1)[0])
        out.check(f"{tag} parametrix decay slope", slope <= -1.4, slope)
    for x, (ai, aip) in zip(AIRY_ARGS, first["airy"]):
        ref, refp = oracle.mp_airy(x)
        env = 1.0 if x <= 0.0 else 0.0
        ok = (abs(ai - ref) <= 1e-12 * max(abs(ref), env * (1.0 + abs(x)) ** -0.25)
              and abs(aip - refp) <= 1e-12 * max(abs(refp), env * (1.0 + abs(x)) ** 0.25))
        out.check(f"rh airy_ai({x:.4g}) vs mpmath", ok, (ai - ref, aip - refp))
    for z, got in zip(LOG_GAMMA_ARGS, first["log_gamma"]):
        ref = oracle.mp_loggamma(z)
        err = abs(got - ref)
        out.check(f"rh log_gamma({z:.4g}) vs mpmath", err <= 1e-12 * max(1.0, abs(ref)), err)
    for (nu, z), (val, der) in zip(PCF_ARGS, first["pcf"]):
        ref, refd = oracle.mp_pcfd(nu, z)
        ok = (abs(val - ref) <= 1e-10 * abs(ref) and abs(der - refd) <= 1e-10 * abs(refd))
        out.check(f"rh pcf_d({nu:.4g}, {z:.4g}) vs mpmath", ok,
                  (abs(val - ref) / abs(ref), abs(der - refd) / abs(refd)))


WORKLOADS = {"solve": run_solve, "fields": run_fields, "rh": run_rh}
