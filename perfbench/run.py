"""Benchmark of painleve_mkdv: one named workload from a seed.

    python3 perfbench/run.py --workload {solve,fields,rh} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run also
writes its spans to ``.perfbench/trace-<workload>-<seed>.json``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import Tracer, layer_totals  # noqa: E402

LAYERS = ("specfun", "stokes", "asymptotics", "pii", "integrals", "mkdv",
          "rh_verify", "cli")
SUITES = ("total-integral", "fourier-limit", "pde")


def _spans(tracer, name, slot=None):
    return [s for s in tracer.spans
            if s.name == name and (slot is None or s.attrs.get("slot") == slot)]


def _per_call(spans, scale=1.0) -> float:
    calls = sum(s.attrs.get("n", 1) for s in spans)
    return scale * sum(s.duration for s in spans) / calls if calls else 0.0


def _median_s(spans) -> float:
    return statistics.median(s.duration for s in spans) if spans else 0.0


def _rate(spans) -> float:
    secs = sum(s.duration for s in spans)
    return sum(s.attrs["points"] for s in spans) / secs if secs else 0.0


def per_layer_metrics(tracer, outcome, workloads) -> dict:
    """Per-layer figures from the spans of a traced run; 0 where the
    workload does not enter a layer or does not use a pair slot."""
    m = {}
    f = outcome.speed.factor

    def put(name, value, unit):
        # times in scaled seconds, rates in scaled points per second
        value = {"s": f * value, "us": f * value, "points/s": value / f}.get(unit, value)
        m[name] = {"value": value, "unit": unit}

    put("specfun.pcf_d_us", _per_call(_spans(tracer, "specfun.pcf_d"), 1e6), "us")
    put("specfun.airy_ai_us", _per_call(_spans(tracer, "specfun.airy_ai"), 1e6), "us")
    put("specfun.log_gamma_us", _per_call(_spans(tracer, "specfun.log_gamma"), 1e6), "us")
    put("stokes.constants_us", _per_call(
        [s for s in tracer.spans if s.layer == "stokes"], 1e6), "us")
    put("asymptotics.launch_model_us",
        _per_call(_spans(tracer, "asymptotics.v_neg_launch"), 1e6), "us")
    put("asymptotics.model_points_per_s", _rate(
        _spans(tracer, "asymptotics.v_neg_asym") + _spans(tracer, "asymptotics.v_pos_asym")),
        "points/s")
    for slot in workloads.PII_SLOTS:
        tuned = _spans(tracer, "pii.tuned_solution", slot)
        put(f"pii.tuned_solution_s.{slot}", _median_s(tuned), "s")
        for key, metric, unit in (("depth", "launch_depth", "count"),
                                  ("steps", "dense_steps", "count"),
                                  ("seam", "seam", "1")):
            put(f"pii.{metric}.{slot}", tuned[0].attrs[key] if tuned else 0, unit)
    for slot in workloads.SOLVE_SLOTS:
        put(f"pii.left_launch_s.{slot}",
            _median_s(_spans(tracer, "pii.solve_left_launch", slot)), "s")
    put("pii.right_launch_s",
        _median_s(_spans(tracer, "pii.solve_right_launch_homogeneous")), "s")
    put("pii.fit_oscillation_s", _median_s(_spans(tracer, "pii.fit_oscillation")), "s")
    put("pii.eval_points_per_s", _rate(_spans(tracer, "pii.AblowitzSegurSolution.v")),
        "points/s")
    for slot in workloads.FIELDS_SLOTS:
        put(f"integrals.pv_total_integral_s.{slot}",
            _median_s(_spans(tracer, "integrals.pv_total_integral", slot)), "s")
        put(f"integrals.v_hat_s.{slot}",
            _median_s(_spans(tracer, "integrals.v_hat", slot)), "s")
        put(f"integrals.pv_abs_err.{slot}",
            outcome.extras.get(f"integrals.pv_abs_err.{slot}", 0.0), "1")
    put("mkdv.u_points_per_s", _rate(_spans(tracer, "mkdv.SelfSimilarField.u")), "points/s")
    put("mkdv.u_hat_s", _median_s(_spans(tracer, "mkdv.u_hat")), "s")
    put("mkdv.pde_residual_s", _median_s(
        _spans(tracer, "mkdv.pde_residual_fd") + _spans(tracer, "mkdv.pde_residual_closure")),
        "s")
    put("rh_verify.residue_s", _median_s(_spans(tracer, "rh_verify.residue_check_origin")), "s")
    put("rh_verify.stationary_identity_s",
        _median_s(_spans(tracer, "rh_verify.stationary_identity")), "s")
    put("rh_verify.z_parametrix_us",
        _per_call(_spans(tracer, "rh_verify.z_parametrix"), 1e6), "us")
    put("rh_verify.parametrix_decay_s",
        _median_s(_spans(tracer, "rh_verify.parametrix_decay")), "s")
    put("cli.emit_grid_s", _median_s(_spans(tracer, "cli.emit_grid")), "s")
    for suite in SUITES:
        put(f"cli.run_suite_s.{suite}", _median_s(_spans(tracer, f"cli.run_suite.{suite}")),
            "s")
    totals = layer_totals(tracer.spans)
    for layer in LAYERS:
        calls, secs = totals.get(layer, (0, 0.0))
        put(f"{layer}.calls", calls, "count")
        put(f"{layer}.self_s", secs, "s")
    return m


def end_to_end_metrics(outcome) -> dict:
    """Times in scaled seconds (see speed.py); peak RSS in MB."""
    f = outcome.speed.factor
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": f * outcome.setup_s, "unit": "s"},
        "wall_s": {"value": f * statistics.mean(outcome.round_s), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def _declared(section: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("solve", "fields", "rh"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "painleve_mkdv", "__init__.py")):
        print(f"painleve_mkdv sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    import workloads
    warnings.simplefilter("ignore", UserWarning)  # the library's tail-remainder notes

    tracer = Tracer(bool(args.trace))
    outcome = workloads.WORKLOADS[args.workload](tracer, args.seed, args.seconds, _T0)
    for err in outcome.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"{len(outcome.round_s)} rounds; speed probe: "
          f"{outcome.speed.units} reference units, "
          f"{1e3 * outcome.speed.seconds / outcome.speed.units:.3f} ms each, "
          f"time scale {outcome.speed.factor:.4f}", file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(tracer, outcome, workloads)
        section = "per_layer"
        os.makedirs(".perfbench", exist_ok=True)
        path = os.path.join(".perfbench", f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "end_to_end": end_to_end_metrics(outcome),
                       "spans": tracer.to_json()}, fh)
    else:
        metrics = end_to_end_metrics(outcome)
        section = "end_to_end"
    if set(metrics) != _declared(section):
        print(f"metrics differ from BENCHMARK.json {section}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": not outcome.errors, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
