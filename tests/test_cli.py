"""Batch driver: suites, reports, grids, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

import painleve_mkdv.asymptotics as asymptotics
import painleve_mkdv.cli as cli
from painleve_mkdv.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main,
                               parse_config, run_suite)
from painleve_mkdv.errors import ConfigError
from painleve_mkdv.mkdv import InitialDataCoefficients, ab_to_params
from painleve_mkdv.pii import AblowitzSegurSolution, tuned_solution
from painleve_mkdv.stokes import make_params
from pairs import ACCEPTANCE_PAIRS


def test_specfun_suite_passes(tmp_path, capsys):
    report = tmp_path / "rep.jsonl"
    code = main(["specfun", "--out", str(report)])
    assert code == EXIT_OK
    lines = report.read_text().splitlines()
    assert len(lines) >= 5
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"check_id", "lhs", "rhs", "abs_err", "tol",
                            "pass", "runtime_ms"}
        assert rec["pass"] == (rec["abs_err"] <= rec["tol"])
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_malformed_config_is_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 0.1\nwibble = 3\n")
    report = tmp_path / "rep.jsonl"
    code = main(["specfun", "--config", str(cfg), "--out", str(report)])
    assert code == EXIT_CONFIG
    assert not report.exists()


def test_bad_value_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = banana\n")
    assert main(["specfun", "--config", str(cfg)]) == EXIT_CONFIG


def test_config_parsing(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# comment line\nalpha = 0.25  # trailing\nk=0.3\nout = x.csv\n")
    vals = parse_config(str(cfg))
    assert vals == {"alpha": 0.25, "k": 0.3, "out": "x.csv"}
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))


@pytest.mark.parametrize("command", ["specfun", "grid"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.txt"
    assert main([command, "--alpha", "0.25", "--k", "0.3", "--out", str(out)]) == EXIT_CONFIG
    assert "cannot write" in capsys.readouterr().err
    assert not out.parent.exists()


def test_conflicting_parameterizations(tmp_path):
    assert main(["specfun", "--alpha", "0.1", "--a", "1.0"]) == EXIT_CONFIG


def test_invalid_params_rejected():
    assert main(["total-integral", "--alpha", "0.25", "--k", "0.9"]) == EXIT_CONFIG


@pytest.mark.parametrize("cutoff", [math.inf, math.nan, 10.0])
def test_bad_cutoff_is_a_config_error(tmp_path, capsys, cutoff):
    # an infinite cutoff would walk the quadrature panels from -inf forever;
    # a bad value in the config file exits 2 before any suite runs
    cfg = tmp_path / "ti.cfg"
    cfg.write_text(f"alpha = 0\nk = 0.5\ncutoff = {cutoff!r}\n")
    out = tmp_path / "rep.jsonl"
    assert main(["total-integral", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "cutoff" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_bad_tol_is_a_config_error(tmp_path, capsys, tol):
    # unchecked, nan fails the check and writes "tol": NaN, which is not
    # JSON; 0 and -1 fail it; inf passes it whatever the error
    out = tmp_path / "rep.jsonl"
    assert main(["total-integral", "--alpha", "0", "--k", "0.5", f"--tol={tol}",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["all", "--alpha", "0", "--k", "1e-200"],
                                  ["rh-checks", "--alpha", "1e-200", "--k", "0"]])
def test_underflowing_d_rejected_at_input(tmp_path, capsys, argv):
    # a pair whose d^2 underflows is rejected before any suite runs
    out = tmp_path / "rep.jsonl"
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert "underflows" in capsys.readouterr().err
    assert not out.exists()


def test_grid_degenerate_and_rowcount(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(["grid", "--alpha", "0", "--k", "0", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    # comment line + header + 6401 data rows for [-60, 4] at step 0.01
    assert len(lines) == 6403
    assert lines[1] == "x,v,v_prime,v_neg_asym,v_pos_asym,residual_osc,residual_full"
    v_col = [row.split(",")[1] for row in lines[2:]]
    assert set(v_col) == {"0"}


def test_grid_deterministic_and_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("alpha = 0\nk = 0.5\nx_lo = -8\nx_hi = 2\nstep = 0.05\n")
    out1 = tmp_path / "g1.csv"
    out2 = tmp_path / "g2.csv"
    assert main(["grid", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    monkeypatch.setenv("PAINLEVE_MKDV_OUT", str(out2))
    assert main(["grid", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert out2.exists()  # environment overrides the output path
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical reruns
    rows = out1.read_text().splitlines()
    assert len(rows) == 2 + int(round(10.0 / 0.05)) + 1
    # the comment line records where the profile was launched, the launch
    # expansion's estimated error there and the jump at the right seam
    sol = tuned_solution(make_params(0.0, 0.5))
    assert rows[0].endswith(f" x_left={sol.x_left:.17g} "
                            f"launch_error={sol.launch_error:.3e} "
                            f"seam_jump={sol.seam_jump:.3e}")


@pytest.mark.parametrize("bounds", [{"x_lo": -math.inf}, {"x_hi": math.inf},
                                    {"x_lo": math.nan}, {"step": math.inf},
                                    {"step": math.nan}, {"step": 0.0}, {"step": -0.01},
                                    {"x_lo": -1e308, "x_hi": 1e308}])
def test_grid_non_finite_bounds_are_config_errors(tmp_path, capsys, bounds):
    # exit 2 is a bad input; exit 1 would say a check failed.  The last
    # bounds are finite, but their row count overflows
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("alpha = 0\nk = 0.5\n" + "".join(f"{k} = {v!r}\n" for k, v in bounds.items()))
    out = tmp_path / "grid.csv"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError):
        cli.emit_grid({"params": make_params(0.0, 0.5), **bounds})


@pytest.mark.parametrize("alpha, k", [(0.25, 0.3), (0.0, 0.0)])
def test_grid_rows_are_per_value_formats(alpha, k):
    # each row is its values, each written as "%.17g" and joined by commas
    p = make_params(alpha, k)
    lines = cli.emit_grid({"params": p, "x_lo": -8.0, "x_hi": 6.0, "step": 0.05}).splitlines()
    xs = -8.0 + 0.05 * np.arange(len(lines) - 2)
    v, vp = tuned_solution(p).v(xs)
    for line, x, v_x, vp_x in zip(lines[2:], xs, v, vp):
        values = [float(f) for f in line.split(",")]
        assert len(values) == 7
        assert line == ",".join("%.17g" % val for val in values)
        assert line.startswith(",".join("%.17g" % val for val in (x, v_x, vp_x)) + ",")


def test_check_failure_exit_code(tmp_path):
    # an unreachable tolerance forces a FAIL record and exit code 1
    report = tmp_path / "ti.jsonl"
    code = main(["total-integral", "--alpha", "0", "--k", "0.5",
                 "--tol", "1e-12", "--out", str(report)])
    assert code == EXIT_CHECK_FAILED
    rec = json.loads(report.read_text().splitlines()[0])
    assert not rec["pass"]


@pytest.mark.parametrize("argv", [["fourier-limit", "--a", "1", "--b", "0.5"]])
def test_transform_limits_keep_signs(tmp_path, argv):
    # main() with initial-data coefficients (a, b): the expected v_hat and
    # u_hat limits carry the signs of alpha and b
    assert main(argv + ["--out", str(tmp_path / "rep.jsonl")]) == EXIT_OK


@pytest.mark.parametrize("alpha,k", [(0.0, 0.0)])
def test_rh_checks_suite_passes(tmp_path, alpha, k):
    # main() at the degenerate pair, where the suite skips the parametrix
    # decay; test_acceptance.test_suite runs rh-checks at the acceptance pairs
    report = tmp_path / "rh.jsonl"
    argv = ["rh-checks", "--alpha", repr(alpha), "--k", repr(k), "--out", str(report)]
    assert main(argv) == EXIT_OK


# |alpha| -> 1/2 and |k| -> 1, where 1 - s1 s3 cancels to few digits
@pytest.mark.parametrize("alpha,k", [(0.4999, 0.0), (0.499, 0.0), (0.49, 0.03),
                                     (0.0, 0.9999999)])
def test_h0h1_identity_holds_near_the_edge(alpha, k):
    # h0 h1 g = s1 s3 with g = cos^2(pi alpha) - k^2 formed without the
    # cancellation; written as 1 - s1 s3, g read 9.2e-10 at (0.4999, 0)
    reports = run_suite("rh-checks", {"params": make_params(alpha, k)})
    (h0h1,) = [r for r in reports if r.check_id == "rh.h0h1_identity"]
    assert h0h1.tol == 1e-12 and h0h1.abs_err <= 1e-12


def test_all_suites_pass_at_the_zero_pair(tmp_path):
    # the zero field's FD residual is 0 at every h, so the pde suite yields
    # no convergence ratio there; every other check runs
    for argv in (["--alpha", "0", "--k", "0"], ["--a", "0", "--b", "0"]):
        report = tmp_path / "all.jsonl"
        assert main(["all"] + argv + ["--out", str(report)]) == EXIT_OK


def test_connection_suite_at_the_zero_pair():
    # the zero profile runs every connection check, each exact
    zero = run_suite("connection", {"params": make_params(0.0, 0.0)})
    nonzero = run_suite("connection", {"params": make_params(0.0, 0.5)})
    assert [r.check_id for r in zero] == [r.check_id for r in nonzero]
    assert all(r.passed and r.abs_err == 0.0 for r in zero)


def test_suite_check_ids_are_stable():
    # the benchmark parses these ids, in this order, and reads xi back from
    # the fourier ones
    coeffs = InitialDataCoefficients(1.0, 0.5)
    p = ab_to_params(coeffs)
    with_ab = {"coeffs": coeffs, "params": p}

    def ids(suite, opts):
        return [r.check_id for r in run_suite(suite, opts)]

    v_hat_ids = ["fourier.v_hat_limit_xi=+1e-03", "fourier.v_hat_limit_xi=-1e-03"]
    u_hat_ids = ["fourier.u_hat_limit_xi=+1", "fourier.u_hat_limit_xi=-1"]
    for opts in ({"params": p}, with_ab):
        assert ids("total-integral", opts) == ["total_integral.formula"]
        assert ids("pde", opts) == ["pde.fd_convergence_ratio", "pde.closure_residual"]
    assert ids("fourier-limit", {"params": p}) == v_hat_ids
    assert ids("fourier-limit", with_ab) == v_hat_ids + u_hat_ids
    xis = [float(check_id.split("=")[1]) for check_id in v_hat_ids + u_hat_ids]
    assert xis == [1e-3, -1e-3, 1.0, -1.0]


@pytest.mark.parametrize("offset,failing", [
    ((1e-4, 0.0), "connection.right_launch_d"),
    ((0.0, 1e-3), "connection.right_launch_phi"),
])
def test_connection_read_back_catches_a_worse_fit(monkeypatch, offset, failing):
    # the read-back errs by ~1e-9 at (0, 0.5); a fit off by 1e-4 in d or
    # 1e-3 in phi fails the matching check and only that one
    fit = cli.fit_oscillation
    monkeypatch.setattr(cli, "fit_oscillation", lambda *args: tuple(
        value + delta for value, delta in zip(fit(*args), offset)))
    passed = {r.check_id: r.passed
              for r in run_suite("connection", {"params": make_params(0.0, 0.5)})}
    read_back = {"connection.right_launch_d", "connection.right_launch_phi"}
    assert {check_id for check_id in read_back if not passed[check_id]} == {failing}


def _launch_expansion(p):
    return next(r for r in run_suite("connection", {"params": p})
                if r.check_id == "connection.launch_expansion")


@pytest.mark.parametrize("alpha,k", ACCEPTANCE_PAIRS)
def test_launch_expansion_catches_a_missing_order(monkeypatch, alpha, k):
    # a profile launched with F_2, the s^{-7/4} order, zeroed misses the
    # expansion by over 1e3 times the bound
    p = make_params(alpha, k)
    coefficients = asymptotics._coefficients

    def without_f2(d, a):
        table = coefficients(d, a).copy()
        table[2] = 0.0
        return table

    with monkeypatch.context() as m:
        m.setattr(asymptotics, "_coefficients", without_f2)
        mutant = AblowitzSegurSolution(p)
    monkeypatch.setattr(cli, "tuned_solution", lambda q: mutant)
    r = _launch_expansion(p)
    assert r.abs_err > 1e3 * r.tol


def test_launch_expansion_holds_on_a_deep_launch():
    # at (0.3, d = 1.7) the profile is launched left of -60, and the
    # check holds on the whole solved window with a 2x margin
    d = 1.7
    p = make_params(0.3, math.sqrt(math.cos(0.3 * math.pi) ** 2
                                   - math.exp(-math.pi * d * d)))
    assert tuned_solution(p).x_left < -60.0
    r = _launch_expansion(p)
    assert 2.0 * r.abs_err <= r.tol
