"""Batch driver: suites, reports, grids, exit codes, determinism."""

import json

import pytest

from painleve_mkdv.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main,
                               parse_config, run_suite)
from painleve_mkdv.errors import ConfigError
from painleve_mkdv.mkdv import InitialDataCoefficients, ab_to_params


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


def test_conflicting_parameterizations(tmp_path):
    assert main(["specfun", "--alpha", "0.1", "--a", "1.0"]) == EXIT_CONFIG


def test_invalid_params_rejected():
    assert main(["total-integral", "--alpha", "0.25", "--k", "0.9"]) == EXIT_CONFIG


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
