import json
import os
import subprocess
import sys

import pytest

from trotterwalk import cli, depthsearch


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# trotterwalk=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def read_sidecar(path):
    with open(cli.sidecar_path(str(path))) as fh:
        return json.load(fh)


def test_parse_int_range():
    assert cli.parse_int_range("7") == [7]
    assert cli.parse_int_range("4..8") == [4, 5, 6, 7, 8]
    assert cli.parse_int_range("16..24:4") == [16, 20, 24]
    with pytest.raises(ValueError):
        cli.parse_int_range("4..8:0")


def test_validate_collects_all_violations():
    config = cli.ExperimentConfig(experiment="overlap-trace", ns=[99], epsilons=[0.0])
    errors = cli.validate(config)
    assert len(errors) >= 2
    assert any("99" in e for e in errors)
    assert any("epsilon" in e for e in errors)


def test_overlap_trace_schema(tmp_path):
    out = tmp_path / "trace.csv"
    code = cli.main(
        ["overlap-trace", "--n", "10", "--epsilon", "0.01", "--samples", "5", "--workers", "1", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["steps_applied", "layer_count", "overlap_qaoa", "overlap_grover", "overlap_ctqw_reference"]
    assert len(rows) == 5
    assert float(rows[0][2]) == pytest.approx(2.0**-10, rel=1e-12)
    meta = read_sidecar(out)
    assert meta["meta"]["epsilon_role"] == "spectral"
    assert meta["library_version"]


def test_ratio_sweep_reproducible(tmp_path):
    args = ["ratio-sweep", "--n-range", "6..8:2", "--epsilon", "0.1", "--orders", "2,4", "--workers", "1"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header == ["n", "epsilon", "q_best", "p_numerical", "p_analytical", "ratio"]
    assert len(rows) == 2
    assert all(float(r[5]) > 1 for r in rows)


def test_analytic_depth_paper_point(tmp_path):
    out = tmp_path / "depth.csv"
    assert cli.main(["analytic-depth", "--n", "46", "--epsilon", "0.01", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert round(float(row["q_real"]), 1) == 3.9
    assert row["q_even"] == "4"
    assert float(row["p0"]) < 0.5


def test_depth_search_and_grover(tmp_path):
    out = tmp_path / "search.csv"
    assert cli.main(["depth-search", "--n", "8", "--epsilon", "0.1", "--workers", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["p_numerical"] == "14"  # frozen search regression value

    out2 = tmp_path / "grover.csv"
    assert cli.main(["grover-curve", "--n", "2", "--k-max", "1", "--out", str(out2)]) == 0
    _, rows2 = read_csv(out2)
    assert float(rows2[1][1]) == pytest.approx(1.0, abs=1e-12)


def test_bound_check(tmp_path):
    out = tmp_path / "bounds.csv"
    assert cli.main(["bound-check", "--n", "4", "--order", "2", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["n", "q", "r", "spectral_error", "error_bound", "within_bound"]
    assert all(row[5] == "1" for row in rows)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 46, "epsilon": 0.01, "out": str(tmp_path / "from_file.csv")}))
    out = tmp_path / "override.csv"
    assert cli.main(["analytic-depth", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
    assert not (tmp_path / "from_file.csv").exists()
    meta = read_sidecar(out)
    assert meta["config"]["ns"] == [46]


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    for key in ("bogus", "target", "experiment", "config"):
        cfg.write_text(json.dumps({"n": 6, "epsilon": 0.1, key: 1}))
        assert cli.main(["analytic-depth", "--config", str(cfg)]) == cli.EXIT_USAGE


def test_usage_error_exit_code(tmp_path, capsys):
    code = cli.main(["overlap-trace", "--n", "99", "--epsilon", "2.0", "--out", str(tmp_path / "x.csv")])
    assert code == cli.EXIT_USAGE
    code = cli.main(["grover-curve", "--n", "3", "--workers", "-1", "--out", str(tmp_path / "y.csv")])
    assert code == 2
    assert "--workers must be >= 0 (0 = one per CPU), got -1" in capsys.readouterr().err
    sweep = ["ratio-sweep", "--n", "6", "--epsilon", "0.1", "--workers", "1"]
    assert cli.main(sweep + ["--orders", "", "--out", str(tmp_path / "z.csv")]) == cli.EXIT_USAGE
    assert "no admissible order given" in capsys.readouterr().err
    assert not (tmp_path / "z.csv").exists()
    assert cli.main(sweep + ["--orders", "4,4,2", "--out", str(tmp_path / "w.csv")]) == cli.EXIT_USAGE
    assert "admissible orders must not repeat, got [4, 4, 2]" in capsys.readouterr().err
    trace = ["overlap-trace", "--n", "12", "--epsilon-list", "0.1,0.01", "--out", str(tmp_path / "t.csv")]
    assert cli.main(trace) == cli.EXIT_USAGE
    assert "overlap-trace needs exactly one error budget" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path))
    assert cli.main(["grover-curve", "--n", "3", "--k-max", "2"]) == 0
    assert (tmp_path / "grover-curve.csv").exists()
    assert (tmp_path / "grover-curve.json").exists()


def test_partial_failure_exit_code(tmp_path, monkeypatch):
    def failing(n, q, epsilon, iterations=15, d_cap=4096):
        raise depthsearch.DepthSearchError(n, q, epsilon, 0, d_cap + 1, 0.0, 1.0)

    monkeypatch.setattr(cli.depthsearch, "numeric_optimal_depth", failing)
    out = tmp_path / "fail.csv"
    code = cli.main(["depth-search", "--n", "8", "--epsilon", "0.1", "--workers", "1", "--out", str(out)])
    assert code == cli.EXIT_PARTIAL
    meta = read_sidecar(out)
    assert len(meta["errors"]) == 1
    assert meta["errors"][0]["n"] == 8


def test_console_entry_point(tmp_path):
    out = tmp_path / "entry.csv"
    # the child imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "trotterwalk", "analytic-depth", "--n", "12", "--epsilon", "0.1", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
