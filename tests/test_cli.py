import json
import os
import subprocess
import sys
import time

import pytest

from oracle import basis_state
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
    assert len(cli.parse_int_range("1..80")) == 80
    # a range wider than [1, 80] is refused before its list is built
    for text in ("1..81", "1..1000000000000"):
        with pytest.raises(ValueError):
            cli.parse_int_range(text)


def test_validate_collects_all_violations():
    config = cli.ExperimentConfig(experiment="overlap-trace", ns=[99], epsilons=[0.0])
    errors = cli.validate(config)
    assert len(errors) >= 2
    assert any("99" in e for e in errors)
    assert any("epsilon" in e for e in errors)


@pytest.mark.parametrize(
    "n_range, message", [("1..200000", "--n-range"), ("60..100", "20 system size(s) outside supported range [1, 80]: smallest n=81, largest n=100")]
)
def test_out_of_range_sizes_make_one_error_line(n_range, message, tmp_path, capsys):
    out = tmp_path / "a.csv"
    try:
        code = cli.main(["analytic-depth", "--n-range", n_range, "--epsilon", "0.1", "--out", str(out)])
    except SystemExit as stop:
        code = stop.code
    assert code == cli.EXIT_USAGE
    assert not out.exists()
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_refused_range_keeps_its_reason(source, tmp_path, capsys):
    out = tmp_path / "a.csv"
    args = ["analytic-depth", "--epsilon", "0.1", "--out", str(out)]
    if source == "flag":
        args += ["--n-range", "1..200000"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_range": "1..200000"}))
        args += ["--config", str(cfg)]
    try:
        code = cli.main(args)
    except SystemExit as stop:
        code = stop.code
    assert code == cli.EXIT_USAGE
    assert not out.exists()
    assert "range holds 200000 sizes, more than the 80 in [1, 80]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n_range": "1..200000", "epsilon": 0.1}', "config key 'n_range': range holds 200000 sizes"),
        ('{"n_range": "1..x", "epsilon": 0.1}', "config key 'n_range': invalid parse_int_range value '1..x'"),
        ('{"n": 10, "epsilon_list": "0.1,x"}', "config key 'epsilon_list': invalid parse_float_list value '0.1,x'"),
        ('{"n": 10', "cannot read config file"),
        ("[10, 0.1]", "must hold a JSON object, got list"),
    ],
    ids=["range-too-wide", "range-malformed", "budgets-malformed", "not-json", "not-an-object"],
)
def test_failed_config_key_is_not_also_missing(text, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "a.csv"
    assert cli.main(["analytic-depth", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
    assert not out.exists()
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


def test_overlap_trace_schema(tmp_path):
    out = tmp_path / "trace.csv"
    code = cli.main(
        ["overlap-trace", "--n", "10", "--epsilon", "0.01", "--samples", "5", "--out", str(out)]
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
    # the sidecar records the settings ratio-sweep reads and no others
    meta = read_sidecar(out1)
    assert set(meta["config"]) == {"experiment", "ns", "out", "epsilons", "orders", "iterations", "workers"}
    # config.orders records the orders; meta does not repeat them
    assert set(meta["meta"]) == {"epsilon_role"}


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
    # samples is a setting, but not one analytic-depth reads (5 is a valid count)
    for key, value in (("bogus", 1), ("target", 1), ("experiment", 1), ("config", 1), ("samples", 5)):
        cfg.write_text(json.dumps({"n": 6, "epsilon": 0.1, key: value}))
        assert cli.main(["analytic-depth", "--config", str(cfg)]) == cli.EXIT_USAGE


def test_config_file_values_take_their_flag_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "trace.csv"
    # an int flag takes a JSON integer, as --samples 5 gives one
    for key, value in (("samples", "5"), ("n", "ten"), ("samples", 5.5), ("samples", True), ("epsilon", "0.1")):
        cfg.write_text(json.dumps({"n": 10, "epsilon": 0.1, key: value}))
        assert cli.main(["overlap-trace", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        assert f"config key {key!r}: invalid" in capsys.readouterr().err
        assert not out.exists()
    cfg.write_text(json.dumps([10, 0.1]))
    assert cli.main(["overlap-trace", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
    assert "must hold a JSON object, got list" in capsys.readouterr().err
    # a flag without a type reads a string or a number as its text
    cfg.write_text(json.dumps({"n": 10, "epsilon": 0.1, "samples": 5, "order": 4, "spacing": "geometric"}))
    assert cli.main(["overlap-trace", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert read_sidecar(out)["config"]["order"] == "4"


def test_usage_error_exit_code(tmp_path, capsys):
    code = cli.main(["overlap-trace", "--n", "99", "--epsilon", "2.0", "--out", str(tmp_path / "x.csv")])
    assert code == cli.EXIT_USAGE
    code = cli.main(["depth-search", "--n", "3", "--epsilon", "0.1", "--workers", "-1", "--out", str(tmp_path / "y.csv")])
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


def test_workers_zero_counts_the_usable_cpus(monkeypatch):
    # one CPU left to this process by its affinity mask, of however many the host has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    config = cli.ExperimentConfig(experiment="depth-search", ns=[8], epsilons=[0.1])
    assert cli.validate(config) == []
    assert config.workers == 1
    # where the platform has no affinity mask, every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    config = cli.ExperimentConfig(experiment="depth-search", ns=[8], epsilons=[0.1])
    assert cli.validate(config) == []
    assert config.workers == 3


def _cell_and_pid(cell):
    """A pool task: sleeps up to 10 ms and returns the cell with the pid that ran it; a negative cell raises."""
    if cell < 0:
        raise ValueError(f"cell {cell}")
    time.sleep(0.001 * (cell % 11))
    return cell, os.getpid()


@pytest.mark.parametrize("count", [0, 1, 2, 7])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_map_cells_keeps_order_with_one_child_fewer_than_workers(workers, count):
    cells = list(range(count))
    results = cli._map_cells(_cell_and_pid, cells, workers)
    assert [cell for cell, _ in results] == cells
    # the calling process is one of the workers; which cells it ran besides
    # its own depends on when the executor hands cells to its children
    pids = {pid for _, pid in results}
    assert count == 0 or os.getpid() in pids
    assert len(pids - {os.getpid()}) <= max(0, min(workers, count) - 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_cells_raises_a_cell_error(workers):
    # the failing cell is a child's first, the caller's own, or the last
    for bad in (0, workers - 1, 6):
        cells = [-1 if i == bad else i for i in range(7)]
        with pytest.raises(ValueError, match="cell -1"):
            cli._map_cells(_cell_and_pid, cells, workers)


@pytest.mark.parametrize(
    "flag, value",
    [("--n-range", "16..x"), ("--epsilon-list", "0.1,abc"), ("--orders", "2,x"), ("--n-range", "6..8:0")],
)
def test_malformed_list_flag(flag, value, tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = {"--n-range": "6", "--epsilon-list": "0.1", "--orders": "2", "--workers": "1", "--out": str(out)}
    args[flag] = value
    try:
        code = cli.main(["ratio-sweep", *(part for item in args.items() for part in item)])
    except SystemExit as stop:
        code = stop.code
    assert code == cli.EXIT_USAGE
    assert not out.exists()
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]


def test_config_file_list_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_range": "16..18:2", "epsilon_list": "0.1", "orders": "2,4", "workers": 1}))
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert cli.main(["ratio-sweep", "--config", str(cfg), "--out", str(from_file)]) == cli.EXIT_OK
    flags = ["--n-range", "16..18:2", "--epsilon-list", "0.1", "--orders", "2,4", "--workers", "1"]
    assert cli.main(["ratio-sweep", *flags, "--out", str(from_flags)]) == cli.EXIT_OK
    assert from_file.read_bytes() == from_flags.read_bytes()
    capsys.readouterr()
    cfg.write_text(json.dumps({"n": 6, "epsilon": 0.1, "orders": [2, 4]}))
    assert cli.main(["ratio-sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == cli.EXIT_USAGE
    assert "'orders'" in capsys.readouterr().err


# every optional flag each subcommand has no use for; --n, --n-range, --out
# and --config belong to all six
UNREAD_FLAGS = {
    "overlap-trace": ["--orders", "--iterations", "--k-max", "--workers"],
    "depth-search": ["--orders", "--samples", "--spacing", "--k-max"],
    "analytic-depth": ["--orders", "--samples", "--spacing", "--iterations", "--k-max", "--workers"],
    "ratio-sweep": ["--order", "--samples", "--spacing", "--k-max"],
    "grover-curve": ["--epsilon", "--epsilon-list", "--order", "--orders", "--samples", "--spacing", "--iterations", "--workers"],
    "bound-check": ["--epsilon", "--epsilon-list", "--orders", "--samples", "--spacing", "--iterations", "--k-max", "--workers"],
}
FLAG_VALUES = {
    "--epsilon": "0.1",
    "--epsilon-list": "0.1",
    "--order": "2",
    "--orders": "2,4",
    "--samples": "5",
    "--spacing": "linear",
    "--iterations": "3",
    "--k-max": "3",
    "--workers": "1",
}
VALID_BASE = {
    "overlap-trace": ["--n", "4", "--epsilon", "0.1"],
    "depth-search": ["--n", "4", "--epsilon", "0.1"],
    "analytic-depth": ["--n", "4", "--epsilon", "0.1"],
    "ratio-sweep": ["--n", "4", "--epsilon", "0.1"],
    "grover-curve": ["--n", "4"],
    "bound-check": ["--n", "4"],
}


@pytest.mark.parametrize(
    "experiment, flag, value",
    [(e, f, FLAG_VALUES[f]) for e, flags in UNREAD_FLAGS.items() for f in flags]
    # an abbreviation of a flag the subcommand has is no spelling of it
    + [("depth-search", "--iter", "3")],
)
def test_unread_flag_rejected(experiment, flag, value, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = cli.main([experiment, *VALID_BASE[experiment], flag, value, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert experiment in err and flag in err
    assert not out.exists()


def test_grover_curve_row_cap():
    # the default count ceil(pi / (4 asin 2^(-n/2))) fits the cap up to n = 40
    assert any("--k-max" in e for e in cli.validate(cli.ExperimentConfig(experiment="grover-curve", ns=[80])))
    assert any("--k-max" in e for e in cli.validate(cli.ExperimentConfig(experiment="grover-curve", ns=[41])))
    assert cli.validate(cli.ExperimentConfig(experiment="grover-curve", ns=[80], k_max=10)) == []
    config = cli.ExperimentConfig(experiment="grover-curve", ns=[40])
    assert cli.validate(config) == []
    assert config.k_max == 823550


def test_overlap_trace_sample_cap(tmp_path, capsys):
    # the trace holds every sample in memory before it writes a row
    config = cli.ExperimentConfig(experiment="overlap-trace", ns=[10], epsilons=[0.01], samples=cli.MAX_ROWS)
    assert cli.validate(config) == []
    out = tmp_path / "trace.csv"
    code = cli.main(["overlap-trace", "--n", "10", "--epsilon", "0.01", "--samples", str(cli.MAX_ROWS + 1), "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path))
    assert cli.main(["grover-curve", "--n", "3", "--k-max", "2"]) == 0
    assert (tmp_path / "grover-curve.csv").exists()
    assert (tmp_path / "grover-curve.json").exists()


def test_partial_failure_exit_code(tmp_path, monkeypatch):
    # a state with no target amplitude is rejected at every step count, so
    # each search fails its first scan, inside sweep_cell as well
    def no_overlap(n, q, t, r):
        return basis_state(n, n)

    monkeypatch.setattr(depthsearch.trotter, "trotterized_state", no_overlap)
    out = tmp_path / "fail.csv"
    code = cli.main(["depth-search", "--n", "8", "--epsilon", "0.1", "--workers", "1", "--out", str(out)])
    assert code == cli.EXIT_PARTIAL
    meta = read_sidecar(out)
    assert len(meta["errors"]) == 1
    assert meta["errors"][0]["n"] == 8
    assert set(meta["errors"][0]) == {"n", "epsilon", "q", "message"}
    # ratio-sweep records each failed order and the cell with no admissible one
    out = tmp_path / "sweep.csv"
    code = cli.main(["ratio-sweep", "--n", "8", "--epsilon", "0.1", "--orders", "2,4", "--workers", "1", "--out", str(out)])
    assert code == cli.EXIT_PARTIAL
    errors = read_sidecar(out)["errors"]
    assert [set(e) for e in errors] == [{"n", "epsilon", "q", "message"}] * 2 + [{"n", "epsilon", "message"}]


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
