import dataclasses
import json
import os
import re
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
    # an empty range is refused, not read as no size given
    with pytest.raises(ValueError, match="range 16..8 holds no sizes"):
        cli.parse_int_range("16..8")


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


@pytest.mark.parametrize(
    "source, text, reason",
    [
        ("flag", "1..200000", "range holds 200000 sizes, more than the 80 in [1, 80]"),
        ("config", "1..200000", "range holds 200000 sizes, more than the 80 in [1, 80]"),
        ("flag", "16..8", "range 16..8 holds no sizes"),
        ("config", "16..8", "range 16..8 holds no sizes"),
    ],
    ids=["flag", "config", "flag-empty", "config-empty"],
)
def test_refused_range_keeps_its_reason(source, text, reason, tmp_path, capsys):
    # "config": the range comes from an @file of flags
    out = tmp_path / "a.csv"
    args = ["analytic-depth", "--epsilon", "0.1", "--out", str(out)]
    if source == "flag":
        args += ["--n-range", text]
    else:
        flags = tmp_path / "run.args"
        flags.write_text(f"--n-range {text}\n")
        args.append(f"@{flags}")
    try:
        code = cli.main(args)
    except SystemExit as stop:
        code = stop.code
    assert code == cli.EXIT_USAGE
    assert not out.exists()
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and reason in errors[0]


@pytest.mark.parametrize(
    "text, message",
    [
        ("--n-range 1..200000\n--epsilon 0.1\n", "argument --n/--n-range: range holds 200000 sizes"),
        ("--n-range 1..x\n--epsilon 0.1\n", "argument --n/--n-range: invalid parse_int_range value: '1..x'"),
        ("--n 10\n--epsilon-list 0.1,x\n", "argument --epsilon/--epsilon-list: invalid parse_float_list value: '0.1,x'"),
        (None, "No such file or directory"),
    ],
    ids=["range-too-wide", "range-malformed", "budgets-malformed", "missing-file"],
)
def test_failed_config_key_is_not_also_missing(text, message, tmp_path, capsys):
    # argparse stops at an @file's first bad value, so the sizes or budgets it
    # failed to give are not also reported as missing
    flags = tmp_path / "run.args"
    if text is not None:
        flags.write_text(text)
    out = tmp_path / "a.csv"
    with pytest.raises(SystemExit) as stop:
        cli.main(["analytic-depth", f"@{flags}", "--out", str(out)])
    assert stop.value.code == cli.EXIT_USAGE
    assert not out.exists()
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


def test_failed_config_file_ends_the_checks(tmp_path, capsys):
    # --order 3 is refused too, but argparse stops at the @file's bad value
    flags = tmp_path / "run.args"
    flags.write_text("--n 10\n--epsilon-list 0.1,x\n")
    out = tmp_path / "a.csv"
    with pytest.raises(SystemExit) as stop:
        cli.main(["analytic-depth", f"@{flags}", "--order", "3", "--out", str(out)])
    assert stop.value.code == cli.EXIT_USAGE
    assert not out.exists()
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith("error: argument --epsilon/--epsilon-list: invalid parse_float_list value: '0.1,x'")


@pytest.mark.parametrize("out, directory", [("out", "out"), ("x.csv", "x.json")], ids=["csv", "sidecar"])
def test_output_path_that_is_a_directory_is_refused(out, directory, tmp_path, capsys):
    # refused before any cell runs, so no CSV is left without its sidecar
    (tmp_path / directory).mkdir()
    assert cli.main(["analytic-depth", "--n", "10", "--epsilon", "0.1", "--out", str(tmp_path / out)]) == cli.EXIT_USAGE
    assert f"output path {tmp_path / directory} is a directory" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("out", ["afile/x.csv", "afile/sub/x.csv"], ids=["parent", "ancestor"])
def test_output_path_under_a_file_is_refused(out, tmp_path, capsys):
    # refused before any cell runs, not when the CSV's directory is made
    (tmp_path / "afile").write_text("")
    assert cli.main(["analytic-depth", "--n", "10", "--epsilon", "0.1", "--out", str(tmp_path / out)]) == cli.EXIT_USAGE
    assert f"output path {tmp_path / out} lies under {tmp_path / 'afile'}, which is not a directory" in capsys.readouterr().err
    assert list(tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize(
    "args, file, message",
    [
        # argparse's choices refuse --order; Python 3.10 to 3.13 format the
        # list of choices differently, but all print this much
        (["depth-search", "--n", "6", "--epsilon", "0.1", "--order", "3"], None, "argument --order: invalid choice: '3'"),
        (["depth-search", "--n", "6", "--epsilon", "0.1", "--order", "four"], None, "argument --order: invalid choice: 'four'"),
        # at q = 18 the error bound overflows a float: refused before any cell runs
        (["bound-check", "--n", "4", "--order", "18"], None, "argument --order: invalid choice: '18'"),
        (["analytic-depth", "--n", "10", "--epsilon", "0.1", "--order", "18"], None, "argument --order: invalid choice: '18'"),
        (["ratio-sweep", "--n", "6", "--epsilon", "0.1", "--orders", "2,3"], None, "--orders must list even integers in [2, 16], got 3"),
        # a q = 18 step costs 2^8 order-2 blocks: refused like --order 18
        (["ratio-sweep", "--n", "6", "--epsilon", "0.1", "--orders", "2,18"], None, "--orders must list even integers in [2, 16], got 18"),
        (["overlap-trace", "--n", "6", "--epsilon", "0.1", "--samples", "1"], None, "--samples must be >= 2, got 1"),
        (["grover-curve", "--n", "6", "--k-max", "0"], None, "--k-max must be >= 1, got 0"),
        # from an @file as from the command line, argparse's choices refuse it
        (["overlap-trace"], "--n 6 --epsilon 0.1 --spacing bogus", "argument --spacing: invalid choice: 'bogus'"),
        (["analytic-depth", "--epsilon", "0.1"], None, "no system size given (use --n or --n-range)"),
        (["analytic-depth", "--n", "10"], None, "no error budget given (use --epsilon or --epsilon-list)"),
        (["grover-curve", "--n-range", "6..8:2"], None, "grover-curve needs exactly one system size"),
    ],
    ids=[
        "order-odd",
        "order-text",
        "order-above-cap-bound-check",
        "order-above-cap-analytic-depth",
        "orders-odd",
        "orders-above-cap",
        "samples",
        "k-max",
        "spacing-from-config",
        "no-size",
        "no-epsilon",
        "grover-curve-two-sizes",
    ],
)
def test_validate_refusals(args, file, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    if file is not None:
        flags = tmp_path / "run.args"
        flags.write_text(file)
        args = [*args, f"@{flags}"]
    try:
        code = cli.main([*args, "--out", str(out)])
    except SystemExit as stop:
        code = stop.code
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sidecar_duration_covers_the_csv_write(tmp_path, monkeypatch):
    # overlap-trace forms its rows as the CSV is written, so a slow row
    # must show in the sidecar's duration
    closed_form, slept = depthsearch.grover_closed_form, []

    def slow_once(n, k):
        if not slept:
            slept.append(time.sleep(0.2))
        return closed_form(n, k)

    monkeypatch.setattr(depthsearch, "grover_closed_form", slow_once)
    out = tmp_path / "trace.csv"
    assert cli.main(["overlap-trace", "--n", "10", "--epsilon", "0.01", "--samples", "5", "--out", str(out)]) == cli.EXIT_OK
    assert slept and read_sidecar(out)["duration_seconds"] >= 0.2


def test_failed_run_keeps_the_previous_csv(tmp_path, monkeypatch):
    # overlap-trace forms its rows as the CSV is written; a row that raises
    # must leave the last run's CSV, which its sidecar describes, as it was
    out = tmp_path / "trace.csv"
    args = ["overlap-trace", "--n", "10", "--epsilon", "0.01", "--samples", "41", "--out", str(out)]
    assert cli.main(args) == cli.EXIT_OK
    csv_bytes, sidecar_bytes = out.read_bytes(), (tmp_path / "trace.json").read_bytes()
    assert read_sidecar(out)["rows_written"] == 41
    closed_form, formed = depthsearch.grover_closed_form, []

    def fails_after_five_rows(n, k):
        if len(formed) == 5:
            raise RuntimeError("row 6 cannot be formed")
        formed.append(k)
        return closed_form(n, k)

    monkeypatch.setattr(depthsearch, "grover_closed_form", fails_after_five_rows)
    with pytest.raises(RuntimeError, match="row 6 cannot be formed"):
        cli.main(args)
    assert len(formed) == 5
    assert out.read_bytes() == csv_bytes
    assert (tmp_path / "trace.json").read_bytes() == sidecar_bytes
    assert sorted(os.listdir(tmp_path)) == ["trace.csv", "trace.json"]


def test_json_out_keeps_a_separate_sidecar(tmp_path):
    out = tmp_path / "x.json"
    assert cli.main(["grover-curve", "--n", "3", "--k-max", "2", "--out", str(out)]) == cli.EXIT_OK
    assert read_csv(out)[0] == ["iteration", "overlap", "overlap_closed_form"]
    assert (tmp_path / "x.json.meta.json").exists()


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
    assert meta["rows_written"] == 5


def test_overlap_trace_forms_each_row_as_it_is_written(tmp_path):
    # a row list would hold five fields per sample until the CSV is written
    config = cli.ExperimentConfig("overlap-trace", ns=[10], epsilons=[0.01], samples=7)
    header, rows, _, _ = cli.run_overlap_trace(config)
    assert iter(rows) is rows
    out = tmp_path / "trace.csv"
    assert cli.write_csv(str(out), "overlap-trace", header, rows) == 7
    assert len(read_csv(out)[1]) == 7


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
    assert set(meta["config"]) == {"experiment", "ns", "out", "epsilons", "orders", "workers"}
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
    # the largest order the CLI takes still gives a finite bound at every r
    for q in (2, cli.Q_MAX):
        out = tmp_path / f"bounds_{q}.csv"
        assert cli.main(["bound-check", "--n", "4", "--order", str(q), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "q", "r", "spectral_error", "error_bound", "within_bound"]
        assert len(rows) == len(cli.BOUND_CHECK_R_EXPONENTS)
        assert all(row[5] == "1" for row in rows)


def test_config_file_with_flag_override(tmp_path):
    # an @file's flags read as if typed in its place: a later flag wins, an earlier one does not
    flags = tmp_path / "run.args"
    flags.write_text(f"--n 46\n--epsilon 0.01\n--out {tmp_path / 'from_file.csv'}\n")
    out = tmp_path / "override.csv"
    assert cli.main(["analytic-depth", "--n", "50", f"@{flags}", "--out", str(out)]) == cli.EXIT_OK
    assert not (tmp_path / "from_file.csv").exists()
    assert read_sidecar(out)["config"]["ns"] == [46]
    assert cli.main(["analytic-depth", f"@{flags}", "--n", "50", "--out", str(out)]) == cli.EXIT_OK
    assert read_sidecar(out)["config"]["ns"] == [50]
    # a typed --n replaces the file's --n-range, the other spelling of the sizes
    flags.write_text("--n-range 8..10:2\n--epsilon 0.01\n")
    assert cli.main(["analytic-depth", f"@{flags}", "--n", "12", "--out", str(out)]) == cli.EXIT_OK
    assert read_sidecar(out)["config"]["ns"] == [12]


def test_both_spellings_write_the_same_csv(tmp_path):
    # --n takes a range and --epsilon a list, as --n-range and --epsilon-list do
    short, long = tmp_path / "short.csv", tmp_path / "long.csv"
    common = ["--orders", "2,4", "--workers", "1"]
    assert cli.main(["ratio-sweep", "--n", "16..20:2", "--epsilon", "0.1,0.01", *common, "--out", str(short)]) == cli.EXIT_OK
    assert cli.main(["ratio-sweep", "--n-range", "16..20:2", "--epsilon-list", "0.1,0.01", *common, "--out", str(long)]) == cli.EXIT_OK
    assert short.read_bytes() == long.read_bytes()
    settings = [{**read_sidecar(path)["config"], "out": None} for path in (short, long)]
    assert settings[0] == settings[1]
    assert settings[0]["ns"] == [16, 18, 20] and settings[0]["epsilons"] == [0.1, 0.01]


def test_later_spelling_of_a_setting_wins(tmp_path):
    # two spellings of one setting replace each other, as a flag given twice does
    out = tmp_path / "depth.csv"
    assert cli.main(["analytic-depth", "--n", "6", "--n-range", "8", "--epsilon", "0.1", "--epsilon-list", "0.01", "--out", str(out)]) == cli.EXIT_OK
    config = read_sidecar(out)["config"]
    assert config["ns"] == [8] and config["epsilons"] == [0.01]
    assert cli.main(["analytic-depth", "--n-range", "8..10:2", "--n", "6", "--epsilon-list", "0.1,0.01", "--epsilon", "0.2", "--out", str(out)]) == cli.EXIT_OK
    config = read_sidecar(out)["config"]
    assert config["ns"] == [6] and config["epsilons"] == [0.2]


def test_config_file_unknown_key(tmp_path, capsys):
    flags = tmp_path / "run.args"
    out = tmp_path / "x.csv"
    # samples is a setting, but not one analytic-depth reads (5 is a valid count)
    for flag, value in (("--bogus", "1"), ("--target", "1"), ("--config", "x.json"), ("--samples", "5")):
        flags.write_text(f"--n 6 --epsilon 0.1\n{flag} {value}\n")
        assert cli.main(["analytic-depth", f"@{flags}", "--out", str(out)]) == cli.EXIT_USAGE
        assert f"analytic-depth does not take: {flag} {value}" in capsys.readouterr().err
    # a JSON settings file is no longer read
    assert cli.main(["analytic-depth", "--n", "6", "--epsilon", "0.1", "--config", "x.json", "--out", str(out)]) == cli.EXIT_USAGE
    assert "analytic-depth does not take: --config x.json" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_values_take_their_flag_types(tmp_path, capsys):
    # a value in an @file passes its flag's argparse type or choices, as when typed
    flags = tmp_path / "run.args"
    out = tmp_path / "trace.csv"
    for line, message in (
        ("--samples 5.5", "argument --samples: invalid int value: '5.5'"),
        ("--n ten", "argument --n/--n-range: invalid parse_int_range value: 'ten'"),
        ("--epsilon x", "argument --epsilon/--epsilon-list: invalid parse_float_list value: 'x'"),
    ):
        flags.write_text(f"--n 10\n--epsilon 0.1\n{line}\n")
        with pytest.raises(SystemExit) as stop:
            cli.main(["overlap-trace", f"@{flags}", "--out", str(out)])
        assert stop.value.code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()
    flags.write_text("--n 10 --epsilon 0.1 --samples 5 --order 4 --spacing geometric\n")
    assert cli.main(["overlap-trace", f"@{flags}", "--out", str(out)]) == cli.EXIT_OK
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


@pytest.mark.parametrize("platform", ["darwin", "win32"])
def test_workers_resolve_to_one_process_off_linux(platform, monkeypatch):
    # children are forked on Linux only: Windows has no os.fork, and macOS's
    # system libraries are not fork-safe
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(sys, "platform", platform)
    for asked in (0, 1, 3):
        config = cli.ExperimentConfig(experiment="depth-search", ns=[8], epsilons=[0.1], workers=asked)
        assert cli.validate(config) == []
        assert config.workers == 1


def test_workers_above_the_usable_cpus_are_capped(monkeypatch):
    # validate only resolves the count and forks nothing; _map_cells forks the children
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for asked, resolved in ((5000, 2), (3, 2), (2, 2), (1, 1), (0, 2)):
        config = cli.ExperimentConfig(experiment="depth-search", ns=[8], epsilons=[0.1], workers=asked)
        assert cli.validate(config) == []
        assert config.workers == resolved


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
    # the calling process is one of the workers; which cells it ran depends
    # on when each process claims its next cell from the queue
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


@pytest.mark.parametrize("workers", [2, 3])
def test_map_cells_names_a_cell_whose_child_exits_without_replying(workers):
    # the caller's own cells are slow, so the children claim cells and the
    # first of them to do so exits at once; the map must neither hang nor
    # leave a child unreaped
    caller, ran_here = os.getpid(), []

    def task(cell):
        if os.getpid() != caller:
            os._exit(1)
        ran_here.append(cell)
        time.sleep(0.3)
        return cell

    cells = [f"cell-{i}" for i in range(workers)]
    with pytest.raises(RuntimeError) as err:
        cli._map_cells(task, cells, workers)
    index, cell = re.match(r"cell (\d+) \('(cell-\d+)'\) was lost", str(err.value)).groups()
    assert cells[int(index)] == cell and cell not in ran_here
    # claims go in index order, so the lost cell is the lowest the caller did not run
    assert cell == min(set(cells) - set(ran_here), key=cells.index)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_cells_claims_each_cell_once(tmp_path):
    # four processes race for 400 short cells; a claim that two processes
    # both won would start a cell twice
    log = tmp_path / "started"

    def task(cell):
        with open(log, "a") as fh:
            fh.write(f"{cell}\n")
        time.sleep(0.001)
        return cell, os.getpid()

    results = cli._map_cells(task, list(range(400)), 4)
    assert [cell for cell, _ in results] == list(range(400))
    assert sorted(map(int, log.read_text().split())) == list(range(400))
    assert len({pid for _, pid in results}) > 1


def test_map_cells_claims_no_cell_after_a_failure(tmp_path):
    # the caller and one child claim a cell each.  The child raises only once
    # the caller has logged its cell, and the caller's task returns only once
    # the child, which closes the queue after its failure, has exited: so no
    # third cell is started, however the two processes are scheduled
    caller, log = os.getpid(), tmp_path / "started"

    def pids():
        # a line still being appended has no newline yet and is left out
        text = log.read_text() if log.exists() else ""
        return [int(line.split()[1]) for line in text.split("\n")[:-1]]

    def wait_for(found):
        deadline = time.monotonic() + 30
        while not found():
            assert time.monotonic() < deadline, "the other process logged no cell"
            time.sleep(0.005)
        return found()

    def task(cell):
        with open(log, "a") as fh:
            fh.write(f"{cell} {os.getpid()}\n")
        if os.getpid() != caller:
            wait_for(lambda: caller in pids())
            raise ValueError(f"cell {cell}")
        child = wait_for(lambda: [pid for pid in pids() if pid != caller])[0]
        os.waitid(os.P_PID, child, os.WEXITED | os.WNOWAIT)
        return cell

    with pytest.raises(ValueError, match="cell [01]$"):
        cli._map_cells(task, list(range(6)), 2)
    assert sorted(line.split()[0] for line in log.read_text().splitlines()) == ["0", "1"]


class _Stop(BaseException):
    """Stands for an interrupt: not an Exception, so no cell record catches it."""


def test_map_cells_kills_its_children_when_the_caller_stops():
    caller = os.getpid()

    def task(cell):
        if os.getpid() == caller:
            time.sleep(0.2)
            raise _Stop
        time.sleep(30)

    started = time.monotonic()
    with pytest.raises(_Stop):
        cli._map_cells(task, list(range(4)), 3)
    assert time.monotonic() - started < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_imports_no_process_pool(tmp_path):
    # a fresh interpreter runs a sweep through one forked child without
    # importing multiprocessing or concurrent.futures
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = f"""
import os, sys
os.sched_getaffinity = lambda pid: {{0, 1}}
import trotterwalk.cli
args = ["ratio-sweep", "--n-range", "8..10:2", "--epsilon", "0.1", "--workers", "2", "--out", {str(tmp_path / "sweep.csv")!r}]
assert trotterwalk.cli.main(args) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert len(read_csv(tmp_path / "sweep.csv")[1]) == 2


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
    # an @file plus flags writes the same CSV, and records the same settings, as the flags alone
    flags = tmp_path / "run.args"
    flags.write_text("--n-range 16..18:2\n\n--epsilon-list 0.1\n--orders 2,4\n")
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert cli.main(["ratio-sweep", f"@{flags}", "--workers", "1", "--out", str(from_file)]) == cli.EXIT_OK
    typed = ["--n-range", "16..18:2", "--epsilon-list", "0.1", "--orders", "2,4", "--workers", "1"]
    assert cli.main(["ratio-sweep", *typed, "--out", str(from_flags)]) == cli.EXIT_OK
    assert from_file.read_bytes() == from_flags.read_bytes()
    settings = [{**read_sidecar(path)["config"], "out": None} for path in (from_file, from_flags)]
    assert settings[0] == settings[1]
    capsys.readouterr()
    # whitespace ends a value, in a file as on the command line
    flags.write_text("--n 6 --epsilon 0.1 --orders 2, 4\n")
    assert cli.main(["ratio-sweep", f"@{flags}", "--out", str(tmp_path / "x.csv")]) == cli.EXIT_USAGE
    assert "ratio-sweep does not take: 4" in capsys.readouterr().err


# every optional flag each subcommand has no use for; --n, --n-range and --out
# belong to all six
UNREAD_FLAGS = {
    "overlap-trace": ["--orders", "--iterations", "--k-max", "--workers"],
    "depth-search": ["--orders", "--samples", "--spacing", "--iterations", "--k-max"],
    "analytic-depth": ["--orders", "--samples", "--spacing", "--iterations", "--k-max", "--workers"],
    "ratio-sweep": ["--order", "--samples", "--spacing", "--iterations", "--k-max"],
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


@pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
def test_unset_flags_keep_the_config_defaults(experiment, tmp_path, monkeypatch):
    # a flag not given sets no argparse attribute (default=SUPPRESS), so each
    # setting it would set keeps ExperimentConfig's default
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sys, "platform", "linux")
    out = tmp_path / "x.csv"
    assert cli.main([experiment, *VALID_BASE[experiment], "--out", str(out)]) == cli.EXIT_OK
    settings = ("experiment", "ns", "out", *cli.EXPERIMENTS[experiment].settings)
    defaults = dataclasses.asdict(cli.ExperimentConfig(experiment=experiment))
    expected = {key: value for key, value in defaults.items() if key in settings}
    expected.update(ns=[4], out=str(out))
    if "epsilons" in settings:
        expected["epsilons"] = [0.1]
    if "workers" in settings:
        expected["workers"] = 2  # 0, resolved to one per usable CPU
    if "k_max" in settings:
        expected["k_max"] = 4  # None, derived: ceil(pi / (4 asin 2^-2))
    assert read_sidecar(out)["config"] == expected


@pytest.mark.parametrize(
    "experiment, flag, value",
    [(e, f, FLAG_VALUES[f]) for e, flags in UNREAD_FLAGS.items() for f in flags]
    # an abbreviation of a flag the subcommand has is no spelling of it
    + [("depth-search", "--work", "1")],
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


@pytest.mark.parametrize("experiment, orders", [("depth-search", ["--order", "2"]), ("ratio-sweep", ["--orders", "2,4"])])
def test_failed_cells_through_the_pool(experiment, orders, tmp_path, monkeypatch):
    # with a scan of one multiplier only, q = 2 fails in every cell (in
    # ratio-sweep decisively, beside q = 4); the forked child computes
    # n = 8 and the calling process n = 10, on a host of any CPU count
    monkeypatch.setattr(depthsearch, "D_CAP", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "fail.csv"
    args = ["--n-range", "8..10:2", "--epsilon-list", "0.01,0.001", *orders, "--workers", "2", "--out", str(out)]
    assert cli.main([experiment, *args]) == cli.EXIT_PARTIAL
    errors = read_sidecar(out)["errors"]
    assert [(e["n"], e["epsilon"], e["q"]) for e in errors] == [(8, 0.001, 2), (8, 0.01, 2), (10, 0.001, 2), (10, 0.01, 2)]
    assert all("scanned 1 multipliers at level 0" in e["message"] for e in errors)


@pytest.mark.parametrize("module, loads", [("symspace", ["symspace"]), ("ctqw", ["ctqw", "symspace"])])
def test_module_imports_no_module_above_it(module, loads):
    # the package is one chain, symspace <- ctqw <- trotter <- bounds <- depthsearch <- cli
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = f"import sys, trotterwalk.{module}; print(*sorted(m for m in sys.modules if m.startswith('trotterwalk.')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"trotterwalk.{name}" for name in loads]


def test_package_import_loads_no_numpy():
    # the command-line entry sets BLAS's thread count before numpy loads
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = "import sys, trotterwalk; print('numpy' in sys.modules, trotterwalk.trotter.__name__, 'numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "trotterwalk.trotter", "True"]


def test_console_entry_pins_blas_to_one_thread_unless_set(tmp_path, monkeypatch):
    from trotterwalk import __main__ as entry

    for name in entry.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    out = tmp_path / "entry.csv"
    assert entry.main(["analytic-depth", "--n", "12", "--epsilon", "0.1", "--out", str(out)]) == 0
    assert out.exists()
    assert [os.environ[name] for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")] == ["1", "3", "1"]


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
