"""Golden-output gate: fixed CLI commands must keep writing the same CSVs.

Each command is run through ``cli.main``, with one worker where the
experiment takes ``--workers``, and its CSV is compared with the copy under
``tests/golden/``.  The ratio-sweep command also runs through the process
pool with two and three workers (one and two forked children), and the
depth-search command with two, against the same golden CSVs.  The header
and every integer or boolean column must be byte-identical and the ``#``
line must match once the library version is removed.  A column is a float
column when any golden cell in it has a '.', an exponent, 'inf' or 'nan';
its values must agree within ``REL_TOL * |golden| + ABS_TOL``.  The absolute term
covers values near zero, such as bound-check's ``spectral_error`` (down to
about 7e-15), where a relative bound alone means nothing.

A change that moves a value past the tolerance regenerates the golden files
with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from trotterwalk import __version__, cli

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-10
ABS_TOL = 1e-12

COMMANDS = {
    "ratio-sweep": ["--n-range", "16..24:2", "--epsilon-list", "0.1,0.01", "--workers", "1"],
    "depth-search": ["--n-range", "10..16:2", "--epsilon", "0.05", "--workers", "1"],
    "analytic-depth": ["--n", "46", "--epsilon", "0.01"],
    "grover-curve": ["--n", "10"],
    "bound-check": ["--n-range", "4..10:2"],
    "overlap-trace": ["--n", "20", "--epsilon", "0.01"],
}


def generate(experiment: str, out: Path, args: list[str] | None = None) -> list[str]:
    """Run one golden command (or ``args`` instead), writing its CSV to ``out``; returns the CSV's lines."""
    code = cli.main([experiment, *(COMMANDS[experiment] if args is None else args), "--out", str(out)])
    assert code == cli.EXIT_OK, f"{experiment} exited with {code}"
    return out.read_text().splitlines()


def _is_float_cell(cell: str) -> bool:
    return any(mark in cell.lower() for mark in (".", "e", "inf", "nan"))


def assert_matches_golden(experiment: str, fresh: list[str]) -> None:
    golden = (GOLDEN / f"{experiment}.csv").read_text().splitlines()
    assert fresh[0].replace(__version__, "") == golden[0].replace(__version__, "")
    assert fresh[1] == golden[1], "header"
    assert len(fresh) == len(golden), "row count"
    gold_rows = [line.split(",") for line in golden[2:]]
    new_rows = [line.split(",") for line in fresh[2:]]
    for col, name in enumerate(golden[1].split(",")):
        gold_col = [row[col] for row in gold_rows]
        new_col = [row[col] for row in new_rows]
        if not any(_is_float_cell(cell) for cell in gold_col):
            assert new_col == gold_col, f"{experiment}: column {name!r}"
            continue
        for row, (g, v) in enumerate(zip(gold_col, new_col)):
            g, v = float(g), float(v)
            assert abs(v - g) <= REL_TOL * abs(g) + ABS_TOL, f"{experiment}: {name} row {row}: {v!r} vs golden {g!r}"


@pytest.mark.parametrize("experiment", sorted(COMMANDS))
def test_cli_output_matches_golden(experiment, tmp_path):
    assert_matches_golden(experiment, generate(experiment, tmp_path / f"{experiment}.csv"))


@pytest.mark.parametrize("experiment, workers", [("ratio-sweep", 2), ("ratio-sweep", 3), ("depth-search", 2)])
def test_through_the_pool_matches_golden(experiment, workers, tmp_path, monkeypatch):
    # the last --workers given wins over the golden command's own; three
    # usable CPUs keep validate from capping it on a smaller host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    args = [*COMMANDS[experiment], "--workers", str(workers)]
    assert_matches_golden(experiment, generate(experiment, tmp_path / f"{experiment}.csv", args))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for experiment in sys.argv[1:] or sorted(COMMANDS):
        generate(experiment, GOLDEN / f"{experiment}.csv")
        (GOLDEN / f"{experiment}.json").unlink()
