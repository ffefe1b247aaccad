#!/usr/bin/env python3
# Regenerate plot-ready CSV data through the CLI.  Each call writes a CSV
# plus a JSON sidecar with the resolved configuration.

import subprocess
import sys
import tempfile
from pathlib import Path

outdir = Path(tempfile.mkdtemp(prefix="trotterwalk_"))
print(f"writing to {outdir}\n")


def run(*args):
    cmd = [sys.executable, "-m", "trotterwalk", *args]
    print("$", " ".join(cmd[2:]))
    subprocess.run(cmd, check=True)


# overlap through the circuit, Grover and exact-walk references alongside
run("overlap-trace", "--n", "20", "--epsilon", "0.01", "--samples", "41",
    "--out", str(outdir / "overlap_trace_n20.csv"))

# analytic depth table over a size range
run("analytic-depth", "--n-range", "16..46:2", "--epsilon-list", "0.1,0.01",
    "--out", str(outdir / "analytic_depth.csv"))

# analytic-vs-numeric depth ratios on a desk-scale grid
run("ratio-sweep", "--n-range", "14..20:2", "--epsilon-list", "0.1,0.01",
    "--out", str(outdir / "ratio_sweep.csv"))

# numeric depth vs overlap budget at fixed order
run("depth-search", "--n", "16", "--epsilon-list", "0.001,0.003,0.01,0.03,0.1",
    "--order", "4", "--out", str(outdir / "depth_vs_epsilon.csv"))

print(f"""
done; CSVs in {outdir}

The full large-n sweep is deliberately not run here; reproduce it with
(90 cells up to n = 80; the README gives its measured run time):

  trotterwalk ratio-sweep --n-range 22..80:2 --epsilon-list 0.001,0.01,0.1 \\
      --out ratio_sweep_full.csv
""")
