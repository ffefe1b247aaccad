"""One repetition of one workload, in a fresh process started by run.py.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 --workdir DIR --out FILE
    python3 perfbench/rep.py --probe --out FILE

The first statements import the package and its front end, so the moment
they finish marks the end of set-up.  ``--probe`` stops there and records
the numeric environment.  Otherwise the rep runs the workload (the timed
region), then the checks, and writes one JSON object to FILE.
"""

import time

import trotterwalk  # noqa: F401  (timed: set-up ends when the imports are done)
import trotterwalk.cli  # noqa: F401

READY = time.monotonic()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_once(workload: str, seed: int, traced: bool, workdir: str) -> dict:
    inputs = workloads.make_inputs(workload, seed)
    tracer = None
    if traced:
        spill = os.path.join(workdir, "spans")
        os.makedirs(spill, exist_ok=True)
        tracer = Tracer(spill)
        tracer.install()
    t0 = time.monotonic()
    outputs = workloads.RUNNERS[workload](inputs, workdir)
    wall_s = time.monotonic() - t0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ready": READY, "wall_s": wall_s, "maxrss_kb": maxrss_kb}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.collect(), wall_s)
    chk = workloads.check(workload, inputs, outputs)
    result["attempted"] = len(workloads.cells_of(workload, inputs))
    result["failures"] = chk.failures
    result["health"] = chk.health
    result["fingerprint"] = hashlib.sha256(workloads.fingerprint(workload, outputs).encode()).hexdigest()
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        result = {"ready": READY, "env": environment()}
    else:
        result = run_once(args.workload, args.seed, bool(args.trace), args.workdir)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
