import os
import sys

# every matrix is at most 81 x 81, so BLAS threads only cost time, and they
# oversubscribe the CPUs once --workers forks more processes
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    """The ``trotterwalk`` command: the CLI with BLAS on one thread unless the environment sets a count."""
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    # BLAS reads the variables when numpy first loads, which .cli does
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
