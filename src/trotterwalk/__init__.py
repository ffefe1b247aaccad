"""Trotterized quantum-walk search in the symmetric subspace.

Simulates continuous-time quantum-walk search on the hypercube, discretizes
it with high-order product formulas into QAOA sequences, evaluates analytic
depth bounds, and searches numerically for optimal depths.

The submodules load on first access, so importing the package loads no
numpy and the command-line entry can still set BLAS's thread count.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["bounds", "ctqw", "depthsearch", "symspace", "trotter", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
