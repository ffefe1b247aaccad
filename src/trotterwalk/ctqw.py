"""Continuous-time quantum-walk search on the hypercube.

The walk Hamiltonian is alpha*H_x + H_0 with H_x the hypercube adjacency
operator and H_0 the projector onto the target state.  At the resonant
coupling alpha* the two extremal eigenstates are nearly degenerate and the
walk rotates |+>^n into the target in time t* = (pi/2)*sqrt(2^n).  This
module computes the resonance parameters from exact integer sums rounded
once, solves the walk by dense diagonalization, and exposes the
near-degenerate eigenstate pair behind the two-level picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, lcm, pi, sqrt
from typing import NamedTuple

import numpy as np

from . import symspace
from .symspace import SymVector


def _inverse_moment(n: int, power: int) -> float:
    """sum_{k>=1} P_k / k^power, summed in exact integers and rounded once."""
    symspace.check_n(n)
    den = lcm(*range(1, n + 1)) ** power
    return sum(comb(n, k) * (den // k**power) for k in range(1, n + 1)) / (den << n)


@lru_cache(maxsize=None)
def alpha_star(n: int) -> float:
    """Resonant walk coupling (1/2) * sum_{k>=1} P_k / k, correctly rounded and cached.

    Behaves as 1/n + O(1/n^2) for large n.
    """
    return 0.5 * _inverse_moment(n, 1)


def xi(n: int) -> float:
    """Splitting factor (2/sqrt(2^n)) * (sum_{k>=1} P_k/k^2)^(-1/2)."""
    return 2.0 / sqrt(2.0**n * _inverse_moment(n, 2))  # the factor 2^n is exact


def t_star(n: int) -> float:
    """Walk time (pi/2)*sqrt(2^n) at which the target overlap peaks."""
    symspace.check_n(n)
    return (pi / 2.0) * 2.0 ** (0.5 * n)


# one Hamiltonian serves many times t, so its eigensystem is cached; the
# arrays handed out are read-only, so no caller can alter what later calls receive
@lru_cache(maxsize=1)
def walk_eigensystem(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of alpha*H_x + H_0, cached and read-only.

    Only the last Hamiltonian is kept: every caller reads one size at a time,
    so a process holds one eigensystem, not one per size it has visited.
    """
    w, v = np.linalg.eigh(alpha * symspace.build_hx(n) + symspace.build_h0(n))
    w.flags.writeable = v.flags.writeable = False
    return w, v


class GapResult(NamedTuple):
    gap_exact: float
    gap_formula: float
    gap_asymptotic: float


def gap(n: int) -> GapResult:
    """Splitting of the near-degenerate extremal eigenstate pair at alpha*.

    gap_exact comes from dense diagonalization, gap_formula is 2*alpha*xi
    (accurate to O(2^-n) relative), gap_asymptotic is the leading 2/sqrt(2^n).
    """
    a = alpha_star(n)
    w, _ = walk_eigensystem(n, a)
    gap_exact = float(w[-1] - w[-2])
    return GapResult(gap_exact, 2.0 * a * xi(n), 2.0 * 2.0 ** (-0.5 * n))


def ctqw_state(n: int, alpha: float, t: float) -> SymVector:
    """State exp(-i(alpha*H_x + H_0)t)|+>^n, solved by diagonalization.

    Formed as x + V diag(expm1(-i w t)) V^dag x with x = |+>^n, the delta form
    of ``bounds.spectral_error``: x's small amplitudes (2^(-n/2) at the
    target) pass through exactly instead of through two products by V.
    """
    if t < 0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
    w, v = walk_eigensystem(n, alpha)
    x = symspace.plus_state(n).amp
    return SymVector(n, x + v @ (np.expm1(-1j * w * t) * (v.conj().T @ x)))


def ctqw_overlap(n: int, alpha: float, t: float) -> float:
    """Success probability |<e_0| exp(-i(alpha*H_x+H_0)t) |+>|^2."""
    return float(abs(ctqw_state(n, alpha, t).amp[0]) ** 2)


@dataclass(frozen=True)
class EigenPair:
    """Near-degenerate extremal eigenstates of the resonant walk Hamiltonian.

    psi_plus carries the larger eigenvalue; phases are fixed so both states
    have positive overlap with |+>^n.  energies is (E_plus, E_minus).
    """

    psi_plus: SymVector
    psi_minus: SymVector
    energies: tuple[float, float]


def low_eigenstates(n: int) -> EigenPair:
    """The eigenstate pair spanning the walk dynamics, roughly
    (|+>^n +- |0...0>)/sqrt(2) up to O(1/n) corrections."""
    if n < 2:
        raise ValueError(f"eigenstate pair needs n >= 2, got {n}")
    a = alpha_star(n)
    w, v = walk_eigensystem(n, a)
    if w[-1] - w[-2] < 1e-13:
        raise ValueError(f"extremal pair is degenerate to {w[-1] - w[-2]:.3e}; phases undefined")
    plus = symspace.plus_state(n).amp
    states = []
    for idx in (-1, -2):
        vec = v[:, idx].astype(complex)
        ov = np.vdot(plus, vec)
        vec = vec * (abs(ov) / ov)  # rotate so <h_0|psi> is real positive
        states.append(vec)
    return EigenPair(
        psi_plus=SymVector(n, states[0]),
        psi_minus=SymVector(n, states[1]),
        energies=(float(w[-1]), float(w[-2])),
    )
