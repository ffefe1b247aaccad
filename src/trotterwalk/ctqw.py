"""Continuous-time quantum-walk search on the hypercube.

The walk Hamiltonian is alpha*H_x + H_0 with H_x the hypercube adjacency
operator and H_0 the projector onto the target state.  At the resonant
coupling alpha* the two extremal eigenstates are nearly degenerate and the
walk rotates |+>^n into the target in time t* = (pi/2)*sqrt(2^n).  This
module computes the resonance parameters exactly (finite sums in log-space),
solves the walk by dense diagonalization, and exposes the near-degenerate
eigenstate pair behind the two-level picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, pi, sqrt
from typing import NamedTuple

import numpy as np

from . import symspace
from .symspace import SymOperator, SymVector


def p_weights(n: int) -> np.ndarray:
    """Binomial distribution P_k = C(n,k)/2^n for k = 0..n, log-domain."""
    k = np.arange(n + 1)
    return np.exp(symspace.ln_binom(n, k) - n * log(2.0))


def alpha_star(n: int) -> float:
    """Resonant walk coupling (1/2) * sum_{k>=1} P_k / k.

    Behaves as 1/n + O(1/n^2) for large n.
    """
    symspace._check_n(n)
    p = p_weights(n)
    k = np.arange(1, n + 1, dtype=float)
    return float(0.5 * np.sum(p[1:] / k))


def xi(n: int) -> float:
    """Splitting factor (2/sqrt(2^n)) * (sum_{k>=1} P_k/k^2)^(-1/2)."""
    symspace._check_n(n)
    p = p_weights(n)
    k = np.arange(1, n + 1, dtype=float)
    s = float(np.sum(p[1:] / k**2))
    return 2.0 * np.exp(-0.5 * n * log(2.0)) / sqrt(s)


def t_star(n: int) -> float:
    """Walk time (pi/2)*sqrt(2^n) at which the target overlap peaks."""
    symspace._check_n(n)
    return (pi / 2.0) * float(np.exp(0.5 * n * log(2.0)))


def walk_hamiltonian(n: int, alpha: float) -> SymOperator:
    """alpha*H_x + H_0 in the symmetric subspace."""
    h = alpha * symspace.build_hx(n).entries + symspace.build_h0(n).entries
    return SymOperator(n, h)


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
    w, _ = symspace.hermitian_eigensystem(walk_hamiltonian(n, a))
    gap_exact = float(w[-1] - w[-2])
    return GapResult(gap_exact, 2.0 * a * xi(n), 2.0 * np.exp(-0.5 * n * log(2.0)))


def ctqw_state(n: int, alpha: float, t: float) -> SymVector:
    """State exp(-i(alpha*H_x + H_0)t)|+>^n, solved by diagonalization."""
    if t < 0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
    return symspace.evolve(walk_hamiltonian(n, alpha), t, symspace.plus_state(n))


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
    w, v = symspace.hermitian_eigensystem(walk_hamiltonian(n, a))
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
