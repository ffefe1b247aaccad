"""Exact linear algebra on the permutation-symmetric subspace.

An n-qubit state that is invariant under qubit permutations lives in the
(n+1)-dimensional span of the Dicke states |e_k>, the uniform superpositions
of all bit strings of Hamming weight k.  Everything in this package evolves
inside that subspace, so states are length-(n+1) complex vectors and
operators are dense (n+1)x(n+1) matrices.  A brute-force simulator in the
full 2^n-dimensional space is included for cross-checking at small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log, sqrt
from typing import Iterator

import numpy as np

HERMITIAN_TOL = 1e-10
MAX_FULL_SPACE_QUBITS = 12

# generator tags used in exponent-factor lists: a factor (tag, tau) stands for
# exp(-i*tau*H_tag), where "cost" is the projector onto the target Dicke state
# |e_0> and "mixer" is alpha times the hypercube adjacency operator
COST = "cost"
MIXER = "mixer"


def ln_binom(n: int, k) -> np.ndarray:
    """Natural log of the binomial coefficient C(n, k), vectorized over k."""
    k = np.asarray(k, dtype=float)
    return lgamma(n + 1) - np.vectorize(lgamma)(k + 1) - np.vectorize(lgamma)(n - k + 1)


def _check_n(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"qubit count must be an integer >= 1, got {n!r}")


@dataclass(frozen=True, eq=False)
class SymVector:
    """Amplitudes over the Dicke basis |e_0>, ..., |e_n>."""

    n: int
    amp: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        amp = np.asarray(self.amp, dtype=complex)
        if amp.shape != (self.n + 1,):
            raise ValueError(f"amplitude vector must have length n+1={self.n + 1}, got shape {amp.shape}")
        object.__setattr__(self, "amp", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))


@dataclass(frozen=True, eq=False)
class SymOperator:
    """Dense complex operator on the symmetric subspace."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.n + 1, self.n + 1):
            raise ValueError(
                f"operator must be (n+1)x(n+1)={self.n + 1}x{self.n + 1}, got shape {entries.shape}"
            )
        object.__setattr__(self, "entries", entries)

    def unitarity_defect(self) -> float:
        """Max-norm of U^dag U - I; zero for an exactly unitary operator."""
        u = self.entries
        return float(np.max(np.abs(u.conj().T @ u - np.eye(self.n + 1))))


def build_hx(n: int) -> SymOperator:
    """Hypercube adjacency operator restricted to the symmetric subspace.

    Tridiagonal with zero diagonal and off-diagonal elements
    sqrt((l+1)(n-l)) between weights l and l+1; its spectrum is
    {n - 2k : k = 0..n}.
    """
    _check_n(n)
    l = np.arange(n, dtype=float)
    off = np.sqrt((l + 1.0) * (n - l))
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[np.arange(n), np.arange(1, n + 1)] = off
    m[np.arange(1, n + 1), np.arange(n)] = off
    return SymOperator(n, m)


def build_h0(n: int) -> SymOperator:
    """Rank-1 projector onto the target Dicke state |e_0> = |0...0>."""
    _check_n(n)
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[0, 0] = 1.0
    return SymOperator(n, m)


def plus_state(n: int) -> SymVector:
    """|+>^(x n) expressed in the Dicke basis: amp_k = sqrt(C(n,k)/2^n).

    The binomial weights are evaluated in log-space so the construction
    stays accurate for n well past the point where C(n, n/2) overflows
    naive integer or product evaluation.
    """
    _check_n(n)
    k = np.arange(n + 1)
    amp = np.exp(0.5 * (ln_binom(n, k) - n * log(2.0)))
    return SymVector(n, amp.astype(complex))


def basis_state(n: int, k: int) -> SymVector:
    """The Dicke basis vector |e_k>."""
    _check_n(n)
    if not 0 <= k <= n:
        raise ValueError(f"basis index must satisfy 0 <= k <= n, got {k}")
    amp = np.zeros(n + 1, dtype=complex)
    amp[k] = 1.0
    return SymVector(n, amp)


# eigendecompositions are reused heavily (one Hamiltonian, many times t),
# so keep a bounded cache keyed by the matrix bytes; the arrays handed out
# are read-only, so no caller can alter what later calls receive
@lru_cache(maxsize=256)
def _cached_eigh(key: bytes, dim: int) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(np.frombuffer(key, dtype=complex).reshape(dim, dim))
    w.flags.writeable = v.flags.writeable = False
    return w, v


def hermitian_eigensystem(h: SymOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian operator, cached and read-only."""
    defect = float(np.max(np.abs(h.entries - h.entries.conj().T)))
    if defect > HERMITIAN_TOL:
        raise ValueError(f"operator is not Hermitian: max |H - H^dag| = {defect:.3e}")
    return _cached_eigh(h.entries.tobytes(), h.n + 1)


def evolution_operator(h: SymOperator, t: float) -> SymOperator:
    """exp(-i h t) via full Hermitian eigendecomposition."""
    w, v = hermitian_eigensystem(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return SymOperator(h.n, u)


def evolve(h: SymOperator, t: float, v: SymVector) -> SymVector:
    """Apply exp(-i h t) to a state; h must be Hermitian."""
    if h.n != v.n:
        raise ValueError(f"dimension mismatch: operator n={h.n}, state n={v.n}")
    w, vec = hermitian_eigensystem(h)
    amp = vec @ (np.exp(-1j * w * t) * (vec.conj().T @ v.amp))
    return SymVector(v.n, amp)


def _nearest_unitary(m: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def _squaring_ladder(u: SymOperator, r: int) -> tuple[bool, Iterator[np.ndarray]]:
    """Whether u is unitary, and an iterator over u, u^2, u^4, ... up to the top bit of r.

    Plain repeated squaring drifts off the unitary manifold linearly in r
    (the squaring doubles the defect), so when u is unitary each square is
    snapped back by polar projection, at the cost of one small SVD.  The
    squares are made lazily, so a caller that needs each only once holds
    one at a time.
    """
    project = u.unitarity_defect() <= 1e-12

    def squares():
        base = u.entries
        yield base
        for _ in range(int(r).bit_length() - 1):
            base = base @ base
            if project:
                base = _nearest_unitary(base)
            yield base

    return project, squares()


def matrix_power(u: SymOperator, r: int) -> SymOperator:
    """u^r by binary exponentiation, O(log r) matrix products.

    r = 0 returns the identity.  For a unitary input the squarings and the
    product are projected back onto the unitary group, so the result stays
    unitary to roundoff for any r; non-unitary inputs take the plain path.
    """
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise ValueError(f"step count must be a non-negative integer, got {r!r}")
    project, ladder = _squaring_ladder(u, r)
    result = np.eye(u.n + 1, dtype=complex)
    for bit, base in enumerate(ladder):
        if (int(r) >> bit) & 1:
            result = base @ result
    if project and r > 1:
        result = _nearest_unitary(result)
    return SymOperator(u.n, result)


def overlap(a: SymVector, b: SymVector) -> float:
    """Squared inner product |<a|b>|^2."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amp, b.amp)) ** 2)


def _hamming_weights(n: int) -> np.ndarray:
    idx = np.arange(2**n, dtype=np.uint32)
    w = np.zeros(2**n, dtype=np.int64)
    for bit in range(n):
        w += (idx >> bit) & 1
    return w


def full_space_oracle(n: int, factors, alpha: float) -> SymVector:
    """Brute-force check: run an exponent-factor sequence in the full space.

    Starts from |+>^(x n) in the 2^n-dimensional Hilbert space, applies each
    (tag, tau) factor as exp(-i*tau*H_tag) with the mixer coupling alpha, and
    projects the result back onto the Dicke basis.  Only intended for tests;
    n is capped to keep the cost bounded.
    """
    _check_n(n)
    if n > MAX_FULL_SPACE_QUBITS:
        raise ValueError(f"full-space oracle capped at n <= {MAX_FULL_SPACE_QUBITS}, got {n}")
    dim = 2**n
    psi = np.full(dim, 1.0 / sqrt(dim), dtype=complex)
    for tag, tau in factors:
        if tag == COST:
            # target projector |0...0><0...0|: phase on index 0 only
            psi[0] *= np.exp(-1j * tau)
        elif tag == MIXER:
            # sum of single-qubit X rotations; the terms commute
            theta = alpha * tau
            c, s = np.cos(theta), np.sin(theta)
            psi = psi.reshape((2,) * n)
            for axis in range(n):
                lo = np.take(psi, 0, axis=axis)
                hi = np.take(psi, 1, axis=axis)
                new = np.stack((c * lo - 1j * s * hi, c * hi - 1j * s * lo), axis=axis)
                psi = new
            psi = psi.reshape(dim)
        else:
            raise ValueError(f"unknown generator tag {tag!r}")
    weights = _hamming_weights(n)
    k = np.arange(n + 1)
    sums = np.zeros(n + 1, dtype=complex)
    np.add.at(sums, weights, psi)
    amp = sums * np.exp(-0.5 * ln_binom(n, k))
    return SymVector(n, amp)
