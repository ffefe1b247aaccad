"""Reference code the tests check the library against.

A brute-force simulator in the full 2^n-dimensional space, for
cross-checking the symmetric-subspace evolution at small n, the dense
Dicke-basis Hamiltonians H_x and H_0, the walk solved by a dense ``eigh``
of them, a Trotter step built in the Dicke basis from a numerical
eigensystem of H_x, a unitary's power through its eigenphases, the Dicke
basis vectors, H_x's eigenbasis from the full Krawtchouk recurrence, and
spectral norms from LAPACK's SVD, the commutator sum among them.
"""

import itertools
from math import comb, sqrt

import numpy as np

from trotterwalk import ctqw
from trotterwalk.symspace import COST, MIXER, SymOperator, SymVector, check_n, p_weights, plus_state
from trotterwalk.trotter import u_coefficient

MAX_FULL_SPACE_QUBITS = 12


def basis_state(n: int, k: int) -> SymVector:
    """The Dicke basis vector |e_k>."""
    check_n(n)
    if not 0 <= k <= n:
        raise ValueError(f"basis index must satisfy 0 <= k <= n, got {k}")
    amp = np.zeros(n + 1, dtype=complex)
    amp[k] = 1.0
    return SymVector(n, amp)


def build_hx(n: int) -> np.ndarray:
    """Hypercube adjacency operator restricted to the symmetric subspace.

    Tridiagonal with zero diagonal and off-diagonal elements
    sqrt((l+1)(n-l)) between weights l and l+1; its spectrum is
    {n - 2k : k = 0..n}.
    """
    check_n(n)
    l = np.arange(n, dtype=float)
    off = np.sqrt((l + 1.0) * (n - l))
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[np.arange(n), np.arange(1, n + 1)] = off
    m[np.arange(1, n + 1), np.arange(n)] = off
    return m


def build_h0(n: int) -> np.ndarray:
    """Rank-1 projector onto the target Dicke state |e_0> = |0...0>."""
    check_n(n)
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[0, 0] = 1.0
    return m


def svd_norm(a: np.ndarray) -> float:
    """||a||_2, the largest singular value from LAPACK's SVD."""
    return float(np.linalg.svd(a, compute_uv=False)[0])


def dense_delta_exact(n: int, q: int) -> float:
    """The commutator sum of ``bounds.delta_exact`` with every sequence built from scratch in the Dicke basis.

    Generators -i*H_0 and -i*alpha*H_x from the dense builders, sequences
    in ``itertools.product`` order, each norm from ``svd_norm``.
    """
    gens = (-1j * build_h0(n), -1j * ctqw.alpha_star(n) * build_hx(n))
    total = 0.0
    for seq in itertools.product((0, 1), repeat=q + 1):
        nested = gens[seq[0]]
        for idx in seq[1:]:
            nested = gens[idx] @ nested - nested @ gens[idx]
        total += svd_norm(nested)
    return total


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
    projects the result back onto the Dicke basis.  n is capped to keep the
    cost bounded.
    """
    check_n(n)
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
    sums = np.zeros(n + 1, dtype=complex)
    np.add.at(sums, weights, psi)
    amp = sums / np.sqrt(p_weights(n) * dim)  # P_k 2^n = C(n, k) exactly
    return SymVector(n, amp)


def walk_eigh(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and Dicke-basis eigenvectors of alpha*H_x + H_0 from a dense ``eigh``.

    Backward stable, so each eigenvalue is good to a few eps * ||H||; the
    top pair's splitting, about 2/sqrt(2^n), only to about 2^(n/2) eps
    relative.
    """
    return np.linalg.eigh(alpha * build_hx(n) + build_h0(n))


def walk_overlap_eigh(n: int, alpha: float, t: float) -> float:
    """|<e_0| exp(-i(alpha*H_x + H_0)t) |+>|^2 from ``walk_eigh``, in the delta form x + V diag(expm1(-i w t)) V^dag x."""
    w, v = walk_eigh(n, alpha)
    x = plus_state(n).amp
    return float(abs((x + v @ (np.expm1(-1j * w * t) * (v.conj().T @ x)))[0]) ** 2)


def dicke_step_delta(n: int, q: int, tau: float, alpha: float) -> np.ndarray:
    """S_q(tau) - I built in the Dicke basis, with H_x's eigenvectors from ``eigh``.

    The Suzuki recursion of ``trotter.step_operator``, independent of its
    exact eigenbasis: each mixer half is V diag(expm1(...)) V^dag, the cost
    touches row 0 only, and products are taken as (I + X)(I + Y) - I.
    """
    w, v = np.linalg.eigh(build_hx(n))

    def times_plus(x, y):
        return x + y + x @ y

    def build(q, tau):
        if q == 2:
            half = (v * np.expm1(-0.5j * alpha * tau * w)) @ v.conj().T
            # cost(tau) mixer(tau/2) - I: the cost c|e_0><e_0| touches row 0 only
            c = np.expm1(-1j * tau)
            x = half.copy()
            x[0] += c * half[0]
            x[0, 0] += c
            return times_plus(half, x)
        u = u_coefficient(q // 2)
        outer = build(q - 2, u * tau)
        outer = times_plus(outer, outer)
        return times_plus(outer, times_plus(build(q - 2, (1.0 - 4.0 * u) * tau), outer))

    return build(q, tau)


def eigenphase_power(u: SymOperator, m: int) -> np.ndarray:
    """u^m - I of a unitary u through its eigenphases, with no squaring.

    u - u^dag = V diag(-2i sin(theta)) V^dag shares u's eigenvectors, which
    ``eigh`` finds from E = u - I alone, so an E below machine epsilon of I
    keeps its digits; each eigenvalue is raised as expm1(m log1p(lambda - 1)).
    """
    e = u.delta
    _, v = np.linalg.eigh(0.5j * (e - e.conj().T))
    lam_minus_1 = np.einsum("ij,ik,kj->j", v.conj(), e, v)  # v_k^dag E v_k = lambda_k - 1
    return (v * np.expm1(m * np.log1p(lam_minus_1))) @ v.conj().T


def krawtchouk_mixer_basis(n: int) -> np.ndarray:
    """H_x's eigenbasis W as ``trotter._mixer_basis`` defines it, with every
    Krawtchouk row K_k(j), j = 0..n, taken through the recurrence
    K_k(j+1) = K_k(j) - K_(k-1)(j) - K_(k-1)(j+1) from K_k(0) = C(n,k)."""
    check_n(n)
    rows = [[comb(n, k) for k in range(n + 1)]]
    for _ in range(n):
        prev, row = rows[-1], []
        for k in range(n + 1):
            row.append(prev[k] - prev[k - 1] - row[k - 1] if k else prev[0])
        rows.append(row)
    kraw = np.array(rows, dtype=object)
    odd = n % 2
    w = np.ldexp(np.sqrt((kraw * kraw.T << odd).astype(float)), -(n + odd) // 2)
    w[kraw < 0] *= -1.0
    return w
