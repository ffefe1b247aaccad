"""Exact linear algebra on the permutation-symmetric subspace.

An n-qubit state that is invariant under qubit permutations lives in the
(n+1)-dimensional span of the Dicke states |e_k>, the uniform superpositions
of all bit strings of Hamming weight k.  Everything in this package evolves
inside that subspace, so states are length-(n+1) complex vectors and
operators are dense (n+1)x(n+1) matrices.  SymVector holds a state in the
Dicke basis.  The working basis is H_x's exact eigenbasis W, built here
(``_mixer_basis``): the walk is solved and Trotter steps are built and
powered in W.  Every SymOperator the library builds is in W; only states
are taken to the Dicke basis, by one product with W.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, log

import numpy as np

# generator tags used in exponent-factor lists: a factor (tag, tau) stands for
# exp(-i*tau*H_tag), where "cost" is the projector onto the target Dicke state
# |e_0> and "mixer" is alpha times the hypercube adjacency operator
COST = "cost"
MIXER = "mixer"


def check_n(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"qubit count must be an integer >= 1, got {n!r}")


@dataclass(frozen=True, eq=False)
class SymVector:
    """Amplitudes over the Dicke basis |e_0>, ..., |e_n>."""

    n: int
    amp: np.ndarray

    def __post_init__(self):
        check_n(self.n)
        amp = np.asarray(self.amp, dtype=complex)
        if amp.shape != (self.n + 1,):
            raise ValueError(f"amplitude vector must have length n+1={self.n + 1}, got shape {amp.shape}")
        object.__setattr__(self, "amp", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))


@dataclass(frozen=True, eq=False)
class SymOperator:
    """Dense complex operator near the identity on the symmetric subspace, stored as its delta.

    ``delta`` is the exact difference between the operator and I.  The
    operators here (Trotter steps and their powers) carry only it because
    rounding ``I + delta`` loses the digits of delta below machine epsilon,
    which repeated squaring would amplify.  Every one the library builds is
    in H_x's eigenbasis W.
    """

    n: int
    delta: np.ndarray

    def __post_init__(self):
        check_n(self.n)
        delta = np.asarray(self.delta, dtype=complex)
        if delta.shape != (self.n + 1, self.n + 1):
            raise ValueError(f"operator must be (n+1)x(n+1)={self.n + 1}x{self.n + 1}, got shape {delta.shape}")
        object.__setattr__(self, "delta", delta)

    @property
    def entries(self) -> np.ndarray:
        """The rounded matrix I + delta, a new array on each access."""
        return np.eye(self.n + 1) + self.delta

    def unitarity_defect(self) -> float:
        """Max-norm of U^dag U - I; zero for an exactly unitary operator."""
        return float(np.max(np.abs(_gram_defect(self.delta))))

    @cached_property
    def _polar_squares(self) -> list[np.ndarray]:
        """E_k = u^(2^k) - I at k = 0, _POLAR_EVERY, 2 _POLAR_EVERY, ..., filled by ``_squares``."""
        return [self.delta]

    def _squares(self, bits: int):
        """Yield (k, E_k) with E_k = u^(2^k) - I for each set bit k of ``bits``, squaring as (I + E)^2 - I = 2E + E^2.

        One rule for every k below ``bits``' length: at each ``_POLAR_EVERY``-th
        k the square is the kept one, made by the first call that reaches it
        from one square and one ``_polar_step``, whatever u's own defect, and
        read-only; at any other k it is the previous square squared, the
        first of a run squared on a copy of the kept one, which the rest of
        the run writes over.  The rest of a run is skipped once no set bit is
        left in it and the next kept square exists, so a later call squares
        each run only up to its highest set bit.
        """
        kept = self._polar_squares
        for k in range(bits.bit_length()):
            level, offset = divmod(k, _POLAR_EVERY)
            if not offset:
                if level == len(kept):
                    e = _polar_step(_times_plus(e, e))
                    e.setflags(write=False)  # a quarter of the cost of flags.writeable = False
                    kept.append(e)
                e = kept[level]
            # squared unless the run has no set bit left and the next kept square exists
            elif level + 1 == len(kept) or bits >> k & (1 << _POLAR_EVERY - offset) - 1:
                if offset == 1:
                    e = e.copy()
                e = _times_plus(e, e)
            if bits >> k & 1:
                yield k, e


def p_weights(n: int) -> np.ndarray:
    """Binomial distribution P_k = C(n,k)/2^n for k = 0..n, each correctly rounded."""
    check_n(n)
    return np.array([comb(n, k) / 2**n for k in range(n + 1)])


@lru_cache(maxsize=None)
def plus_state(n: int) -> SymVector:
    """|+>^(x n) in the Dicke basis: W's row 0, amp_k = sqrt(P_k) correctly rounded; cached, read-only."""
    amp = _mixer_basis(n)[0].astype(complex)
    amp.flags.writeable = False
    return SymVector(n, amp)


@lru_cache(maxsize=1)
def _mixer_basis(n: int) -> np.ndarray:
    """H_x's eigenbasis W, W_jk = <e_j|H^(x n)|e_k>, real; the last size's is cached, read-only.

    Column k is H_x's eigenvector for the eigenvalue n - 2k.  W is symmetric
    and its own inverse, so a Dicke-basis X reads W X W here: |+> is e_0 and
    H_0 is u u^T with u = W[0] = sqrt(P).  W_jk = 2^(-n/2) sqrt(C(n,j)/C(n,k)) K_k(j)
    with the Krawtchouk values K_k(j) (MacWilliams & Sloane, The Theory of
    Error-Correcting Codes, 1977, ch. 5), from K_k(0) = C(n,k) and
    K_k(j+1) = K_k(j) - K_(k-1)(j) - K_(k-1)(j+1) in exact integers, for
    j <= n/2; the rows past n/2 are reflections, K_k(n-j) = (-1)^k K_k(j).  As
    C(n,j) K_k(j) = C(n,k) K_j(k), W_jk = sign(K_k(j)) sqrt(K_k(j) K_j(k) / 2^n):
    the integer product and its square root are each rounded once, so W is
    exactly symmetric and its row 0 is sqrt(P) correctly rounded.
    Every caller works through one size at a time, so one W is kept, as one
    step is by ``trotter.step_operator``.
    """
    check_n(n)
    rows = [[comb(n, k) for k in range(n + 1)]]
    for _ in range(n // 2):
        prev, row = rows[-1], []
        for k in range(n + 1):
            row.append(prev[k] - prev[k - 1] - row[k - 1] if k else prev[0])
        rows.append(row)
    low = np.array(rows, dtype=object)
    kraw = np.vstack((low, low[n - len(low) :: -1] * (1 - 2 * (np.arange(n + 1) % 2))))
    odd = n % 2  # 2^(-n/2) = 2^odd * 2^(-(n + odd)/2), the last factor exact
    # K_k(n-j) K_(n-j)(k) = K_k(j) K_j(k): row n - j of |W| is row j
    mag = np.ldexp(np.sqrt((low * kraw.T[: len(low)] << odd).astype(float)), -(n + odd) // 2)
    w = np.vstack((mag, mag[n - len(low) :: -1]))
    w[kraw < 0] *= -1.0
    w.flags.writeable = False
    return w


@lru_cache(maxsize=1)
def _mixer_spectrum(n: int) -> tuple[np.ndarray, np.ndarray]:
    """H_x's eigenvalues n - 2k, exact, and u = sqrt(P), the cost's H_0 = u u^T, in W's basis; cached, read-only, as W is."""
    lam = n - 2.0 * np.arange(n + 1)
    lam.flags.writeable = False
    return lam, _mixer_basis(n)[0]


@lru_cache(maxsize=1)
def _plus(n: int) -> np.ndarray:
    """|+>^n in H_x's eigenbasis: the unit vector e_0; cached, read-only, as W is."""
    plus = np.eye(1, n + 1, dtype=complex)[0]
    plus.flags.writeable = False
    return plus


def _times_plus(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(I + x)(I + y) - I = x + y + xy, written over x (which may be y).

    Powering multiplies with ``ndarray.dot``: on C- or F-contiguous operands
    it makes the BLAS call that ``@`` makes, without the matmul ufunc's
    set-up (0.6 to 1.4 us of a 3.5 to 8 us product at n = 16..32).
    """
    xy = x.dot(y)
    x += y
    x += xy
    return x


def _gram_defect(e: np.ndarray) -> np.ndarray:
    """X^dag X - I for X = I + e, written in e."""
    # np.conj copies even a real e (e.conj() would not), and the product writes over it
    return _times_plus(np.conj(e).T, e)


def _polar_step(e: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step X (3I - X^dag X) / 2 towards the unitary polar factor of X = I + e, written over e.

    In terms of e, the step is e - (D + e D) / 2 with D = X^dag X - I, two
    matrix products, formed in place with the roundings of that expression.
    It converges quadratically (Higham, Functions of Matrices, 2008, ch. 8):
    a defect ||D|| becomes O(||D||^2).
    """
    d = _gram_defect(e)
    ed = e.dot(d)
    ed += d
    ed *= 0.5
    e -= ed
    return e


# squarings between two polar steps
_POLAR_EVERY = 4

_NORM_TOL = 1e-13  # the relative width at which _spectral_norm's bracket stops


def _spectral_norm(a: np.ndarray) -> tuple[float, float]:
    """Bracket (low, high) of ||a||_2 with high / low - 1 <= _NORM_TOL, from matrix products alone, no LAPACK.

    B = a^H a, of a scaled by a power of two so nothing underflows, is squared
    j times, each square divided by its trace.  With m = 2^j, high^2 is
    tr(B^m)^(1/m), its ln summed over the squarings, and low^2 the Rayleigh
    quotient of B at B^m's column k of largest (B^m)_kk, the largest-norm
    column of B^(m/2); low is accurate to second order.  high closes in about
    9 squarings at a gap of 0.9 in sigma^2, in 45 for a k-fold sigma_max.
    """
    top = float(np.max(np.abs(a), initial=0.0))
    if not top:
        return 0.0, 0.0
    scale = 2.0 ** int(np.frexp(top)[1])
    a = a / scale
    b, ln_high, m = np.conj(a).T @ a, 0.0, 1
    for _ in range(64):  # by m = 2^45 every bracket that rounding lets close has closed
        t = b.trace().real  # b is B^m / tr(B^(m/2))^2
        ln_high += log(t) / m
        b /= t
        x = b[:, np.argmax(b.diagonal().real)]
        low = (np.linalg.norm(a @ x) / np.linalg.norm(x)) ** 2
        if ln_high - log(low) <= 2.0 * _NORM_TOL:
            break
        b, m = b @ b, 2 * m
    return float(np.sqrt(low) * scale), float(np.exp(0.5 * ln_high) * scale)


def apply_powers(u: SymOperator, steps, x: np.ndarray) -> list[np.ndarray]:
    """u^m x (x a vector or a matrix) for each m in steps, from one pass of repeated squaring.

    The squares u^(2^k) are made in turn (``SymOperator._squares``) and each
    is held as E = u^(2^k) - I, so a step within machine epsilon of the
    identity keeps its digits; it squares as (I + E)^2 - I = 2E + E^2, and
    each set bit k of m updates that power's x as x + E x.  x is carried in
    full: an update rounds at one ulp of x, which later unitary factors do
    not amplify, while a rounding error in E is doubled by every later
    square.
    Plain repeated squaring drifts off the unitary manifold linearly in m,
    so every ``_POLAR_EVERY``-th square is snapped back by one Newton-Schulz
    polar step, whatever u's own defect: a q = 16 step at t/r ~ 200 is
    built up to 4.5e-12 off, and unprojected squares would double that
    every time.  u must be unitary to roundoff, as every Trotter step is:
    the projection maps a square to its nearest unitary, so the powers of
    an operator that is not unitary come out wrong.  Projecting more often
    buys nothing: if X^dag X = I + D, then (X^2)^dag X^2 = I + D + X^dag D X,
    so a square only doubles the Gram defect D (plus its own roundoff), which
    stays within 2^4 roundoffs until the next projection removes it
    quadratically.  Nor does the defect leak into the unitary part: writing
    X = W (I + D/2) with W unitary, X^2 = W^2 (I + (W^dag D W + D)/2 + O(D^2)),
    whose polar factor is W^2 up to O(D^2).  That is 1.5 matrix products per
    squaring instead of 3.  The projected squares are kept on u (15 for r
    just below 2^60), so a later powering of it makes no projection and
    at most 0.75 products per squaring (``SymOperator._squares``).
    x is a vector, or a matrix with one step count, however often it is
    named (a spectral error powers the identity); a matrix with several
    raises ValueError.  The largest m, and its duplicates, is carried apart,
    as a lone m would be, so its output does not depend on the other steps.
    For the others, the vector x is copied into one block, a column per
    distinct m, and at each k the columns whose m has bit k set are updated
    in slices of at most n + 1, so no temporary is larger than one matrix;
    the powers' bits are read from their bytes, as they may pass 2^64.  A
    column of such a product can differ from a lone power's matrix-vector
    product in its last bits.  One power (every depth-search probe asks for
    one) leaves no others: no block or bit table is made, and the loop only
    updates x.
    """
    steps = list(steps)
    for m in steps:
        if not isinstance(m, (int, np.integer)) or m < 0:
            raise ValueError(f"step count must be a non-negative integer, got {m!r}")
    steps = [int(m) for m in steps]
    top = max(steps, default=0)
    others = sorted(set(steps) - {top})
    below = 0  # the bits that the block's powers set
    for m in others:
        below |= m
    if others:
        if np.ndim(x) != 1:
            raise ValueError(f"a matrix takes one step count, got {len(others) + 1}")
        # column j of the block is x for the j-th power
        block = np.asarray(x, dtype=complex)[:, None].repeat(len(others), axis=1)
        # bit k of others[j] is bit k % 8 of table[j, k // 8]; the powers may pass 2^64
        size = below.bit_length() // 8 + 1
        table = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in others), np.uint8).reshape(-1, size)
    y = x
    for k, e in u._squares(top | below):
        if (top >> k) & 1:
            y = y + e.dot(y)
        if (below >> k) & 1:
            cols = np.flatnonzero((table[:, k // 8] >> k % 8) & 1)
            for start in range(0, len(cols), len(x)):
                part = cols[start : start + len(x)]
                sub = block[:, part]
                block[:, part] = sub + e.dot(sub)
    out = {m: block[:, j] for j, m in enumerate(others)}
    out[top] = y
    return [out[m] for m in steps]
