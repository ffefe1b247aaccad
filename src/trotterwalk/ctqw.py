"""Continuous-time quantum-walk search on the hypercube.

The walk Hamiltonian is alpha*H_x + H_0 with H_x the hypercube adjacency
operator and H_0 the projector onto the target state.  At the resonant
coupling alpha* the two extremal eigenstates are nearly degenerate and the
walk rotates |+>^n into the target in time t* = (pi/2)*sqrt(2^n).  This
module computes the resonance parameters from exact integer sums rounded
once, solves the walk in H_x's eigenbasis W, where it is a diagonal plus a
rank-1 matrix, from its secular equation, and exposes the near-degenerate
eigenstate pair behind the two-level picture.  Each eigenvalue is held as
its nearest pole alpha*(n - 2p) plus an offset, so the top pair, which
shares its pole, keeps the digits of its splitting 2*alpha*xi ~ 2/sqrt(2^n)
and of the phase between its two eigenvalues at t*; no LAPACK routine is
called.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, copysign, lcm, pi, sqrt
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



_EPS = np.finfo(float).eps


class WalkEigensystem(NamedTuple):
    """alpha*H_x + H_0 in H_x's eigenbasis W, eigenvalues in descending order.

    Eigenvalue j is alpha*level[j] + offset[j], held against its nearest
    pole: level[j] = n - 2p is H_x's eigenvalue there.  Column j of vectors
    is its eigenvector in W's basis; W @ vectors[:, j] is the Dicke-basis one.
    """

    level: np.ndarray
    offset: np.ndarray
    vectors: np.ndarray


# one Hamiltonian serves many times t, so its eigensystem is cached; the
# arrays handed out are read-only, so no caller can alter what later calls receive
@lru_cache(maxsize=1)
def walk_eigensystem(n: int, alpha: float) -> WalkEigensystem:
    """Eigensystem of alpha*H_x + H_0 in H_x's eigenbasis, for any real alpha; cached, read-only.

    Only the last Hamiltonian is kept: every caller reads one size at a time,
    so a process holds one eigensystem, not one per size it has visited.
    """
    symspace.check_n(n)
    level, offset, vectors = _secular_solve(n, abs(alpha))
    if alpha < 0:  # the reversal k -> n - k maps H(|alpha|) to H(alpha): P_k is symmetric
        level, vectors = -level, vectors[::-1]
    for a in (level, offset, vectors):
        a.flags.writeable = False
    return WalkEigensystem(level, offset, vectors)


def _quadratic_root(a: np.ndarray, b: np.ndarray, c: np.ndarray, upper) -> np.ndarray:
    """The root (a +- sqrt(a^2 - 4bc)) / (2c) of c x^2 - a x + b, + where upper, taken without cancellation."""
    q = a + np.copysign(np.sqrt(np.abs(a * a - 4.0 * b * c)), a)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((q >= 0) == upper, 0.5 * q / c, 2.0 * b / q)


def _secular_solve(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levels, offsets and eigenvectors of alpha*diag(n - 2k) + u u^T, u = sqrt(P), alpha >= 0.

    With the poles a_k = alpha*(n - 2k) the eigenvalues solve the secular
    equation f = 1 + sum_k P_k / (a_k - lambda) = 0 (Golub, SIAM Rev. 15
    (1973) 318): root 0 lies above a_0 and root j between a_j and a_(j-1).
    Root j is held as a_p + s with a_p the nearer of those poles, and with
    e_k = a_k - a_p = 2 alpha (p - k) the equation in s is

        f(s) = C_p - P_p/s + s * sum_(k != p) P_k / (e_k (e_k - s)) = 0,
        C_p = 1 + sum_(k != p) P_k / e_k,

    whose terms do not cancel while |s| <= alpha.  C_0 is 1 - alpha*/alpha
    with the correctly rounded alpha*, zero at alpha = alpha_star(n): a
    backward error of half an ulp in H_0 that puts alpha_star(n) at exact
    resonance, so the top pair, s_+ and s_- about a_0, splits by s_+ - s_-
    to a few ulp of 2 alpha xi (with alpha* exact, the split at n = 80 would
    widen by delta^2 / (8 c P_0), 4.8e-12 relative, delta = C_0).  Only the
    top root can lie further than alpha from its pole; there f is summed as
    it stands.
    All roots iterate together.  The pair about a_0 starts from its pole's
    model C_0 + s c - P_0/s, c = sum_(k >= 1) P_k / e_k^2, exact to first
    order in s; every other root from its interval's two poles with the
    rest of f taken at the midpoint, as LAPACK's dlaed4 starts.  Each step
    solves a model that keeps the pole next to the root and lumps the poles
    on either side into one, value and slope matched (the "middle way";
    R.-C. Li, LAPACK Working Note 89, 1993), and falls back to bisection
    of the bracket that the signs of f leave; a root stops when its step or
    its bracket is within one ulp of s.
    The eigenvectors are z_j = u^ / (a - lambda_j), normalized, with u^
    from the computed roots by Loewner's formula: they are orthogonal to a
    few ulp however close two roots are (Gu & Eisenstat, SIAM J. Matrix
    Anal. Appl. 16 (1995) 172).  At alpha = 0 every pole coincides and
    u u^T has eigenvalue 1 on u and 0 on the rest of a Householder
    reflection's columns.
    """
    k = np.arange(n + 1)
    weight = symspace.p_weights(n)
    if alpha == 0:
        v = np.sqrt(weight)
        v[0] += 1.0  # I - v v^T / v_0 maps e_0 to -u
        vectors = np.eye(n + 1) - np.multiply.outer(v, v) / v[0]
        vectors[:, 0] *= -1.0
        return n - 2 * k, np.eye(1, n + 1)[0], vectors
    pk = weight[:, None]
    dist = k - k[:, None]  # j - k at [k, j]
    # f rises through each interval, so f > 0 at the midpoint a_j + alpha puts root j nearer a_j
    at_mid = 1.0 + (pk / (2 * dist - 1)).sum(0) / alpha
    near_low = at_mid > 0
    near_low[0] = True
    pole = k - ~near_low
    shift = dist + (pole - k)  # p - k at [k, j]
    e = 2.0 * alpha * shift
    inv_e = np.divide(1.0, e, out=np.zeros_like(e), where=shift != 0)
    c = 1.0 + (pk * inv_e).sum(0)
    c[pole == 0] = c_top = (alpha - alpha_star(n)) / alpha
    above = np.concatenate(([0.0], weight[:-1]))  # P_(j-1), the weight of the pole above root j
    low_pole = 2.0 * alpha * (pole - np.maximum(k, 1))  # a_j, a_1 for the top root, less a_p
    high_pole = low_pole + 2.0 * alpha
    rest = at_mid + (weight - above) / alpha
    s = _quadratic_root(rest * (low_pole + high_pole) + weight + above, weight * high_pole + above * low_pole, rest, False)
    # the pair about a_0: the roots of curv s^2 + c_top s - P_0, one on each side
    curv = float((weight[1:] / (2.0 * alpha * k[1:]) ** 2).sum())
    q = c_top + copysign(sqrt(c_top * c_top + 4.0 * curv * weight[0]), c_top)
    s[0], below_top = sorted((-0.5 * q / curv, 2.0 * weight[0] / q), reverse=True)
    if pole[1] == 0:
        s[1] = below_top
    lo, hi = np.where(near_low, 0.0, -alpha), np.where(near_low, alpha, 0.0)
    hi[0] = 1.0  # f(1) >= 0 while alpha > 0
    s = np.where((s > lo) & (s < hi), s, 0.5 * (lo + hi))
    # the model lumps the poles at and below a_j into a_j, those at and below a_1 for the
    # top root, which lies above both of its model's poles, a_1 and a_0
    below = (k[:, None] >= np.maximum(k, 1)).astype(float)
    top = k == 0
    live = np.ones(n + 1, dtype=bool)
    while live.any():
        d = e - s
        t = pk / d
        f = c + t[pole, k] + s * (t * inv_e).sum(0)
        if s[0] > alpha:
            f[0] = 1.0 + t[:, 0].sum()
        slope = t / d
        slope_low = (slope * below).sum(0)
        slope = slope.sum(0)
        neg = f < 0
        lo, hi = np.where(neg, s, lo), np.where(neg, hi, s)
        # f(s + x) ~ f + A/(l - x) + B/(h - x) - A/l - B/h, l and h the model's poles less s
        l, h = low_pole - s, high_pole - s
        lh = l * h
        new = s + _quadratic_root((l + h) * f - lh * slope, lh * f, f - h * slope + 2.0 * alpha * slope_low, top)
        tol = _EPS * np.abs(s)
        done = np.abs(new - s) <= tol
        s = np.where(live, np.where(done | ((new > lo) & (new < hi)), new, 0.5 * (lo + hi)), s)
        done |= hi - lo <= tol
        live &= ~done
    d = e - s  # a_k - lambda_j: |s| <= alpha <= |e_k| / 2 for k != p, so it keeps its digits
    # Loewner: u^_k^2 = prod_j (lambda_j - a_k) / prod_(i != k) (a_i - a_k), root j paired with pole j
    ratio = np.divide(d, 2.0 * alpha * dist, out=-d, where=dist != 0)
    vectors = np.sqrt(ratio.prod(1))[:, None] / d
    vectors /= np.sqrt((vectors * vectors).sum(0))
    return n - 2 * pole, s, vectors


def _phases(n: int, alpha: float, times: np.ndarray) -> np.ndarray:
    """expm1(-i lambda_j t) for each t of times (rows) and eigenvalue j (columns).

    Formed as e^(-i alpha level t) e^(-i offset t) - 1.  The pair at the top
    shares its level, so the phase between its two eigenvalues is the
    difference of their offsets times t, which keeps its digits at t*.  The
    levels' factors are taken from e^(i alpha n t) - 1 by products with
    e^(-2i alpha t), each product as (1 + x)(1 + y) - 1, so each time
    reduces two large angles for the levels, not n + 1.
    """
    eig = walk_eigensystem(n, alpha)
    theta = alpha * times
    turn = np.expm1(-2j * theta)
    x = np.empty((len(times), n + 1), dtype=complex)
    x[:, n] = np.expm1(1j * n * theta)  # level -n
    for p in range(n, 0, -1):
        x[:, p - 1] = x[:, p] + turn + x[:, p] * turn
    x = x[:, (n - eig.level) // 2]
    y = np.expm1(-1j * np.multiply.outer(times, eig.offset))
    return x + y + x * y


class GapResult(NamedTuple):
    gap_exact: float
    gap_formula: float
    gap_asymptotic: float


def gap(n: int) -> GapResult:
    """Splitting of the near-degenerate extremal eigenstate pair at alpha*.

    gap_exact is s_+ - s_- from the secular equation, to a few ulp;
    gap_formula is 2*alpha*xi, its leading term (accurate to O(2^-n)
    relative, so the two agree to a few ulp from n = 48); gap_asymptotic is
    the leading 2/sqrt(2^n).
    """
    a = alpha_star(n)
    eig = walk_eigensystem(n, a)
    gap_exact = float(a * (eig.level[0] - eig.level[1]) + (eig.offset[0] - eig.offset[1]))
    return GapResult(gap_exact, 2.0 * a * xi(n), 2.0 * 2.0 ** (-0.5 * n))


def ctqw_state(n: int, alpha: float, t: float) -> SymVector:
    """State exp(-i(alpha*H_x + H_0)t)|+>^n, from the walk's eigensystem.

    In H_x's eigenbasis |+>^n is e_0, and the state is formed as
    e_0 + Z diag(expm1(-i lambda t)) Z^T e_0, the delta form of
    ``bounds.spectral_error``, then taken to the Dicke basis by W.
    """
    if t < 0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
    z = walk_eigensystem(n, alpha).vectors
    psi = z @ (_phases(n, alpha, np.array([float(t)]))[0] * z[0])
    psi[0] += 1.0
    return SymVector(n, symspace._mixer_basis(n) @ psi)


def ctqw_overlaps(n: int, alpha: float, times) -> np.ndarray:
    """Success probabilities |<e_0| exp(-i(alpha*H_x+H_0)t) |+>|^2 at each t of times.

    The target amplitude is u_0 + sum_j (u^T z_j) z_j0 expm1(-i lambda_j t),
    u = sqrt(P) (row 0 of W), the target component of ``ctqw_state``: 2^(-n/2)
    at t = 0 passes through exactly.  It is taken in blocks of n + 1 times,
    with elementwise products and sums and no BLAS product, so its digits
    do not depend on BLAS's thread count or on the other times.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError(f"evolution times must be >= 0, got {times.min()}")
    u = symspace._mixer_basis(n)[0]
    z = walk_eigensystem(n, alpha).vectors
    weight = (u[:, None] * z).sum(0) * z[0]
    out = np.empty(len(times))
    for start in range(0, len(times), n + 1):
        amp = u[0] + (weight * _phases(n, alpha, times[start : start + n + 1])).sum(1)
        out[start : start + n + 1] = np.abs(amp) ** 2
    return out


def ctqw_overlap(n: int, alpha: float, t: float) -> float:
    """Success probability |<e_0| exp(-i(alpha*H_x+H_0)t) |+>|^2, as ``ctqw_overlaps`` forms it."""
    return float(ctqw_overlaps(n, alpha, [t])[0])


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
    eig = walk_eigensystem(n, a)
    split = gap(n).gap_exact
    if split < 1e-13:
        raise ValueError(f"extremal pair is degenerate to {split:.3e}; phases undefined")
    w = symspace._mixer_basis(n)
    # <+|W z> = z_0: each state is turned so its overlap with |+>^n is positive
    states = [SymVector(n, w @ (np.copysign(1.0, eig.vectors[0, j]) * eig.vectors[:, j])) for j in (0, 1)]
    energies = a * eig.level[:2] + eig.offset[:2]
    return EigenPair(psi_plus=states[0], psi_minus=states[1], energies=(float(energies[0]), float(energies[1])))
