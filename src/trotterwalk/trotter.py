"""Suzuki product formulas for the walk Hamiltonian, grouped into QAOA form.

A step of the order-q formula approximates exp(-i(alpha*H_x + H_0)*tau) by an
ordered product of cost exponentials exp(-i*c*H_0) and mixer exponentials
exp(-i*c*alpha*H_x).  Factor lists store pure time coefficients (alpha enters
when operators are built; steps and angle circuits use the resonant alpha*)
in application order: the first factor hits the state first.  Merging
adjacent same-generator factors across r steps yields an alternating
sequence, i.e. a QAOA circuit of depth p = r * 5^(q/2-1); the leading
half-mixer acts on |+>^n as a global phase, which is how the grouped
sequence and the depth-p ansatz coincide.

Steps are built and powered in H_x's eigenbasis W, made from exact
integers: there every mixer exponential is diagonal with exact eigenvalues
n - 2k, the cost projector is the rank-1 u u^T with u = sqrt(P), and |+>^n
is the unit vector e_0.  States and operators are taken to the Dicke basis
once, at the end, by products with W.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from . import ctqw, symspace
from .symspace import COST, MIXER, SymOperator, SymVector

Factor = tuple[str, float]


def stage_count(q: int) -> int:
    """Number of (mixer, cost) stages per step: 5^(q/2 - 1)."""
    _check_order(q)
    return 5 ** (q // 2 - 1)


def _check_order(q: int) -> None:
    if not isinstance(q, (int, np.integer)) or q < 2 or q % 2 != 0:
        raise ValueError(f"formula order must be an even integer >= 2, got {q!r}")


def _check_steps(r: int) -> None:
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"step count must be an integer >= 1, got {r!r}")


def u_coefficient(k: int) -> float:
    """Recursion weight u_k = 1/(4 - 4^(1/(2k-1))) of the order doubling."""
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))


def suzuki_coefficients(q: int, t: float) -> list[Factor]:
    """Exponent factors of one order-q step over time t, before grouping.

    Order 2 is the symmetric split [mixer t/2, cost t, mixer t/2]; each
    order doubling replaces a step with five scaled copies of the previous
    order, two at u_k*t on each side of one at (1-4u_k)*t.  Coefficients of
    the middle copies are negative from order 4 on.
    """
    _check_order(q)
    if q == 2:
        return [(MIXER, t / 2.0), (COST, t), (MIXER, t / 2.0)]
    u = u_coefficient(q // 2)
    outer = suzuki_coefficients(q - 2, u * t)
    middle = suzuki_coefficients(q - 2, (1.0 - 4.0 * u) * t)
    return outer + outer + middle + outer + outer


def merge_adjacent(factors: Sequence[Factor]) -> list[Factor]:
    """Combine neighbouring factors that share a generator."""
    merged: list[Factor] = []
    for tag, coeff in factors:
        if merged and merged[-1][0] == tag:
            merged[-1] = (tag, merged[-1][1] + coeff)
        else:
            merged.append((tag, coeff))
    return merged


def group_sequence(q: int, r: int, t: float) -> tuple[Factor, ...]:
    """r steps at t/r each, merged across step boundaries: the factors of ``qaoa_angles(q, t, r)``.

    The result alternates mixer/cost factors, starting and ending on a
    mixer, with per-generator coefficients summing to t; its
    r * stage_count(q) cost factors are the QAOA depth.
    """
    return tuple(_angles_to_factors(qaoa_angles(q, t, r)))


@lru_cache(maxsize=None)
def _mixer_basis(n: int) -> np.ndarray:
    """H_x's eigenbasis W, W_jk = <e_j|H^(x n)|e_k>, real; cached and read-only.

    Column k is H_x's eigenvector for the eigenvalue n - 2k.  W is symmetric
    and its own inverse, so a Dicke-basis X reads W X W here: |+> is e_0 and
    H_0 is u u^T with u = W[0] = sqrt(P).  W_jk = 2^(-n/2) sqrt(C(n,j)/C(n,k)) K_k(j)
    with the Krawtchouk values K_k(j) (MacWilliams & Sloane, The Theory of
    Error-Correcting Codes, 1977, ch. 5), from K_k(0) = C(n,k) and
    K_k(j+1) = K_k(j) - K_(k-1)(j) - K_(k-1)(j+1) in exact integers, for
    j <= n/2; the rows past n/2 are reflections, K_k(n-j) = (-1)^k K_k(j).  As
    C(n,j) K_k(j) = C(n,k) K_j(k), W_jk = sign(K_k(j)) sqrt(K_k(j) K_j(k) / 2^n):
    the integer product and its square root are each rounded once, so W is
    exactly symmetric and its row 0 is ``plus_state``'s amplitudes bit for bit.
    """
    symspace.check_n(n)
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


def _mixer_spectrum(n: int) -> tuple[np.ndarray, np.ndarray]:
    """H_x's eigenvalues n - 2k, exact, and u = sqrt(P), the cost's H_0 = u u^T, in W's basis."""
    return n - 2.0 * np.arange(n + 1), _mixer_basis(n)[0]


def factors_operator(n: int, factors: Sequence[Factor], alpha: float) -> SymOperator:
    """Operator realized by an exponent-factor sequence (first factor rightmost).

    The product is kept as E = op - I in H_x's eigenbasis, where each factor
    I + A is a diagonal scaling (mixer, A = diag(expm1(-i alpha tau lambda)))
    or a rank-1 update (cost, A = c u u^T with c = expm1(-i tau)).  E takes
    it as (I + A)(I + E) - I = E + A(I + E), O(n^2) per factor, so a short
    step keeps its digits below machine epsilon.  The result is W E W, in
    the Dicke basis.
    """
    lam, u = _mixer_spectrum(n)
    e = np.zeros((n + 1, n + 1), dtype=complex)
    for tag, tau in factors:
        if tag == COST:
            e += np.multiply.outer(np.expm1(-1j * tau) * u, u + u @ e)
        elif tag == MIXER:
            a = np.expm1(-1j * alpha * tau * lam)
            e += a[:, None] * e
            e.flat[:: n + 2] += a  # the diagonal
        else:
            raise ValueError(f"unknown generator tag {tag!r}")
    w = _mixer_basis(n)
    return SymOperator(n, w @ e @ w)


def _recursive_delta(n: int, alpha: float, q: int, tau: float) -> np.ndarray:
    """E = S_q(tau) - I of one order-q Suzuki step in H_x's eigenbasis, built by recursing on q.

    An order-q step is S_o^2 S_m S_o^2 with S_o, S_m order-(q-2) steps at
    u_(q/2)*tau and (1-4u_(q/2))*tau, the times ``suzuki_coefficients`` uses.
    Each is built once, and every product, squares included, is taken as
    (I + X)(I + Y) - I.  Order 2 is mixer(tau/2) cost(tau) mixer(tau/2) =
    D (I + c u u^T) D with D = diag(e^(-i alpha tau lambda / 2)), so its E is
    diag(expm1(-i alpha tau lambda)) + c (D u)(D u)^T, with no product.
    Each level holds one matrix while the next builds, so a q = 8 step
    needs about seven.
    """
    if q == 2:
        lam, root_p = _mixer_spectrum(n)
        du = np.exp(-0.5j * alpha * tau * lam) * root_p
        e = np.multiply.outer(np.expm1(-1j * tau) * du, du)
        e.flat[:: n + 2] += np.expm1(-1j * alpha * tau * lam)  # the diagonal
        return e
    u = u_coefficient(q // 2)
    outer = _recursive_delta(n, alpha, q - 2, u * tau)
    outer = symspace._times_plus(outer, outer)
    middle = _recursive_delta(n, alpha, q - 2, (1.0 - 4.0 * u) * tau)
    return symspace._times_plus(outer, symspace._times_plus(middle, outer))


# typed: a float r must miss the cache and be refused, not return an int r's step
@lru_cache(maxsize=1, typed=True)
def _mixer_basis_step(n: int, q: int, t: float, r: int) -> SymOperator:
    """One Trotter step S_q(t/r) in H_x's eigenbasis, at alpha*(n), with its exact delta; cached, read-only.

    The last step built is cached, so the state, spectral error and trace of
    one (n, q, t, r) share it and the squares its first powering keeps.
    """
    _check_order(q)
    _check_steps(r)
    step = SymOperator(n, _recursive_delta(n, ctqw.alpha_star(n), q, t / r))
    step.delta.flags.writeable = False
    return step


def step_operator(n: int, q: int, t: float, r: int) -> SymOperator:
    """One Trotter step S_q(t/r) as an (n+1)x(n+1) unitary in the Dicke basis, with its exact delta.

    The walk runs at the resonant coupling alpha*(n).  Built in H_x's
    eigenbasis by the Suzuki recursion
    S_q(tau) = S_(q-2)(u tau)^2 S_(q-2)((1-4u) tau) S_(q-2)(u tau)^2
    in E = S - I form: 2^(q/2-1) order-2 blocks, each a diagonal plus a
    rank-1 matrix, and three products per level, 21 for q = 8, then taken
    to the Dicke basis as W E W.
    """
    w = _mixer_basis(n)
    return SymOperator(n, w @ _mixer_basis_step(n, q, t, r).delta @ w)


def _plus(n: int) -> np.ndarray:
    """|+>^n in H_x's eigenbasis: the unit vector e_0."""
    return np.eye(1, n + 1, dtype=complex)[0]


def trotterized_state(n: int, q: int, t: float, r: int) -> SymVector:
    """S_q^r(t/r)|+>^n, applying the step's binary powers to |+> = e_0 in H_x's eigenbasis.

    The state is taken to the Dicke basis by one product with W.
    """
    psi = symspace.apply_powers(_mixer_basis_step(n, q, t, r), [r], _plus(n))[0]
    return SymVector(n, _mixer_basis(n) @ psi)


def overlap_trace(n: int, q: int, t: float, r: int, samples: int, spacing: str = "linear") -> list[tuple[int, float]]:
    """Target overlap after prefixes of the r-step sequence.

    Returns (steps_applied, overlap) pairs at `samples` prefix lengths from
    0 to r, spaced linearly or geometrically.  All prefixes share one pass
    of squarings of the step operator, O(log r) matrix products, and the
    states below r are the columns of one block, updated n + 1 at a time:
    O(log r * samples / n) more products rather than O(r).
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    # points are spaced in float64, which also holds an r past 2^63
    if spacing == "linear":
        points = np.linspace(0.0, float(r), samples)
    elif spacing == "geometric":
        points = np.concatenate(([0.0], np.geomspace(1.0, float(r), samples - 1)))
    else:
        raise ValueError(f"spacing must be 'linear' or 'geometric', got {spacing!r}")
    points = [int(x) for x in np.rint(points)]
    points[-1] = r  # float spacing loses the endpoint once r > 2^53
    steps = sorted(set(points))
    *block, last = symspace.apply_powers(_mixer_basis_step(n, q, t, r), steps, _plus(n))
    w = _mixer_basis(n)
    # the target amplitudes of n + 1 states per product, and the last as
    # ``trotterized_state`` forms it, so the last samples agree exactly
    amps = [w[0] @ np.column_stack(block[i : i + n + 1]) for i in range(0, len(block), n + 1)]
    amps.append([(w @ last)[0]])
    return [(m, float(abs(a) ** 2)) for m, a in zip(steps, np.concatenate(amps))]


@dataclass(frozen=True)
class QaoaAngles:
    """Alternating cost/mixer angles recovered from a product formula.

    gammas are the cost angles (one full block duration each); betas are the
    mixer angles (merged half-durations of adjacent blocks, bare times: the
    coupling alpha multiplies them when the circuit is applied).  The
    sequence starts with a leading mixer half-angle that reduces to a global
    phase on |+>^n; it is kept so the angle set reproduces the formula
    exactly as an operator.
    """

    p: int
    gammas: np.ndarray
    betas: np.ndarray

    @property
    def leading_mixer_half(self) -> float:
        return float(self.gammas[0] / 2.0)


def qaoa_angles(q: int, t: float, r: int) -> QaoaAngles:
    """Read depth-p QAOA angles off the grouped order-q formula.

    Its factors alternate mixer, cost, ..., cost, mixer: the costs are the
    gammas and the mixers after the leading half are the betas.  All r
    steps are equal, so the angles are one merged step's, tiled r times:
    a step's last mixer merges with the next step's first, except at the end.
    """
    _check_steps(r)
    step = np.array([c for _, c in merge_adjacent(suzuki_coefficients(q, t / r))])
    gammas = np.tile(step[1::2], r)
    betas = np.tile([*step[2:-1:2], step[-1] + step[0]], r)
    betas[-1] = step[-1]
    return QaoaAngles(p=len(gammas), gammas=gammas, betas=betas)


def _angles_to_factors(angles: QaoaAngles) -> list[Factor]:
    factors: list[Factor] = [(MIXER, angles.leading_mixer_half)]
    for gamma, beta in zip(angles.gammas, angles.betas):
        factors.append((COST, float(gamma)))
        factors.append((MIXER, float(beta)))
    return factors


def apply_qaoa_angles(n: int, angles: QaoaAngles) -> SymVector:
    """Run the alternating-ansatz circuit from recovered angles on |+>^n, at alpha*(n)."""
    return SymVector(n, angles_operator(n, angles).entries @ symspace.plus_state(n).amp)


def angles_operator(n: int, angles: QaoaAngles) -> SymOperator:
    """Full operator of the recovered-angle circuit at alpha*(n), leading half included."""
    return factors_operator(n, _angles_to_factors(angles), ctqw.alpha_star(n))


def phase_aligned_distance(a: SymOperator, b: SymOperator) -> float:
    """Spectral distance min over global phase of ||a - e^(i phi) b||_2."""
    x, y = a.entries, b.entries
    tr = np.trace(y.conj().T @ x)
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return float(np.linalg.svd(x - phase * y, compute_uv=False)[0])
