"""Suzuki product formulas for the walk Hamiltonian, grouped into QAOA form.

A step of the order-q formula approximates exp(-i(alpha*H_x + H_0)*tau) by an
ordered product of cost exponentials exp(-i*c*H_0) and mixer exponentials
exp(-i*c*alpha*H_x).  Factor lists store pure time coefficients (alpha enters
when operators are built) in application order: the first factor hits the
state first.  Merging adjacent same-generator factors across r steps yields
an alternating sequence, i.e. a QAOA circuit of depth p = r * 5^(q/2-1); the
leading half-mixer acts on |+>^n as a global phase, which is how the grouped
sequence and the depth-p ansatz coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ProductFormula:
    """Grouped exponent-factor sequence for r steps of an order-q formula."""

    q: int
    r: int
    t: float
    factors: tuple[Factor, ...]
    stages: int

    @property
    def depth(self) -> int:
        """QAOA depth p = r * stages = number of cost factors."""
        return self.r * self.stages


def group_sequence(q: int, r: int, t: float) -> ProductFormula:
    """Concatenate r steps at t/r each and merge across step boundaries.

    The result alternates mixer/cost factors, starting and ending on a
    mixer, with per-generator coefficients summing to t.
    """
    _check_order(q)
    _check_steps(r)
    step = suzuki_coefficients(q, t / r)
    factors = merge_adjacent(step * r)
    return ProductFormula(q=q, r=int(r), t=t, factors=tuple(factors), stages=stage_count(q))


def _mixer_eigensystem(n: int):
    return symspace.hermitian_eigensystem(symspace.build_hx(n))


def apply_factors(n: int, factors: Sequence[Factor], alpha: float, state: SymVector | None = None) -> SymVector:
    """Apply an exponent-factor sequence to a state (default |+>^n)."""
    if state is None:
        state = symspace.plus_state(n)
    return SymVector(n, factors_operator(n, factors, alpha).entries @ state.amp)


def factors_operator(n: int, factors: Sequence[Factor], alpha: float) -> SymOperator:
    """Operator realized by an exponent-factor sequence (first factor rightmost).

    The product is kept as E = op - I: each factor I + A, with A built from
    expm1 phases, updates it as (I + A)(I + E) - I = E + A(I + E), so a short
    step keeps its digits below machine epsilon.
    """
    w, v = _mixer_eigensystem(n)
    e = np.zeros((n + 1, n + 1), dtype=complex)
    for tag, tau in factors:
        if tag == COST:
            # A = c |e_0><e_0| touches row 0 only: A(I + E) = c (e_0 + E[0])
            c = np.expm1(-1j * tau)
            e[0] += c * e[0]
            e[0, 0] += c
        elif tag == MIXER:
            op = e + np.eye(n + 1)
            e = e + (v * np.expm1(-1j * alpha * tau * w)) @ (v.conj().T @ op)
        else:
            raise ValueError(f"unknown generator tag {tag!r}")
    return SymOperator.near_identity(n, e)


def _leaf_times(q: int, tau: float) -> list[float]:
    """Durations of the order-2 blocks of one order-q step over tau: its COST coefficients."""
    return [c for tag, c in suzuki_coefficients(q, tau) if tag == COST]


def _recursive_delta(w: np.ndarray, v: np.ndarray, vh: np.ndarray, alpha: float, taus: list[float]) -> np.ndarray:
    """E = S - I of the symmetric product of order-2 blocks lasting taus.

    taus lists the blocks of a Suzuki step in order (``_leaf_times``), so an
    order-q step splits into five equal-length runs: outer, outer, middle,
    outer, outer.  Each is built once, as S_q = S_o^2 S_m S_o^2, with every
    product, squares included, taken as (I + X)(I + Y) - I = X + Y + XY.
    A single block is mixer(tau/2) cost(tau) mixer(tau/2).  Each level holds
    one matrix while the next builds, so a q = 8 step needs about seven.
    """
    if len(taus) == 1:
        tau = taus[0]
        half = (v * np.expm1(-0.5j * alpha * tau * w)) @ vh
        # cost(tau) mixer(tau/2) - I: the cost factor c|e_0><e_0| touches row 0 only
        c = np.expm1(-1j * tau)
        x = half.copy()
        x[0] += c * half[0]
        x[0, 0] += c
        return _times_plus(half, x)
    k = len(taus) // 5
    outer = _recursive_delta(w, v, vh, alpha, taus[:k])
    outer = _times_plus(outer, outer)
    middle = _recursive_delta(w, v, vh, alpha, taus[2 * k : 3 * k])
    return _times_plus(outer, _times_plus(middle, outer))


def _times_plus(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(I + x)(I + y) - I = x + y + xy, written over x (which may be y)."""
    xy = x @ y
    x += y
    x += xy
    return x


def step_operator(n: int, q: int, t: float, r: int, alpha: float | None = None) -> SymOperator:
    """One Trotter step S_q(t/r) as an (n+1)x(n+1) unitary, with its exact delta.

    Built by the Suzuki recursion S_q(tau) = S_(q-2)(u tau)^2 S_(q-2)((1-4u) tau)
    S_(q-2)(u tau)^2 in E = S - I form: 2^(q/2-1) order-2 blocks of two
    matrix products each and three products per level, 37 for q = 8 where
    walking its 251 merged factors takes 252.  alpha defaults to the
    resonant coupling for n.
    """
    _check_steps(r)
    if alpha is None:
        alpha = ctqw.alpha_star(n)
    w, v = _mixer_eigensystem(n)
    return SymOperator.near_identity(n, _recursive_delta(w, v, v.conj().T, alpha, _leaf_times(q, t / r)))


def trotterized_state(n: int, q: int, t: float, r: int, alpha: float | None = None) -> SymVector:
    """S_q^r(t/r)|+>^n, applying the step's binary powers to |+>."""
    step = step_operator(n, q, t, r, alpha)
    return SymVector(n, symspace.apply_powers(step, [r], symspace.plus_state(n).amp)[0])


def overlap_trace(
    n: int,
    q: int,
    t: float,
    r: int,
    samples: int,
    spacing: str = "linear",
    alpha: float | None = None,
) -> list[tuple[int, float]]:
    """Target overlap after prefixes of the r-step sequence.

    Returns (steps_applied, overlap) pairs at `samples` prefix lengths from
    0 to r, spaced linearly or geometrically.  All prefixes share one pass
    of squarings of the step operator: O(log r) matrix products plus
    O(samples * log r) matrix-vector products rather than O(r).
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if spacing == "linear":
        points = np.linspace(0, r, samples)
    elif spacing == "geometric":
        points = np.concatenate(([0], np.geomspace(1, r, samples - 1)))
    else:
        raise ValueError(f"spacing must be 'linear' or 'geometric', got {spacing!r}")
    points = np.rint(points).astype(np.int64)
    points[-1] = r  # float spacing loses the endpoint once r > 2^53
    steps = np.unique(points).tolist()
    states = symspace.apply_powers(step_operator(n, q, t, r, alpha), steps, symspace.plus_state(n).amp)
    return [(m, float(abs(psi[0]) ** 2)) for m, psi in zip(steps, states)]


def block_times(q: int, t: float, r: int) -> np.ndarray:
    """Durations t_k of the p = r*stages order-2 blocks making up S_q^r(t/r).

    Each order-2 block carries exactly one cost factor, whose coefficient
    is the block's duration.
    """
    _check_steps(r)
    return np.array(_leaf_times(q, t / r) * r)


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
    """Recover depth-p QAOA angles from the grouped order-q formula."""
    tk = block_times(q, t, r)
    p = len(tk)
    betas = np.empty(p)
    betas[:-1] = (tk[:-1] + tk[1:]) / 2.0
    betas[-1] = tk[-1] / 2.0
    return QaoaAngles(p=p, gammas=tk, betas=betas)


def _angles_to_factors(angles: QaoaAngles) -> list[Factor]:
    factors: list[Factor] = [(MIXER, angles.leading_mixer_half)]
    for gamma, beta in zip(angles.gammas, angles.betas):
        factors.append((COST, float(gamma)))
        factors.append((MIXER, float(beta)))
    return factors


def apply_qaoa_angles(n: int, angles: QaoaAngles, alpha: float | None = None) -> SymVector:
    """Run the alternating-ansatz circuit from recovered angles on |+>^n."""
    if alpha is None:
        alpha = ctqw.alpha_star(n)
    return apply_factors(n, _angles_to_factors(angles), alpha)


def angles_operator(n: int, angles: QaoaAngles, alpha: float | None = None) -> SymOperator:
    """Full operator of the recovered-angle circuit, leading half included."""
    if alpha is None:
        alpha = ctqw.alpha_star(n)
    return factors_operator(n, _angles_to_factors(angles), alpha)


def phase_aligned_distance(a: SymOperator, b: SymOperator) -> float:
    """Spectral distance min over global phase of ||a - e^(i phi) b||_2."""
    tr = np.trace(b.entries.conj().T @ a.entries)
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return float(np.linalg.svd(a.entries - phase * b.entries, compute_uv=False)[0])
