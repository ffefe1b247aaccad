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

Steps are built and powered in ``symspace``'s working basis W, H_x's
exact eigenbasis: there every mixer exponential is diagonal with exact
eigenvalues n - 2k, the cost projector is the rank-1 u u^T with u = sqrt(P),
and |+>^n is the unit vector e_0.  Every operator built here stays in W;
states alone are taken to the Dicke basis, once, at the end, by a product
with W.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


def factors_operator(n: int, factors: Sequence[Factor], alpha: float) -> SymOperator:
    """Operator realized by an exponent-factor sequence (first factor rightmost).

    The product is kept as E = op - I in H_x's eigenbasis, where each factor
    I + A is a diagonal scaling (mixer, A = diag(expm1(-i alpha tau lambda)))
    or a rank-1 update (cost, A = c u u^T with c = expm1(-i tau)).  E takes
    it as (I + A)(I + E) - I = E + A(I + E), O(n^2) per factor, so a short
    step keeps its digits below machine epsilon; u^T E is summed by numpy
    down E's columns, with no BLAS product, so E's bits do not depend on
    the BLAS thread count.  The operator is returned in W, as it is built.
    """
    lam, u = symspace._mixer_spectrum(n)
    e = np.zeros((n + 1, n + 1), dtype=complex)
    for tag, tau in factors:
        if tag == COST:
            e += np.multiply.outer(np.expm1(-1j * tau) * u, u + (u[:, None] * e).sum(0))
        elif tag == MIXER:
            a = np.expm1(-1j * alpha * tau * lam)
            e += a[:, None] * e
            e.flat[:: n + 2] += a  # the diagonal
        else:
            raise ValueError(f"unknown generator tag {tag!r}")
    return SymOperator(n, e)


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
        lam, root_p = symspace._mixer_spectrum(n)
        du = np.exp(-0.5j * alpha * tau * lam)
        du *= root_p
        e = np.multiply.outer(np.expm1(-1j * tau) * du, du)
        diagonal = e.reshape(-1)[:: n + 2]  # a view
        diagonal += np.expm1(-1j * alpha * tau * lam)
        return e
    u = u_coefficient(q // 2)
    outer = _recursive_delta(n, alpha, q - 2, u * tau)
    outer = symspace._times_plus(outer, outer)
    middle = _recursive_delta(n, alpha, q - 2, (1.0 - 4.0 * u) * tau)
    return symspace._times_plus(outer, symspace._times_plus(middle, outer))


# typed: a float r must miss the cache and be refused, not return an int r's step
@lru_cache(maxsize=1, typed=True)
def step_operator(n: int, q: int, t: float, r: int) -> SymOperator:
    """One Trotter step S_q(t/r) in H_x's eigenbasis W, at alpha*(n), with its exact delta; cached, read-only.

    Built by the Suzuki recursion
    S_q(tau) = S_(q-2)(u tau)^2 S_(q-2)((1-4u) tau) S_(q-2)(u tau)^2
    in E = S - I form: 2^(q/2-1) order-2 blocks, each a diagonal plus a
    rank-1 matrix, and three products per level, 21 for q = 8.  The last
    step built is cached, so the state, spectral error and trace of one
    (n, q, t, r) share it and the squares its first powering keeps.
    """
    _check_order(q)
    _check_steps(r)
    step = SymOperator(n, _recursive_delta(n, ctqw.alpha_star(n), q, t / r))
    step.delta.setflags(write=False)  # once per probe: a quarter of the cost of flags.writeable = False
    return step


def trotterized_state(n: int, q: int, t: float, r: int) -> SymVector:
    """S_q^r(t/r)|+>^n, applying the step's binary powers to |+> = e_0 in H_x's eigenbasis.

    The state is taken to the Dicke basis by one product with W.
    """
    psi = symspace.apply_powers(step_operator(n, q, t, r), [r], symspace._plus(n))[0]
    return SymVector(n, symspace._mixer_basis(n).dot(psi))


# slices of n + 1 trace samples powered together in one pass: a pass holds a
# block of 16 (n + 1)^2 amplitudes, 1.7 MB at n = 80, however many samples
_TRACE_SLICES = 16


def overlap_trace(n: int, q: int, t: float, r: int, samples: int, spacing: str = "linear") -> list[tuple[int, float]]:
    """Target overlap after prefixes of the r-step sequence.

    Returns (steps_applied, overlap) pairs at `samples` prefix lengths from
    0 to r, spaced linearly or geometrically and rounded to whole steps;
    lengths that round to the same step count give one pair, so fewer pairs
    come back when r + 1 < samples, or when geometric points crowd below a
    few steps (41 samples at r = 1572901 give 40).  All prefixes share the
    squarings of the step operator, O(log r) matrix products.  The states
    below r are powered in passes of ``_TRACE_SLICES`` slices of n + 1
    columns, each pass one ``symspace.apply_powers`` call with r as its top
    power: O(log r * samples / n) more products rather than O(r), and a
    block that does not grow with `samples`.  A sample below r can differ
    in its last bits from a lone power's state, and with the samples that
    share its pass, whose columns are multiplied with it.  Its target
    amplitude is read row-wise, with no BLAS product: (w[0] * state).sum(),
    numpy's sum along that one state, so the read depends neither on the
    BLAS thread count nor on the other states read with it, and the rows
    come out the same with 1 and 2 BLAS threads.  r's is formed as
    ``trotterized_state`` forms it, so the last samples agree exactly.
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
    *below, _ = steps = sorted(set(points))
    step, w = step_operator(n, q, t, r), symspace._mixer_basis(n)
    size = _TRACE_SLICES * (n + 1)
    amps = []
    for start in range(0, len(below), size):
        *block, last = symspace.apply_powers(step, below[start : start + size] + [r], symspace._plus(n))
        # the target amplitudes of n + 1 states at a time, each state's products summed along its own row
        amps += [(np.vstack(block[i : i + n + 1]) * w[0]).sum(1) for i in range(0, len(block), n + 1)]
    amps.append([w.dot(last)[0]])
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
    """Run the alternating-ansatz circuit from recovered angles on |+>^n, at alpha*(n).

    |+>^n is e_0 in W, so the circuit's state there is e_0 + E[:, 0], the
    first column of ``angles_operator``; one product with W takes it to the
    Dicke basis.
    """
    return SymVector(n, symspace._mixer_basis(n).dot(symspace._plus(n) + angles_operator(n, angles).delta[:, 0]))


def angles_operator(n: int, angles: QaoaAngles) -> SymOperator:
    """Full operator of the recovered-angle circuit at alpha*(n), leading half included, in H_x's eigenbasis W.

    It equals the powered ``step_operator`` only up to a floor of about
    t * machine epsilon, like the spectral error's: the angles are doubles
    near t/r, and from q = 4 on they are rounded sums (u tau, (1 - 4u) tau
    and merged halves) that the step's phases do not share.  At t* the
    phases alpha* tau lambda reach about 2e11 rad at n = 80, where one ulp
    of every angle moves the operator by 6e-4.  Measured distances from the
    powered step at t*: 1.3e-10 to 1.7e-10 at n = 40 and 1.8e-4 to 3.9e-4
    at n = 80 (q = 4 and 8); q = 2's angles are exact halves of the step's,
    4e-15 at n = 80.
    """
    return factors_operator(n, _angles_to_factors(angles), ctqw.alpha_star(n))


def phase_aligned_distance(a: SymOperator, b: SymOperator) -> float:
    """Spectral distance ||a - e^(i phi) b||_2 at the phase of tr(b^dag a), the low end of ``symspace._spectral_norm``'s bracket."""
    x, y = a.entries, b.entries
    tr = np.trace(y.conj().T @ x)
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return symspace._spectral_norm(x - phase * y)[0]
