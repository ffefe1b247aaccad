"""Analytic depth bounds for the trotterized walk.

The Trotter error of r steps of an order-q formula is controlled by the sum
of spectral norms of all (q+1)-fold nested commutators of the two evolution
generators.  For the walk pair that sum admits the closed bound
2(n+1)(2*alpha*(n+1)+1)^q, which propagates into a circuit-depth bound and,
after optimizing the order, a closed-form depth of roughly
2^(n/2 + sqrt(2 n log2(5))).  All formula evaluation happens in natural-log
space: the raw magnitudes pass 1e90 well before n = 68.

epsilon throughout this module is a spectral-norm budget on
||U(t) - S_q^r(t/r)||_2.  The numeric depth search elsewhere uses an
overlap-deficit budget that happens to share the symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, pi, sqrt
from typing import NamedTuple

import numpy as np

from . import ctqw, symspace, trotter

LN2 = log(2.0)
LN5 = log(5.0)


def _check_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def delta_bound(n: int, q: int) -> float:
    """Closed-form bound 2(n+1)(2*alpha*(n+1)+1)^q on the commutator sum."""
    symspace.check_n(n)
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError(f"order must be an integer >= 1, got {q!r}")
    return exp(ln_delta_bound(n, q))


def ln_delta_bound(n: int, q: int) -> float:
    a = ctqw.alpha_star(n)
    return LN2 + log(n + 1.0) + q * log(2.0 * a * (n + 1.0) + 1.0)


def delta_exact(n: int, q: int) -> float:
    """Exact commutator sum over all (q+1)-index sequences.

    Generators are H1 = -i*H_0 and H2 = -i*alpha*H_x, in H_x's orthogonal
    eigenbasis (``symspace._mixer_spectrum``) -i u u^T and -i alpha diag(n - 2k),
    walked without the -i: a nested commutator's (-i)^(q+1) has modulus 1.
    The sequences are walked depth first, in ``itertools.product((0, 1),
    repeat=q + 1)`` order, and each nested commutator is formed once from its
    prefix's: 2^(q+2) - 4 commutators, holding q + 1 matrices at once, each
    norm from ``symspace._spectral_norm``.  Sequences whose two innermost
    indices coincide vanish identically but are walked anyway.
    """
    symspace.check_n(n)
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError(f"order must be an integer >= 1, got {q!r}")
    lam, u = symspace._mixer_spectrum(n)
    gens = (np.multiply.outer(u, u), ctqw.alpha_star(n) * np.diag(lam))

    def walk(nested: np.ndarray, depth: int, total: float) -> float:
        if depth == q:
            return total + symspace._spectral_norm(nested)[0]
        for g in gens:
            total = walk(g @ nested - nested @ g, depth + 1, total)
        return total

    total = 0.0
    for g in gens:
        total = walk(g, 0, total)
    return total


def trotter_error_bound(q: int, delta: float, t: float, r: int, stages: int) -> float:
    """Spectral-error bound 2*stages^(q+1)*delta*t^(q+1) / (r^q (q+1))."""
    _check_positive(q=q, delta=delta, t=t, r=r, stages=stages)
    return exp(ln_trotter_error_bound(q, log(delta), t, r, stages))


def ln_trotter_error_bound(q: int, ln_delta: float, t: float, r: float, stages: int) -> float:
    return LN2 + (q + 1) * log(stages) + ln_delta + (q + 1) * log(t) - q * log(r) - log(q + 1.0)


def p0(n: int, q: float) -> float:
    """Depth prefactor pi*(2*alpha*(n+1)+1) / (2*5^(3/2)*(q+1)^(1/q)); below 1/2."""
    a = ctqw.alpha_star(n)
    return pi * (2.0 * a * (n + 1.0) + 1.0) / (2.0 * 5.0**1.5 * (q + 1.0) ** (1.0 / q))


@dataclass(frozen=True)
class DepthEstimate:
    """Analytic depth bound and its ingredients for one (n, q, epsilon)."""

    n: int
    q: int
    epsilon: float
    delta_bound: float
    p0: float
    p_analytic: float
    log2_p: float


def analytic_depth(n: int, q: int, epsilon: float) -> DepthEstimate:
    """Depth bound solving the error equation for p at t = t*.

    Evaluated twice in log-space: directly from the error bound, and in the
    prefactor form p0*sqrt(2^n)*(2*pi*(n+1)*sqrt(2^n)/(5*epsilon))^(1/q)*5^q.
    The two are the same expression algebraically, so any disagreement past
    1e-9 relative indicates an internal defect and raises.
    """
    stages = trotter.stage_count(q)
    _check_positive(epsilon=epsilon)
    ln_d = ln_delta_bound(n, q)
    ts = ctqw.t_star(n)
    # direct inversion of the error bound: p = stages * r
    ln_p_direct = (
        (2.0 + 1.0 / q) * log(stages)
        + (LN2 + ln_d) / q
        + (1.0 + 1.0 / q) * log(ts)
        - (log(epsilon) + log(q + 1.0)) / q
    )
    pre = p0(n, q)
    ln_p_prefactor = (
        log(pre) + 0.5 * n * LN2 + (log(2.0 * pi * (n + 1.0)) + 0.5 * n * LN2 - log(5.0 * epsilon)) / q + q * LN5
    )
    if abs(ln_p_direct - ln_p_prefactor) > 1e-9 * max(1.0, abs(ln_p_direct)):
        raise RuntimeError(
            f"depth forms disagree: ln p = {ln_p_direct!r} vs {ln_p_prefactor!r} at (n={n}, q={q}, eps={epsilon})"
        )
    return DepthEstimate(
        n=n,
        q=q,
        epsilon=epsilon,
        delta_bound=exp(ln_d),
        p0=pre,
        p_analytic=exp(ln_p_direct),
        log2_p=ln_p_direct / LN2,
    )


class OrderEstimate(NamedTuple):
    """Unconstrained depth-optimal order and its even rounding."""

    q_real: float
    q_even: int


def optimal_order(n: int, epsilon: float) -> OrderEstimate:
    """Order minimizing the analytic depth, and the even integer used in practice."""
    symspace.check_n(n)
    _check_positive(epsilon=epsilon)
    radicand = (0.5 * n * LN2 + log(2.0 * pi * (n + 1.0)) - log(5.0 * epsilon)) / LN5
    if radicand <= 0:
        raise ValueError(f"order formula undefined: non-positive radicand {radicand} (epsilon too large)")
    q_real = sqrt(radicand)
    q_even = max(2, 2 * round(q_real / 2.0))
    return OrderEstimate(q_real, q_even)


def analytic_depth_closed(n: int, epsilon: float) -> float:
    """Order-optimized closed form p0*(2*pi*(n+1)/(5*eps))^(2/q)*2^(n/2+sqrt(2n*log2(5)))."""
    q_real = optimal_order(n, epsilon).q_real
    ln_p = (
        log(p0(n, q_real))
        + (2.0 / q_real) * log(2.0 * pi * (n + 1.0) / (5.0 * epsilon))
        + 0.5 * n * LN2
        + sqrt(n) * sqrt(2.0 * LN5 / LN2) * LN2
    )
    return exp(ln_p)


def required_steps(n: int, q: int, epsilon: float) -> int:
    """Smallest step count r whose error bound at t = t* is within epsilon.

    Found on the defining inequality itself, not a closed-form estimate of
    it: r doubles from 1 until the bound holds, then the last failing and
    the first meeting r are bisected, about 2 log2(r) evaluations.
    """
    stages = trotter.stage_count(q)
    _check_positive(epsilon=epsilon)
    ln_d = ln_delta_bound(n, q)
    ts = ctqw.t_star(n)

    def within(r: int) -> bool:
        return ln_trotter_error_bound(q, ln_d, ts, r, stages) <= log(epsilon)

    lo, hi = 0, 1  # lo fails (or is 0, below every step count), hi is the next probe
    while not within(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if within(mid):
            hi = mid
        else:
            lo = mid
    return hi


def spectral_error(n: int, q: int, t: float, r: int) -> float:
    """Measured ||U(t) - S_q^r(t/r)||_2 at alpha*(n), the low end of ``symspace._spectral_norm``'s bracket.

    Global-phase sensitive by construction, matching the bound's norm.  The
    difference is formed as (U - I) - (S^r - I) in H_x's eigenbasis W, which
    is orthogonal, so the norm is the Dicke basis's.  U - I =
    Z diag(expm1(-i lambda t)) Z^T from ``ctqw.walk_eigensystem`` keeps its
    relative precision however small lambda t is; S^r is
    ``symspace.apply_powers`` of the cached step applied to I.  The r-fold
    product, and the phases lambda t of all but the top pair, are accurate
    only to a few t * machine epsilon, a floor growing like 2^(n/2): at the
    bound's depth with q = 4, 1.20e-3, 0.97e-3 and 1.44e-3 at epsilon = 0.1,
    0.01 and 0.001 for n = 80 (t* = 1.7e12), and 2e-4 to 5e-4 at n = 76.
    """
    a = ctqw.alpha_star(n)
    z = ctqw.walk_eigensystem(n, a).vectors
    u_delta = (z * ctqw._phases(n, a, np.array([float(t)]))[0]) @ z.T
    eye = np.eye(n + 1, dtype=complex)
    s_delta = symspace.apply_powers(trotter.step_operator(n, q, t, r), [r], eye)[0] - eye
    return symspace._spectral_norm(u_delta - s_delta)[0]
