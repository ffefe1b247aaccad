#!/usr/bin/env python3
# Discretize the walk with Suzuki product formulas and check the error
# scaling r^(-q) that the analytic depth bounds rely on.

import numpy as np

from trotterwalk import bounds, ctqw, trotter

print("one second-order step over time t splits as:")
for tag, coeff in trotter.suzuki_coefficients(2, 1.0):
    print(f"  exp(-i * {coeff:+.3f} * H_{tag})")

print("\nfourth order: five scaled copies, the middle one runs backwards in time")
costs = [c for tag, c in trotter.suzuki_coefficients(4, 1.0) if tag == "cost"]
print("  cost-block durations:", np.round(costs, 4))

n = 8
ts = ctqw.t_star(n)
depth = sum(1 for tag, _ in trotter.group_sequence(4, 3, ts) if tag == "cost")
print(f"\nn = {n}: grouped sequence q=4, r=3 has depth {depth}"
      f" = r * stages = 3 * {trotter.stage_count(4)}")

print("\nspectral error ||U - S_q^r|| vs r (watch the slopes):")
print("      r      q=2         q=4         q=6")
for j in range(2, 9):
    r = 2**j
    errs = [bounds.spectral_error(n, q, ts, r) for q in (2, 4, 6)]
    print(f"  {r:5d}  " + "  ".join(f"{e:.3e}" for e in errs))

print("\nconvergence of the trotterized state to the exact walk at fixed t*:")
exact = ctqw.ctqw_state(n, ctqw.alpha_star(n), ts)
for r in (8, 32, 128, 512):
    state = trotter.trotterized_state(n, 2, ts, r)
    fid = abs(np.vdot(exact.amp, state.amp)) ** 2
    print(f"  r = {r:4d}: fidelity with exact walk = {fid:.8f}")
