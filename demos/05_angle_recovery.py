#!/usr/bin/env python3
# The grouped product formula IS a QAOA circuit: read off alternating
# cost/mixer angles and verify the rebuilt circuit reproduces it exactly.

import numpy as np

from trotterwalk import ctqw, symspace, trotter

n, q, r = 10, 4, 2
t = ctqw.t_star(n)

angles = trotter.qaoa_angles(q, t, r)
print(f"n={n}, q={q}, r={r}: depth p = {angles.p}")
print("cost angles gamma_k :", np.round(angles.gammas, 3), "(= block durations t_k)")
print("mixer angles beta_k :", np.round(angles.betas, 3), "(times alpha* when applied)")
print(f"leading mixer half  : {angles.leading_mixer_half:.3f}  (global phase on |+>^n)")

rebuilt = trotter.angles_operator(n, angles)
eye = np.eye(n + 1)
power = symspace.apply_powers(trotter.step_operator(n, q, t, r), [r], eye)[0]
reference = symspace.SymOperator(n, power - eye)
print(f"\noperator distance rebuilt-vs-formula: "
      f"{trotter.phase_aligned_distance(rebuilt, reference):.2e}")

state = trotter.apply_qaoa_angles(n, angles)
direct = trotter.trotterized_state(n, q, t, r)
print(f"max amplitude difference on |+>^n   : {np.max(np.abs(state.amp - direct.amp)):.2e}")
print(f"target overlap through the circuit  : {abs(state.amp[0])**2:.6f}")
