"""Per-letter rates of structured codes along the q = 3p diagonal.

Reproduces the qualitative picture in the window p in [0.107, 0.118]:
the weighted repetition codes rho_n peel off one by one as p grows,
the Z-diagonal 4-use code theta_4 tracks above them, and the
non-diagonal chi_3 code reaches the highest rates before hitting its
(lower) threshold.  Rates are per channel use.
"""

import numpy as np

from dephrasure.channel import single_letter_ci
from dephrasure.codes import optimize_chi3, optimize_zdiag, repetition_ci_opt

p_grid = np.linspace(0.107, 0.118, 12)
q_grid = 3 * p_grid

# one batched call per column, over all twelve points
columns = [
    p_grid,
    q_grid,
    single_letter_ci(p_grid, q_grid)[0],
    repetition_ci_opt(p_grid, q_grid, 2)[0] / 2,
    repetition_ci_opt(p_grid, q_grid, 3)[0] / 3,
    repetition_ci_opt(p_grid, q_grid, 5)[0] / 5,
    optimize_zdiag(p_grid, q_grid, 4, seed=0, n_starts=8)[0] / 4,
    optimize_chi3(p_grid, q_grid, seed=0)[0] / 3,
]

print(f"{'p':>7} {'q':>7} {'single':>10} {'rep2':>10} {'rep3':>10} "
      f"{'rep5':>10} {'theta4':>10} {'chi3':>10}")
for p, q, single, rep2, rep3, rep5, theta4, chi3 in zip(*columns):
    print(f"{p:7.4f} {q:7.4f} {single:10.6f} {rep2:10.6f} {rep3:10.6f} "
          f"{rep5:10.6f} {theta4:10.6f} {chi3:10.6f}")

print()
print("Note how the single-letter value dies first while the entangled")
print("codes keep a strictly positive rate: superadditivity of the")
print("coherent information.")
