"""Map of the (p, q) parameter square and its three boundary curves.

For each p the interesting q-axis is cut into four bands:

  q < j(p)      maximally mixed input is optimal for I_c
  j(p) < q < g  a polarized Z-diagonal input takes over
  g(p) < q      the coherent information is exactly zero
  k(p) <= q     ... and provably so: the channel is antidegradable,
                witnessed by an explicit degrading map

The gap g(p) < q < k(p) is where I_c = 0 numerically but the
constructive antidegradability witness does not reach.
"""

import numpy as np

from dephrasure.antideg import verify_antidegradable
from dephrasure.channel import region_curves, single_letter_ci

ps = np.linspace(0.05, 0.45, 9)
g, j, k = region_curves(ps)
q_mid = (g + k) / 2
ci = single_letter_ci(ps, q_mid)[0]
reports = verify_antidegradable(ps, q_mid)
print(f"{'p':>6} {'j(p)':>8} {'g(p)':>8} {'k(p)':>8}   band check at q = (g+k)/2")
for i, p in enumerate(ps):
    tag = "antideg" if reports.antidegradable[i] else "CP fails"
    print(f"{p:6.2f} {j[i]:8.4f} {g[i]:8.4f} {k[i]:8.4f}   I_c = {ci[i]:.2e}, {tag}"
          f" (min Choi eig {reports.cp_min_eigenvalue[i]:+.2e})")

print()
print("Between g and k the coherent information already vanishes but the")
print("USD-based degrading map is not completely positive, so the zero is")
print("seen numerically rather than certified structurally.")
