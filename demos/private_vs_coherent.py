"""Separation between private and coherent information on q = 3p.

The two-member plus/minus ensemble transmits classical bits privately
at a rate strictly above the coherent information for p up to about
0.12145 on the diagonal.  As a second curiosity, the complementary
channel's coherent information is positive for every (p, q) in the
open square, exhibited by an X-polarized witness state whose mixing
weight can be astronomically small.
"""

import numpy as np

from dephrasure.channel import single_letter_ci
from dephrasure.compci import positivity_witness
from dephrasure.private_info import private_lower_bound

ps = np.linspace(0.09, 0.125, 8)
qs = 3 * ps
ci = single_letter_ci(ps, qs)[0]
priv = private_lower_bound(ps, qs)[0]
print(f"{'p':>7} {'q':>7} {'I_c':>12} {'I_p':>12} {'gap':>12}")
for p, q, c, v in zip(ps, qs, ci, priv):
    print(f"{p:7.4f} {q:7.4f} {c:12.3e} {v:12.3e} {v - c:12.3e}")

print()
print("complementary-channel positivity witnesses:")
points = (0.05, 0.25, 0.45)
w = positivity_witness(points, points)
for p, eps, value in zip(points, w.epsilon, w.ci_value):
    print(f"  (p, q) = ({p}, {p}): eps = {eps:.3e}, I_c(N^c) = {value:.3e} > 0")
