# Outposts beyond the droplet: the exact finite-n occupation law of the two
# outpost annuli against its n -> infinity Heine limit. The total-variation
# gap halves with each doubling of n.

import itertools

import heinegas as hg
from heinegas.limits import case1, convergence_row

pot = hg.build_case1((1.5, 2.0), w=(0.2, 0.2))
data = hg.droplet_data(pot)
lim = case1(data, pot)

print("limit parameters:")
for k in range(lim.m):
    print(
        f"  outpost {k}: intensity {lim.vartheta[k]:.6f}, "
        f"radius ratio {lim.rho[k]:.6f}"
    )

s_grid = [list(p) for p in itertools.product((-1.0, 0.0, 1.0), repeat=2)]

print("\n    n    tv gap    worst MGF error")
for n in (32, 64, 128, 256):
    row, _, predicted, _ = convergence_row(pot, data, n, s_grid, smooth=False)
    print(f"  {n:5d}   {row['tv_hi']:.5f}   {row['mgf_err_max']:.5f}")

print("\nlimit law mass at the smallest count vectors:")
for alpha in ((0, 0), (1, 0), (0, 1), (1, 1)):
    print(f"  P(N={alpha}) = {predicted.pmf(alpha):.6f}")
