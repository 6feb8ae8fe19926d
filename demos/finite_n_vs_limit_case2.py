# Outposts inside a spectral gap: here the limit law depends on n through
# the oscillation phase x_n = frac(M0 n), so each n is compared against its
# own predicted law. With M0 = 1/2 the phase alternates between 0 and 1/2
# and the two reciprocal gap-edge intensities trade places.

import itertools

import heinegas as hg
from heinegas.limits import case2, convergence_row

pot = hg.build_case2(((0.0, 1.0), (1.6, 2.2)), 0.5, t=(1.2, 1.4), w=(0.06, 0.06))
data = hg.droplet_data(pot)

print("phase and gap-edge intensities across n:")
for n in (63, 64, 65, 66):
    lim = case2(data, pot, n)
    print(
        f"  n={n}: x_n={lim.x_n:.1f}, inner-edge intensity "
        f"{lim.tilde_vartheta[0]:.6f}, outer-edge intensity "
        f"{lim.hat_vartheta[-1]:.6f} (product {lim.tilde_vartheta[0] * lim.hat_vartheta[-1]:.12f})"
    )

s_grid = [list(p) for p in itertools.product((-1.0, 0.0, 1.0), repeat=3)]

print("\n    n  x_n    tv gap    worst MGF error")
for n in (32, 64, 128, 256):
    row, _, predicted, _ = convergence_row(pot, data, n, s_grid, smooth=False)
    print(f"  {n:5d}  {row['x_n']:.1f}   {row['tv_hi']:.5f}   {row['mgf_err_max']:.5f}")

print("\ncombined law at n=256, smallest count vectors (gap-edge, outposts):")
for alpha in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)):
    print(f"  P(N={alpha}) = {predicted.pmf(alpha):.6f}")
