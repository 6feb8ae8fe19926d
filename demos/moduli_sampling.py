# Monte Carlo cross-check: draw full configurations of the radial ensemble
# and compare outpost occupation frequencies with the exact count law.

import math

import numpy as np

import heinegas as hg
from heinegas.engine import exact_count_law, sample_moduli, standard_regions

pot = hg.build_case1((1.5, 2.0), w=(0.2, 0.2))
data = hg.droplet_data(pot)
regions, eps = standard_regions(data)

n, reps = 128, 5000
sample = sample_moduli(pot, n, seed=42, reps=reps)
print(
    f"{reps} configurations of n={n} moduli, each drawn from its law on the "
    "engine's full-range quadrature grid"
)

# count how many moduli land in each outpost annulus, per configuration
counts = np.zeros((reps, regions.m), dtype=np.int64)
for k, region in enumerate(regions.entries):
    inside = (sample.radii > region.lo) & (sample.radii < region.hi)
    counts[:, k] = inside.sum(axis=1)

law = exact_count_law(pot, n, regions)
mean = law.mean()
cov = law.covariance_matrix()

print("\noutpost occupation, empirical vs exact:")
for k in range(regions.m):
    se = math.sqrt(cov[k, k] / reps)
    print(
        f"  region {k} (around r={0.5 * (regions.entries[k].lo + regions.entries[k].hi):.2f}): "
        f"mean {counts[:, k].mean():.4f} vs {mean[k]:.4f} (se {se:.4f})"
    )

print("\njoint count frequencies vs exact law:")
for alpha in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)):
    freq = float(np.mean(np.all(counts == np.asarray(alpha), axis=1)))
    p = law.pmf(alpha)
    se = math.sqrt(max(p * (1 - p), 1e-12) / reps)
    print(f"  N={alpha}: {freq:.4f} vs {p:.4f} (se {se:.4f})")
