# Build the three reference potentials, run the validator on each, and walk
# the tilt family g_tau(r) = q(r) - 2 tau ln r to show how its minimizers
# branch: one bulk minimizer off the branching tilt, the gap edges and the
# outposts joining it exactly at it.

import numpy as np

import heinegas as hg

POTS = [
    ("ginibre", hg.ginibre()),
    ("two outposts beyond the droplet", hg.build_case1((1.5, 2.0), w=(0.2, 0.2))),
    (
        "two outposts inside a spectral gap",
        hg.build_case2(((0.0, 1.0), (1.6, 2.2)), 0.5, t=(1.2, 1.4), w=(0.06, 0.06)),
    ),
]

for title, pot in POTS:
    print(f"== {title} ==")
    checks, data = hg.validation_report(pot)
    for c in checks:
        print(f"  {c.name}: {'PASS' if c.passed else 'FAIL'} ({c.detail})")
    print(f"  classification: {data.case_tag}")
    print(f"  components: {[(round(a, 4), round(b, 4)) for a, b in data.components]}")
    if data.outposts:
        print(f"  outposts: {[round(t, 4) for t in data.outposts]}")
        print(f"  masses: {[round(m, 6) for m in data.masses]}")
    print()

# the tilt sweep on the gap potential: the minimizer of g_tau moves outward
# with the tilt, and at the branching value tau = M0 = 0.5 both gap edges and
# both outposts minimize it together. Printed: the local minima of g_tau on
# a grid of step 1e-4 within 1e-6 of its least value there.
pot = POTS[2][1]
r = np.linspace(1e-4, 4.0, 40000)
print("tilt sweep on the gap potential:")
for tau in (0.3, 0.5, 0.7):
    g = hg.g_tau(pot, tau, r)
    local = np.r_[False, (g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:]), False]
    radii = [round(float(x), 4) for x in r[local & (g <= g.min() + 1e-6)]]
    print(f"  tau={tau}: minimizers at {radii}")
