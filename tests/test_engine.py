"""Quadrature engine, count laws, standard statistics, and the sampler."""

import csv
import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammainc, gammaincc

import heinegas as hg
from heinegas import engine
from heinegas.engine import (
    HardRegion,
    QuadratureConfig,
    RegionSet,
    SplitBump,
    SplitRegion,
    exact_count_law,
    joint_mgf,
    log_norm,
    moduli_to_csv,
    region_probabilities,
    sample_moduli,
    standard_regions,
)
from heinegas.potentials import BumpSpec, Shoulder

from conftest import _case1_q_mp, _case2_q_mp


# ---------------------------------------------------------------- log norms


@pytest.mark.parametrize("n", [64, 256])
def test_ginibre_log_norm_closed_form(ginibre_pot, n):
    # 2 int r^(2j+1) e^(-n r^2) dr = j! / n^(j+1)
    for j in range(n):
        val = log_norm(ginibre_pot, n, j)
        exact = math.lgamma(j + 1) - (j + 1) * math.log(n)
        assert val == pytest.approx(exact, rel=1e-10)


def test_log_norm_rejects_bad_index(ginibre_pot):
    with pytest.raises(ValueError, match="index j"):
        log_norm(ginibre_pot, 16, 16)
    with pytest.raises(ValueError, match="index j"):
        log_norm(ginibre_pot, 16, -1)


def test_log_norm_windowed_matches_full(case1_pot, case2_pot, windowed_log_norm):
    n = 128
    for pot in (case1_pot, case2_pot):
        for j in (0, 40, 63, 64, 100, 127):
            a = log_norm(pot, n, j)
            b = windowed_log_norm(pot, n, j)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def _log_norm_mp(mp, pot, q, n, j):
    """log 2∫ r^(2j+1) e^(-n q(r)) dr by mpmath.quad at the working precision,
    with q an mpmath transcription of the builder, on [0, r_max] cut at the
    potential's special radii: component edges, outposts, the ends of their
    windows and, in case 2, the ends of the gap barrier's blends. The
    integrand is scaled by its largest value on a coarse scan, since quad's
    convergence test is absolute."""
    data = hg.droplet_data(pot)
    special = [e for c in data.components for e in c]
    special += [t + a * w for t, w in zip(pot.params["t"], pot.params["w"]) for a in (-1, 0, 1)]
    if data.case_tag == "case2":
        b0, a1 = data.components[0][1], data.components[1][0]
        special += [b0 + u * (a1 - b0) for u in (0.15, 0.25, 0.3, 0.45, 0.55, 0.7, 0.75, 0.85)]
    cuts = sorted({0.0, pot.r_max, *(e for e in special if 0.0 < e < pot.r_max)})

    def log_density(r):
        return (2 * j + 1) * mp.log(r) - n * q(r)

    top = max(log_density(mp.mpf(r)) for r in np.linspace(0.05, pot.r_max, 240))
    mass = mp.quad(lambda r: mp.exp(log_density(r) - top) if r > 0 else mp.mpf(0), cuts)
    return mp.log(2 * mass) + top


@pytest.mark.parametrize(
    "pot_name,q_mp,j",
    [
        ("case1_pot", _case1_q_mp, 127),
        ("case1_pot", _case1_q_mp, 96),
        ("case2_pot", _case2_q_mp, 63),
        ("case2_pot", _case2_q_mp, 64),
        ("case2_pot", _case2_q_mp, 62),
    ],
    ids=["case1-edge", "case1-outpost", "case2-below-split", "case2-split", "case2-two-peak"],
)
def test_log_norm_matches_mpmath(request, pot_name, q_mp, j):
    # n = 128: case 1's droplet-edge index and its first index with a
    # window at the outer outpost; case 2's gap-edge indices m0 - 1 and
    # m0 and the two-peak index m0 - 2 next to the branching tilt 1/2.
    # Measured worst 7.5e-15 on the log (case 2, j = 63)
    mp = pytest.importorskip("mpmath")
    pot = request.getfixturevalue(pot_name)
    n = 128
    with mp.workdps(30):
        want = _log_norm_mp(mp, pot, q_mp(mp, pot), n, j)
    assert abs(log_norm(pot, n, j) - float(want)) <= 7.5e-14


def test_quadrature_config_validation():
    with pytest.raises(ValueError, match="tolerances"):
        QuadratureConfig(rel_tol=0.0)
    # rel_tol is the one setting: no grid reads a peak-window constant
    with pytest.raises(TypeError):
        QuadratureConfig(window_constant=10.0)


panel_sets = st.lists(
    st.tuples(st.floats(1e-9, 20.0), st.floats(1e-9, 5.0), st.integers(1, 70)),
    min_size=1,
    max_size=30,
)


@given(panel_sets, st.booleans())
@settings(max_examples=100, deadline=None)
def test_subdivide_matches_linspace_bitwise(panels, scalar_parts):
    # every grid and sampler cell is built by _subdivide; its edges must be
    # those of the per-panel np.linspace bit for bit
    lo, width, parts = (np.array(v) for v in zip(*panels))
    hi = lo + width
    if scalar_parts:
        parts = int(parts[0])
    got_lo, got_hi = engine._subdivide(lo, hi, parts)
    grids = [
        np.linspace(a, b, k + 1)
        for a, b, k in zip(lo, hi, np.broadcast_to(parts, lo.shape))
    ]
    assert got_lo.tobytes() == np.concatenate([g[:-1] for g in grids]).tobytes()
    assert got_hi.tobytes() == np.concatenate([g[1:] for g in grids]).tobytes()


def test_full_grid_node_budget_names_its_size(ginibre_pot):
    # the budget binds through the grid's span over n^(-1/2) panels, so the
    # error names n and the node count, not the tolerance
    n = 10**8
    with pytest.raises(engine.QuadratureError) as err:
        engine._full_grid(ginibre_pot, n, (), 1)
    msg = str(err.value)
    assert f"n={n}" in msg
    assert "400,000" in msg
    nodes = int(msg.split(": ")[1].split(" nodes")[0].replace(",", ""))
    assert nodes >= 400_000
    assert "rel_tol" not in msg


def test_non_convergence_states_gap_and_tolerance(ginibre_pot, monkeypatch):
    # two passes give one refinement gap; no positive gap meets rel_tol
    # 1e-300, and at n = 64 the grid stays far inside the node budget
    monkeypatch.setattr(engine, "_MAX_SUBDIVISIONS", 2)
    regions = RegionSet.hard([HardRegion(0.9, 1.1)])
    cfg = QuadratureConfig(rel_tol=1e-300)
    with pytest.raises(engine.QuadratureError, match="failed to converge") as err:
        exact_count_law(ginibre_pot, 64, regions, cfg=cfg)
    msg = str(err.value)
    assert "rel_tol 1.000e-300" in msg
    gap = float(msg.split("moved the result by ")[1].split(",")[0])
    assert 0.0 < gap < 1e-10


# ------------------------------------------------------------------ regions


def test_region_set_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        RegionSet.hard([HardRegion(1.3, 1.7), HardRegion(1.4, 1.8)])
    # nested, and not next to each other in the entries
    with pytest.raises(ValueError, match="disjoint"):
        RegionSet.hard([HardRegion(1.5, 1.6), HardRegion(3.5, 4.0), HardRegion(1.0, 3.0)])


_ATOM_SPECS = st.tuples(
    st.sampled_from(["bump", "keep_below", "keep_above"]), st.integers(0, 8), st.integers(1, 4)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ATOM_SPECS, max_size=6))
def test_region_set_disjointness_matches_pairwise_loop(specs):
    # the sorted neighbour check against the pairwise loop it replaced, on
    # integer ends (touching is common) and half-line shoulders
    atoms, spans = [], []
    for kind, lo, width in specs:
        hi = lo + width
        if kind == "bump":
            atoms.append(BumpSpec((lo + hi) / 2.0, width / 2.0))
            spans.append((lo, hi))
        else:
            atoms.append(Shoulder(lo, hi, keep_below=kind == "keep_below"))
            spans.append((0, hi) if kind == "keep_below" else (lo, math.inf))
    disjoint = not any(
        a[0] < b[1] and b[0] < a[1] for a, b in itertools.combinations(spans, 2)
    )
    try:
        RegionSet.smooth(atoms)
    except ValueError as exc:
        assert "disjoint" in str(exc) and not disjoint
    else:
        assert disjoint


def test_region_set_accepts_touching_atoms():
    regions = RegionSet.hard([HardRegion(1.7, 2.0), HardRegion(1.3, 1.7)])
    assert regions.edge_radii() == (1.3, 1.7, 2.0)
    split = SplitRegion(3, below=HardRegion(1.7, 8.0), above=HardRegion(0.0, 1.3))
    assert RegionSet.hard([split, HardRegion(1.3, 1.7)]).m == 2


def test_region_set_rejects_mixed_kind():
    with pytest.raises(ValueError, match="hard statistics"):
        RegionSet.hard([BumpSpec(1.5, 0.1)])
    with pytest.raises(ValueError, match="smooth statistics"):
        RegionSet.smooth([HardRegion(1.3, 1.7)])
    # a split is one kind on both sides
    mixed = SplitRegion(4, below=HardRegion(1.5, 8.0), above=Shoulder(1.05, 1.15, True))
    with pytest.raises(ValueError, match="hard statistics"):
        RegionSet.hard([mixed])
    with pytest.raises(ValueError, match="smooth statistics"):
        RegionSet.smooth([mixed])
    with pytest.raises(ValueError, match="kind"):
        RegionSet((), "soft")


def test_region_set_rejects_shoulder_plateau_overlap():
    # the shoulder's kept side counts hits all the way out, so another
    # region there would double-count
    entry = SplitBump(
        4,
        below=Shoulder(1.45, 1.55, keep_below=False),
        above=Shoulder(1.05, 1.15, keep_below=True),
    )
    with pytest.raises(ValueError, match="disjoint"):
        RegionSet.smooth([entry, BumpSpec(2.0, 0.1)])


def test_split_region_resolve():
    entry = SplitRegion(5, below=HardRegion(1.5, 8.0), above=HardRegion(0.0, 1.1))
    rs = RegionSet.hard([entry])
    assert rs.resolve(0, 4) is entry.below
    assert rs.resolve(0, 5) is entry.above


def test_standard_regions_case1(case1_data):
    regions, eps = standard_regions(case1_data)
    assert regions.kind == "hard"
    assert regions.m == 2
    assert eps == pytest.approx(0.1, abs=1e-9)
    for region, t in zip(regions.entries, (1.5, 2.0)):
        assert isinstance(region, HardRegion)
        assert region.lo == pytest.approx(t - eps, abs=1e-9)
        assert region.hi == pytest.approx(t + eps, abs=1e-9)


def test_standard_regions_case2_hard(case2_data):
    regions, eps = standard_regions(case2_data, n=512)
    assert regions.m == 3
    assert eps == pytest.approx(0.04, abs=1e-9)
    head = regions.entries[0]
    assert isinstance(head, SplitRegion)
    # flagship regression: M0 n = 256.0 exactly must not round down to 255
    assert head.m0 == 256
    assert head.above.lo == 0.0
    assert head.above.hi == pytest.approx(1.11, abs=1e-9)
    assert head.below.lo == pytest.approx(1.49, abs=1e-9)
    assert head.below.hi > 2.2
    for region, t in zip(regions.entries[1:], (1.2, 1.4)):
        assert region.lo == pytest.approx(t - eps, abs=1e-9)
        assert region.hi == pytest.approx(t + eps, abs=1e-9)


def test_standard_regions_case2_smooth(case2_data):
    regions, eps = standard_regions(case2_data, n=512, smooth=True)
    assert regions.kind == "smooth"
    head = regions.entries[0]
    assert isinstance(head, SplitBump)
    assert isinstance(head.below, Shoulder)
    assert isinstance(head.above, Shoulder)
    assert not head.below.keep_below
    assert head.above.keep_below
    assert 0.5 * (head.above.lo + head.above.hi) == pytest.approx(1.11, abs=1e-9)
    assert 0.5 * (head.below.lo + head.below.hi) == pytest.approx(1.49, abs=1e-9)
    for region, t in zip(regions.entries[1:], (1.2, 1.4)):
        assert isinstance(region, BumpSpec)
        assert region.center == pytest.approx(t, abs=1e-9)
        assert region.half_width == pytest.approx(eps, abs=1e-9)


def test_standard_regions_case2_needs_n(case2_data):
    with pytest.raises(ValueError, match="need n"):
        standard_regions(case2_data)


def test_standard_regions_bare_gap(case2_bare_data):
    regions, _ = standard_regions(case2_bare_data, n=128)
    assert regions.m == 1
    head = regions.entries[0]
    gap_mid = 1.3
    assert head.above.hi < gap_mid
    assert head.below.lo > gap_mid
    assert head.above.hi - 1.0 == pytest.approx(1.6 - head.below.lo, abs=1e-9)


# ----------------------------------------------------- landing probabilities


def test_region_probabilities_bounds(case1_pot, case1_data):
    regions, _ = standard_regions(case1_data)
    n = 64
    for j in (0, 32, 60, 63):
        pi = region_probabilities(case1_pot, n, j, regions)
        assert pi.shape == (2,)
        assert np.all(pi >= 0.0)
        assert pi.sum() <= 1.0 + 1e-12
    # bulk indices essentially never reach the outposts
    assert region_probabilities(case1_pot, n, 0, regions).sum() < 1e-30


def test_region_probabilities_rejects_smooth(case1_pot, case1_data):
    regions, _ = standard_regions(case1_data, smooth=True)
    with pytest.raises(ValueError, match="hard"):
        region_probabilities(case1_pot, 64, 0, regions)


def test_region_probability_is_integral_ratio(ginibre_pot):
    # landing probability of modulus j in [a,b] for ginibre is the
    # normalized incomplete gamma of r^2
    from scipy.special import gammainc

    regions = RegionSet.hard([HardRegion(0.5, 0.9)])
    n, j = 64, 40
    pi = region_probabilities(ginibre_pot, n, j, regions)
    want = gammainc(j + 1, n * 0.81) - gammainc(j + 1, n * 0.25)
    assert pi[0] == pytest.approx(want, rel=1e-9)


def _oracle_cuts(pot, pieces, extra):
    """[1e-9, r_max] cut into ``pieces`` uniform pieces and at the bump
    edges t ± w, the component edges and the radii ``extra``."""
    data = hg.droplet_data(pot)
    bumps = [t + s * w for t, w in zip(pot.params["t"], pot.params["w"]) for s in (-1, 1)]
    edges = [*bumps, *(e for c in data.components for e in c), *extra]
    lo, hi = 1e-9, pot.r_max
    return sorted({*np.linspace(lo, hi, pieces + 1), *(e for e in edges if lo < e < hi)})


def _oracle_landing_probabilities(pot, n, j, regions, pieces):
    """π_j by mpmath.quad at 30 digits of r^(2j+1) e^(-n q) on [1e-9, r_max],
    cut as ``_oracle_cuts`` does and at the region edges."""
    mpmath = pytest.importorskip("mpmath")
    atoms = [regions.resolve(k, j) for k in range(regions.m)]
    cuts = _oracle_cuts(pot, pieces, [e for a in atoms for e in (a.lo, a.hi)])
    with mpmath.workdps(30):
        def density(r):
            return mpmath.exp((2 * j + 1) * mpmath.log(r) - n * mpmath.mpf(pot.q(float(r))))

        masses = [(a, b, mpmath.quad(density, [a, b])) for a, b in zip(cuts[:-1], cuts[1:])]
        total = mpmath.fsum(m for _, _, m in masses)
        return np.array(
            [
                float(mpmath.fsum(m for a, b, m in masses if at.lo <= a and b <= at.hi) / total)
                for at in atoms
            ]
        )


# the oracle also cuts at t ± w, where q is smooth but not analytic, so no
# piece's integrand has a kink in a high derivative
@pytest.mark.parametrize(
    "pot_name,j,pieces",
    [("case1_pot", 63, 800), ("case2_pot", 31, 400), ("case2_pot", 32, 400)],
)
def test_region_probabilities_match_mpmath_oracle(request, pot_name, j, pieces):
    pot = request.getfixturevalue(pot_name)
    n = 64
    regions, _ = standard_regions(hg.droplet_data(pot), n=n)
    want = _oracle_landing_probabilities(pot, n, j, regions, pieces)
    got = region_probabilities(pot, n, j, regions)
    big = want >= 1e-30
    assert big.any()
    # measured worst: 3.4e-15 (case 1), 1.3e-14 (case 2)
    assert np.max(np.abs(got[big] - want[big]) / want[big]) <= 1e-10


def test_interval_shares_match_exact_reduction(ginibre_pot):
    # on fixed nodes, each share against the same densities summed exactly
    # by math.fsum; a difference of the in-region and total log masses,
    # both about -4.1e3 at n = 4096, errs by about 9e-13 here
    n = 4096
    regions = _ginibre_annuli()
    rows = engine.landing_matrix(ginibre_pot, n, regions).rows[::40]
    x, w = engine._full_grid(ginibre_pot, n, regions.edge_radii(), 1)
    _, shares = engine._interval_shares(ginibre_pot, n, rows, x, w, GINIBRE_ANNULI)
    phi = engine._log_weight(ginibre_pot, n, rows[:, None], x)
    dens = w * np.exp(phi - phi.max(axis=1, keepdims=True))
    for i, row in enumerate(dens):
        total = math.fsum(row)
        for k, (lo, hi) in enumerate(GINIBRE_ANNULI):
            want = math.fsum(row[(x > lo) & (x < hi)]) / total
            if want > 0.0:
                assert abs(shares[i, k] - want) <= 1e-14 * want


# --------------------------------------------------------------- count laws


def test_count_law_mass_accounting(case1_pot, case1_data):
    regions, _ = standard_regions(case1_data)
    law = exact_count_law(case1_pot, 96, regions)
    assert law.m == 2
    assert law.total_mass + law.mass_deficit == pytest.approx(1.0, abs=1e-12)
    assert law.mass_deficit <= 1e-12
    assert all(p > 0.0 for p in law.entries.values())


def test_count_law_all_covering_region(ginibre_pot):
    regions = RegionSet.hard([HardRegion(0.0, 6.0)])
    law = exact_count_law(ginibre_pot, 32, regions, cap=32)
    assert law.pmf((32,)) == pytest.approx(1.0, abs=1e-10)


def test_count_law_dead_zone(ginibre_pot):
    regions = RegionSet.hard([HardRegion(4.0, 5.0)])
    law = exact_count_law(ginibre_pot, 32, regions)
    assert law.pmf((0,)) == pytest.approx(1.0, abs=1e-12)


def test_count_law_no_regions(ginibre_pot):
    law = exact_count_law(ginibre_pot, 32, RegionSet.hard([]))
    assert law.m == 0
    assert law.entries == {(): 1.0}
    assert law.mass_deficit == 0.0


@pytest.mark.parametrize("cap", [(3,), (3, 3, 3), (-1, 2)])
def test_count_law_rejects_caps_of_the_wrong_shape(ginibre_pot, cap):
    # one cap per region, none negative: a short cap tuple used to give a
    # 1-coordinate law with all but 3e-9 of its mass missing
    regions = RegionSet.hard([HardRegion(0.9, 1.0), HardRegion(1.0, 1.1)])
    with pytest.raises(ValueError, match="caps must be 2 nonnegative integers"):
        exact_count_law(ginibre_pot, 16, regions, cap=cap)


def test_count_law_rejects_smooth(case1_pot, case1_data):
    regions, _ = standard_regions(case1_data, smooth=True)
    with pytest.raises(ValueError, match="hard"):
        exact_count_law(case1_pot, 64, regions)


def test_count_law_split_matches_per_index_probabilities(
    case2_pot, case2_bare_data
):
    # the split coordinate's law is the poisson-binomial over the per-index
    # landing probabilities of whichever branch is active at that index
    n = 48
    regions = standard_regions(case2_bare_data, n=n)[0]
    head = regions.entries[0]
    law = exact_count_law(case2_pot, n, regions, cap=n)
    pi = np.empty((n, 1))
    for j in range(n):
        branch = RegionSet.hard([head.above if j >= head.m0 else head.below])
        pi[j, 0] = region_probabilities(case2_pot, n, j, branch)[0]
    table, _ = hg.poisson_binomial_dp(pi, (n,))
    for a in range(n + 1):
        assert law.pmf((a,)) == pytest.approx(float(table[a]), abs=1e-13)


# ------------------------------------------------------- index localization


GINIBRE_ANNULI = ((0.985, 1.0), (1.0, 1.015), (1.015, 1.04))


def _ginibre_annuli():
    return RegionSet.hard(HardRegion(lo, hi) for lo, hi in GINIBRE_ANNULI)


def _localization_case(request, case, n):
    if case == "ginibre":
        return request.getfixturevalue("ginibre_pot"), _ginibre_annuli()
    pot = request.getfixturevalue(f"{case}_pot")
    regions, _ = standard_regions(request.getfixturevalue(f"{case}_data"), n=n)
    return pot, regions


@pytest.mark.parametrize(
    "case,n",
    [("case1", 512), ("case1", 4096), ("case2", 256), ("case2", 512), ("ginibre", 1024)],
)
def test_landing_matrix_localization_is_certified(request, case, n):
    # the oracle is π over every index, the route before localization
    pot, regions = _localization_case(request, case, n)
    lm = engine.landing_matrix(pot, n, regions)
    oracle = engine._region_prob_matrix(pot, n, regions, QuadratureConfig(), np.arange(n))[0]
    assert 0.0 < lm.bound <= 1e-15
    assert 0 < lm.rows.size < n
    assert lm.pi.tobytes() == oracle[lm.rows].tobytes()
    dropped = np.ones(n, dtype=bool)
    dropped[lm.rows] = False
    assert oracle[dropped].sum() <= lm.bound
    if case == "case2":
        # indices are dropped on both sides of the split, and kept across it
        m0 = regions.entries[0].m0
        assert 0 < lm.rows[0] < m0 <= lm.rows[-1] < n - 1


@pytest.mark.parametrize("n", [1024, 10_000])
def test_landing_matrix_ginibre_closed_form(ginibre_pot, n):
    # r^2 of modulus j is Gamma(j + 1, 1/n); each kept row is a difference
    # of regularized incomplete gammas, taken on whichever side avoids
    # cancellation
    lm = engine.landing_matrix(ginibre_pot, n, _ginibre_annuli())
    j = lm.rows[:, None] + 1.0
    lo, hi = n * np.array(GINIBRE_ANNULI).T ** 2
    want = np.where(
        gammainc(j, lo) > 0.5,
        gammaincc(j, lo) - gammaincc(j, hi),
        gammainc(j, hi) - gammainc(j, lo),
    )
    assert lm.bound <= 1e-15
    assert lm.pi == pytest.approx(want, rel=1e-9, abs=0.0)


def test_landing_matrix_spans():
    lm = engine.LandingMatrix(np.array([2, 3, 4, 7, 9, 10]), np.zeros((6, 1)), 0.0, 1, 32, 0.0)
    assert lm.spans() == ((2, 4), (7, 7), (9, 10))
    empty = engine.LandingMatrix(np.array([], dtype=int), np.zeros((0, 1)), 0.0, 0, 0, 0.0)
    assert empty.spans() == ()


def test_count_law_localized_within_bound(case1_pot, case1_data):
    # dropping the far indices moves the law by at most the bound, which
    # the deficit carries, and leaves the auto-chosen caps alone
    n = 512
    regions, _ = standard_regions(case1_data)
    lm = engine.landing_matrix(case1_pot, n, regions)
    law = exact_count_law(case1_pot, n, regions)
    pi = engine._region_prob_matrix(case1_pot, n, regions, QuadratureConfig(), np.arange(n))[0]
    full = hg.heine.dp_count_law(pi, 1e-12)
    assert law.cap == full.cap
    assert 0.5 * np.abs(law.table - full.table).sum() <= 1.5 * lm.bound + 1e-16
    assert law.mass_deficit >= lm.bound - 1e-16


def test_count_law_unlocalized_is_unchanged(ginibre_pot):
    # with every index kept the law is the all-rows DP, byte for byte
    n = 16
    regions = RegionSet.hard([HardRegion(0.3, 0.9)])
    lm = engine.landing_matrix(ginibre_pot, n, regions)
    assert lm.rows.tolist() == list(range(n)) and lm.bound == 0.0
    pi = engine._region_prob_matrix(ginibre_pot, n, regions, QuadratureConfig(), np.arange(n))[0]
    law = exact_count_law(ginibre_pot, n, regions)
    assert law.table.tobytes() == hg.heine.dp_count_law(pi, 1e-12).table.tobytes()


def test_count_law_large_n_bounded_memory():
    # at n = 10^5 only the indices near the outposts enter π and the DP.
    # On Linux a child's ru_maxrss keeps the forking parent's peak, so the
    # child reads the peak of its own address space (VmHWM) where it can.
    code = (
        "import os, resource, heinegas as hg\n"
        "from heinegas.engine import exact_count_law, landing_matrix, standard_regions\n"
        "pot = hg.build_case1((1.5, 2.0), w=(0.2, 0.2))\n"
        "regions, _ = standard_regions(hg.droplet_data(pot))\n"
        "law = exact_count_law(pot, 100_000, regions)\n"
        "lm = landing_matrix(pot, 100_000, regions)\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    for line in open('/proc/self/status'):\n"
        "        if line.startswith('VmHWM:'):\n"
        "            peak = int(line.split()[1])\n"
        "print(lm.rows.size, lm.bound, law.mass_deficit, peak)\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    rows, bound, deficit, maxrss_kb = int(out[0]), float(out[1]), float(out[2]), int(out[3])
    assert rows < 200
    assert bound <= 1e-15
    assert deficit <= 1e-12
    assert maxrss_kb < 1024 * 1024


def test_landing_matrix_density_memory():
    # a memory guard by measurement: one Ginibre landing matrix at n = 10^4
    # keeps 1190 rows on 13,440 nodes, a 128 MB density if held whole (the
    # traced peak when it was); one block at a time, the peak measured 1.6 MB
    pot = hg.ginibre()
    hg.droplet_data(pot)
    tracemalloc.start()
    try:
        lm = engine.landing_matrix(pot, 10_000, _ginibre_annuli())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    assert lm.rows.size * lm.nodes * 8 > 100 * 2**20


def _density_outputs():
    """Every reader of the density, on fresh potentials (the caches are
    keyed on the potential, so each call forms its density anew): π, its
    kept rows and B on the case-2 fixture and Ginibre annuli, the log norms
    of every index, the smooth MGF, and the sampler's table and radii."""
    out = []
    pot = hg.build_case2(((0.0, 1.0), (1.6, 2.2)), 0.5, t=(1.2, 1.4), w=(0.06, 0.06))
    data = hg.droplet_data(pot)
    for n in (256, 512):
        regions, eps = standard_regions(data, n=n)
        lm = engine.landing_matrix(pot, n, regions)
        smooth, _ = standard_regions(data, n=n, eps=eps, smooth=True)
        mgf = joint_mgf(pot, n, [1.0, -0.5, 0.5], smooth)
        out += [lm.rows, lm.pi, lm.bound, mgf.log_value]
    out.append(engine._log_norm_rows_full(pot, 512, tuple(range(512)), QuadratureConfig())[0])
    lm = engine.landing_matrix(hg.ginibre(), 4096, _ginibre_annuli())
    out += [lm.rows, lm.pi, lm.bound]
    pot = hg.build_case1((1.5, 2.0), w=(0.2, 0.2))
    table = engine._cell_table(pot, 64, QuadratureConfig())
    out += [table.mass, table.phi_max, sample_moduli(pot, 64, seed=3, reps=2).radii]
    return out


@pytest.fixture(scope="module")
def default_density_outputs():
    return _density_outputs()


@pytest.mark.parametrize("block", [1, 2**40])
def test_density_block_size_changes_no_bit(monkeypatch, default_density_outputs, block):
    # one row per block and one block for all rows give the default's
    # outputs bit for bit
    monkeypatch.setattr(engine, "_BLOCK_ELEMENTS", block)
    got = _density_outputs()
    assert len(got) == len(default_density_outputs)
    for a, b in zip(got, default_density_outputs):
        assert np.array_equal(a, b)


def test_count_correlation_with_non_nearest_outpost():
    # the paper's headline: an outpost's count is correlated with every
    # other outpost's, not only its neighbour's. Cov(N1, N3) is negative at
    # every n and converges to the Heine limit at rate 1/n.
    pot = hg.build_case1((1.4, 1.9, 2.4), w=(0.15,) * 3)
    data = hg.droplet_data(pot)
    cov_inf = hg.covariance_matrix(hg.case1(data, pot).heine)[0, 2]
    regions, _ = standard_regions(data)
    errors = []
    for n in (128, 512, 2048, 8192):
        cov = exact_count_law(pot, n, regions).covariance_matrix()[0, 2]
        assert cov < 0.0
        errors.append(abs(cov - cov_inf))
        assert 1e-3 <= n * errors[-1] <= 3e-3
    assert cov_inf < 0.0
    assert all(a >= 3.5 * b for a, b in zip(errors[:-1], errors[1:]))


# ------------------------------------------------------------------ the MGF


def test_joint_mgf_at_zero_is_one(case1_pot, case1_data):
    regions, _ = standard_regions(case1_data)
    res = joint_mgf(case1_pot, 64, np.zeros(2), regions)
    assert res.value == 1.0
    assert res.log_value == 0.0


def test_joint_mgf_matches_count_law(case1_pot, case1_data):
    regions, _ = standard_regions(case1_data)
    n = 96
    law = exact_count_law(case1_pot, n, regions)
    for s in (np.array([0.5, -0.5]), np.array([-1.0, 1.0])):
        direct = sum(
            p * math.exp(s[0] * a[0] + s[1] * a[1]) for a, p in law.entries.items()
        )
        res = joint_mgf(case1_pot, n, s, regions)
        slack = law.mass_deficit * math.exp(float(np.abs(s).sum()) * n)
        assert res.value == pytest.approx(direct, rel=1e-8, abs=slack)


def test_joint_mgf_input_validation(case1_pot, case1_data):
    regions, _ = standard_regions(case1_data)
    with pytest.raises(ValueError, match="length"):
        joint_mgf(case1_pot, 64, np.zeros(3), regions)
    with pytest.raises(ValueError, match="out of range"):
        joint_mgf(case1_pot, 64, np.array([10.0, 0.0]), regions)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_joint_mgf_rejects_non_finite_s(case1_pot, case1_data, bad):
    regions, _ = standard_regions(case1_data)
    with pytest.raises(ValueError, match="finite"):
        joint_mgf(case1_pot, 64, np.array([bad, 0.0]), regions)


def test_smooth_and_hard_mgf_agree_in_the_limit(case1_pot, case1_data):
    # the two statistics share their limit law, so the gap must shrink
    s = np.array([0.7, -0.4])
    gaps = []
    for n in (32, 64, 128, 256):
        hard, _ = standard_regions(case1_data, n=n)
        smooth, _ = standard_regions(case1_data, n=n, smooth=True)
        vh = joint_mgf(case1_pot, n, s, hard).value
        vs = joint_mgf(case1_pot, n, s, smooth).value
        gaps.append(abs(vs - vh))
    assert all(a > b for a, b in zip(gaps[:-1], gaps[1:]))
    assert gaps[-1] < 1e-4


@pytest.mark.parametrize("n", [64, 256])
def test_hard_joint_mgf_ginibre_closed_form(ginibre_pot, n):
    # modulus j of the Ginibre ensemble has r^2 ~ Gamma(j + 1, 1/n), so its
    # annulus probabilities are differences of regularized incomplete gammas
    annuli = [(0.9, 0.98), (0.98, 1.02), (1.02, 1.2)]
    regions = RegionSet.hard(HardRegion(lo, hi) for lo, hi in annuli)
    j = np.arange(n)[:, None]
    lo, hi = np.array(annuli).T
    pi = gammainc(j + 1, n * hi**2) - gammainc(j + 1, n * lo**2)
    for s in ([-1.0, 0.5, 1.0], [1.0, 1.0, -1.0], [0.3, -0.7, 0.2]):
        want = math.prod(1.0 + pi @ np.expm1(s))
        res = joint_mgf(ginibre_pot, n, np.array(s), regions)
        assert res.value == pytest.approx(want, rel=1e-10)
        assert res.remainder_bound == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize(
    "case,smooth",
    [("case1", False), ("case2", False), ("case1", True), ("case2", True)],
    ids=["case1", "case2", "case1-smooth", "case2-smooth"],
)
def test_hard_joint_mgf_matches_quadrature_route(request, weighted_log_norms, case, smooth):
    # hard and smooth statistics share one MGF route, the landing kernel;
    # its oracle is Σ_j [log_norm(j, s) − log_norm(j, 0)] with the
    # statistics put into the quadrature exponent
    n = 64
    pot = request.getfixturevalue(f"{case}_pot")
    regions, _ = standard_regions(request.getfixturevalue(f"{case}_data"), n=n, smooth=smooth)
    cfg = QuadratureConfig()
    base = weighted_log_norms(pot, n, cfg=cfg)
    for s in itertools.product((-1.0, 0.0, 1.0), repeat=regions.m):
        want = float((weighted_log_norms(pot, n, s, regions, cfg) - base).sum())
        res = joint_mgf(pot, n, np.array(s), regions, cfg)
        assert res.value == pytest.approx(math.exp(want), rel=1e-10)
        assert res.remainder_bound == pytest.approx(0.0, abs=1e-12)


def test_plain_shoulder_joint_mgf_matches_quadrature_route(case1_pot, weighted_log_norms):
    # a shoulder needs no split around it: one beyond both outposts counts
    # every modulus that escapes past 1.8
    n = 64
    regions = RegionSet.smooth([BumpSpec(1.5, 0.1), Shoulder(1.7, 1.8, keep_below=False)])
    base = weighted_log_norms(case1_pot, n)
    for s in itertools.product((-1.0, 0.0, 1.0), repeat=2):
        want = float((weighted_log_norms(case1_pot, n, s, regions) - base).sum())
        res = joint_mgf(case1_pot, n, np.array(s), regions)
        assert res.value == pytest.approx(math.exp(want), rel=1e-10)
        assert res.remainder_bound == pytest.approx(0.0, abs=1e-12)


def _mp_smoothstep(mpmath, u):
    """η(u) / (η(u) + η(1 − u)) with η(u) = e^(−1/u) for u > 0, else 0."""
    if u <= 0:
        return mpmath.mpf(0)
    if u >= 1:
        return mpmath.mpf(1)
    a, b = mpmath.exp(-1 / u), mpmath.exp(-1 / (1 - u))
    return a / (a + b)


def _oracle_tilted_share(pot, n, j, spec, sk, pieces):
    """E[e^(s h(r)) − 1] for modulus j and one bump or shoulder ``spec`` by
    mpmath.quad at 30 digits, with h written out from its definition.

    h is C-infinity but not analytic at the ends of its roll bands, where
    tanh-sinh converges slowly, so each band is cut into 64 pieces; the
    rest is cut as ``_oracle_cuts`` does."""
    mpmath = pytest.importorskip("mpmath")
    if isinstance(spec, Shoulder):
        bands = [(spec.lo, spec.hi)]
        support = (0.0, spec.hi) if spec.keep_below else (spec.lo, math.inf)

        def h(r):
            up = _mp_smoothstep(mpmath, (r - spec.lo) / (spec.hi - spec.lo))
            return 1 - up if spec.keep_below else up
    else:
        t, eps = spec.center, spec.half_width
        bands = [(t - eps, t - eps / 2), (t + eps / 2, t + eps)]
        support = (t - eps, t + eps)

        def h(r):
            rise = _mp_smoothstep(mpmath, (r - (t - eps)) / (eps / 2))
            return rise * _mp_smoothstep(mpmath, ((t + eps) - r) / (eps / 2))

    cuts = _oracle_cuts(pot, pieces, [c for a, b in bands for c in np.linspace(a, b, 65)])
    pairs = list(zip(cuts[:-1], cuts[1:]))
    with mpmath.workdps(30):
        def density(r):
            return mpmath.exp((2 * j + 1) * mpmath.log(r) - n * mpmath.mpf(pot.q(float(r))))

        def tilted(r):
            return density(r) * mpmath.expm1(sk * h(r))

        total = mpmath.fsum(mpmath.quad(density, [a, b]) for a, b in pairs)
        part = mpmath.fsum(
            mpmath.quad(tilted, [a, b]) for a, b in pairs if support[0] <= a and b <= support[1]
        )
        return float(part / total)


# one bump factor (case 1, the top index at the first outpost) and the
# case-2 gap-edge shoulder on both sides of the index split m0 = 32
@pytest.mark.parametrize(
    "pot_name,j,k,sk,pieces",
    [
        ("case1_pot", 63, 0, 1.0, 800),
        ("case2_pot", 31, 0, 1.0, 200),
        ("case2_pot", 32, 0, -1.0, 200),
    ],
)
def test_smooth_mgf_factor_matches_mpmath_oracle(request, pot_name, j, k, sk, pieces):
    pot = request.getfixturevalue(pot_name)
    n = 64
    stats, _ = standard_regions(hg.droplet_data(pot), n=n, smooth=True)
    s = np.zeros(stats.m)
    s[k] = sk
    want = _oracle_tilted_share(pot, n, j, stats.resolve(k, j), sk, pieces)
    psi = engine._region_prob_matrix(pot, n, stats, QuadratureConfig(), np.array([j]), s)[0]
    assert np.count_nonzero(psi[0]) == 1
    assert abs(want) > 0.05
    # measured worst: 1.4e-13 (bump), 1.3e-14 (shoulder)
    assert abs(psi[0, k] - want) <= 1e-10 * abs(want)


def test_sampler_builds_its_cell_table_once(monkeypatch):
    # the cell table depends only on (potential, n, cfg): two samples of one
    # potential share one table, and their radii equal a fresh potential's
    builds = []
    real = engine._grid_panels

    def counting(*args):
        builds.append(args)
        return real(*args)

    def fresh():
        return hg.build_case1((1.5, 2.0), w=(0.2, 0.2))

    n = 64
    pot = fresh()
    monkeypatch.setattr(engine, "_grid_panels", counting)
    first = sample_moduli(pot, n, seed=1)
    built = len(builds)
    second = sample_moduli(pot, n, seed=2)
    assert built >= 1 and len(builds) == built
    monkeypatch.setattr(engine, "_grid_panels", real)
    for seed, got in ((1, first), (2, second)):
        assert np.array_equal(sample_moduli(fresh(), n, seed=seed).radii, got.radii)


def test_sampler_table_over_budget_raises_before_the_log_norm_pass(monkeypatch):
    # a fresh potential, so no cached table hides the check; the cells at
    # one split already exceed the budget, so the all-n log norms never run
    def log_norms(*args):
        raise AssertionError("log norm pass ran")

    monkeypatch.setattr(engine, "_TABLE_ELEMENTS", 1000)
    monkeypatch.setattr(engine, "_log_norm_rows_full", log_norms)
    with pytest.raises(engine.QuadratureError, match="above the limit of 1,000") as err:
        sample_moduli(hg.ginibre(), 64, seed=1)
    assert "sampler table too large at n=64" in str(err.value)


def test_sampler_table_over_budget_at_converged_splits(monkeypatch):
    # a budget that fits the one-split cells passes the first check; the
    # log norms converge at two or more splits, whose cells do not fit
    pot, n = hg.ginibre(), 64
    one_split = engine._grid_panels(pot, n, (), 1)[0].size * engine._CELL_PARTS
    monkeypatch.setattr(engine, "_TABLE_ELEMENTS", n * one_split)
    with pytest.raises(engine.QuadratureError, match="sampler table too large") as err:
        sample_moduli(pot, n, seed=1)
    cells = int(str(err.value).split(": ")[1].split(" cells")[0].replace(",", ""))
    assert cells >= 2 * one_split


def _whole_row_cell_table(pot, n):
    """(mass, phi_max) of the sampler's cells with every row's density
    formed on all nodes by _density_blocks and summed per cell: the table
    without live bands."""
    splits = engine._log_norm_rows_full(pot, n, tuple(range(n)), QuadratureConfig())[1]
    lo, hi = engine._subdivide(*engine._grid_panels(pot, n, (), splits), engine._CELL_PARTS)
    x, half = engine._gl_panels(lo, hi, engine._GL32)
    w = half[:, None] * engine._GL32[1]
    mass, phi_max = np.empty((n, lo.size)), np.empty(n)
    rows = np.arange(n, dtype=float)
    for part, top, cols, dens in engine._density_blocks(pot, n, rows, x.ravel(), w.ravel()):
        assert cols == slice(0, x.size)
        phi_max[part] = top
        mass[part] = dens.reshape(top.size, lo.size, -1).sum(axis=2)
    return mass, phi_max


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("pot_name", ["ginibre_pot", "case1_pot", "case2_pot"])
def test_sampler_table_bands_change_no_bit(request, pot_name, n):
    # each row's density is formed on its live band of cells only; the
    # table equals the whole-row one bit for bit; at n = 1024 a third to
    # three quarters of the cells lie outside the bands
    pot = request.getfixturevalue(pot_name)
    table = engine._cell_table(pot, n, QuadratureConfig())
    mass, phi_max = _whole_row_cell_table(pot, n)
    assert np.array_equal(table.mass, mass)
    assert np.array_equal(table.phi_max, phi_max)
    nonzero = table.mass > 0.0
    first = nonzero.argmax(axis=1)
    last = nonzero.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
    assert nonzero.any(axis=1).all()
    assert np.all(np.diff(first) >= 0) and np.all(np.diff(last) >= 0)
    if n == 1024:
        assert not nonzero.all()


def test_engine_caches_free_their_potential():
    pot = hg.ginibre()
    hard = RegionSet.hard([HardRegion(0.9, 1.1)])
    smooth = RegionSet.smooth([BumpSpec(1.0, 0.1)])
    exact_count_law(pot, 32, hard)
    joint_mgf(pot, 32, np.array([0.5]), hard)
    joint_mgf(pot, 32, np.array([0.5]), smooth)
    ref = weakref.ref(pot)
    del pot
    gc.collect()
    assert ref() is None


# ----------------------------------------------------------------- sampling


def test_sampler_deterministic(ginibre_pot):
    a = sample_moduli(ginibre_pot, 32, seed=7)
    b = sample_moduli(ginibre_pot, 32, seed=7)
    c = sample_moduli(ginibre_pot, 32, seed=8)
    assert np.array_equal(a.radii, b.radii)
    assert not np.array_equal(a.radii, c.radii)
    assert a.law_truncation == 0.0


def test_sampler_reps_batching_consistent(ginibre_pot):
    # substream per index: batched draws extend, never reshuffle
    one = sample_moduli(ginibre_pot, 16, seed=3, reps=1)
    many = sample_moduli(ginibre_pot, 16, seed=3, reps=4)
    assert many.radii.shape == (4, 16)
    assert np.array_equal(many.radii[0], one.radii)


def test_sampler_radius_independent_of_draw_count(case1_pot):
    # a draw's radius is bitwise the same whatever the number of draws
    # inverted with it; a residual summed by BLAS @ can change with it
    n = 128
    one, some, many = (sample_moduli(case1_pot, n, seed=3, reps=r).radii for r in (1, 37, 3000))
    assert many.shape == (3000, n)
    assert np.array_equal(many[0], one)
    assert np.array_equal(many[:37], some)


def test_sampler_chunks_change_no_radius(ginibre_pot, monkeypatch):
    # draws × 8-node arrays of at most 40 elements: chunks of 5 draws
    whole = sample_moduli(ginibre_pot, 16, seed=4, reps=37).radii
    monkeypatch.setattr(engine, "_BLOCK_ELEMENTS", 40)
    assert np.array_equal(sample_moduli(ginibre_pot, 16, seed=4, reps=37).radii, whole)


def test_sampler_rejects_too_many_draws_before_quadrature(monkeypatch):
    # no potential is read: the check comes before any quadrature
    monkeypatch.setattr(engine, "_TABLE_ELEMENTS", 1000)
    want = r"reps=16 draws of n=64 moduli need 1,024 radii, above the limit of 1,000"
    with pytest.raises(ValueError, match=want):
        sample_moduli(None, 64, seed=1, reps=16)


def test_sampler_ginibre_moments(ginibre_pot):
    # modulus j has r^2 ~ Gamma(j+1, 1/n): mean (j+1)/n, var (j+1)/n^2
    n, reps = 64, 2000
    sample = sample_moduli(ginibre_pot, n, seed=11, reps=reps)
    sq = sample.radii**2
    for j in (0, 20, 40, 63):
        mean = sq[:, j].mean()
        want = (j + 1) / n
        se = math.sqrt(j + 1) / n / math.sqrt(reps)
        assert abs(mean - want) <= 4.0 * se


def test_sampler_case1_outpost_occupancy(case1_pot, case1_data):
    # occupancy frequencies of the top index must match its landing law
    regions, _ = standard_regions(case1_data)
    n, reps = 64, 4000
    sample = sample_moduli(case1_pot, n, seed=5, reps=reps)
    pi = region_probabilities(case1_pot, n, n - 1, regions)
    top = sample.radii[:, n - 1]
    for k, region in enumerate(regions.entries):
        freq = np.mean((top > region.lo) & (top < region.hi))
        se = math.sqrt(max(pi[k] * (1 - pi[k]), 1e-12) / reps)
        assert abs(freq - pi[k]) <= 4.0 * se + 1e-9


def test_sampler_input_validation(ginibre_pot):
    with pytest.raises(ValueError, match="n must be"):
        sample_moduli(ginibre_pot, 0, seed=1)
    # the check comes before any quadrature
    with pytest.raises(ValueError, match="n must be >= 2"):
        sample_moduli(None, 1, seed=1)
    with pytest.raises(ValueError, match="reps"):
        sample_moduli(ginibre_pot, 4, seed=1, reps=0)


# radii of sample_moduli(pot, 32, seed, reps=4) recorded before the sampler's
# density, panel mapping and cell refinement were shared with the quadrature:
# columns j = 0, 16, 31 and the per-replica sums over all j. Case 1, j = 0,
# replica 0 is re-recorded at the point the inverse checked: in the mpmath
# CDF of test_sampler_inverse_matches_mpmath_oracle it misses its uniform by
# 1.2e-16, the earlier pin (0.4677963900098143) by 3.5e-11.
PINNED_RADII = {
    ("ginibre_pot", 2024): (
        {
            0: [0.18126730969771143, 0.15351184431008125,
                0.07558748829634478, 0.18511967137327162],
            16: [0.6671481756726261, 0.6930717651324956,
                 0.801847868312654, 0.7767591925693513],
            31: [0.9787076655485014, 0.9679207428684651,
                 0.8082575538343724, 1.071524100127959],
        },
        [20.58063387925365, 21.10943070428371, 20.93755491491414, 22.314894224181195],
    ),
    ("case1_pot", 2025): (
        {
            0: [0.46779638872868323, 0.17098006096944407,
                0.036366734793485705, 0.06732742121121706],
            16: [0.5650632547335606, 0.8643235498725397,
                 0.778739834668843, 0.7602428971621682],
            31: [0.9098489857311338, 1.036384941541163,
                 1.0934293481116542, 1.0838090475870783],
        },
        [22.195449418726323, 21.91427756700577, 22.1805882670242, 21.391667045068864],
    ),
}


@pytest.mark.parametrize("pot_name,seed", list(PINNED_RADII))
def test_sampler_pinned_radii(request, pot_name, seed):
    columns, sums = PINNED_RADII[(pot_name, seed)]
    radii = sample_moduli(request.getfixturevalue(pot_name), 32, seed, reps=4).radii
    for j, want in columns.items():
        assert radii[:, j] == pytest.approx(want, rel=1e-9)
    assert radii.sum(axis=1) == pytest.approx(sums, rel=1e-9)


def _nonanalytic_radii(pot):
    """Radii where q is smooth but not analytic: the bump edges t ± w and,
    for case 2, the component edges and the ends of the gap's step ramps."""
    p = pot.params
    out = [t + s * w for t, w in zip(p.get("t", ()), p.get("w", ())) for s in (-1, 1)]
    if pot.label == "case2":
        (_, b0), (a1, _) = p["components"]
        ramps = (0.15, 0.25, 0.30, 0.45, 0.55, 0.70, 0.75, 0.85)
        out += [b0, a1] + [b0 + u * (a1 - b0) for u in ramps]
    return out


def _oracle_cdf(pot, n, j, xs, pieces=24):
    """F(x) for each x in xs: mpmath.quad at 30 digits of r^(2j+1) e^(-n q)
    over the full range [1e-9, r_max], in equal pieces cut further at the
    radii where q is not analytic and at each x. It reads no engine grid;
    with 300 pieces instead of 24 the CDFs move by at most 5e-16."""
    mpmath = pytest.importorskip("mpmath")
    lo, hi = 1e-9, pot.r_max
    cuts = {*np.linspace(lo, hi, pieces + 1).tolist(), *xs}
    cuts = sorted(cuts | {b for b in _nonanalytic_radii(pot) if lo < b < hi})
    with mpmath.workdps(30):
        def density(r):
            return mpmath.exp((2 * j + 1) * mpmath.log(r) - n * mpmath.mpf(pot.q(float(r))))

        cum = [mpmath.mpf(0)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            cum.append(cum[-1] + mpmath.quad(density, [a, b]))
        return [float(cum[cuts.index(x)] / cum[-1]) for x in xs]


# the returned radius against the law it samples, by an integration that
# shares no code with the sampler; an inverse that returns unchecked points
# misses by up to 6e-11 here. Case 1, j = 31 has the bump edge r = t - w =
# 1.3 inside its peak, and the case-2 indices sit next to the gap edges
# (m0 = n/2) and reach the outposts; 16-point cell masses over peak windows
# missed them by 2.8e-11 (case 1) and up to 8.2e-8 (case 2). Measured worst
# 1.0e-15.
CDF_CASES = [
    *[("ginibre_pot", 2024, j, 32) for j in (0, 16, 31)],
    *[("case1_pot", 2025, j, 32) for j in (0, 16, 31)],
    *[("case2_pot", 2026, j, 32) for j in (0, 16, 21, 31)],
    ("case2_pot", 2026, 33, 64),
    ("case2_pot", 2026, 85, 128),
]


@pytest.mark.parametrize(
    "pot_name,seed,j,n",
    CDF_CASES,
    ids=[f"{p}-{s}-{j}" + ("" if n == 32 else f"-n{n}") for p, s, j, n in CDF_CASES],
)
def test_sampler_inverse_matches_mpmath_oracle(request, pot_name, seed, j, n):
    pot = request.getfixturevalue(pot_name)
    reps = 4
    radii = sample_moduli(pot, n, seed, reps=reps).radii[:, j]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,))))
    u = rng.random(reps)
    cdf = _oracle_cdf(pot, n, j, list(radii))
    assert np.max(np.abs(np.array(cdf) - u)) <= 1e-14


def test_sampler_q_evaluation_count(case1_pot):
    # a work guard by count, not time: q-evaluation points of one warm call,
    # the inverse alone (the cell table is cached), measured at 140,638;
    # per-index cell tables rebuilt on every call took 1,358,886
    calls = []

    def terms(r, order):
        calls.append((order, r.size))
        return case1_pot.terms(r, order)

    pot = hg.RadialPotential(
        terms, r_max=case1_pot.r_max,
        label=case1_pot.label, params=case1_pot.params,
    )
    sample_moduli(pot, 32, seed=5)  # builds the cell table
    calls.clear()
    sample_moduli(pot, 32, seed=5, reps=200)
    q_points = sum(size for order, size in calls if order == 0)
    assert q_points <= 1.1 * 140_638


def test_sampler_raises_when_the_inverse_cannot_converge(ginibre_pot, monkeypatch):
    # a residual gate below rounding leaves every draw unconverged
    monkeypatch.setattr(engine, "_CDF_TOL", 0.0)
    with pytest.raises(engine.QuadratureError, match=r"residual .* above the 0e\+00 gate"):
        sample_moduli(ginibre_pot, 4, seed=1)


def test_moduli_csv_roundtrip(tmp_path, ginibre_pot):
    sample = sample_moduli(ginibre_pot, 8, seed=2, reps=3)
    path = tmp_path / "draws.csv"
    moduli_to_csv(sample, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "r"]
    assert len(rows) == 1 + 3 * 8
    j0, r0 = rows[1]
    assert int(j0) == 0
    assert float(r0) == sample.radii[0, 0]
