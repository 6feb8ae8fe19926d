"""Quadrature engine, count laws, standard statistics, and the sampler."""

import csv
import gc
import itertools
import math
import os
import subprocess
import sys
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


def test_log_norm_windowed_matches_full(case1_pot, case2_pot):
    cfg_full = QuadratureConfig(mode="full")
    cfg_win = QuadratureConfig(mode="windowed")
    n = 128
    for pot in (case1_pot, case2_pot):
        for j in (0, 40, 63, 64, 100, 127):
            a = log_norm(pot, n, j, cfg=cfg_full)
            b = log_norm(pot, n, j, cfg=cfg_win)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_log_norm_both_mode_cross_checks(case1_pot):
    cfg = QuadratureConfig(mode="both")
    val = log_norm(case1_pot, 64, 50, cfg=cfg)
    assert val == pytest.approx(log_norm(case1_pot, 64, 50), rel=1e-12)


def test_quadrature_config_validation():
    with pytest.raises(ValueError, match="mode"):
        QuadratureConfig(mode="fast")
    with pytest.raises(ValueError, match="tolerances"):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError, match="window constant"):
        QuadratureConfig(window_constant=0.5)


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


# ------------------------------------------------------------------ regions


def test_region_set_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        RegionSet.hard([HardRegion(1.3, 1.7), HardRegion(1.4, 1.8)])


def test_region_set_rejects_mixed_kind():
    with pytest.raises(ValueError, match="hard statistics"):
        RegionSet.hard([BumpSpec(1.5, 0.1)])
    with pytest.raises(ValueError, match="smooth statistics"):
        RegionSet.smooth([HardRegion(1.3, 1.7)])
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
    assert rs.group_key(4) == (False,)
    assert rs.group_key(5) == (True,)


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
    oracle = engine._region_prob_matrix(pot, n, regions, QuadratureConfig(), np.arange(n))
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
    lm = engine.LandingMatrix(np.array([2, 3, 4, 7, 9, 10]), np.zeros((6, 1)), 0.0)
    assert lm.spans() == ((2, 4), (7, 7), (9, 10))
    assert engine.LandingMatrix(np.array([], dtype=int), np.zeros((0, 1)), 0.0).spans() == ()


def test_count_law_localized_within_bound(case1_pot, case1_data):
    # dropping the far indices moves the law by at most the bound, which
    # the deficit carries, and leaves the auto-chosen caps alone
    n = 512
    regions, _ = standard_regions(case1_data)
    lm = engine.landing_matrix(case1_pot, n, regions)
    law = exact_count_law(case1_pot, n, regions)
    pi = engine._region_prob_matrix(case1_pot, n, regions, QuadratureConfig(), np.arange(n))
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
    pi = engine._region_prob_matrix(ginibre_pot, n, regions, QuadratureConfig(), np.arange(n))
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


def test_joint_mgf_tail_restriction(case1_pot, case1_data):
    regions, _ = standard_regions(case1_data)
    s = np.array([0.7, -0.4])
    full = joint_mgf(case1_pot, 128, s, regions)
    tail = joint_mgf(case1_pot, 128, s, regions, restrict="tail")
    assert tail.remainder_bound >= 0.0
    assert abs(tail.value - full.value) <= 1e-9 + tail.remainder_bound


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
@pytest.mark.parametrize("restrict", [None, "tail"])
def test_hard_joint_mgf_ginibre_closed_form(ginibre_pot, n, restrict):
    # modulus j of the Ginibre ensemble has r^2 ~ Gamma(j + 1, 1/n), so its
    # annulus probabilities are differences of regularized incomplete gammas
    annuli = [(0.9, 0.98), (0.98, 1.02), (1.02, 1.2)]
    regions = RegionSet.hard(HardRegion(lo, hi) for lo, hi in annuli)
    j = np.arange(n)[:, None]
    lo, hi = np.array(annuli).T
    pi = gammainc(j + 1, n * hi**2) - gammainc(j + 1, n * lo**2)
    L = math.ceil(QuadratureConfig().window_constant * math.log(n))
    kept = np.arange(n) >= (n - L if restrict == "tail" else 0)
    for s in ([-1.0, 0.5, 1.0], [1.0, 1.0, -1.0], [0.3, -0.7, 0.2]):
        factors = 1.0 + pi @ np.expm1(s)
        want = math.prod(factors[kept])
        dropped = abs(float(np.log(factors[~kept]).sum()))
        res = joint_mgf(ginibre_pot, n, np.array(s), regions, restrict=restrict)
        assert res.value == pytest.approx(want, rel=1e-10)
        assert res.remainder_bound == pytest.approx(dropped, rel=1e-10, abs=1e-13)
        assert res.terms == int(kept.sum())


def _quadrature_log_mgf(pot, n, s, stats, cfg, kept):
    # Σ_j [log_norm(j, s) − log_norm(j, 0)] with the hard indicators put
    # into the quadrature exponent, the route the landing matrix replaces
    j_all = tuple(range(n))
    wtd = engine._log_norm_rows_full(pot, n, j_all, tuple(s), stats, cfg)
    base = engine._log_norm_rows_full(pot, n, j_all, (), None, cfg)
    delta = np.asarray(wtd) - np.asarray(base)
    return float(delta[kept].sum()), abs(float(delta[~kept].sum()))


@pytest.mark.parametrize("case", ["case1", "case2", "case2-split"])
def test_hard_joint_mgf_matches_quadrature_route(request, case):
    n = 64
    kind = case.split("-")[0]
    pot = request.getfixturevalue(f"{kind}_pot")
    regions, _ = standard_regions(request.getfixturevalue(f"{kind}_data"), n=n)
    kept = np.ones(n, dtype=bool)
    restrict = None
    cfg = QuadratureConfig()
    if case == "case2-split":
        # a small window constant so the split window drops indices at n=64
        cfg = QuadratureConfig(window_constant=3.0)
        restrict = "split"
        L = math.ceil(cfg.window_constant * math.log(n))
        m0 = regions.entries[0].m0
        kept = np.abs(np.arange(n) - m0) <= L
        assert not kept.all()
    for s in itertools.product((-1.0, 0.0, 1.0), repeat=regions.m):
        want, dropped = _quadrature_log_mgf(pot, n, s, regions, cfg, kept)
        res = joint_mgf(pot, n, np.array(s), regions, cfg, restrict=restrict)
        assert res.value == pytest.approx(math.exp(want), rel=1e-10)
        assert res.remainder_bound == pytest.approx(dropped, rel=1e-10, abs=1e-12)


def test_windowed_mgf_caches_peak_windows(monkeypatch):
    # peak windows depend only on (potential, n, j, cfg): the base and the
    # weighted rows of every s share one find_peaks per index
    calls = []
    real = engine.find_peaks

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    def fresh():
        pot = hg.build_case1((1.5, 2.0), w=(0.2, 0.2))
        return pot, standard_regions(hg.droplet_data(pot), n=64, smooth=True)[0]

    cfg = QuadratureConfig(mode="windowed")
    s1, s2 = np.array([0.5, -0.5]), np.array([-1.0, 1.0])
    pot, smooth = fresh()
    monkeypatch.setattr(engine, "find_peaks", counting)
    first = joint_mgf(pot, 64, s1, smooth, cfg)
    second = joint_mgf(pot, 64, s2, smooth, cfg)
    assert len(calls) <= 64
    monkeypatch.setattr(engine, "find_peaks", real)
    for s, got in ((s1, first), (s2, second)):
        ref_pot, ref_smooth = fresh()
        ref = joint_mgf(ref_pot, 64, s, ref_smooth, cfg)
        assert (got.value, got.log_value) == (ref.value, ref.log_value)


def test_engine_caches_free_their_potential():
    pot = hg.ginibre()
    hard = RegionSet.hard([HardRegion(0.9, 1.1)])
    smooth = RegionSet.smooth([BumpSpec(1.0, 0.1)])
    exact_count_law(pot, 32, hard)
    joint_mgf(pot, 32, np.array([0.5]), hard)
    joint_mgf(pot, 32, np.array([0.5]), smooth, QuadratureConfig(mode="both"))
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
    assert a.law_truncation <= 1e-9


def test_sampler_reps_batching_consistent(ginibre_pot):
    # substream per index: batched draws extend, never reshuffle
    one = sample_moduli(ginibre_pot, 16, seed=3, reps=1)
    many = sample_moduli(ginibre_pot, 16, seed=3, reps=4)
    assert many.radii.shape == (4, 16)
    assert np.array_equal(many.radii[0], one.radii)


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
    # n = 1 leaves no peak window; the check comes before any quadrature
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


def _oracle_window_cdf(pot, n, j, xs, breaks):
    """F_win(x) for each x in xs: mpmath.quad at 30 digits of r^(2j+1) e^(-n q)
    over index j's merged peak windows (the union of its sampler cells),
    split at the peaks, at ``breaks`` and at each x."""
    mpmath = pytest.importorskip("mpmath")
    lo, hi, _, _ = engine._cells_for_index(pot, n, j, QuadratureConfig())
    starts = lo[np.r_[True, lo[1:] != hi[:-1]]]
    ends = hi[np.r_[hi[:-1] != lo[1:], True]]
    peaks = [r0 for r0, _ in engine._windows_for_index(pot, n, j, QuadratureConfig())]
    cuts = sorted({*starts, *ends, *peaks, *breaks, *xs})
    with mpmath.workdps(30):
        def density(r):
            return mpmath.exp((2 * j + 1) * mpmath.log(r) - n * mpmath.mpf(pot.q(float(r))))

        cum = [mpmath.mpf(0)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            inside = any(s <= a and b <= e for s, e in zip(starts, ends))
            cum.append(cum[-1] + (mpmath.quad(density, [a, b]) if inside else 0))
        return [float(cum[cuts.index(x)] / cum[-1]) for x in xs]


# the returned radius against the law it samples, by an integration that
# shares no code with the inverse; an inverse that returns unchecked points
# misses by up to 6e-11 here. Case 1, j = 31 fails on the cell table, not the
# inverse: the 16-point mass of the cell [1.289, 1.341] straddling the edge
# r = t - w = 1.3 of the outpost bump is 4.6e-11 of the window mass too high.
@pytest.mark.parametrize(
    "pot_name,seed,j",
    [
        *[("ginibre_pot", 2024, j) for j in (0, 16, 31)],
        *[("case1_pot", 2025, j) for j in (0, 16)],
        pytest.param(
            "case1_pot", 2025, 31,
            marks=pytest.mark.xfail(strict=True, reason="cell-table quadrature error 4.6e-11"),
        ),
    ],
)
def test_sampler_inverse_matches_mpmath_oracle(request, pot_name, seed, j):
    pot = request.getfixturevalue(pot_name)
    n, reps = 32, 4
    radii = sample_moduli(pot, n, seed, reps=reps).radii[:, j]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,))))
    u = rng.random(reps)
    # the bump windows of case 1 end at t ± w, where q is smooth but not analytic
    breaks = [t + s * w for t, w in zip(pot.params.get("t", ()), pot.params.get("w", ())) for s in (-1, 1)]
    cdf = _oracle_window_cdf(pot, n, j, list(radii), breaks)
    # the worst miss of the passing cases measured 1.0e-15
    assert np.max(np.abs(np.array(cdf) - u)) <= 1e-14


def test_sampler_q_evaluation_count(case1_pot):
    # a work guard by count, not time: q-evaluation points of one warm call,
    # measured at 1,358,886; an inverse that kicks converged draws back to
    # their bracket midpoint and bisects them takes 1,857,088
    calls = []

    def terms(r, order):
        calls.append((order, r.size))
        return case1_pot.terms(r, order)

    pot = hg.RadialPotential(
        terms, smooth_window=case1_pot.smooth_window, r_max=case1_pot.r_max,
        label=case1_pot.label, params=case1_pot.params,
    )
    sample_moduli(pot, 32, seed=5)  # warms the peak and grid caches
    calls.clear()
    sample_moduli(pot, 32, seed=5, reps=200)
    q_points = sum(size for order, size in calls if order == 0)
    assert q_points <= 1.1 * 1_358_886


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
