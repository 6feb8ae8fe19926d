"""Multi-dimensional Heine count laws: pmf, MGF, moments, sampling.

The reference oracle here is a from-scratch site-product enumeration: the
law is a sum over independent site categoricals with success weights
theta_k q_k^j, so a plain python DP over sites must reproduce pmf_table to
near machine precision.
"""

import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import heinegas as hg
from heinegas import engine, heine
from heinegas.heine import (
    CoordinateMap,
    convolve_mapped,
    identity_map,
    marginal_cap,
    poisson_binomial_dp,
    site_probabilities,
    truncation_site_count,
)
from heinegas.qseries import heine_pmf_1d

GRID_1D = [
    ((th,), (q,)) for th in (0.5, 1.0, 2.0) for q in (0.3, 0.5, 0.8)
]
GRID_2D = [
    ((0.5, 2.0), (0.3, 0.8)),
    ((1.0, 1.0), (0.5, 0.5)),
    ((2.0, 0.5), (0.8, 0.3)),
]


def oracle_table(thetas, qs, sites, caps):
    """Site-by-site DP in plain python floats, no library code."""
    m = len(thetas)
    table = {(0,) * m: 1.0}
    for j in range(sites):
        weights = [thetas[k] * qs[k] ** j for k in range(m)]
        z = 1.0 + sum(weights)
        nxt = {}
        for alpha, p in table.items():
            nxt[alpha] = nxt.get(alpha, 0.0) + p / z
            for k in range(m):
                if alpha[k] < caps[k]:
                    bumped = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :]
                    nxt[bumped] = nxt.get(bumped, 0.0) + p * weights[k] / z
        table = nxt
    return table


@pytest.mark.parametrize("thetas,qs", GRID_1D + GRID_2D)
def test_pmf_table_matches_site_product_oracle(thetas, qs):
    params = hg.validate_params(thetas, qs)
    law = hg.pmf_table(params)
    caps = tuple(min(c, 12) for c in law.cap)
    oracle = oracle_table(thetas, qs, sites=400, caps=caps)
    for alpha, p in oracle.items():
        if all(a < c for a, c in zip(alpha, caps)):
            assert law.pmf(alpha) == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("thetas,qs", GRID_1D + GRID_2D)
def test_pmf_table_normalization(thetas, qs):
    law = hg.pmf_table(hg.validate_params(thetas, qs), tail_tol=1e-12)
    total = law.total_mass
    assert 1.0 - 1e-12 <= total <= 1.0 + 1e-15
    assert law.mass_deficit <= 1e-12


@pytest.mark.parametrize("thetas,qs", GRID_1D)
def test_one_dim_reduction(thetas, qs):
    params = hg.validate_params(thetas, qs)
    for a in range(21):
        assert hg.pmf_point(params, (a,)) == pytest.approx(
            heine_pmf_1d(thetas[0], qs[0], a), abs=1e-12
        )


@pytest.mark.parametrize("thetas,qs", GRID_2D)
def test_pmf_point_agrees_with_table(thetas, qs):
    params = hg.validate_params(thetas, qs)
    law = hg.pmf_table(params)
    for alpha in [(0, 0), (1, 0), (0, 1), (2, 3), (5, 1), (1, 7)]:
        assert hg.pmf_point(params, alpha) == pytest.approx(
            law.pmf(alpha), abs=1e-10
        )


@pytest.mark.parametrize("thetas,qs", GRID_1D[::4] + GRID_2D)
def test_mgf_matches_table_sum(thetas, qs):
    params = hg.validate_params(thetas, qs)
    law = hg.pmf_table(params)
    m = len(thetas)
    pts = [(-1.0,) * m, (1.0,) * m, (0.5,) * m, tuple(-0.5 if k else 1.0 for k in range(m))]
    for s in pts:
        direct = math.fsum(
            math.exp(sum(si * ai for si, ai in zip(s, alpha))) * p
            for alpha, p in law.iter_entries()
        )
        full = hg.mgf(params, s)
        # the cells are lower bounds, so the table misses the MGF only on
        # the deficit measure; Hoelder bounds that by mgf(r s)^(1/r)
        # deficit^(1 - 1/r) for every r > 1
        tail = min(
            hg.mgf(params, [r * si for si in s]) ** (1.0 / r)
            * law.mass_deficit ** (1.0 - 1.0 / r)
            for r in (2, 4, 8, 16)
        )
        assert direct <= full + 1e-12
        assert full - direct <= tail + 1e-8


def test_mgf_telescoping_oracle():
    params = hg.validate_params([1.0], [0.5])
    assert hg.mgf(params, [math.log(2.0)]) == pytest.approx(3.0, abs=1e-12)


def test_mgf_at_zero_is_one():
    for thetas, qs in GRID_2D:
        assert hg.mgf(hg.validate_params(thetas, qs), (0.0, 0.0)) == 1.0


@pytest.mark.parametrize("thetas,qs", GRID_1D[::3] + GRID_2D)
def test_moments_match_table(thetas, qs):
    params = hg.validate_params(thetas, qs)
    law = hg.pmf_table(params)
    assert np.allclose(hg.mean_vector(params), law.mean(), atol=1e-8)
    assert np.allclose(hg.variance_vector(params), law.variance(), atol=1e-8)
    assert np.allclose(
        hg.covariance_matrix(params), law.covariance_matrix(), atol=1e-8
    )


@pytest.mark.parametrize("thetas,qs", GRID_2D)
def test_covariances_negative(thetas, qs):
    params = hg.validate_params(thetas, qs)
    assert hg.covariance(params, 0, 1) < 0.0
    cov = hg.covariance_matrix(params)
    assert cov[0, 1] == pytest.approx(hg.covariance(params, 0, 1), rel=1e-12)
    assert cov[0, 1] < 0.0 and cov[1, 0] < 0.0


def test_three_coordinate_covariances_negative():
    params = hg.validate_params([0.7, 1.3, 0.4], [0.6, 0.4, 0.8])
    cov = hg.covariance_matrix(params)
    off = cov[~np.eye(3, dtype=bool)]
    assert np.all(off < 0.0)


@pytest.mark.parametrize("thetas,qs", GRID_2D)
@pytest.mark.parametrize("coord", [0, 1])
def test_marginal_is_poisson_binomial(thetas, qs, coord):
    params = hg.validate_params(thetas, qs)
    law = hg.pmf_table(params)
    marg = law.marginal(coord)
    sites = truncation_site_count(params, 1e-14)
    # independent 1-D DP over the per-site hit probabilities of coordinate k
    probs = [site_probabilities(params, j).probs[coord + 1] for j in range(sites)]
    dist = [1.0]
    for p in probs:
        nxt = [0.0] * (len(dist) + 1)
        for a, v in enumerate(dist):
            nxt[a] += v * (1.0 - p)
            nxt[a + 1] += v * p
        dist = nxt
    for a, v in enumerate(dist[: law.cap[coord]]):
        assert marg[a] == pytest.approx(v, abs=1e-10)


def test_site_probabilities_shape_and_mass():
    params = hg.validate_params([0.5, 2.0], [0.3, 0.8])
    site = site_probabilities(params, 3)
    assert site.j == 3
    assert len(site.probs) == 3
    assert math.fsum(site.probs) == pytest.approx(1.0, abs=1e-15)
    w = [0.5 * 0.3**3, 2.0 * 0.8**3]
    z = 1.0 + sum(w)
    assert site.probs[0] == pytest.approx(1.0 / z, rel=1e-14)
    assert site.probs[1] == pytest.approx(w[0] / z, rel=1e-14)


def test_truncation_certificate():
    params = hg.validate_params([0.5, 2.0], [0.3, 0.8])
    tol = 1e-10
    sites = truncation_site_count(params, tol)
    tail = math.fsum(
        th * q**sites / (1.0 - q) for th, q in zip(params.thetas, params.qs)
    )
    assert tail <= tol
    assert sites < 1000
    assert truncation_site_count(params, 1e-14) > sites


def test_sampler_matches_table():
    params = hg.validate_params([0.5, 2.0], [0.3, 0.8])
    law = hg.pmf_table(params)
    reps = 1_000_000
    s = hg.sample(params, reps, seed=20260822)
    assert s.counts.shape == (reps, 2)
    assert s.tv_error_bound <= 1e-9
    counts = {}
    for row in map(tuple, s.counts):
        counts[row] = counts.get(row, 0) + 1
    for alpha, p in law.iter_entries():
        if p < 1e-3:
            continue
        se = math.sqrt(p * (1.0 - p) / reps)
        emp = counts.get(alpha, 0) / reps
        assert abs(emp - p) <= 5.0 * se, (alpha, emp, p)


def test_sampler_deterministic():
    params = hg.validate_params([1.0], [0.5])
    a = hg.sample(params, 500, seed=7)
    b = hg.sample(params, 500, seed=7)
    c = hg.sample(params, 500, seed=8)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_poisson_binomial_dp_small_case():
    rows = [[0.5, 0.25], [0.1, 0.2]]
    table, overflow = poisson_binomial_dp(rows, caps=(2, 2))
    # two sites, coordinate probabilities (p, r) per site, stay prob 1-p-r
    stay = [(1 - 0.75), (1 - 0.3)]
    assert table[0, 0] == pytest.approx(stay[0] * stay[1], rel=1e-14)
    assert table[2, 0] == pytest.approx(0.5 * 0.1, rel=1e-14)
    assert table[1, 1] == pytest.approx(0.5 * 0.2 + 0.25 * 0.1, rel=1e-14)
    assert overflow == pytest.approx(0.0, abs=1e-15)
    assert np.sum(table) == pytest.approx(1.0, abs=1e-14)


def bernoulli_sum_pmf(probs):
    """Law of a sum of independent Bernoulli(p) variables, in python floats."""
    dist = [1.0]
    for p in probs:
        nxt = [0.0] * (len(dist) + 1)
        for a, v in enumerate(dist):
            nxt[a] += v * (1.0 - p)
            nxt[a + 1] += v * p
        dist = nxt
    return dist


@st.composite
def site_rows(draw, weights=st.floats(0.0, 1.0)):
    """(rows, caps): per-site success probabilities for m categories, each
    row summing to at most 1, and a cap per coordinate. The row's m + 1
    category weights are drawn from ``weights`` and normalized."""
    m = draw(st.integers(min_value=1, max_value=3))
    sites = draw(st.integers(min_value=0, max_value=8))
    rows = []
    for _ in range(sites):
        w = draw(st.lists(weights, min_size=m + 1, max_size=m + 1))
        total = sum(w)
        rows.append([v / total for v in w[1:]] if total > 0 else [0.0] * m)
    caps = draw(st.lists(st.integers(0, sites), min_size=m, max_size=m))
    return rows, caps


@given(site_rows())
@settings(max_examples=60, deadline=None)
def test_poisson_binomial_dp_mass_and_marginals(case):
    rows, caps = case
    m = len(caps)
    table, overflow = poisson_binomial_dp(rows, caps)
    assert table.shape == tuple(c + 1 for c in caps)
    assert math.fsum(table.ravel()) + overflow == pytest.approx(1.0, abs=1e-12)
    # with every cap at the site count nothing is clipped
    full, spill = poisson_binomial_dp(rows, [len(rows)] * m)
    assert spill == 0.0
    for k in range(m):
        marg = full.sum(axis=tuple(i for i in range(m) if i != k))
        want = bernoulli_sum_pmf([row[k] for row in rows])
        assert np.allclose(marg, want, rtol=0.0, atol=1e-12)


# exact zeros, and weights whose products underflow, so that a row can
# leave the DP's new top slab all 0.0
SPARSE_WEIGHTS = st.one_of(
    st.just(0.0), st.sampled_from([1e-200, 1e-250, 1e-300]), st.floats(0.0, 1.0)
)


@given(site_rows(SPARSE_WEIGHTS))
@example(([[1e-200], [1e-200], [0.5], [0.5]], [3]))
@example(([[1e-200, 0.0], [0.0, 0.5], [1e-200, 0.25], [0.5, 0.5]], [2, 1]))
@settings(max_examples=200, deadline=None)
def test_poisson_binomial_dp_matches_whole_table(whole_table_dp, case):
    # updating only the cells that can be nonzero leaves the table bitwise
    # the whole-table DP's; the overflow sums fewer zeros
    rows, caps = case
    table, overflow = poisson_binomial_dp(rows, caps)
    want, spill = whole_table_dp(rows, caps)
    assert table.tobytes() == want.tobytes()
    assert overflow == pytest.approx(spill, rel=0.0, abs=1e-15)


def test_poisson_binomial_dp_matches_whole_table_on_ginibre(ginibre_pot, whole_table_dp):
    annuli = ((0.985, 1.0), (1.0, 1.015), (1.015, 1.04))
    regions = engine.RegionSet.hard(engine.HardRegion(lo, hi) for lo, hi in annuli)
    pi = engine.landing_matrix(ginibre_pot, 512, regions).pi
    caps = heine._budgeted_caps(pi, 1e-12, None)
    table, overflow = poisson_binomial_dp(pi, caps)
    want, spill = whole_table_dp(pi, caps)
    assert table.tobytes() == want.tobytes()
    assert overflow == pytest.approx(spill, rel=0.0, abs=1e-15)


def test_marginal_cap_covers_tail():
    probs = [0.3] * 50
    cap = marginal_cap(probs, 1e-9)
    # binomial(50, 0.3) upper tail beyond the cap must respect the target
    from math import comb

    tail = sum(comb(50, k) * 0.3**k * 0.7 ** (50 - k) for k in range(cap + 1, 51))
    assert tail <= 1e-9
    assert cap <= 50


def test_convolve_identity_with_point_mass():
    law = hg.pmf_table(hg.validate_params([0.5, 2.0], [0.3, 0.8]))
    zero = hg.CountLaw(m=2, entries={(0, 0): 1.0}, mass_deficit=0.0, cap=(0, 0))
    out = convolve_mapped(law, zero, identity_map(2))
    assert out.m == 2
    for alpha, p in law.iter_entries():
        assert out.pmf(alpha) == pytest.approx(p, rel=1e-12, abs=1e-300)


def test_convolve_mapped_aggregates_coordinates():
    a = hg.pmf_table(hg.validate_params([0.8], [0.4]))
    b = hg.pmf_table(hg.validate_params([1.5], [0.6]))
    cmap = CoordinateMap(source_a=1, source_b=1, target=1, a_to=(0,), b_to=(0,))
    out = convolve_mapped(a, b, cmap)
    # the mapped sum of independent coordinates convolves the marginals
    for t in range(5):
        direct = math.fsum(
            a.pmf((i,)) * b.pmf((t - i,)) for i in range(t + 1)
        )
        assert out.pmf((t,)) == pytest.approx(direct, abs=1e-12)
    sa = 0.7
    lhs = math.fsum(
        math.exp(sa * alpha[0]) * p for alpha, p in out.iter_entries()
    )
    rhs_a = math.fsum(math.exp(sa * alpha[0]) * p for alpha, p in a.iter_entries())
    rhs_b = math.fsum(math.exp(sa * alpha[0]) * p for alpha, p in b.iter_entries())
    assert lhs == pytest.approx(rhs_a * rhs_b, rel=1e-10)


def test_tv_distance_bounds():
    law = hg.pmf_table(hg.validate_params([0.5, 2.0], [0.3, 0.8]))
    lo, hi = hg.tv_distance(law, law)
    assert lo == pytest.approx(0.0, abs=1e-15)
    assert hi <= law.mass_deficit + 1e-15
    other = hg.pmf_table(hg.validate_params([2.0, 0.5], [0.8, 0.3]))
    lo_ab, hi_ab = hg.tv_distance(law, other)
    lo_ba, hi_ba = hg.tv_distance(other, law)
    assert lo_ab == pytest.approx(lo_ba, abs=1e-14)
    assert hi_ab == pytest.approx(hi_ba, abs=1e-14)
    assert 0.0 <= lo_ab <= hi_ab <= 1.0


def test_count_law_json_roundtrip():
    law = hg.pmf_table(hg.validate_params([0.5, 2.0], [0.3, 0.8]))
    blob = law.to_json()
    data = json.loads(blob)
    assert data["m"] == 2
    alphas = [tuple(e["alpha"]) for e in data["entries"]]
    assert alphas == sorted(alphas)
    back = hg.CountLaw.from_json(blob)
    assert back.m == law.m
    assert back.cap == law.cap
    for alpha, p in law.iter_entries():
        assert back.pmf(alpha) == pytest.approx(p, rel=1e-15, abs=1e-300)


def test_count_law_json_golden():
    # entries given out of order; the JSON lists them lexicographically
    law = hg.CountLaw(
        2, {(1, 0): 0.125, (0, 0): 0.5, (0, 1): 0.25}, 0.125, (1, 1)
    )
    assert law.to_json() == (
        '{"m": 2, "entries": [{"alpha": [0, 0], "p": 0.5}, '
        '{"alpha": [0, 1], "p": 0.25}, {"alpha": [1, 0], "p": 0.125}], '
        '"mass_deficit": 0.125, "cap": [1, 1]}'
    )
    assert law.table.tolist() == [[0.5, 0.25], [0.125, 0.0]]


def test_count_law_json_exact_roundtrip():
    law = hg.pmf_table(hg.validate_params([0.5, 2.0, 1.0], [0.3, 0.8, 0.5]))
    back = hg.CountLaw.from_json(law.to_json())
    assert back.entries == law.entries
    assert back.cap == law.cap
    assert back.mass_deficit == law.mass_deficit
    assert np.array_equal(back.table, law.table)


def test_count_law_without_coordinates():
    law = hg.CountLaw(table=np.ones(()))
    assert law.m == 0 and law.cap == ()
    assert law.entries == {(): 1.0}
    assert law.mass_deficit == 0.0
    assert law.pmf(()) == 1.0
    assert law.mean().shape == (0,)
    assert law.covariance_matrix().shape == (0, 0)
    back = hg.CountLaw.from_json(law.to_json())
    assert back.entries == {(): 1.0}
    assert hg.tv_distance(law, back) == (0.0, 0.0)


def test_count_law_from_dict_equals_table():
    law = hg.pmf_table(hg.validate_params([0.5, 2.0], [0.3, 0.8]))
    rebuilt = hg.CountLaw(law.m, law.entries, law.mass_deficit, law.cap)
    assert np.array_equal(rebuilt.table, law.table)
    assert rebuilt.mass_deficit == law.mass_deficit
    assert rebuilt.to_json() == law.to_json()
    assert list(rebuilt.iter_entries()) == list(law.iter_entries())
    # the deficit defaults to the mass the table does not hold
    assert hg.CountLaw(table=law.table).mass_deficit == pytest.approx(
        law.mass_deficit, abs=1e-15
    )


def old_law_document(law):
    """The law as one dict per stored cell; json.dumps of it is the
    byte-for-byte reference for CountLaw.to_json."""
    stored = law.table != 0.0
    alphas, ps = np.argwhere(stored).tolist(), law.table[stored].tolist()
    return {
        "m": law.m,
        "entries": [{"alpha": a, "p": p} for a, p in zip(alphas, ps)],
        "mass_deficit": law.mass_deficit,
        "cap": list(law.cap),
    }


_FLOOR = 1e-300
CELL_VALUES = st.one_of(
    st.just(0.0),
    # at, just above and just below the storage floor; subnormals
    st.sampled_from(
        [_FLOOR, np.nextafter(_FLOOR, 1.0), np.nextafter(_FLOOR, 0.0), 1e-310, 5e-324]
    ),
    st.floats(min_value=-300.0, max_value=-2.5).map(lambda e: 10.0**e),
    st.floats(min_value=0.0, max_value=1.0 / 256),
)


@given(
    table=hnp.arrays(
        np.float64,
        st.lists(st.integers(min_value=1, max_value=4), max_size=4).map(tuple),
        elements=CELL_VALUES,
    ),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_count_law_json_matches_per_cell_encoder(table, order):
    law = hg.CountLaw(table=table)
    text = law.to_json()
    assert text == json.dumps(old_law_document(law))
    back = hg.CountLaw.from_json(text)
    assert np.array_equal(back.table, law.table)
    assert back.cap == law.cap and back.mass_deficit == law.mass_deficit
    assert law.to_json_dict() == old_law_document(law)
    doc = json.loads(text)
    want = hg.CountLaw.from_json_dict(doc)
    # the blocked reader on the writer's layout, cut into many blocks, and
    # the whole-document parse of other layouts give the parse's law
    reordered = {k: doc[k] for k in ("cap", "mass_deficit", "entries", "m")}
    others = [
        json.dumps(doc, indent=1), json.dumps(doc, separators=(",", ":")), json.dumps(reordered)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heine, "_JSON_BLOCK_CELLS", 3)
        mp.setattr(heine, "_JSON_BLOCK_CHARS", 40)
        assert law.to_json() == text
        assert np.array_equal(heine._blocked_fields(text)["table"], want.table)
        assert all(heine._blocked_fields(other) is None for other in others)
        for variant in [text] + others:
            back = hg.CountLaw.from_json(variant)
            assert np.array_equal(back.table, want.table)
            assert back.cap == want.cap and back.mass_deficit == want.mass_deficit
    # the reader takes the entries in any order
    order.shuffle(doc["entries"])
    assert np.array_equal(hg.CountLaw.from_json_dict(doc).table, law.table)


def test_count_law_json_reader_cut_inside_a_string(monkeypatch):
    # a cut at the '}, {' inside a string leaves the block unparsable, and
    # the reader parses the whole document
    monkeypatch.setattr(heine, "_JSON_BLOCK_CHARS", 1)
    entries = [{"alpha": [0], "p": 0.5, "note": "}, {"}, {"alpha": [1], "p": 0.5}]
    text = json.dumps({"m": 1, "entries": entries, "mass_deficit": 0.0, "cap": [1]})
    with pytest.raises(json.JSONDecodeError):
        heine._blocked_fields(text)
    assert hg.CountLaw.from_json(text).table.tolist() == [0.5, 0.5]


@pytest.fixture(scope="module")
def law_10e5():
    """The 104,976-cell law (cap 17 on 4 coordinates) and its JSON text."""
    law = hg.pmf_table(hg.validate_params((2.0,) * 4, (0.8,) * 4))
    assert law.cap == (17,) * 4
    return law, law.to_json()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_law_json_writer_memory(law_10e5):
    # a work guard by measurement: the writer grows its text in place, and
    # its traced peak is 1.12 times the text it returns (the text and one
    # block text) on a first call; joining the block texts at the end
    # took 2.1 times, and a head string per cell 4.3 times
    law, text = law_10e5
    assert _traced_peak(law.to_json) <= 1.25 * len(text)


def test_count_law_json_reader_memory(law_10e5):
    # a work guard by measurement: reading the text a block at a time and
    # placing each block into the table peaks at 0.73 times the text;
    # keeping every block's indices for one sort took 0.92 times, and one
    # json.loads of the text peaked at 5.8 times
    law, text = law_10e5
    assert _traced_peak(hg.CountLaw.from_json, text) <= 0.85 * len(text)


def test_count_law_iter_entries_memory(law_10e5):
    # a work guard by measurement: walking the stored cells one block at a
    # time peaks at 0.24 times the table's bytes; listing every count
    # vector and p up front (np.argwhere(...).tolist()) peaked at 17 times
    law, _ = law_10e5
    stored = law.table != 0.0
    want = zip(map(tuple, np.argwhere(stored).tolist()), law.table[stored].tolist())
    assert list(law.iter_entries()) == list(want)
    assert _traced_peak(lambda: all(True for _ in law.iter_entries())) <= 0.5 * law.table.nbytes


@pytest.mark.parametrize("block", [1, None], ids=["across-blocks", "within-a-block"])
def test_count_law_json_duplicate_in_any_block(monkeypatch, block):
    # the duplicate check runs once, after the last block, on the blocked
    # path and on the whole-document path alike
    entries = [{"alpha": [0], "p": 0.25}, {"alpha": [1], "p": 0.25}, {"alpha": [0], "p": 0.25}]
    doc = {"m": 1, "entries": entries, "mass_deficit": 0.25, "cap": [1]}
    if block:
        monkeypatch.setattr(heine, "_JSON_BLOCK_CELLS", block)
        monkeypatch.setattr(heine, "_JSON_BLOCK_CHARS", block)
    sizes, check = [], heine._entry_block

    def counted(block_entries, shape):
        sizes.append(len(block_entries))
        return check(block_entries, shape)

    monkeypatch.setattr(heine, "_entry_block", counted)
    want = [1, 1, 1] if block else [3]
    for parse in (
        lambda: heine._blocked_fields(json.dumps(doc)),
        lambda: hg.CountLaw.from_json_dict(doc),
    ):
        sizes.clear()
        with pytest.raises(ValueError, match="listed twice"):
            parse()
        assert sizes == want


def _doc(entries, **fields):
    doc = {"m": 1, "entries": entries, "mass_deficit": 0.0, "cap": [1]}
    doc.update(fields)
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize(
    "doc,match",
    [
        # listed mass 1.5; letting the last copy win would load mass 1.0
        (
            _doc([{"alpha": [0], "p": 0.5}, {"alpha": [1], "p": 0.5}, {"alpha": [0], "p": 0.5}]),
            "listed twice",
        ),
        (_doc([{"alpha": [0], "p": "0.5"}, {"alpha": [1], "p": 0.5}]), "must be numbers"),
        (_doc([{"alpha": [0], "p": 1.0}], mass_deficit=None), "lacks 'mass_deficit'"),
        # ragged count vectors whose lengths sum to m times the entry count
        (
            _doc([{"alpha": [0], "p": 0.5}, {"alpha": [0, 1, 1], "p": 0.5}], m=2, cap=[1, 1]),
            "length m = 2",
        ),
        # m and cap were truncated or coerced: these loaded as m = 1, cap (1,)
        # and m = 1, cap (0,), and the last two raised TypeError
        (_doc([{"alpha": [0], "p": 1.0}], m=1.9, cap=[1.7]), "field 'm'"),
        (_doc([{"alpha": [0], "p": 1.0}], m=True, cap=["0"]), "field 'm'"),
        (_doc([{"alpha": [0], "p": 1.0}], cap=0), "field 'cap'"),
        (_doc([{"alpha": [0], "p": 1.0}], cap=[None]), "field 'cap'"),
    ],
    ids=[
        "duplicate", "string-p", "missing-deficit", "ragged",
        "float-m-cap", "bool-m", "scalar-cap", "null-cap",
    ],
)
def test_count_law_json_rejects_malformed(doc, match):
    # the writer's layout goes through the blocked reader first, indent=1
    # only through the whole-document parse; both reject alike, with
    # blocks of the default size and of one entry
    errors = []
    for block in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(heine, "_JSON_BLOCK_CELLS", block)
                mp.setattr(heine, "_JSON_BLOCK_CHARS", block)
            for text in (json.dumps(doc), json.dumps(doc, indent=1)):
                with pytest.raises(ValueError, match=match) as info:
                    hg.CountLaw.from_json(text)
                errors.append(str(info.value))
    with pytest.raises(ValueError, match=match) as info:
        hg.CountLaw.from_json_dict(doc)
    assert errors == [str(info.value)] * 4


@pytest.mark.parametrize(
    "m,cap,field",
    [
        # these loaded as cap (1,), as m = 1, and failed inside numpy
        (1, (True,), "field 'cap'"),
        (1.0, (1,), "field 'm'"),
        (1, (-1,), "field 'cap'"),
        (True, (1,), "field 'm'"),
        (-1, (), "field 'm'"),
        (1, [1.0], "field 'cap'"),
        (1, 1, "field 'cap'"),
        (2, (1,), "field 'cap'"),
    ],
    ids=["bool-cap", "float-m", "negative-cap", "bool-m", "negative-m", "float-cap",
         "scalar-cap", "short-cap"],
)
def test_count_law_constructor_checks_m_and_cap(m, cap, field):
    with pytest.raises(ValueError, match=field):
        hg.CountLaw(m, {(0,): 1.0}, 0.0, cap)


def test_count_law_rejects_inconsistent_input():
    with pytest.raises(ValueError):
        hg.CountLaw(2, {(0, 0): 1.0}, 0.0, (0,))
    with pytest.raises(ValueError):
        hg.CountLaw(1, {(2,): 1.0}, 0.0, (1,))
    with pytest.raises(ValueError):
        hg.CountLaw(1, {(0,): 0.5}, 0.0, (1,))
    with pytest.raises(ValueError):
        hg.CountLaw(1, {(0,): 1.0}, -0.5, (0,))
    with pytest.raises(ValueError, match="not both"):
        hg.CountLaw(1, table=np.ones(1))


def test_tv_distance_different_caps_matches_union_formula():
    a = hg.pmf_table(hg.validate_params([0.5, 2.0], [0.3, 0.8]))
    b = hg.pmf_table(hg.validate_params([1.0, 1.0], [0.5, 0.5]))
    assert a.cap != b.cap
    ea, eb = a.entries, b.entries
    t0 = 0.5 * math.fsum(abs(ea.get(k, 0.0) - eb.get(k, 0.0)) for k in set(ea) | set(eb))
    w = 0.5 * (a.mass_deficit + b.mass_deficit)
    assert hg.tv_distance(a, b) == (max(0.0, t0 - w), min(1.0, t0 + w))


def test_coordinate_map_rejects_merging_one_laws_coordinates():
    with pytest.raises(ValueError, match="distinct targets"):
        CoordinateMap(source_a=2, source_b=1, target=1, a_to=(0, 0), b_to=(0,))


def test_validate_params_rejects_bad_input():
    with pytest.raises(ValueError):
        hg.validate_params([], [])
    with pytest.raises(ValueError):
        hg.validate_params([1.0], [1.0])
    with pytest.raises(ValueError):
        hg.validate_params([0.0], [0.5])
    with pytest.raises(ValueError):
        hg.validate_params([1.0, 1.0], [0.5])


@given(
    m=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_random_params_basic_laws(m, data):
    thetas = data.draw(
        st.lists(
            st.floats(min_value=0.05, max_value=3.0), min_size=m, max_size=m
        )
    )
    qs = data.draw(
        st.lists(
            st.floats(min_value=0.05, max_value=0.92), min_size=m, max_size=m
        )
    )
    params = hg.validate_params(thetas, qs)
    law = hg.pmf_table(params)
    total = law.total_mass
    assert 1.0 - 1e-11 <= total <= 1.0 + 1e-12
    assert hg.mgf(params, (0.0,) * m) == 1.0
    if m >= 2:
        assert hg.covariance(params, 0, 1) < 0.0
    alpha = tuple(data.draw(st.integers(min_value=0, max_value=3)) for _ in range(m))
    if all(a <= c for a, c in zip(alpha, law.cap)):
        assert hg.pmf_point(params, alpha) == pytest.approx(
            law.pmf(alpha), abs=1e-10
        )


# ------------------------------------------------------- the shift recursion


def site_dp_law(thetas, qs, caps, tail_tol=1e-12):
    """The Heine pmf by folding site rows over the box: sites 0..J exactly,
    the rest only through the factor P(they stay empty). Its cells are
    lower bounds of the pmf that miss at most P(a site beyond J succeeds);
    it shares no code with the shift recursion. Returns (table, the site
    truncation bound, sites folded)."""
    params = hg.validate_params(thetas, qs)
    sites = truncation_site_count(params, 0.45 * tail_tol) + 1
    th, q = np.asarray(thetas), np.asarray(qs)
    x = th * q ** np.arange(sites)[:, None]
    table, _ = poisson_binomial_dp(x / (1.0 + x.sum(axis=1, keepdims=True)), caps)
    log_rest, j = 0.0, sites
    while (s := float((th * q**j).sum())) > 1e-25:
        log_rest -= math.log1p(s)
        j += 1
    truncation = math.fsum(t * v**sites / (1.0 - v) for t, v in zip(thetas, qs))
    return table * math.exp(log_rest), truncation, sites


@pytest.mark.parametrize("thetas,qs", GRID_2D + [((3.0,) * 4, (0.9,) * 4)])
def test_pmf_table_bounded_below_by_site_dp(thetas, qs):
    law = hg.pmf_table(hg.validate_params(thetas, qs))
    dp, truncation, sites = site_dp_law(thetas, qs, law.cap)
    # the DP's own first-order rounding: m + 3 roundings per folded site
    # (p0, the m products, the sum) and the recursion's two ulps
    rounding = ((len(thetas) + 3) * sites + 4) * 2.0**-53
    stored = dp >= 1e-300
    assert np.all(law.table[stored] >= dp[stored] * (1.0 - rounding))
    gap = math.fsum((law.table - dp).ravel().tolist())
    assert gap <= truncation + rounding


def mpmath_heine_table(thetas, qs, caps):
    """P(X = a) on the box at 40 digits: the shift recursion written out
    cell by cell, over Z from its site product."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        th = [mpmath.mpf(t) for t in thetas]
        q = [mpmath.mpf(v) for v in qs]
        u = {}
        for a in np.ndindex(*(c + 1 for c in caps)):
            w = mpmath.fprod(v**ak for v, ak in zip(q, a))
            terms = [
                t * w / v * u[a[:k] + (ak - 1,) + a[k + 1 :]]
                for k, (t, v, ak) in enumerate(zip(th, q, a))
                if ak
            ]
            u[a] = mpmath.fsum(terms) / (1 - w) if terms else mpmath.mpf(1)
        log_z, j = mpmath.mpf(0), 0
        while (s := mpmath.fsum(t * v**j for t, v in zip(th, q))) > mpmath.mpf(10) ** -45:
            log_z += mpmath.log1p(s)
            j += 1
        table = np.zeros(tuple(c + 1 for c in caps))
        for a, v in u.items():
            table[a] = float(v * mpmath.exp(-log_z))
    return table


@pytest.mark.parametrize(
    "thetas,qs", GRID_2D[:2] + [((0.5, 2.0, 1.0), (0.3, 0.8, 0.5)), ((1e6,), (0.5,))]
)
def test_pmf_table_cells_are_lower_bounds(thetas, qs):
    law = hg.pmf_table(hg.validate_params(thetas, qs))
    exact = mpmath_heine_table(thetas, qs, law.cap)
    stored = law.table > 0.0
    assert np.all(law.table <= exact)
    # two ulps for the rounding down, and the long-double bound on log Z
    assert np.all(law.table[stored] >= exact[stored] * (1.0 - 4 * 2.0**-53))


@pytest.mark.parametrize("thetas,qs", GRID_1D + [((1e6,), (0.5,))])
def test_pmf_table_one_dim_matches_closed_form(thetas, qs):
    law = hg.pmf_table(hg.validate_params(thetas, qs))
    for a in range(law.cap[0] + 1):
        closed = heine_pmf_1d(thetas[0], qs[0], a)
        assert law.pmf((a,)) == pytest.approx(closed, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize(
    "thetas,qs", [((50.0, 50.0), (0.99, 0.99)), ((200.0,) * 3, (0.9,) * 3)]
)
def test_pmf_table_large_parameters(thetas, qs):
    params = hg.validate_params(thetas, qs)
    law = hg.pmf_table(params)
    assert np.all(np.isfinite(law.table))
    assert law.total_mass <= 1.0
    assert 0.0 < law.mass_deficit <= 1e-12
    gap = np.abs(law.mean() - hg.mean_vector(params))
    assert np.all(gap <= law.mass_deficit * max(law.cap))


@pytest.mark.parametrize("tail_tol", [1e-12, 1e-14])
def test_pmf_table_near_float_max_theta(tail_tol):
    # theta_k q_k^j summed directly overflowed there, zeroing the success
    # rows the caps and the cap-overflow bound are read from
    params = hg.validate_params((1.7e308, 1.7e308), (0.3, 0.2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            law = hg.pmf_table(params, tail_tol=tail_tol)
        except ValueError as exc:
            deficit, _tol, overflow, z_tail, rounding = (
                float(v) for v in re.findall(r"\d\.\d{3}e[+-]\d+", str(exc))
            )
            assert z_tail > 0.0
            # the parts, printed to 4 digits, bound the deficit they split
            assert deficit <= (overflow + z_tail + rounding) * (1.0 + 1e-3)
            return
    assert 0.0 < law.mass_deficit <= tail_tol
    gap = np.abs(law.mean() - hg.mean_vector(params))
    assert np.all(gap <= law.mass_deficit * max(law.cap))


def test_site_counts_in_logs_near_float_max_theta():
    # q^j underflows to 0 long before theta q^j does at theta = 1.7e308
    params = hg.validate_params((1.7e308,), (0.2,))

    def exact_tail(j):
        return Fraction(1.7e308) * Fraction(0.2) ** j / (1 - Fraction(0.2))

    sites = truncation_site_count(params, 1e-12)
    assert exact_tail(sites + 1) <= Fraction(1e-12) < exact_tail(sites)
    # 0.2^470 is below the smallest subnormal; the tail is 7.9e-21
    want = float(exact_tail(470))
    assert abs(hg.heine._tail_bound(params, 470) - want) <= 1e-12 * want


def test_mgf_near_float_max_theta():
    # the site product summed theta_k q_k^j directly and overflowed to nan
    # there; against a 30-digit mpmath site product (measured 1.4e-14)
    mp = pytest.importorskip("mpmath")
    thetas, qs, s = (1.7e308, 1.7e308), (0.3, 0.2), (0.1, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hg.mgf(hg.validate_params(thetas, qs), s)
    with mp.workdps(30):
        log_acc, j = mp.mpf(0), 0
        while True:
            x = [mp.mpf(t) * mp.mpf(q) ** j for t, q in zip(thetas, qs)]
            es = [mp.exp(mp.mpf(v)) for v in s]
            log_acc += mp.log1p(mp.fsum(e * xk for e, xk in zip(es, x))) - mp.log1p(mp.fsum(x))
            if mp.fsum(x) < mp.mpf("1e-40"):
                break
            j += 1
        want = float(mp.exp(log_acc))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("j", [0, 600, 2000])
def test_site_probabilities_near_float_max_theta(j):
    # 1 + fsum(theta_k q_k^j) overflowed at j = 0
    params = hg.validate_params((1.7e308, 1.7e308), (0.3, 0.2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = site_probabilities(params, j).probs
    assert all(math.isfinite(p) and p >= 0.0 for p in probs)
    assert abs(math.fsum(probs) - 1.0) <= 1e-15


def _full_tail_dp(probs):
    """P(sum > c) for c = 0..len(probs) by the unclipped 1-D DP."""
    b = np.zeros(len(probs) + 1)
    b[0] = 1.0
    for p in probs:
        nb = b * (1.0 - p)
        nb[1:] += b[:-1] * p
        b = nb
    return np.append(np.cumsum(b[::-1])[::-1][1:], 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_marginal_cap_matches_unclipped_dp(seed):
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.0, 1.0, 200) ** rng.uniform(0.5, 4.0)
    for target in (1e-3, 1e-9, 1e-13):
        want = int(np.argmax(_full_tail_dp(probs) <= target))
        assert marginal_cap(probs, target) == want


def test_marginal_cap_work_is_sites_times_cap(monkeypatch):
    # theta = 1, q = 0.999 needs 35,320 sites and caps at 857. The DP
    # clipped at its Bernstein top does sites x (top + 1) cell updates;
    # grown to every site it did sites^2 / 2 = 6.2e8.
    params = hg.validate_params((1.0,), (0.999,))
    sites = truncation_site_count(params, 0.45e-12) + 1
    rows = hg.heine._site_success_matrix(params, sites)
    work = []
    real = hg.heine._capped_tail_dp

    def counting(probs, top):
        work.append(probs.size * (top + 1))
        return real(probs, top)

    monkeypatch.setattr(hg.heine, "_capped_tail_dp", counting)
    assert marginal_cap(rows[:, 0], 0.45e-12) == 857
    assert sum(work) <= 2 * sites * (857 + 1)
    assert hg.pmf_table(params).cap == (857,)


@pytest.mark.parametrize(
    "thetas,qs", [((50.0, 50.0), (0.99, 0.99)), ((1e300,), (0.5,))]
)
def test_log_zero_run_matches_mpmath(thetas, qs):
    mpmath = pytest.importorskip("mpmath")
    params = hg.validate_params(thetas, qs)
    with mpmath.workdps(30):
        th = [mpmath.mpf(t) for t in thetas]
        q = [mpmath.mpf(v) for v in qs]
        exact, j = mpmath.mpf(0), 0
        while (s := mpmath.fsum(t * v**j for t, v in zip(th, q))) > mpmath.mpf(10) ** -40:
            exact += mpmath.log1p(s)
            j += 1
        log_p0, tail = hg.heine._log_zero_run(params)
        err = float(-mpmath.mpf(str(log_p0)) - exact)
        # an upper bound of log Z up to (m + 5) long-double roundings of log Z
        rounding = 2 * (params.m + 5) * hg.heine._U_LD * float(exact)
        assert -rounding <= err <= tail + rounding


def test_pmf_table_raises_past_tail_tol():
    params = hg.validate_params((0.5, 2.0), (0.3, 0.8))
    with pytest.raises(ValueError, match=r"exceeds tail_tol.*cap overflow <= 8\.\d+e-01"):
        hg.pmf_table(params, caps=(2, 3))
    with pytest.raises(ValueError, match=r"Z tail bound .*rounding <= \d"):
        hg.pmf_table(params, tail_tol=1e-17)


@pytest.mark.parametrize("caps", [(3,), (2, 2, 2), (-1, 2)])
def test_dp_count_law_rejects_caps_of_the_wrong_shape(caps):
    # one cap per coordinate, none negative: a short tuple used to give a
    # law of fewer coordinates and a negative cap an IndexError
    rows = np.array([[0.3, 0.2], [0.1, 0.4], [0.5, 0.1]])
    with pytest.raises(ValueError, match="caps must be 2 nonnegative integers"):
        hg.heine.dp_count_law(rows, 1e-12, caps)


@pytest.mark.parametrize("caps", [(3,), (2, 2, 2), (-1, 2)])
def test_pmf_table_rejects_caps_of_the_wrong_shape(caps):
    # a short tuple used to fail inside numpy broadcasting
    params = hg.validate_params((0.5, 2.0), (0.3, 0.8))
    with pytest.raises(ValueError, match="caps must be 2 nonnegative integers"):
        hg.pmf_table(params, caps=caps)


def test_pmf_table_memory():
    # the recursion keeps one level of long doubles and a position per
    # cell besides the table; an m x cells index array would pass 4x alone
    params = hg.validate_params((3.0,) * 4, (0.9,) * 4)
    tracemalloc.start()
    try:
        law = hg.pmf_table(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert law.cap == (27, 27, 27, 27)
    assert peak <= 4 * law.table.nbytes
