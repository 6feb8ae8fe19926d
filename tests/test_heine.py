"""Multi-dimensional Heine count laws: pmf, MGF, moments, sampling.

The reference oracle here is a from-scratch site-product enumeration: the
law is a sum over independent site categoricals with success weights
theta_k q_k^j, so a plain python DP over sites must reproduce pmf_table to
near machine precision.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import heinegas as hg
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
        # the clipped tail can carry at most deficit * e^{sum s+}
        slack = law.mass_deficit * math.exp(sum(max(si, 0.0) for si in s) * max(law.cap))
        assert hg.mgf(params, s) == pytest.approx(direct, abs=1e-8 + slack)


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
def site_rows(draw):
    """(rows, caps): per-site success probabilities for m categories, each
    row summing to at most 1, and a cap per coordinate."""
    m = draw(st.integers(min_value=1, max_value=3))
    sites = draw(st.integers(min_value=0, max_value=8))
    rows = []
    for _ in range(sites):
        w = draw(st.lists(st.floats(0.0, 1.0), min_size=m + 1, max_size=m + 1))
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
    # the reader takes the entries in any order
    doc = json.loads(text)
    order.shuffle(doc["entries"])
    assert np.array_equal(hg.CountLaw.from_json_dict(doc).table, law.table)


def test_count_law_json_writer_memory():
    # a work guard by measurement: the writer's traced peak on a 10^4-cell
    # table is 4.4 times the text it returns; the per-cell dict encoder
    # peaks at 11.7 times
    law = hg.pmf_table(hg.validate_params((1.0,) * 4, (0.5,) * 4))
    assert law.cap == (9, 9, 9, 9)
    tracemalloc.start()
    try:
        text = law.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(text)


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
    ],
    ids=["duplicate", "string-p", "missing-deficit", "ragged"],
)
def test_count_law_json_rejects_malformed(doc, match):
    with pytest.raises(ValueError, match=match):
        hg.CountLaw.from_json(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        hg.CountLaw.from_json_dict(doc)


def test_count_law_rejects_inconsistent_input():
    with pytest.raises(ValueError):
        hg.CountLaw(2, {(0, 0): 1.0}, 0.0, (0,))
    with pytest.raises(ValueError):
        hg.CountLaw(1, {(2,): 1.0}, 0.0, (1,))
    with pytest.raises(ValueError):
        hg.CountLaw(1, {(0,): 0.5}, 0.0, (1,))
    with pytest.raises(ValueError):
        hg.CountLaw(1, {(0,): 1.0}, -0.5, (0,))


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
