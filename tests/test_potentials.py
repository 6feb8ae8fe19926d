"""Potential builders, classification, peak finding, and cutoff profiles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import heinegas as hg
from heinegas.engine import sample_moduli
from heinegas.potentials import (
    BumpSpec,
    RadialPotential,
    Shoulder,
    classify,
    derivative_consistency,
    find_peaks,
    mass_between,
)


def wiggle_potential(a=0.03, c=1.2, s=0.05):
    """Quadratic well with a narrow Gaussian ripple: creates a close pair
    of stationarity crossings for the grid-resolution tests."""

    def terms(r, order):
        e = np.exp(-(((r - c) / s) ** 2))
        derivs = (
            lambda: r * r + a * e,
            lambda: 2 * r - a * 2 * (r - c) / s**2 * e,
            lambda: 2 + a * e * (4 * (r - c) ** 2 / s**4 - 2 / s**2),
        )
        return tuple(d() for d in derivs[: order + 1])

    return RadialPotential(terms, smooth_window=(0.0, 4.0), r_max=6.0, label="wiggle")


# ------------------------------------------------------------------ ginibre


def test_ginibre_profile(ginibre_pot):
    r = np.linspace(0.1, 3.0, 50)
    assert np.allclose(ginibre_pot.q(r), r * r, rtol=1e-14)
    assert np.allclose(hg.laplacian(ginibre_pot, r), 1.0, atol=1e-12)
    e1, e2 = derivative_consistency(ginibre_pot)
    assert max(e1, e2) <= 1e-5


def test_ginibre_classifies_plain_disk(ginibre_pot):
    data = hg.droplet_data(ginibre_pot)
    assert data.case_tag == "none"
    assert data.outposts == ()
    assert len(data.components) == 1
    assert data.components[0][0] == 0.0
    assert data.components[0][1] == pytest.approx(1.0, abs=1e-6)
    assert data.masses[-1] == pytest.approx(1.0, abs=1e-8)


def test_quartic_classifies_plain_disk():
    # the minimizer of g_tau moves like tau^(1/4) from 0, fast enough to
    # look like a branch jump on the probe grid; its edge roots coincide
    def terms(r, order):
        return (r**4, 4.0 * r**3, 12.0 * r**2)[: order + 1]

    data = classify(RadialPotential(terms, smooth_window=(0.0, 3.0), r_max=3.0))
    assert data.case_tag == "none"
    assert data.branch_values == ()
    assert data.outposts == ()
    # r q'(r) = 4 r^4 = 2 at tau = 1
    assert data.components == ((0.0, pytest.approx(2.0**-0.25, abs=1e-12)),)
    assert data.masses[-1] == pytest.approx(1.0, abs=1e-8)


# ------------------------------------------------------------------- case 1


def test_case1_derivatives_consistent(case1_pot):
    e1, e2 = derivative_consistency(case1_pot)
    assert max(e1, e2) <= 1e-5


def test_case1_coincidence_stationarity(case1_pot):
    # the external field is critical for the tau = 1 tilt at each outpost
    for t in (1.5, 2.0):
        assert t * float(case1_pot.dq(t)) == pytest.approx(2.0, abs=1e-8)


def test_case1_obstacle_inequality(case1_pot):
    # beyond the droplet the potential dominates q(1) + 2 log r, touching
    # only inside the outpost windows
    r = np.linspace(1.0 + 1e-6, 4.0, 4000)
    gap = np.asarray(case1_pot.q(r)) - (float(case1_pot.q(1.0)) + 2.0 * np.log(r))
    assert np.min(gap) >= -1e-12
    # the gap grows quadratically off the droplet edge, so strict dominance
    # is asserted away from r = 1 and the outpost windows
    away = (r > 1.05) & (np.abs(r - 1.5) > 0.2) & (np.abs(r - 2.0) > 0.2)
    assert np.min(gap[away]) > 1e-4
    assert abs(float(case1_pot.q(1.5)) - (float(case1_pot.q(1.0)) + 2.0 * math.log(1.5))) <= 1e-12


def test_case1_classification_roundtrip(case1_pot, case1_data):
    assert case1_data.case_tag == "case1"
    assert len(case1_data.outposts) == 2
    assert case1_data.outposts[0] == pytest.approx(1.5, abs=1e-6)
    assert case1_data.outposts[1] == pytest.approx(2.0, abs=1e-6)
    assert case1_data.masses[-1] == pytest.approx(1.0, abs=1e-8)


def test_case1_validation_report(case1_pot):
    checks, data = hg.validation_report(case1_pot)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert data.case_tag == "case1"


def test_single_outpost_roundtrip():
    pot = hg.build_case1((1.5,), w=(0.2,))
    data = hg.droplet_data(pot)
    assert data.case_tag == "case1"
    assert len(data.outposts) == 1
    assert data.outposts[0] == pytest.approx(1.5, abs=1e-6)


@given(
    t1=st.floats(min_value=1.3, max_value=1.8),
    gap=st.floats(min_value=0.55, max_value=0.9),
    w=st.floats(min_value=0.08, max_value=0.18),
)
@settings(max_examples=8, deadline=None)
# a narrow window whose edge once fooled the derivative check's difference
# stencil into rejecting a correct potential
@example(t1=1.59375, gap=0.75, w=0.08984375)
def test_case1_random_geometry_roundtrip(t1, gap, w):
    pot = hg.build_case1((t1, t1 + gap), w=(w, w), r_max=8.0)
    data = hg.droplet_data(pot)
    assert data.case_tag == "case1"
    assert data.outposts[0] == pytest.approx(t1, abs=1e-6)
    assert data.outposts[1] == pytest.approx(t1 + gap, abs=1e-6)


# ------------------------------------------------------------------- case 2


def test_case2_derivatives_consistent(case2_pot):
    e1, e2 = derivative_consistency(case2_pot)
    assert max(e1, e2) <= 1e-5


def test_case2_mass_profile(case2_pot):
    assert mass_between(case2_pot, 0.0, 1.0) == pytest.approx(0.5, abs=1e-9)
    assert mass_between(case2_pot, 1.6, 2.2) == pytest.approx(0.5, abs=1e-9)
    assert mass_between(case2_pot, 1.0, 1.6) == pytest.approx(0.0, abs=1e-6)


def test_case2_coincidence_stationarity(case2_pot):
    # tau = M0 tilt is critical at the outposts, and the laplacian stays
    # strictly positive there
    for t in (1.2, 1.4):
        assert t * float(case2_pot.dq(t)) == pytest.approx(2.0 * 0.5, abs=1e-8)
        assert float(hg.laplacian(case2_pot, t)) > 1.0


def test_case2_gap_barrier(case2_pot):
    # inside the gap the potential dominates its log continuation from b0,
    # with equality exactly at the outposts
    r = np.linspace(1.0 + 1e-9, 1.6 - 1e-9, 6000)
    qcheck = float(case2_pot.q(1.0)) + 2.0 * 0.5 * np.log(r / 1.0)
    barrier = np.asarray(case2_pot.q(r)) - qcheck
    assert np.min(barrier) >= -1e-12
    # the barrier lifts off quadratically from both gap edges
    away = (
        (r > 1.05)
        & (r < 1.55)
        & (np.abs(r - 1.2) > 0.06)
        & (np.abs(r - 1.4) > 0.06)
    )
    assert np.min(barrier[away]) > 1e-6
    for t in (1.2, 1.4):
        bt = float(case2_pot.q(t)) - (float(case2_pot.q(1.0)) + math.log(t))
        assert bt == pytest.approx(0.0, abs=1e-12)


def test_case2_classification_roundtrip(case2_data):
    assert case2_data.case_tag == "case2"
    assert len(case2_data.components) == 2
    assert case2_data.components[0][1] == pytest.approx(1.0, abs=1e-6)
    assert case2_data.components[1][0] == pytest.approx(1.6, abs=1e-6)
    assert case2_data.components[1][1] == pytest.approx(2.2, abs=1e-6)
    assert case2_data.masses[0] == pytest.approx(0.5, abs=1e-8)
    assert case2_data.masses[1] == pytest.approx(1.0, abs=1e-8)
    assert case2_data.outposts[0] == pytest.approx(1.2, abs=1e-6)
    assert case2_data.outposts[1] == pytest.approx(1.4, abs=1e-6)
    assert any(abs(b - 0.5) <= 1e-8 for b in case2_data.branch_values)


def test_case2_validation_report(case2_pot):
    checks, data = hg.validation_report(case2_pot)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert data.case_tag == "case2"


def test_case2_bare_gap(case2_bare_data):
    assert case2_bare_data.case_tag == "case2"
    assert case2_bare_data.outposts == ()
    assert case2_bare_data.masses[0] == pytest.approx(0.5, abs=1e-8)


def test_case2_single_outpost(case2_single_data):
    assert case2_single_data.case_tag == "case2"
    assert len(case2_single_data.outposts) == 1
    assert case2_single_data.outposts[0] == pytest.approx(1.2, abs=1e-6)


def test_droplet_data_json(case2_data):
    blob = case2_data.to_json_dict()
    assert blob["case_tag"] == "case2"
    assert len(blob["components"]) == 2
    assert len(blob["outposts"]) == 2
    assert blob["masses"][-1] == pytest.approx(1.0, abs=1e-8)


# ------------------------------------------------------------ builder errors


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: hg.build_case1((1.5, 1.6), w=(0.2, 0.2)), "window overlap"),
        (lambda: hg.build_case1((0.8,), w=(0.1,)), "outpost"),
        (lambda: hg.build_case1((1.5,), w=(0.0,)), "half-width"),
        (lambda: hg.build_case2(((0.0, 1.0), (1.6, 2.2)), 1.5), "M0"),
        (
            lambda: hg.build_case2(((0.0, 1.7), (1.6, 2.2)), 0.5),
            "components",
        ),
        (
            lambda: hg.build_case2(((0.0, 1.0), (1.6, 2.2)), 0.5, t=(0.5,), w=(0.06,)),
            "outpost",
        ),
    ],
)
def test_builders_reject_bad_geometry(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ------------------------------------------------------------- peak finding


def test_find_peaks_case1_unit_tilt(case1_pot):
    pa = find_peaks(case1_pot, 1.0, (1e-6, 4.0), n=256, C=10.0)
    radii = sorted(p.r for p in pa.peaks)
    assert len(radii) == 3
    assert radii[0] == pytest.approx(1.0, abs=1e-6)
    assert radii[1] == pytest.approx(1.5, abs=1e-9)
    assert radii[2] == pytest.approx(2.0, abs=1e-9)
    assert all(p.curvature > 0.0 for p in pa.peaks)
    assert pa.delta_n > 0.0


def test_find_peaks_interior_tilt(case1_pot):
    # below the branching tilt only the droplet-interior peak survives
    pa = find_peaks(case1_pot, 0.5, (1e-6, 4.0), n=256, C=10.0)
    significant = [p.r for p in pa.peaks if p.significant]
    assert len(significant) == 1
    assert significant[0] == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_find_peaks_reports_unresolved_grid():
    pot = wiggle_potential()
    with pytest.raises(hg.GridResolutionError, match="points_per_unit"):
        find_peaks(pot, 1.3, (1e-6, 4.0), n=256, C=10.0, points_per_unit=32)
    # refining as instructed resolves the close pair
    pa = find_peaks(pot, 1.3, (1e-6, 4.0), n=256, C=10.0, points_per_unit=512)
    radii = sorted(p.r for p in pa.peaks)
    assert len(radii) == 2
    assert radii[0] == pytest.approx(1.1139, abs=2e-4)
    assert radii[1] == pytest.approx(1.2517, abs=2e-4)


def test_find_peaks_dead_band_at_branch_value(case2_pot):
    # at the branching tilt the obstacle zone makes the stationarity
    # function vanish identically on an annulus; the scan must not turn
    # its roundoff flicker into crossings
    pa = find_peaks(case2_pot, 0.5, (1e-6, 4.0), n=256, C=10.0)
    radii = sorted(p.r for p in pa.peaks)
    for t in (1.2, 1.4):
        assert any(abs(r - t) < 1e-6 for r in radii)


# ------------------------------------------------------------ cutoff shapes


def test_bump_plateau_and_support():
    spec = BumpSpec(1.2, 0.04)
    plateau = np.linspace(1.18, 1.22, 101)
    assert np.all(hg.bump(spec, plateau) == 1.0)
    outside = np.array([1.1599, 1.2401, 0.5, 3.0])
    assert np.all(hg.bump(spec, outside) == 0.0)
    roll = np.array([1.165, 1.175, 1.225, 1.235])
    vals = hg.bump(spec, roll)
    assert np.all((vals > 0.0) & (vals < 1.0))
    up = hg.bump(spec, np.linspace(1.161, 1.179, 40))
    assert np.all(np.diff(up) > 0.0)


def test_bump_scalar_evaluation():
    spec = BumpSpec(1.2, 0.04)
    assert hg.bump(spec, 1.2) == 1.0
    assert hg.bump(spec, 1.0) == 0.0
    assert isinstance(hg.bump(spec, 1.2), float)


def test_bump_rejects_bad_width():
    with pytest.raises(ValueError):
        BumpSpec(1.2, 0.0)


def test_shoulder_profile():
    keep_low = Shoulder(1.07, 1.15, keep_below=True)
    assert hg.shoulder(keep_low, 0.3) == 1.0
    assert hg.shoulder(keep_low, 1.07) == 1.0
    assert hg.shoulder(keep_low, 1.15) == 0.0
    assert hg.shoulder(keep_low, 2.0) == 0.0
    band = np.linspace(1.075, 1.145, 30)
    vals = hg.shoulder(keep_low, band)
    assert np.all((vals > 0.0) & (vals < 1.0))
    assert np.all(np.diff(vals) < 0.0)
    keep_high = Shoulder(1.45, 1.53, keep_below=False)
    assert hg.shoulder(keep_high, 1.4) == 0.0
    assert hg.shoulder(keep_high, 5.0) == 1.0
    mid = np.asarray(hg.shoulder(keep_high, band + 0.38))
    assert np.all(np.diff(mid) > 0.0)


def test_shoulder_rejects_bad_band():
    with pytest.raises(ValueError):
        Shoulder(1.2, 1.2, keep_below=True)
    with pytest.raises(ValueError):
        Shoulder(-0.1, 1.0, keep_below=True)


# ------------------------------------------------------- derivative checks


def test_derivative_consistency_catches_wrong_slope():
    base = hg.ginibre()
    broken = RadialPotential(
        lambda r, order: tuple(
            v * 1.01 if i == 1 else v for i, v in enumerate(base.terms(r, order))
        ),
        smooth_window=base.smooth_window,
        r_max=base.r_max,
        label="broken",
    )
    e1, _ = derivative_consistency(broken)
    assert e1 > 1e-3


# ------------------------------------------------------- evaluation orders


def _piece_edges(pot):
    """Radii where a builder's pieces meet, with their float neighbours:
    component edges, window edges t_k ± w_k, case-2 smoothstep band edges."""
    p = pot.params
    pts = [1.0, 3.0] if pot.label == "case1" else []
    if "components" in p:
        (_, b0), (a1, _) = p["components"]
        bands = (0.15, 0.25, 0.30, 0.45, 0.55, 0.70, 0.75, 0.85)
        pts += [b0, a1] + [b0 + u * (a1 - b0) for u in bands]
    for t, w in zip(p.get("t", ()), p.get("w", ())):
        pts += [t - w, t, t + w]
    pts = np.array(pts, dtype=float)
    return np.concatenate((pts, np.nextafter(pts, 0.0), np.nextafter(pts, np.inf)))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_terms_orders_agree(ginibre_pot, case1_pot, case2_pot, case2_bare_pot, data):
    pot = data.draw(st.sampled_from((ginibre_pot, case1_pot, case2_pot, case2_bare_pot)))
    radius = st.floats(min_value=0.0, max_value=pot.r_max, exclude_min=True, exclude_max=True)
    edges = _piece_edges(pot)
    if edges.size:
        radius = st.one_of(radius, st.sampled_from(edges.tolist()))
    shape = data.draw(st.sampled_from([(12,), (3, 4), (6, 2)]))
    r = np.array(data.draw(st.lists(radius, min_size=12, max_size=12))).reshape(shape)
    by_order = [pot.terms(r, k) for k in range(3)]
    for k, out in enumerate(by_order):
        assert len(out) == k + 1
        for i, v in enumerate(out):
            # the same bits whatever higher order is also asked for
            assert v.dtype == np.float64 and v.shape == r.shape
            assert v.tobytes() == by_order[2][i].tobytes()
    x = float(r.flat[0])
    one = pot.terms(np.array([x]), 2)
    for i, method in enumerate((pot.q, pot.dq, pot.ddq)):
        assert np.asarray(method(r)).tobytes() == by_order[2][i].tobytes()
        for scalar in (x, np.float64(x), np.array(x)):
            value = method(scalar)
            assert type(value) is float
            assert np.float64(value).tobytes() == one[i].tobytes()


def test_hot_paths_ask_only_for_order_zero():
    base = hg.build_case1((1.5, 2.0), w=(0.2, 0.2))
    calls = []

    def recording():
        def terms(r, order):
            calls.append((order, r.size))
            return base.terms(r, order)

        return RadialPotential(
            terms, smooth_window=base.smooth_window, r_max=base.r_max,
            label=base.label, params=base.params,
        )

    pot = recording()
    sample_moduli(pot, 32, seed=5)  # warms the peak and grid caches
    per_reps = {}
    for reps in (1, 200):
        calls.clear()
        sample_moduli(pot, 32, seed=5, reps=reps)
        per_reps[reps] = list(calls)
    derivs = {reps: [c for c in got if c[0] >= 1] for reps, got in per_reps.items()}
    assert derivs[1] == derivs[200]
    q_elems = {reps: sum(size for order, size in got if order == 0) for reps, got in per_reps.items()}
    assert q_elems[200] > q_elems[1]

    # classify reads q and q' on its full dense grid from one order-1 call
    calls.clear()
    classify(recording())
    full = int(4096 * (base.r_max - 1e-6)) + 1
    assert [c for c in calls if c[1] == full] == [(1, full)]


def test_mass_between_additivity(case2_pot):
    a = mass_between(case2_pot, 0.0, 0.7)
    b = mass_between(case2_pot, 0.7, 1.0)
    assert a + b == pytest.approx(0.5, abs=1e-9)
    assert mass_between(case2_pot, 1.0, 0.5) == 0.0
