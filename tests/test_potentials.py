"""Potential builders, classification, tilt roots, and cutoff profiles."""

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
    mass_between,
    tilt_roots,
)

from conftest import _case1_q_mp, _case2_q_mp


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

    data = classify(RadialPotential(terms, r_max=3.0))
    assert data.case_tag == "none"
    assert data.branch_values == ()
    assert data.outposts == ()
    # r q'(r) = 4 r^4 = 2 at tau = 1
    assert data.components == ((0.0, pytest.approx(2.0**-0.25, abs=1e-12)),)
    assert data.masses[-1] == pytest.approx(1.0, abs=1e-8)


def _quartic():
    return RadialPotential(
        lambda r, order: (r**4, 4.0 * r**3, 12.0 * r**2)[: order + 1],
        r_max=3.0,
    )


# (components, outposts, cumulative masses, branch values, case tag) that
# the earlier tau-sweep classification gave
PINNED = {
    "ginibre_pot": (((0.0, 1.0),), (), (1.0,), (), "none"),
    "quartic": (((0.0, 0.8408964152537145),), (), (0.9999999999999998,), (), "none"),
    "case1_pot": (((0.0, 1.0),), (1.5, 2.0), (1.0,), (), "case1"),
    "case1_m10": (
        ((0.0, 1.0),),
        (1.2, 1.3777777777777778, 1.5555555555555554, 1.7333333333333332,
         1.911111111111111, 2.0888888888888886, 2.2666666666666666,
         2.444444444444444, 2.622222222222222, 2.8),
        (1.0,), (), "case1",
    ),
    "case2_pot": (((0.0, 1.0), (1.6, 2.2)), (1.2, 1.4), (0.5, 1.0), (0.5,), "case2"),
    "case2_single_pot": (((0.0, 1.0), (1.6, 2.2)), (1.2,), (0.5, 1.0), (0.5,), "case2"),
    "case2_bare_pot": (((0.0, 1.0), (1.6, 2.2)), (), (0.5, 1.0), (0.5,), "case2"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_classification_pinned_without_peak_scan(request, name):
    # the convex minorant alone reads the droplet the earlier sweep found
    if name == "quartic":
        pot = _quartic()
    elif name == "case1_m10":
        pot = hg.build_case1(tuple(np.linspace(1.2, 2.8, 10)), w=(0.06,) * 10)
    else:
        pot = request.getfixturevalue(name)
    data = classify(pot)
    components, outposts, masses, branch_values, tag = PINNED[name]
    assert data.case_tag == tag
    got = (data.components, data.outposts, data.masses, data.branch_values)
    for have, want in zip(got, (components, outposts, masses, branch_values)):
        assert np.shape(have) == np.shape(want)
        assert np.all(np.abs(np.subtract(have, want)) <= 1e-12)


def test_ring_droplet_and_droplet_past_r_max():
    # q = (r - 1)^2: the droplet is the ring from the minimum of q, r = 1,
    # to r q'(r) = 2, the golden ratio
    ring = RadialPotential(
        lambda r, order: ((r - 1.0) ** 2, 2.0 * (r - 1.0), np.full(r.shape, 2.0))[: order + 1],
        r_max=4.0,
    )
    data = classify(ring)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert data.components == (
        (pytest.approx(1.0, abs=1e-12), pytest.approx(golden, abs=1e-12)),
    )
    assert data.masses == (pytest.approx(1.0, abs=1e-12),)
    assert data.case_tag == "none"
    # r^4 reaches r q'(r) = 2 at 0.84, past an r_max of 0.5
    short = RadialPotential(_quartic().terms, r_max=0.5)
    with pytest.raises(hg.ClassificationError, match="r_max"):
        classify(short)


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


# each identity once, in the order a build checks them
TOUCH_CHECKS = [
    "obstacle_inequality", "coincidence_isolation", "coincidence_touch",
    "coincidence_stationarity", "laplacian_at_outpost",
]
TAIL_CHECKS = ["derivative_consistency", "growth", "total_mass", "classification_roundtrip"]


def test_case1_validation_report(case1_pot):
    checks, data = hg.validation_report(case1_pot)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert [c.name for c in checks] == TOUCH_CHECKS + TAIL_CHECKS
    assert data.case_tag == "case1"


def test_single_outpost_roundtrip():
    pot = hg.build_case1((1.5,), w=(0.2,))
    data = hg.droplet_data(pot)
    assert data.case_tag == "case1"
    assert len(data.outposts) == 1
    assert data.outposts[0] == pytest.approx(1.5, abs=1e-6)


@pytest.mark.parametrize(
    "t,w",
    [
        # the difference-stencil check rejected these: the build at err
        # 5.4e-5, the report at 3.7e2
        (tuple(np.linspace(1.2, 2.8, 12)), 0.04),
        ((1.5,), 0.005),
        # the tau sweep missed the outpost at 1.18
        ((1.18, 1.788, 2.7215), 0.139),
    ],
    ids=["twelve", "narrow", "wide"],
)
def test_case1_geometry_roundtrip(t, w):
    pot = hg.build_case1(t, w=(w,) * len(t))
    checks, data = hg.validation_report(pot)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert data.case_tag == "case1"
    assert len(data.outposts) == len(t)
    assert np.max(np.abs(np.subtract(data.outposts, t))) <= 1e-6


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


def test_case2_is_the_bare_profile_lowered(case2_pot, case2_bare_pot):
    # q = q0 - (q0 - Q̌) Σζ with q0 the bare case-2 profile: ΔQ(t_k) is
    # (q0 - Q̌)(t_k)/(2 w_k²), measured 3.5e-16 relative; across the gap q
    # is q0 lowered by the windows, written out here, measured within 1 ulp
    # of q0
    p = case2_pot.params
    (_, b0), (a1, _) = p["components"]
    t, w = np.array(p["t"]), np.array(p["w"])

    def obstacle(r):
        return p["M0"] + 2.0 * p["M0"] * np.log(r / b0)

    want = (case2_bare_pot.q(t) - obstacle(t)) / (2.0 * w**2)
    assert np.all(np.abs(hg.laplacian(case2_pot, t) - want) <= 1e-10 * np.abs(want))
    r = np.linspace(b0, a1, 60001)[1:-1]
    u = (r[:, None] - t) / w
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        zeta = np.where(np.abs(u) < 1.0, np.exp(1.0 - 1.0 / (1.0 - u * u)), 0.0).sum(axis=1)
    q0 = case2_bare_pot.q(r)
    lowered = q0 - (q0 - obstacle(r)) * zeta
    assert np.all(np.abs(case2_pot.q(r) - lowered) <= 2.0 * np.spacing(q0))


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
    assert [c.name for c in checks] == TOUCH_CHECKS + ["edge_slope"] + TAIL_CHECKS
    assert data.case_tag == "case2"


@pytest.mark.parametrize(
    "build",
    [
        lambda: hg.build_case1((1.5, 2.0), w=(0.2, 0.2)),
        lambda: hg.build_case2(((0.0, 1.0), (1.6, 2.2)), 0.5, t=(1.2, 1.4), w=(0.06, 0.06)),
    ],
    ids=["case1", "case2"],
)
def test_broken_identity_fails_under_its_name(monkeypatch, build):
    # windows that reach 0.999 of the way down leave q above the obstacle
    # line at the outposts
    pot = build()
    zeta_sum = hg.potentials._zeta_sum
    monkeypatch.setattr(
        hg.potentials, "_zeta_sum", lambda *args: tuple(0.999 * v for v in zeta_sum(*args))
    )
    checks, _ = hg.validation_report(pot)
    failed = [c.name for c in checks if not c.passed]
    assert failed[0] == "coincidence_touch"
    assert "classification_roundtrip" in failed
    with pytest.raises(hg.BuildValidationError, match="coincidence_touch") as info:
        build()
    assert info.value.check_name == "coincidence_touch"


@pytest.mark.parametrize(
    "label,missing",
    [("case1", "['t', 'w']"), ("case2", "['components', 'M0', 't', 'w']")],
)
def test_family_label_without_params_fails_a_check(label, missing):
    # a custom potential under a built family's label, without the builder's
    # params: the report raised KeyError: 't'
    pot = RadialPotential(hg.ginibre().terms, label=label)
    checks, data = hg.validation_report(pot)
    assert (checks[0].name, checks[0].passed) == ("builder_params", False)
    assert missing in checks[0].detail
    assert [c.name for c in checks[1:]] == ["derivative_consistency", "growth", "total_mass"]
    assert data.case_tag == "none"
    with pytest.raises(hg.BuildValidationError, match="builder_params") as info:
        hg.potentials._validate(pot)
    assert info.value.check_name == "builder_params"


@pytest.mark.parametrize("name", ["case1_pot", "case2_pot"])
def test_report_runs_each_check_once(request, monkeypatch, name):
    pot = request.getfixturevalue(name)
    calls = []
    for fn in ("derivative_consistency", "_growth_margin"):
        real = getattr(hg.potentials, fn)
        monkeypatch.setattr(
            hg.potentials, fn, lambda p, fn=fn, real=real: calls.append(fn) or real(p)
        )
    hg.validation_report(pot)
    assert sorted(calls) == ["_growth_margin", "derivative_consistency"]


@pytest.mark.parametrize(
    "components,m0,t",
    [
        (((0.0, 1.1293), (1.5852, 2.0222)), 0.2394, 1.4774),
        (((0.0, 1.1771), (1.6068, 2.0532)), 0.5378, 1.4850),
    ],
)
def test_case2_geometry_roundtrip(components, m0, t):
    # geometries on which the tau sweep failed: its gap scan got an empty
    # interval in the first, and its masses summed to 0.935 in the second
    pot = hg.build_case2(components, m0, t=(t,), w=(0.03,))
    checks, data = hg.validation_report(pot)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert data.branch_values == (pytest.approx(m0, abs=1e-12),)


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
        # an outpost without its window, or a window without its outpost
        (
            lambda: hg.build_case2(((0.0, 1.0), (1.6, 2.2)), 0.5, t=(1.2, 1.4), w=(0.06,)),
            "matching",
        ),
        (
            lambda: hg.build_case2(((0.0, 1.0), (1.6, 2.2)), 0.5, t=(1.2,), w=(0.06, 0.06)),
            "matching",
        ),
    ],
)
def test_builders_reject_bad_geometry(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ------------------------------------------------------------ tilt roots


def _tilts(n):
    return (np.arange(n) + 0.5) / n


def test_tilt_roots_ginibre_closed_form(ginibre_pot):
    # r q'(r) = 2 r^2 = 2 tau has the one root sqrt(tau), solved from one
    # bracket [1e-6, 6] per tilt; measured worst 2.2e-16 relative (Brent's
    # method to 1e-13 missed by 1.4e-13)
    for n in (64, 128, 1000):
        taus = _tilts(n)
        lo, hi = np.full(n, 1e-6), np.full(n, 6.0)
        roots = tilt_roots(
            ginibre_pot, taus, lo, hi, lo * ginibre_pot.dq(lo) - 2.0 * taus,
            hi * ginibre_pot.dq(hi) - 2.0 * taus,
        )
        assert np.all(np.abs(roots - np.sqrt(taus)) <= 1e-15 * np.sqrt(taus))


@pytest.mark.parametrize("pot_name,q_mp", [("case1_pot", _case1_q_mp), ("case2_pot", _case2_q_mp)])
def test_tilt_roots_match_mpmath(request, pot_name, q_mp):
    # every minimizer radius at every eighth tilt of n = 128 against a
    # 30-digit root of r q'(r) = 2 tau, with q' differentiated by mpmath from
    # an independent transcription of the builder's formula; measured worst
    # 1.6e-16 (case 1, 48 roots) and 1.9e-16 (case 2, 65 roots)
    mp = pytest.importorskip("mpmath")
    pot = request.getfixturevalue(pot_name)
    taus = _tilts(128)[::8]
    # the minimizers of g_tau: each - to + sign change of r q' - 2 tau
    # between neighbours of a 4096-per-unit grid
    grid = np.linspace(1e-6, pot.r_max, int(4096 * (pot.r_max - 1e-6)) + 1)
    f = grid * pot.dq(grid) - 2.0 * taus[:, None]
    row, i = np.nonzero((f[:, :-1] < 0.0) & (f[:, 1:] > 0.0))
    tau = taus[row]
    roots = tilt_roots(pot, tau, grid[i], grid[i + 1], f[row, i], f[row, i + 1])
    assert len(roots) >= len(taus)
    with mp.workdps(30):
        q = q_mp(mp, pot)
        worst = 0.0
        for t, root in zip(tau, roots):
            x = mp.mpf(float(root))
            want = mp.findroot(
                lambda r: r * mp.diff(q, r) - 2 * mp.mpf(float(t)),
                (x - mp.mpf("1e-9"), x + mp.mpf("1e-9")), solver="anderson",
            )
            worst = max(worst, abs(float(want - x)))
    assert worst <= 1e-13


def _mp_radii(pot):
    """The window centres, t_k ± w_k/2, the builder's piece edges (case 2's
    band edges among them) and seven points spread over each piece between
    them; not the component ends b0 and a1, where the transcription's
    formula changes and mp.diff's 30-digit differences see its rounding
    as a jump."""
    p = pot.params
    t, w = np.array(p["t"]), np.array(p["w"])
    seams = np.r_[hg.potentials._piece_edges(pot), (1.0, 3.0) if pot.label == "case1" else ()]
    seams = np.unique(np.r_[0.0, seams, pot.r_max])
    spread = [np.linspace(a, b, 9)[1:-1] for a, b in zip(seams[:-1], seams[1:])]
    r = np.unique(np.r_[t, t - w / 2.0, t + w / 2.0, seams, np.concatenate(spread)])
    ends = [c for comp in p.get("components", ()) for c in comp]
    return r[(r > 0.0) & (r < pot.r_max) & ~np.isin(r, ends)]


@pytest.mark.parametrize(
    "pot_name,q_mp,gates",
    [
        # each gate is the measured worst miss at orders 0, 1 and 2, rounded
        # up at two digits: case 1 at r = 1.95, 1.95 and 1.85, case 2 at 1.49,
        # 1.47 and 1.26, the bare gap at 1.49, 1.50 and 1.12
        ("case1_pot", _case1_q_mp, (1.7e-16, 7.5e-16, 4.6e-15)),
        ("case2_pot", _case2_q_mp, (3.1e-16, 5.1e-15, 4.3e-14)),
        ("case2_bare_pot", _case2_q_mp, (2.3e-16, 4.4e-15, 1.1e-13)),
    ],
)
def test_terms_match_mpmath(request, pot_name, q_mp, gates):
    # q, q' and q'' against an independent 30-digit transcription of the
    # builder's formula, the derivatives by mp.diff, each miss relative to
    # max(1, |value|)
    mp = pytest.importorskip("mpmath")
    pot = request.getfixturevalue(pot_name)
    r = _mp_radii(pot)
    got = pot.terms(r, 2)
    with mp.workdps(30):
        q = q_mp(mp, pot)
        for k, gate in enumerate(gates):
            worst = 0.0
            for x, value in zip(r.tolist(), got[k].tolist()):
                want = mp.diff(q, mp.mpf(x), k)
                worst = max(worst, float(abs(value - want) / max(1, abs(want))))
            assert worst <= gate, (k, worst)


def test_tilt_roots_zero_end_and_bad_bracket(ginibre_pot):
    # an end where r q' - 2 tau vanishes is its own root
    got = tilt_roots(
        ginibre_pot, [0.25, 0.25], [0.5, 0.1], [0.9, 0.5], [0.0, -0.48], [1.12, 0.0]
    )
    assert list(got) == [0.5, 0.5]
    with pytest.raises(ValueError, match="sign change"):
        tilt_roots(ginibre_pot, [0.25], [0.6], [0.9], [0.22], [1.12])


def test_tilt_roots_raise_when_passes_run_out(ginibre_pot, monkeypatch):
    monkeypatch.setattr(hg.potentials, "_ROOT_PASSES", 2)
    with pytest.raises(hg.RootFindingError, match="tolerance"):
        tilt_roots(ginibre_pot, [0.3], [0.01], [5.0], [2e-4 - 0.6], [49.4])


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

    def broken(order, factor):
        return RadialPotential(
            lambda r, k: tuple(
                v * factor if i == order else v for i, v in enumerate(base.terms(r, k))
            ),
            r_max=base.r_max,
            label="broken",
        )

    e1, _ = derivative_consistency(broken(1, 1.01))
    assert e1 > 1e-3
    _, e2 = derivative_consistency(broken(2, 1.001))
    assert e2 > 5e-4


# ------------------------------------------------------- evaluation orders


def _piece_edges(pot):
    """Radii where a builder's pieces meet (the derivative check's seams),
    the outpost centres and case 1's interval ends, with their float
    neighbours."""
    pts = np.r_[
        hg.potentials._piece_edges(pot), pot.params.get("t", ()),
        (1.0, 3.0) if pot.label == "case1" else (),
    ]
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
            terms, r_max=base.r_max,
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

    # classify reads q alone on its full dense grid, from one order-0 call
    calls.clear()
    classify(recording())
    full = int(4096 * (base.r_max - 1e-6)) + 1
    assert [c for c in calls if c[1] == full] == [(0, full)]


def test_mass_between_additivity(case2_pot):
    a = mass_between(case2_pot, 0.0, 0.7)
    b = mass_between(case2_pot, 0.7, 1.0)
    assert a + b == pytest.approx(0.5, abs=1e-9)
    assert mass_between(case2_pot, 1.0, 0.5) == 0.0
