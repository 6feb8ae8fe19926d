"""Limit laws: parameter extraction, moments, and finite-n agreement."""

import dataclasses
import math

import numpy as np
import pytest

import heinegas as hg
from heinegas.engine import HardRegion, RegionSet, SplitRegion, exact_count_law, standard_regions
from heinegas.limits import (
    case1,
    case2,
    case2_moments,
    case2_predicted_law,
    case2_predicted_mgf,
    convergence_row,
    limit_for,
    limit_moments,
    predicted_law,
    predicted_mgf,
)


# ------------------------------------------------------------------- case 1


def test_case1_frozen_parameters(case1_pot, case1_data):
    lim = case1(case1_data, case1_pot)
    assert lim.m == 2
    assert lim.rho[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert lim.rho[1] == pytest.approx(0.5, abs=1e-9)
    assert lim.vartheta[0] == pytest.approx(0.426852882207735, abs=1e-9)
    assert lim.vartheta[1] == pytest.approx(0.22265519635340292, abs=1e-9)


def test_case1_intensity_from_curvature(case1_pot, case1_data):
    # dual route: the intensity is the curvature ratio sqrt(dQ(b0)/dQ(t))
    lim = case1(case1_data, case1_pot)
    b0 = case1_data.components[0][1]
    lap_b0 = float(hg.laplacian(case1_pot, b0))
    for k, t in enumerate(case1_data.outposts):
        want = math.sqrt(lap_b0 / float(hg.laplacian(case1_pot, t)))
        assert lim.vartheta[k] == pytest.approx(want, abs=1e-12)


def test_case1_substitution(case1_pot, case1_data):
    # the heine parameters are theta_k = vartheta_k rho_k, q_k = rho_k^2
    lim = case1(case1_data, case1_pot)
    for k in range(lim.m):
        assert lim.heine.thetas[k] == pytest.approx(
            lim.vartheta[k] * lim.rho[k], abs=1e-14
        )
        assert lim.heine.qs[k] == pytest.approx(lim.rho[k] ** 2, abs=1e-14)


def test_case1_moments_match_series(case1_pot, case1_data, series_moments):
    # the heine moment machinery against the site series summed in the
    # (ϑ, ρ) parameterization
    lim = case1(case1_data, case1_pot)
    mean, var, cov = series_moments(lim.vartheta, lim.rho)
    assert np.allclose(hg.mean_vector(lim.heine), mean, atol=1e-12)
    assert np.allclose(hg.variance_vector(lim.heine), var, atol=1e-12)
    assert np.allclose(hg.covariance_matrix(lim.heine), cov, atol=1e-12)
    assert hg.covariance_matrix(lim.heine)[0, 1] < 0.0


def test_case1_moments_match_table(case1_pot, case1_data):
    lim = case1(case1_data, case1_pot)
    law = hg.pmf_table(lim.heine, tail_tol=1e-13)
    assert np.allclose(hg.mean_vector(lim.heine), law.mean(), atol=1e-8)
    assert np.allclose(hg.covariance_matrix(lim.heine), law.covariance_matrix(), atol=1e-8)


def test_case1_limit_is_its_one_family(case1_pot, case1_data):
    # one family on coordinates (0, ..., m-1): the predicted law is its
    # table, the MGF its heine.mgf and the moments its Heine moments, bit
    # for bit
    lim = limit_for(case1_data, case1_pot, 64)
    assert lim == case1(case1_data, case1_pot)
    assert lim.families == ((lim.heine, (0, 1)),)
    law, table = predicted_law(lim, tail_tol=1e-12), hg.pmf_table(lim.heine, tail_tol=1e-12)
    assert np.array_equal(law.table, table.table)
    assert law.mass_deficit == table.mass_deficit
    for s in ([0.5, -0.5], [1.0, 0.0], [-2.0, 3.0]):
        assert predicted_mgf(lim, s) == hg.mgf(lim.heine, s)
    mean, var, cov = limit_moments(lim)
    assert np.array_equal(mean, hg.mean_vector(lim.heine))
    assert np.array_equal(cov, hg.covariance_matrix(lim.heine))
    assert np.array_equal(var, np.diag(cov))


def test_case2_names_are_the_limit_functions():
    assert case2_predicted_law is predicted_law
    assert case2_predicted_mgf is predicted_mgf
    assert case2_moments is limit_moments


def test_limit_for_needs_case1_or_case2(ginibre_pot, case1_pot, case1_data):
    with pytest.raises(ValueError, match="tagged 'none' has no limit law"):
        limit_for(hg.droplet_data(ginibre_pot), ginibre_pot, 64)
    other = dataclasses.replace(case1_data, case_tag="other")
    with pytest.raises(ValueError, match="tagged 'other' has no limit law"):
        limit_for(other, case1_pot, 64)


def test_convergence_row_picks_the_limit_first(ginibre_pot, monkeypatch):
    # a droplet without a limit law is rejected before any count law is made
    def no_law(*args, **kwargs):
        raise AssertionError("exact count law computed")

    monkeypatch.setattr(hg.limits, "exact_count_law", no_law)
    with pytest.raises(ValueError, match="no limit law"):
        convergence_row(ginibre_pot, hg.droplet_data(ginibre_pot), 64, [])


def test_case1_rejects_wrong_tag(case2_pot, case2_data):
    with pytest.raises(ValueError, match="case-1"):
        case1(case2_data, case2_pot)


def test_case1_finite_n_tv(case1_pot, case1_data):
    # n = 96 already sits close to the limit law
    regions, _ = standard_regions(case1_data)
    law = exact_count_law(case1_pot, 96, regions)
    predicted = hg.pmf_table(case1(case1_data, case1_pot).heine, tail_tol=1e-12)
    tv_lo, tv_hi = hg.tv_distance(law, predicted)
    assert tv_lo <= tv_hi <= 0.02


# ------------------------------------------------------------------- case 2


def test_case2_frozen_parameters(case2_pot, case2_data):
    lim = case2(case2_data, case2_pot, 256)
    assert lim.m == 2
    assert lim.x_n == 0.0
    assert lim.mass_inner == pytest.approx(0.5, abs=1e-8)
    assert np.allclose(lim.tilde_rho, (0.625, 0.75, 0.875), atol=1e-9)
    assert np.allclose(
        lim.hat_rho, (1.0 / 1.2, 1.0 / 1.4, 1.0 / 1.6), atol=1e-9
    )
    assert np.allclose(
        lim.tilde_vartheta,
        (0.6622661785325218, 0.09761736890993158, 0.10359867042993263),
        atol=1e-9,
    )
    assert np.allclose(
        lim.hat_vartheta,
        (0.14739899465534598, 0.15643056189203422, 1.50996688705415),
        atol=1e-9,
    )


def test_case2_reciprocity_many_n(case2_pot, case2_data):
    for n in (2, 3, 7, 17, 64, 255, 256, 1000, 4097):
        lim = case2(case2_data, case2_pot, n)
        assert abs(lim.tilde_vartheta[0] * lim.hat_vartheta[-1] - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [64, 65])
def test_case2_index_split_is_decided_once(case2_pot, case2_data, n):
    # M0 = 1/2 measured a few ulp low: M0 n is an exact integer at n = 64
    # and a half-integer at n = 65
    m0, x_n = case2_data.index_split(n)
    assert m0 == 32
    assert x_n == (0.0 if n == 64 else pytest.approx(0.5, abs=1e-9))
    regions, _ = standard_regions(case2_data, n)
    assert regions.entries[0].m0 == m0
    assert case2(case2_data, case2_pot, n).x_n == x_n


def test_case2_phase_periodicity(case2_pot, case2_data):
    # M0 = 1/2: the phase alternates between 0 and 1/2 with n parity and
    # the parameters depend on n only through the phase
    even_a = case2(case2_data, case2_pot, 10)
    even_b = case2(case2_data, case2_pot, 12)
    odd_a = case2(case2_data, case2_pot, 11)
    odd_b = case2(case2_data, case2_pot, 13)
    assert even_a.x_n == 0.0 and even_b.x_n == 0.0
    assert odd_a.x_n == pytest.approx(0.5, abs=1e-9)
    assert odd_b.x_n == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(even_a.tilde_vartheta, even_b.tilde_vartheta, atol=1e-12)
    assert np.allclose(odd_a.hat_vartheta, odd_b.hat_vartheta, atol=1e-12)
    assert not np.allclose(even_a.tilde_vartheta, odd_a.tilde_vartheta, atol=1e-3)


def test_case2_phase_tilts_intensities(case2_pot, case2_data):
    # x enters as rho^(-2x) on the tilde side and rho^(+2x) on the hat side
    base = case2(case2_data, case2_pot, 256)
    odd = case2(case2_data, case2_pot, 255)
    for k in range(base.m + 1):
        tilt = base.tilde_rho[k] ** (-2.0 * odd.x_n)
        assert odd.tilde_vartheta[k] == pytest.approx(
            base.tilde_vartheta[k] * tilt, rel=1e-10
        )
        tilt = base.hat_rho[k] ** (2.0 * odd.x_n)
        assert odd.hat_vartheta[k] == pytest.approx(
            base.hat_vartheta[k] * tilt, rel=1e-10
        )


def test_case2_single_outpost(case2_single_pot, case2_single_data):
    lim = case2(case2_single_data, case2_single_pot, 64)
    assert lim.m == 1
    assert len(lim.tilde_vartheta) == 2
    assert len(lim.hat_vartheta) == 2
    assert lim.tilde_vartheta[0] == pytest.approx(0.6622661785325218, abs=1e-9)
    assert lim.hat_vartheta[-1] == pytest.approx(1.50996688705415, abs=1e-9)
    lap_a1 = float(hg.laplacian(case2_single_pot, 1.6))
    lap_t = float(hg.laplacian(case2_single_pot, 1.2))
    assert lim.tilde_vartheta[1] == pytest.approx(
        math.sqrt(lap_a1 / lap_t), rel=1e-9
    )


def test_case2_bare_gap(case2_bare_pot, case2_bare_data):
    # no outposts: only the two gap-edge statistics remain, reciprocal
    lim = case2(case2_bare_data, case2_bare_pot, 128)
    assert lim.m == 0
    assert len(lim.tilde_vartheta) == 1
    assert len(lim.hat_vartheta) == 1
    assert lim.hat_vartheta[0] == pytest.approx(1.0 / lim.tilde_vartheta[0], rel=1e-12)
    law = case2_predicted_law(lim)
    assert law.m == 1
    assert law.total_mass + law.mass_deficit == pytest.approx(1.0, abs=1e-12)


def test_case2_input_validation(case2_pot, case2_data, case1_pot, case1_data):
    with pytest.raises(ValueError, match="case-2"):
        case2(case1_data, case1_pot, 64)
    with pytest.raises(ValueError, match="n must be"):
        case2(case2_data, case2_pot, 1)


# --------------------------------------------------------- the combined law


def test_case2_predicted_law_mass(case2_pot, case2_data):
    lim = case2(case2_data, case2_pot, 256)
    law = case2_predicted_law(lim, tail_tol=1e-12)
    assert law.m == 3
    assert law.total_mass + law.mass_deficit == pytest.approx(1.0, abs=1e-12)
    assert law.mass_deficit <= 1e-12


def test_case2_predicted_law_is_the_mapped_sum(case2_pot, case2_data):
    # the fold of the two families is one convolve_mapped through cmap,
    # each table at half the tail budget
    lim = case2(case2_data, case2_pot, 255)
    assert lim.families == ((lim.tilde, lim.cmap.a_to), (lim.hat, lim.cmap.b_to))
    tilde, hat = (hg.pmf_table(h, tail_tol=5e-13) for h in (lim.tilde, lim.hat))
    want = hg.convolve_mapped(tilde, hat, lim.cmap)
    assert np.array_equal(predicted_law(lim, tail_tol=1e-12).table, want.table)


def test_case2_mgf_factorizes(case2_pot, case2_data, site_product_mgf):
    # combined MGF with s_0 shared is the product of the tilde MGF and the
    # hat MGF with its last coordinate read at s_0
    lim = case2(case2_data, case2_pot, 256)
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = rng.uniform(-1.0, 1.0, size=3)
        lhs = case2_predicted_mgf(lim, s)
        rhs = site_product_mgf(lim.tilde.thetas, lim.tilde.qs, s) * site_product_mgf(
            lim.hat.thetas, lim.hat.qs, (s[1], s[2], s[0])
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_case2_predicted_mgf_matches_law(case2_pot, case2_data):
    lim = case2(case2_data, case2_pot, 255)
    law = case2_predicted_law(lim, tail_tol=1e-13)
    s = np.array([0.4, -0.8, 0.6])
    direct = sum(
        p * math.exp(float(np.dot(s, a))) for a, p in law.entries.items()
    )
    assert case2_predicted_mgf(lim, s) == pytest.approx(direct, rel=1e-8)


def test_case2_moments_are_mapped_sums(case2_pot, case2_data, series_moments):
    # combined covariance = A cov_tilde A^T + B cov_hat B^T with the
    # assignment matrices of the coordinate map; no mixed terms appear.
    # Each side's moments here are the (ϑ, ρ) site series
    lim = case2(case2_data, case2_pot, 256)
    mean, var, cov = case2_moments(lim)
    a_mat = np.zeros((3, 3))
    for src, dst in enumerate(lim.cmap.a_to):
        a_mat[dst, src] = 1.0
    b_mat = np.zeros((3, 3))
    for src, dst in enumerate(lim.cmap.b_to):
        b_mat[dst, src] = 1.0
    t_mean, _, t_cov = series_moments(lim.tilde_vartheta, lim.tilde_rho)
    h_mean, _, h_cov = series_moments(lim.hat_vartheta, lim.hat_rho)
    want_mean = a_mat @ t_mean + b_mat @ h_mean
    want_cov = a_mat @ t_cov @ a_mat.T + b_mat @ h_cov @ b_mat.T
    assert np.allclose(mean, want_mean, atol=1e-12)
    assert np.allclose(cov, want_cov, atol=1e-12)
    assert np.allclose(var, np.diag(cov), atol=1e-12)


def test_case2_moments_match_table(case2_pot, case2_data):
    lim = case2(case2_data, case2_pot, 255)
    mean, _, cov = case2_moments(lim)
    law = case2_predicted_law(lim, tail_tol=1e-13)
    assert np.allclose(mean, law.mean(), atol=1e-8)
    assert np.allclose(cov, law.covariance_matrix(), atol=1e-8)


# ------------------------------------------------------- finite-n agreement


def test_case2_split_placement_is_sharp(case2_pot, case2_data):
    # the index split must sit exactly at floor(M0 n); moving it by one
    # misassigns a boundary index whose landing mass is order one
    n = 255
    lim = case2(case2_data, case2_pot, n)
    predicted = case2_predicted_law(lim, tail_tol=1e-12)
    base, _ = standard_regions(case2_data, n=n)
    head = base.entries[0]
    tvs = {}
    for shift in (-1, 0, 1):
        entries = (
            SplitRegion(head.m0 + shift, below=head.below, above=head.above),
        ) + base.entries[1:]
        law = exact_count_law(case2_pot, n, RegionSet.hard(entries))
        tvs[shift] = hg.tv_distance(law, predicted)[1]
    assert tvs[0] <= 0.05
    assert tvs[-1] <= 0.2
    assert tvs[1] <= 0.2
    assert tvs[0] < tvs[-1]
    assert tvs[0] < tvs[1]
