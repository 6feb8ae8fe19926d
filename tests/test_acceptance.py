"""Acceptance gate: the eight flagship checks, one test per criterion.

Each test prints one ``ACCEPTANCE k: PASS/FAIL`` line (visible with -s, and
mirrored by the pytest -v verdict) and enforces the stated tolerance and
runtime budget.
"""

import itertools
import math
import time

import numpy as np
import pytest

import heinegas as hg
from heinegas import heine as hd
from heinegas.engine import (
    exact_count_law,
    joint_mgf,
    log_norm,
    sample_moduli,
    standard_regions,
)
from heinegas.limits import (
    case1,
    case2,
    case2_moments,
    case2_predicted_law,
    case2_predicted_mgf,
)

GRID_1D = [((th,), (q,)) for th in (0.5, 1.0, 2.0) for q in (0.3, 0.5, 0.8)]
GRID_2D = [
    ((0.5, 2.0), (0.3, 0.8)),
    ((1.0, 1.0), (0.5, 0.5)),
    ((2.0, 0.5), (0.8, 0.3)),
]


def report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_1_normalization_and_reduction():
    t0 = time.monotonic()
    worst_mass = 0.0
    worst_pmf = 0.0
    for thetas, qs in GRID_1D + GRID_2D:
        params = hg.validate_params(thetas, qs)
        law = hg.pmf_table(params, tail_tol=1e-12)
        worst_mass = max(worst_mass, abs(1.0 - law.total_mass - law.mass_deficit))
        assert 1.0 - 1e-12 <= law.total_mass <= 1.0
        if params.m == 1:
            for a in range(21):
                direct = hg.heine_pmf_1d(thetas[0], qs[0], a)
                worst_pmf = max(worst_pmf, abs(law.pmf((a,)) - direct))
    elapsed = time.monotonic() - t0
    ok = worst_pmf <= 1e-12 and elapsed < 1.0
    report(1, ok, f"mass gap {worst_mass:.2e}, pmf gap {worst_pmf:.2e}, {elapsed:.2f}s")
    assert worst_pmf <= 1e-12
    assert elapsed < 1.0


def test_acceptance_2_mgf_exactness():
    t0 = time.monotonic()
    oracle = hg.mgf(hg.validate_params([1.0], [0.5]), [math.log(2.0)])
    oracle_gap = abs(oracle - 3.0)
    worst = 0.0
    for thetas, qs in GRID_1D + GRID_2D:
        params = hg.validate_params(thetas, qs)
        law = hg.pmf_table(params, tail_tol=1e-14)
        for s in itertools.product((-1.0, -0.4, 0.3, 1.0), repeat=params.m):
            series = hg.mgf(params, s)
            table = sum(
                p * math.exp(sum(si * ai for si, ai in zip(s, a)))
                for a, p in law.entries.items()
            )
            worst = max(worst, abs(series - table) / abs(series))
    elapsed = time.monotonic() - t0
    ok = oracle_gap <= 1e-12 and worst <= 1e-8 and elapsed < 1.0
    report(2, ok, f"oracle gap {oracle_gap:.2e}, mgf-vs-pmf {worst:.2e}, {elapsed:.2f}s")
    assert oracle_gap <= 1e-12
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_acceptance_3_moment_equivalence(series_moments):
    t0 = time.monotonic()
    worst_series = 0.0
    worst_table = 0.0
    covs_negative = True
    for thetas, qs in GRID_1D + GRID_2D:
        rho = tuple(math.sqrt(q) for q in qs)
        vartheta = tuple(t / r for t, r in zip(thetas, rho))
        params = hg.validate_params(thetas, qs)
        mean = hg.mean_vector(params)
        cov = hg.covariance_matrix(params)
        s_mean, s_var, s_cov = series_moments(vartheta, rho)
        worst_series = max(
            worst_series,
            float(np.max(np.abs(mean - s_mean))),
            float(np.max(np.abs(hg.variance_vector(params) - s_var))),
            float(np.max(np.abs(cov - s_cov))),
        )
        law = hg.pmf_table(params, tail_tol=1e-13)
        worst_table = max(
            worst_table,
            float(np.max(np.abs(mean - law.mean()))),
            float(np.max(np.abs(cov - law.covariance_matrix()))),
        )
        for p in range(params.m):
            for q in range(p + 1, params.m):
                covs_negative = covs_negative and cov[p, q] < 0.0
    elapsed = time.monotonic() - t0
    ok = (
        worst_series <= 1e-12
        and worst_table <= 1e-8
        and covs_negative
        and elapsed < 5.0
    )
    report(
        3,
        ok,
        f"series gap {worst_series:.2e}, table gap {worst_table:.2e}, "
        f"covs negative {covs_negative}, {elapsed:.2f}s",
    )
    assert worst_series <= 1e-12
    assert worst_table <= 1e-8
    assert covs_negative
    assert elapsed < 5.0


def test_acceptance_4_quadrature_oracle(ginibre_pot, case1_pot, case2_pot, windowed_log_norm):
    t0 = time.monotonic()
    worst_gin = 0.0
    for n in (64, 256, 1024):
        for j in range(n):
            val = log_norm(ginibre_pot, n, j)
            exact = math.lgamma(j + 1) - (j + 1) * math.log(n)
            worst_gin = max(worst_gin, abs(val - exact) / abs(exact))
    worst_modes = 0.0
    for pot in (case1_pot, case2_pot):
        for n in (128, 512):
            for j in range(n):
                a = log_norm(pot, n, j)
                b = windowed_log_norm(pot, n, j)
                worst_modes = max(worst_modes, abs(a - b) / max(1.0, abs(a)))
    elapsed = time.monotonic() - t0
    ok = worst_gin <= 1e-10 and worst_modes <= 1e-8 and elapsed < 120.0
    report(
        4,
        ok,
        f"ginibre rel gap {worst_gin:.2e}, windowed-vs-full {worst_modes:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert worst_gin <= 1e-10
    assert worst_modes <= 1e-8
    assert elapsed < 120.0


def test_acceptance_5_case1_convergence(case1_pot, case1_data):
    t0 = time.monotonic()
    lim = case1(case1_data, case1_pot)
    predicted = hg.pmf_table(lim.heine, tail_tol=1e-12)
    s_grid = [
        np.array(p) for p in itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=2)
    ]
    tvs = []
    mgfs = []
    for n in (64, 128, 256, 512):
        regions, _ = standard_regions(case1_data, n=n)
        law = exact_count_law(case1_pot, n, regions)
        tvs.append(hg.tv_distance(law, predicted)[1])
        mgfs.append(
            max(
                abs(joint_mgf(case1_pot, n, s, regions).value - hg.mgf(lim.heine, s))
                / hg.mgf(lim.heine, s)
                for s in s_grid
            )
        )
    elapsed = time.monotonic() - t0
    tv_dec = all(a > b for a, b in zip(tvs[:-1], tvs[1:]))
    mgf_dec = all(a > b for a, b in zip(mgfs[:-1], mgfs[1:]))
    ok = (
        tv_dec
        and tvs[-1] <= tvs[0] / 3.0
        and tvs[-1] <= 0.1
        and mgf_dec
        and mgfs[-1] <= 0.03
        and elapsed < 600.0
    )
    report(
        5,
        ok,
        f"tv {' -> '.join(f'{v:.4f}' for v in tvs)}, "
        f"mgf {' -> '.join(f'{v:.4f}' for v in mgfs)}, {elapsed:.1f}s",
    )
    assert tv_dec
    assert tvs[-1] <= tvs[0] / 3.0
    assert tvs[-1] <= 0.1
    assert mgf_dec
    assert mgfs[-1] <= 0.03
    assert elapsed < 600.0


def test_acceptance_6_case2_convergence(case2_pot, case2_data):
    t0 = time.monotonic()
    s_grid = [
        np.array(p) for p in itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=3)
    ]
    tvs = []
    mgfs = []
    recip_worst = 0.0
    for n in (64, 128, 256, 512):
        lim = case2(case2_data, case2_pot, n)
        recip_worst = max(
            recip_worst, abs(lim.tilde_vartheta[0] * lim.hat_vartheta[-1] - 1.0)
        )
        predicted = case2_predicted_law(lim, tail_tol=1e-12)
        regions, _ = standard_regions(case2_data, n=n)
        law = exact_count_law(case2_pot, n, regions)
        tvs.append(hg.tv_distance(law, predicted)[1])
        mgfs.append(
            max(
                abs(joint_mgf(case2_pot, n, s, regions).value - case2_predicted_mgf(lim, s))
                / case2_predicted_mgf(lim, s)
                for s in s_grid
            )
        )
    elapsed = time.monotonic() - t0
    tv_dec = all(a > b for a, b in zip(tvs[:-1], tvs[1:]))
    ok = (
        tv_dec
        and tvs[-1] <= 0.15
        and mgfs[-1] <= 0.05
        and recip_worst <= 1e-12
        and elapsed < 900.0
    )
    report(
        6,
        ok,
        f"tv {' -> '.join(f'{v:.4f}' for v in tvs)}, "
        f"mgf {' -> '.join(f'{v:.4f}' for v in mgfs)}, "
        f"reciprocity {recip_worst:.2e}, {elapsed:.1f}s",
    )
    assert tv_dec
    assert tvs[-1] <= 0.15
    assert mgfs[-1] <= 0.05
    assert recip_worst <= 1e-12
    assert elapsed < 900.0


def test_acceptance_7_monte_carlo(case1_pot, case1_data):
    t0 = time.monotonic()
    n, reps = 128, 100_000
    regions, _ = standard_regions(case1_data)
    law = exact_count_law(case1_pot, n, regions)
    sample = sample_moduli(case1_pot, n, seed=20260822, reps=reps)
    counts = np.zeros((reps, regions.m), dtype=np.int64)
    for k, region in enumerate(regions.entries):
        inside = (sample.radii > region.lo) & (sample.radii < region.hi)
        counts[:, k] = inside.sum(axis=1)
    cells_checked = 0
    worst_z = 0.0
    for alpha, p in law.entries.items():
        if p < 1e-3:
            continue
        freq = float(np.mean(np.all(counts == np.asarray(alpha), axis=1)))
        se = math.sqrt(p * (1.0 - p) / reps)
        worst_z = max(worst_z, abs(freq - p) / se)
        cells_checked += 1
    mean = law.mean()
    cov = law.covariance_matrix()
    worst_mean_z = 0.0
    for k in range(regions.m):
        se = math.sqrt(cov[k, k] / reps)
        worst_mean_z = max(worst_mean_z, abs(counts[:, k].mean() - mean[k]) / se)
    elapsed = time.monotonic() - t0
    ok = (
        cells_checked >= 3
        and worst_z <= 5.0
        and worst_mean_z <= 4.0
        and elapsed < 300.0
    )
    report(
        7,
        ok,
        f"{cells_checked} cells, worst cell z {worst_z:.2f}, "
        f"worst mean z {worst_mean_z:.2f}, {elapsed:.1f}s",
    )
    assert cells_checked >= 3
    assert worst_z <= 5.0
    assert worst_mean_z <= 4.0
    assert elapsed < 300.0


def test_acceptance_8_independence_decomposition(
    case2_pot, case2_data, site_product_mgf, series_moments
):
    lim = case2(case2_data, case2_pot, 256)
    worst = 0.0
    for s in itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=3):
        lhs = case2_predicted_mgf(lim, s)
        rhs = site_product_mgf(lim.tilde.thetas, lim.tilde.qs, s) * site_product_mgf(
            lim.hat.thetas, lim.hat.qs, (s[1], s[2], s[0])
        )
        worst = max(worst, abs(lhs - rhs))
    a_mat = np.zeros((3, 3))
    b_mat = np.zeros((3, 3))
    for src, dst in enumerate(lim.cmap.a_to):
        a_mat[dst, src] = 1.0
    for src, dst in enumerate(lim.cmap.b_to):
        b_mat[dst, src] = 1.0
    # each side's covariance from its (ϑ, ρ) site series
    t_cov = series_moments(lim.tilde_vartheta, lim.tilde_rho)[2]
    h_cov = series_moments(lim.hat_vartheta, lim.hat_rho)[2]
    mapped = a_mat @ t_cov @ a_mat.T + b_mat @ h_cov @ b_mat.T
    _, _, cov = case2_moments(lim)
    mixed_series = float(np.max(np.abs(cov - mapped)))
    table_cov = case2_predicted_law(lim, tail_tol=1e-13).covariance_matrix()
    mixed_table = float(np.max(np.abs(table_cov - cov)))
    ok = worst <= 1e-10 and mixed_series <= 1e-14 and mixed_table <= 1e-8
    report(
        8,
        ok,
        f"mgf product gap {worst:.2e}, mixed covariance {mixed_series:.2e} "
        f"(series) / {mixed_table:.2e} (table)",
    )
    assert worst <= 1e-10
    assert mixed_series <= 1e-14
    assert mixed_table <= 1e-8
