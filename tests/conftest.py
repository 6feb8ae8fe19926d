"""Shared fixtures: built potentials and their classifications, and the
oracles that check the library without sharing its code:

- the windowed log norm, against the library's full-range one, with the
  windows of each index read off its own log-density on a dense grid;
- the weighted log norms, with the statistics put into the quadrature
  exponent, against the landing kernel's joint MGF;
- 30-digit mpmath transcriptions of the case-1 and case-2 builders;
- a plain-float site-product MGF, against the Heine module's;
- the Heine moments summed as series in the (ϑ, ρ) parameterization.

Building and classifying the reference potentials costs a few seconds, so
every test module shares one session-scoped copy.
"""

import math

import numpy as np
import pytest

import heinegas as hg
from heinegas import engine
from heinegas.engine import QuadratureConfig
from heinegas.potentials import per_potential_cache


@pytest.fixture(scope="session")
def ginibre_pot():
    return hg.ginibre()


@pytest.fixture(scope="session")
def case1_pot():
    return hg.build_case1((1.5, 2.0), w=(0.2, 0.2))


@pytest.fixture(scope="session")
def case1_data(case1_pot):
    return hg.droplet_data(case1_pot)


@pytest.fixture(scope="session")
def case2_pot():
    return hg.build_case2(((0.0, 1.0), (1.6, 2.2)), 0.5, t=(1.2, 1.4), w=(0.06, 0.06))


@pytest.fixture(scope="session")
def case2_data(case2_pot):
    return hg.droplet_data(case2_pot)


@pytest.fixture(scope="session")
def case2_single_pot():
    return hg.build_case2(((0.0, 1.0), (1.6, 2.2)), 0.5, t=(1.2,), w=(0.06,))


@pytest.fixture(scope="session")
def case2_single_data(case2_single_pot):
    return hg.droplet_data(case2_single_pot)


@pytest.fixture(scope="session")
def case2_bare_pot():
    return hg.build_case2(((0.0, 1.0), (1.6, 2.2)), 0.5)


@pytest.fixture(scope="session")
def case2_bare_data(case2_bare_pot):
    return hg.droplet_data(case2_bare_pot)


def _log_sum_exp_rows(phi, w):
    """log Σ_i w_i e^(phi[r, i]) per row r, shifted by the row maximum."""
    top = phi.max(axis=1)
    return top + np.log((w * np.exp(phi - top[:, None])).sum(axis=1))


# the windows keep every radius whose log-density is within _WINDOW_DROP of
# its maximum; e^-60 of the peak, over all of [0, r_max], is far below the
# oracle's 1e-8 gate
_WINDOW_DROP = 60.0
_SCAN_PER_UNIT = 4096


@per_potential_cache(maxsize=1)
def _scan_grid(pot):
    """The dense scan grid r of [1e-9, r_max] with ln r and q(r)."""
    r = np.linspace(1e-9, pot.r_max, int(_SCAN_PER_UNIT * pot.r_max) + 1)
    return r, np.log(r), np.asarray(pot.q(r))


def _density_windows(pot, n, j):
    """(windows, peaks) of modulus j on the scan grid: the runs of the
    superlevel set {phi_j >= max phi_j - _WINDOW_DROP} of its log-density
    phi_j = (2j+1) ln r - n q(r), each widened by one node either side to
    hold its crossing, as sorted disjoint (a, b) pairs; and the grid's
    local maxima of phi_j in that set."""
    r, log_r, q = _scan_grid(pot)
    phi = (2 * j + 1) * log_r - n * q
    keep = phi >= phi.max() - _WINDOW_DROP
    edges = np.flatnonzero(np.diff(np.r_[False, keep, False].astype(np.int8)))
    starts, ends = edges[::2], edges[1::2] - 1
    windows = zip(r[np.maximum(starts - 1, 0)], r[np.minimum(ends + 1, r.size - 1)])
    inner = phi[1:-1]
    top = np.flatnonzero(keep[1:-1] & (inner > phi[:-2]) & (inner >= phi[2:])) + 1
    return list(windows), r[top]


def _windowed_log_norm(pot, n, j, cfg=QuadratureConfig()):
    """log 2∫ r^(2j+1) e^(-n q) dr over the superlevel windows of modulus j
    only: each window is graded around the local maxima inside it, at 1/32
    of a maximum's distance to the nearer window end, and filled to
    eighths; panels are split until stable to cfg.rel_tol. It shares the
    kernel with the library but neither its full-range grid nor its special
    radii, so agreement checks the grading and the range."""
    windows, peaks = _density_windows(pot, n, j)
    j_arr = np.asarray([j], dtype=float)

    def make(splits):
        los, his = [], []
        for a, b in windows:
            pts = {a, b}
            for r0 in peaks:
                if a < r0 < b:
                    h = min(r0 - a, b - r0)
                    pts.update(engine._graded_offsets(r0, h / 32.0, a, b))
            breaks = engine._fill_edges(np.array(sorted(pts)), max((b - a) / 8.0, 1e-6))
            los.append(breaks[:-1])
            his.append(breaks[1:])
        panels = engine._subdivide(np.concatenate(los), np.concatenate(his), splits)
        x, half = engine._gl_panels(*panels, engine._GL32)
        x, w = x.ravel(), (half[:, None] * engine._GL32[1]).ravel()
        return _log_sum_exp_rows(engine._log_weight(pot, n, j_arr[:, None], x), w)

    return float((math.log(2.0) + engine._converged_rows(make, cfg)[0])[0])


@pytest.fixture(scope="session")
def windowed_log_norm():
    return _windowed_log_norm


def _weighted_log_norms(pot, n, s=None, stats=None, cfg=QuadratureConfig()):
    """log 2∫ r^(2j+1) e^(Σ_k s_k h_k(r)) e^(-n q) dr for every index j < n,
    with the statistics' values h_k put into the quadrature exponent, on the
    full grid cut at the statistics' edges and split until stable to
    cfg.rel_tol. Differences with s = 0 give the log MGF factors by a route
    that forms no landing probability."""
    j_arr = np.arange(n, dtype=float)
    edges = stats.edge_radii() if stats is not None else ()
    s = np.zeros(0) if s is None else np.asarray(s, dtype=float)
    # indices on the same side of every split share one exponent
    groups = {}
    if np.any(s != 0.0):
        for j in range(n):
            key = tuple(stats.resolve(k, j) for k in range(stats.m))
            groups.setdefault(key, []).append(j)

    def make(splits):
        x, w = engine._full_grid(pot, n, edges, splits)
        phi = engine._log_weight(pot, n, j_arr[:, None], x)
        for rows in groups.values():
            extra = np.zeros(x.shape)
            for k in np.flatnonzero(s != 0.0):
                extra += s[k] * stats.statistic(k, rows[0], x)
            phi[rows, :] += extra
        return _log_sum_exp_rows(phi, w)

    return math.log(2.0) + engine._converged_rows(make, cfg)[0]


@pytest.fixture(scope="session")
def weighted_log_norms():
    return _weighted_log_norms


def _site_product_mgf(thetas, qs, s, tol=1e-16):
    """E[exp(<s, X>)] of the Heine law with parameters (thetas, qs) as its
    site product prod_j (1 + Σ_k θ_k e^(s_k) q_k^j) / (1 + Σ_k θ_k q_k^j),
    in plain python floats, summed in logs until the bound Σ_k |e^(s_k) − 1|
    θ_k q_k^j / (1 − q_k) on the remaining log-tail is below tol."""
    es = [math.exp(v) for v in s]
    log_acc, j = 0.0, 0
    while True:
        x = [t * q**j for t, q in zip(thetas, qs)]
        log_acc += math.log1p(math.fsum(e * xk for e, xk in zip(es, x))) - math.log1p(math.fsum(x))
        j += 1
        tail = math.fsum(abs(e - 1.0) * t * q**j / (1.0 - q) for e, t, q in zip(es, thetas, qs))
        if tail < tol:
            return math.exp(log_acc)


@pytest.fixture(scope="session")
def site_product_mgf():
    return _site_product_mgf


def _series_moments(vartheta, rho, tol=1e-15):
    """Mean, variance and covariance matrix of the Heine law with
    θ_k = ϑ_k ρ_k and q_k = ρ_k², by direct summation of the site series in
    the (ϑ, ρ) parameterization: site j contributes terms ϑ_k ρ_k^(2j+1),
    and the series is cut once the geometric remainder of the mean falls
    below tol."""
    v = np.asarray(vartheta, dtype=float)
    r = np.asarray(rho, dtype=float)
    m = len(v)
    mean = np.zeros(m)
    var = np.zeros(m)
    cov = np.zeros((m, m))
    rpow = r.copy()  # ρ^(2j+1) at j = 0
    r2_max = float((r * r).max())
    while True:
        term = v * rpow
        den = 1.0 + float(term.sum())
        mean += term / den
        var += term * (den - term) / den**2
        cov -= np.outer(term, term) / den**2
        rpow = rpow * r * r
        if float((v * rpow).sum()) / (1.0 - r2_max) < tol:
            break
    np.fill_diagonal(cov, var)
    return mean, var, cov


@pytest.fixture(scope="session")
def series_moments():
    return _series_moments


def _zeta_mp(mp, u):
    return mp.exp(1 - 1 / (1 - u * u)) if abs(u) < 1 else mp.mpf(0)


def _step_mp(mp, x):
    if x <= 0:
        return mp.mpf(0)
    if x >= 1:
        return mp.mpf(1)
    a, b = mp.exp(-1 / x), mp.exp(-1 / (1 - x))
    return a / (a + b)


def _case1_q_mp(mp, pot):
    """q of ``build_case1`` in mpmath arithmetic, written from its formula."""
    ts, ws = pot.params["t"], pot.params["w"]

    def q(r):
        s = sum(_zeta_mp(mp, (r - t) / w) for t, w in zip(ts, ws))
        return r * r - (r * r - 1 - 2 * mp.log(r)) * s

    return q


def _case2_q_mp(mp, pot):
    """q of ``build_case2`` in mpmath arithmetic, written from its formula."""
    p = pot.params
    (_, b0), (a1, b1) = p["components"]
    m0, c0, c1, ts, ws = p["M0"], p["c0"], p["c1"], p["t"], p["w"]
    gap = a1 - b0
    k_bridge = (c0 + c1) * gap**2 / 2
    q_a1 = m0 + 2 * m0 * mp.log(mp.mpf(a1) / b0)
    d_out = m0 - c1 * a1**2

    def q(r):
        if r <= b0:
            return c0 * r * r
        if r >= a1:
            return q_a1 + c1 * (r * r - a1**2) + 2 * d_out * mp.log(r / a1)
        u = (r - b0) / gap
        qc = m0 + 2 * m0 * mp.log(r / b0)
        bar = (
            (1 - _step_mp(mp, (u - mp.mpf("0.30")) / mp.mpf("0.15"))) * (c0 * r * r - qc)
            + _step_mp(mp, (u - mp.mpf("0.55")) / mp.mpf("0.15"))
            * (c1 * (r * r - a1**2) - 2 * c1 * a1**2 * mp.log(r / a1))
            + k_bridge * _step_mp(mp, (u - mp.mpf("0.15")) / mp.mpf("0.10"))
            * _step_mp(mp, (mp.mpf("0.85") - u) / mp.mpf("0.10"))
        )
        return qc + bar * (1 - sum(_zeta_mp(mp, (r - t) / w) for t, w in zip(ts, ws)))

    return q
