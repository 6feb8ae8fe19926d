"""Shared fixtures: built potentials and their classifications, the
peak-windowed log norm that cross-checks the library's full-range one, and
a plain-float site-product MGF that cross-checks the Heine module's.

Building and classifying the reference potentials costs a few seconds, so
every test module shares one session-scoped copy.
"""

import math

import numpy as np
import pytest

import heinegas as hg
from heinegas import engine
from heinegas.engine import QuadratureConfig


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


def _windowed_log_norm(pot, n, j, cfg=QuadratureConfig()):
    """log 2∫ r^(2j+1) e^(-n q) dr over the significant-peak windows of
    modulus j only: each window is graded around its peaks at h/32 and
    filled to eighths, and panels are split until stable to cfg.rel_tol.
    It shares the kernel and the peak windows with the library but none of
    the full-range grid, so agreement checks the grading and the range."""
    peaks = engine._windows_for_index(pot, n, j, cfg)
    windows = engine._merge_windows(peaks, pot.r_max)
    j_arr = np.asarray([j], dtype=float)

    def make(splits):
        los, his = [], []
        for a, b in windows:
            pts = {a, b}
            for r0, h in peaks:
                if a < r0 < b:
                    pts.update(engine._graded_offsets(r0, h / 32.0, a, b))
            breaks = engine._fill_edges(np.array(sorted(pts)), max((b - a) / 8.0, 1e-6))
            los.append(breaks[:-1])
            his.append(breaks[1:])
        panels = engine._subdivide(np.concatenate(los), np.concatenate(his), splits)
        x, w = engine._gl_panels(*panels, engine._GL32)
        x, w = x.ravel(), w.ravel()
        return engine._log_rows(engine._log_weight(pot, n, j_arr[:, None], x), w)

    return float((math.log(2.0) + engine._converged_rows(make, cfg))[0])


@pytest.fixture(scope="session")
def windowed_log_norm():
    return _windowed_log_norm


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
