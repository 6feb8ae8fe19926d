"""The benchmark's output checks pass on real outputs and fail on perturbed ones.

Each perturbation is small (a π shifted by 1e-9, a radius nudged by one
part in 1e9, 1e-6 of mass moved between table cells), so none of the
checks can hold by construction. The outputs come from the same calls the
workloads make, at small n. Run with:

    python3 -m pytest perfbench
"""

import copy
import itertools
import json
import math
import os
import sys

import numpy as np
import pytest
from scipy.special import gammainc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import heinegas as hg  # noqa: E402
from heinegas import cli, engine  # noqa: E402

import workloads  # noqa: E402

S_GRID = list(itertools.product((-1.0, 0.0, 1.0), repeat=3))


def move_mass(entries: dict, amount: float) -> dict:
    """Move ``amount`` from the largest cell to its neighbour in coordinate 0."""
    out = dict(entries)
    top = max(out, key=out.get)
    nxt = (top[0] + 1,) + top[1:]
    out[top] -= amount
    out[nxt] = out.get(nxt, 0.0) + amount
    return out


def as_json_entries(entries: dict) -> list:
    return [{"alpha": list(a), "p": p} for a, p in sorted(entries.items())]


# ---------------------------------------------------------- converge-case2


@pytest.fixture(scope="module")
def converge(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("converge")
    cfg = dict(workloads.CASE2_CONFIG, n_schedule=[16, 32])
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["converge", "--config", str(path), "--out", str(tmp / "out")]) == 0
    report = json.loads((tmp / "out" / "convergence.json").read_text())
    laws = {}
    for name in report["law_files"]:
        doc = json.loads((tmp / "out" / name).read_text())
        laws[doc["n"]] = doc
    return report, laws


def run_converge_check(report, laws, tv_max=1.0, mgf_max=10.0):
    return checks.check_converge(report, laws, S_GRID, tv_max=tv_max, mgf_max=mgf_max)


def test_converge_check_passes(converge):
    assert run_converge_check(*converge) == []


def test_converge_check_catches_reciprocity(converge):
    report, laws = copy.deepcopy(converge)
    report["rows"][0]["limit"]["hat_vartheta"][-1] *= 1.0 + 1e-9
    assert any("reciprocity" in f for f in run_converge_check(report, laws))


def _case2_exact_entries(n: int, shift: float) -> dict:
    pot = workloads.case2_potential()
    regions, _ = engine.standard_regions(hg.droplet_data(pot), n)
    pi = np.asarray([engine.region_probabilities(pot, n, j, regions) for j in range(n)])
    law = engine.exact_count_law(pot, n, regions)
    table, _ = hg.poisson_binomial_dp(pi + shift, law.cap)
    return {a: float(table[a]) for a in np.ndindex(table.shape) if table[a] >= 1e-300}


@pytest.mark.parametrize("shift, caught", [(0.0, False), (1e-9, True)])
def test_converge_check_catches_shifted_pi(converge, shift, caught):
    report, laws = copy.deepcopy(converge)
    entries = _case2_exact_entries(32, shift)
    laws[32]["exact"]["entries"] = as_json_entries(entries)
    laws[32]["exact"]["mass_deficit"] = max(0.0, 1.0 - math.fsum(entries.values()))
    fails = run_converge_check(report, laws)
    assert any("MGF error" in f for f in fails) == caught


def test_converge_check_catches_moved_exact_entry(converge):
    report, laws = copy.deepcopy(converge)
    exact = {tuple(e["alpha"]): e["p"] for e in laws[32]["exact"]["entries"]}
    laws[32]["exact"]["entries"] = as_json_entries(move_mass(exact, 1e-6))
    assert any("MGF error" in f for f in run_converge_check(report, laws))


def test_converge_check_catches_moved_predicted_entry(converge):
    report, laws = copy.deepcopy(converge)
    pred = {tuple(e["alpha"]): e["p"] for e in laws[16]["predicted"]["entries"]}
    laws[16]["predicted"]["entries"] = as_json_entries(move_mass(pred, 1e-6))
    assert any("moments" in f for f in run_converge_check(report, laws))


def test_converge_check_catches_rising_tv(converge):
    report, laws = copy.deepcopy(converge)
    rows = report["rows"]
    rows[0]["tv_hi"], rows[1]["tv_hi"] = rows[1]["tv_hi"], rows[0]["tv_hi"]
    assert any("does not fall" in f for f in run_converge_check(report, laws))
    assert any("tv_hi at n=32" in f for f in run_converge_check(*converge, tv_max=1e-3))
    assert any("mgf_err_max at" in f for f in run_converge_check(*converge, mgf_max=1e-3))


# ------------------------------------------------------------ sample-case1


def test_ginibre_inverse_check():
    n, seed = 32, 5
    ms = engine.sample_moduli(hg.ginibre(), n, seed, reps=40)
    assert checks.check_ginibre_inverse(ms.radii, n, seed, ms.law_truncation) == []
    nudged = ms.radii.copy()
    nudged[3, n // 2] *= 1.0 + 1e-9
    assert checks.check_ginibre_inverse(nudged, n, seed, ms.law_truncation)
    assert checks.check_ginibre_inverse(ms.radii, n, seed + 1, ms.law_truncation)


def test_sampled_counts_check():
    n = 32
    pot = workloads.case1_potential()
    regions, _ = engine.standard_regions(hg.droplet_data(pot))
    law = engine.exact_count_law(pot, n, regions)
    ms = engine.sample_moduli(pot, n, 9, reps=2000)
    bounds = [(r.lo, r.hi) for r in regions.entries]
    assert checks.check_sampled_counts(ms.radii, bounds, law.entries) == []
    moved = ms.radii.copy()
    moved[:, -1] += 0.25  # the outermost modulus leaves its outpost
    assert checks.check_sampled_counts(moved, bounds, law.entries)


# -------------------------------------------------------------- count-laws


def test_ginibre_means_check():
    n = 256
    annuli = workloads.GINIBRE_ANNULI
    regions = engine.RegionSet.hard(engine.HardRegion(lo, hi) for lo, hi in annuli)
    law = engine.exact_count_law(hg.ginibre(), n, regions)
    assert checks.check_ginibre_means(law.entries, n, annuli) == []
    assert checks.check_ginibre_means(move_mass(law.entries, 1e-6), n, annuli)
    j1 = np.arange(1, n + 1)[:, None]
    lo, hi = np.asarray(annuli).T
    pi = gammainc(j1, n * hi**2) - gammainc(j1, n * lo**2)
    for shift, caught in ((0.0, False), (1e-9, True)):
        table, _ = hg.poisson_binomial_dp(pi + shift, law.cap)
        entries = {a: float(table[a]) for a in np.ndindex(table.shape)}
        assert bool(checks.check_ginibre_means(entries, n, annuli)) == caught


def test_tv_falls_check():
    pot = workloads.case1_potential()
    regions, _ = engine.standard_regions(hg.droplet_data(pot))
    small, large = (engine.exact_count_law(pot, n, regions) for n in (64, 512))
    limit = checks.site_table(*checks.case1_limit(workloads.CASE1["t"], workloads.CASE1["w"]), 24)
    a = (small.entries, small.mass_deficit)
    b = (large.entries, large.mass_deficit)
    assert checks.check_tv_falls(a, b, limit, 6.0) == []
    assert checks.check_tv_falls(b, a, limit, 6.0)
    assert checks.check_tv_falls(a, (move_mass(large.entries, 1e-3), large.mass_deficit), limit, 6.0)


def test_case1_limit_closed_form_matches_builder():
    pot = workloads.case1_potential()
    lim = hg.case1(hg.droplet_data(pot), pot)
    thetas, qs = checks.case1_limit(workloads.CASE1["t"], workloads.CASE1["w"])
    assert np.allclose(thetas, lim.heine.thetas, rtol=1e-9)
    assert np.allclose(qs, lim.heine.qs, rtol=1e-12)


def test_heine_table_check():
    thetas, qs = (1.0, 0.5, 2.0), (0.5, 0.3, 0.2)
    law = hg.pmf_table(hg.validate_params(thetas, qs))
    mean, cov = law.mean(), law.covariance_matrix()
    back = hg.CountLaw.from_json(law.to_json())
    assert checks.check_heine_table(law, mean, cov, back, thetas, qs) == []

    moved = hg.CountLaw(law.m, move_mass(law.entries, 1e-6), law.mass_deficit, law.cap)
    assert checks.check_heine_table(moved, mean, cov, back, thetas, qs)
    assert checks.check_heine_table(law, mean + 1e-7, cov, back, thetas, qs)
    flipped = cov.copy()
    flipped[0, 1] = flipped[1, 0] = 1e-12
    assert any("negative" in f for f in checks.check_heine_table(law, mean, flipped, back, thetas, qs))
    assert checks.check_heine_table(law, mean, cov, moved, thetas, qs)
