"""The benchmark's workloads: set-up, one task repetition, output checks.

A workload's constructor builds, validates and classifies its potentials
once (that is the set-up time). ``task`` is one timed repetition; it
builds its potentials afresh, because the engine caches grids and
classifications on the potential's identity and a reused potential would
time cache hits. ``task(warmup=True)`` makes the same calls at a smaller
size: run once before timing, it takes away the first repetition's extra
cost (10-25 % on converge-case2) for a fraction of a full repetition.
``check`` runs after timing, on the last repetition's outputs. Module
attributes are looked up at call time so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil

from heinegas import cli, engine, heine, potentials

import checks

CASE1 = {"t": (1.5, 2.0), "w": (0.2, 0.2)}
CASE2_CONFIG = {
    "case": "case2",
    "components": [[0.0, 1.0], [1.6, 2.2]],
    "M0": 0.5,
    "t": [1.2, 1.4],
    "w": [0.06, 0.06],
    "n_schedule": [64, 128, 256, 512],
}
GINIBRE_ANNULI = ((0.985, 1.0), (1.0, 1.015), (1.015, 1.04))
HEINE_THETA = (3.0, 3.0, 3.0, 3.0)
HEINE_Q = (0.9, 0.9, 0.9, 0.9)


def case1_potential():
    return potentials.build_case1(CASE1["t"], CASE1["w"])


def case2_potential():
    c = CASE2_CONFIG
    return potentials.build_case2(c["components"], c["M0"], t=c["t"], w=c["w"])


# ------------------------------------------------------------ converge-case2


class ConvergeCase2:
    """``heinegas converge`` on the README case-2 config, in process."""

    ops = 1

    def __init__(self, seed: int, out: str) -> None:
        potentials.droplet_data(case2_potential())
        self.out = out
        self.configs = {}
        for warmup, schedule in ((False, CASE2_CONFIG["n_schedule"]), (True, [64, 128, 256])):
            self.configs[warmup] = os.path.join(out, f"case2-{len(schedule)}.json")
            with open(self.configs[warmup], "w") as fh:
                json.dump(dict(CASE2_CONFIG, n_schedule=schedule), fh)

    def task(self, warmup=False):
        reports = os.path.join(self.out, "converge")
        shutil.rmtree(reports, ignore_errors=True)
        argv = ["converge", "--config", self.configs[warmup], "--out", reports]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"heinegas converge exited {code}")
        return reports

    def check(self, reports) -> list:
        with open(os.path.join(reports, "convergence.json")) as fh:
            report = json.load(fh)
        laws = {}
        for name in report["law_files"]:
            with open(os.path.join(reports, name)) as fh:
                doc = json.load(fh)
            laws[doc["n"]] = doc
        s_grid = list(itertools.product((-1.0, 0.0, 1.0), repeat=3))
        return checks.check_converge(report, laws, s_grid, tv_max=0.15, mgf_max=0.05)


# -------------------------------------------------------------- sample-case1


class SampleCase1:
    """The inverse-CDF moduli sampler: case 1 and a smaller Ginibre draw."""

    ops = 2
    n = 128
    reps = 3000
    ginibre_reps = 500

    def __init__(self, seed: int, out: str) -> None:
        potentials.droplet_data(case1_potential())
        potentials.droplet_data(potentials.ginibre())
        self.seed_case1 = 2 * seed
        self.seed_ginibre = 2 * seed + 1

    def task(self, warmup=False):
        scale = 10 if warmup else 1
        case1 = engine.sample_moduli(
            case1_potential(), self.n, self.seed_case1, reps=self.reps // scale
        )
        gin = engine.sample_moduli(
            potentials.ginibre(), self.n, self.seed_ginibre, reps=self.ginibre_reps // scale
        )
        return case1, gin

    def check(self, outputs) -> list:
        case1, gin = outputs
        fails = checks.check_ginibre_inverse(
            gin.radii, self.n, self.seed_ginibre, gin.law_truncation
        )
        pot = case1_potential()
        regions, _ = engine.standard_regions(potentials.droplet_data(pot))
        law = engine.exact_count_law(pot, self.n, regions)
        bounds = [(r.lo, r.hi) for r in regions.entries]
        return fails + checks.check_sampled_counts(case1.radii, bounds, law.entries)


# ---------------------------------------------------------------- count-laws


class CountLaws:
    """Exact count laws at n = 4096 and one large Heine table."""

    ops = 5
    n = 4096

    def __init__(self, seed: int, out: str) -> None:
        potentials.droplet_data(case1_potential())
        potentials.droplet_data(potentials.ginibre())
        heine.validate_params(HEINE_THETA, HEINE_Q)

    def task(self, warmup=False):
        n = 512 if warmup else self.n
        m = 2 if warmup else len(HEINE_THETA)
        pot = case1_potential()
        regions, _ = engine.standard_regions(potentials.droplet_data(pot))
        case1 = engine.exact_count_law(pot, n, regions)
        annuli = engine.RegionSet.hard(engine.HardRegion(lo, hi) for lo, hi in GINIBRE_ANNULI)
        gin = engine.exact_count_law(potentials.ginibre(), n, annuli)
        table = heine.pmf_table(heine.validate_params(HEINE_THETA[:m], HEINE_Q[:m]))
        moments = (table.mean(), table.covariance_matrix())
        back = heine.CountLaw.from_json(table.to_json())
        return case1, gin, table, moments, back

    def check(self, outputs) -> list:
        case1, gin, table, (mean, cov), back = outputs
        fails = checks.check_ginibre_means(gin.entries, self.n, GINIBRE_ANNULI)
        pot = case1_potential()
        regions, _ = engine.standard_regions(potentials.droplet_data(pot))
        small = engine.exact_count_law(pot, 512, regions)
        limit = checks.site_table(*checks.case1_limit(CASE1["t"], CASE1["w"]), cap=24)
        fails += checks.check_tv_falls(
            (small.entries, small.mass_deficit), (case1.entries, case1.mass_deficit), limit, 6.0
        )
        return fails + checks.check_heine_table(table, mean, cov, back, HEINE_THETA, HEINE_Q)


WORKLOADS = {
    "converge-case2": ConvergeCase2,
    "sample-case1": SampleCase1,
    "count-laws": CountLaws,
}
