"""Command-line driver for validation suites and convergence studies.

Subcommands:

- ``heine``: print the pmf table, moments, and optional samples of a
  multi-dimensional Heine law given on the command line.
- ``converge``: run a finite-n vs limit convergence study from a JSON
  config, writing a CSV of per-n rows (n, tv_lo, tv_hi, mgf_err_max,
  seconds), a JSON report with the full parameter echo, and per-n law
  tables for plotting.
- ``validate-potential``: build the configured potential and print every
  validator check as a pass/fail line plus the classification tag.
- ``sample``: draw moduli replicas and write them as CSV (columns j, r).

Exit codes: 0 success, 1 numeric/engine failure, 2 invalid parameters or
builder/validator failure. All outputs are deterministic given the config
and seed, except the wall-clock seconds column.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import heine as hd
from .engine import (
    QuadratureConfig,
    QuadratureError,
    moduli_to_csv,
    sample_moduli,
    standard_regions,
)
from .limits import convergence_row
from .potentials import (
    BuildValidationError,
    ClassificationError,
    RootFindingError,
    build_case1,
    build_case2,
    droplet_data,
    ginibre,
    validation_report,
)

_USER_ERRORS = (ValueError, BuildValidationError, ClassificationError, KeyError)
_ENGINE_ERRORS = (
    QuadratureError,
    RootFindingError,
    FloatingPointError,
    OverflowError,
    ZeroDivisionError,
)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    return cfg


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# quadrature keys of earlier versions: the quadrature mode and the peak
# window constant C. A run that set one must not silently get something else.
_RETIRED_KEYS = ("mode", "C")


def _quad_config(cfg: dict) -> QuadratureConfig:
    for key in _RETIRED_KEYS:
        if key in cfg:
            raise ValueError(
                f"config key '{key}' is no longer read: every engine quantity, "
                "the sampler included, reads one full-range quadrature grid, "
                "and peak windows are used only by the tests' cross-check"
            )
    rel_tol = cfg.get("rel_tol", 1e-11)
    if not _is_number(rel_tol):
        raise ValueError(f"rel_tol {rel_tol!r} is not a number")
    return QuadratureConfig(rel_tol=float(rel_tol))


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ValueError(f"config key '{key}' is required")
    return cfg[key]


def _is_finite(v) -> bool:
    return _is_number(v) and math.isfinite(v)


def _finite(key: str, v) -> float:
    if not _is_finite(v):
        raise ValueError(f"{key} {v!r} is not a finite number")
    return float(v)


def _finite_list(key: str, v) -> tuple:
    if not (isinstance(v, list) and all(_is_finite(x) for x in v)):
        raise ValueError(f"{key} {v!r} is not a list of finite numbers")
    return tuple(float(x) for x in v)


def _integer(key: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{key} {v!r} is not an integer")
    return v


def _object(cfg: dict, key: str) -> dict:
    v = cfg.get(key, {})
    if not isinstance(v, dict):
        raise ValueError(f"{key} {v!r} is not a JSON object")
    return v


def _build_potential(cfg: dict):
    case = cfg.get("case")
    if case == "ginibre":
        return ginibre(), "ginibre"
    if case not in ("case1", "case2"):
        raise ValueError("config key 'case' must be one of ginibre, case1, case2")
    margin = _finite("margin", cfg.get("margin", 0.02))
    if case == "case1":
        t = _finite_list("t", _require(cfg, "t"))
        w = _finite_list("w", _require(cfg, "w"))
        return build_case1(t, w, margin=margin), "case1"
    comps = _require(cfg, "components")
    if not (
        isinstance(comps, list)
        and len(comps) == 2
        and all(isinstance(c, list) and len(c) == 2 for c in comps)
    ):
        raise ValueError(f"components {comps!r} is not two pairs of numbers")
    comps = tuple(_finite_list("components", c) for c in comps)
    m0 = _finite("M0", _require(cfg, "M0"))
    t = _finite_list("t", cfg.get("t", []))
    w = _finite_list("w", cfg.get("w", []))
    return build_case2(comps, m0, t=t, w=w, margin=margin), "case2"


def _out_dir(args) -> Optional[str]:
    out = args.out
    if out is not None:
        os.makedirs(out, exist_ok=True)
    return out


def _fmt(x: float) -> str:
    return f"{x:.12e}"


# ------------------------------------------------------------------- heine


def cmd_heine(args) -> int:
    params = hd.validate_params(args.theta, args.q)
    print(
        f"heine law: m={params.m} theta=[{' '.join(_fmt(t) for t in params.thetas)}] "
        f"q=[{' '.join(_fmt(v) for v in params.qs)}]"
    )
    report: dict = {"theta": list(params.thetas), "q": list(params.qs)}
    law = None
    if args.pmf:
        law = hd.pmf_table(params, tail_tol=args.tol)
        print(f"pmf table (cap={','.join(str(c) for c in law.cap)} "
              f"mass_deficit={law.mass_deficit:.3e})")
        for alpha, p in law.iter_entries():
            print(" ".join(str(a) for a in alpha) + " " + _fmt(p))
    mean = hd.mean_vector(params)
    var = hd.variance_vector(params)
    cov = hd.covariance_matrix(params)
    print("mean " + " ".join(_fmt(v) for v in mean))
    print("variance " + " ".join(_fmt(v) for v in var))
    for row in cov:
        print("covariance " + " ".join(_fmt(v) for v in row))
    report["mean"] = [float(v) for v in mean]
    report["variance"] = [float(v) for v in var]
    report["covariance"] = [[float(v) for v in row] for row in cov]
    if args.sample:
        draw = hd.sample(params, args.sample, args.seed)
        for counts in np.atleast_2d(draw.counts):
            print("sample " + " ".join(str(int(c)) for c in counts))
        report["samples"] = np.atleast_2d(draw.counts).tolist()
        report["sample_tv_error_bound"] = draw.tv_error_bound
    out = _out_dir(args)
    if out is not None:
        text = json.dumps(report)
        with open(os.path.join(out, "heine.json"), "w") as fh:
            if law is None:
                fh.write(text)
            else:
                # the law's own JSON text, streamed in as converge does
                fh.write(f'{text[:-1]}, "law": ')
                fh.writelines(law._json_pieces())
                fh.write("}")
    return 0


# ----------------------------------------------------------------- converge


def _default_s_grid(case: str, arity: int) -> list:
    values = (-1.0, -0.5, 0.0, 0.5, 1.0) if case == "case1" else (-1.0, 0.0, 1.0)
    return [list(p) for p in itertools.product(values, repeat=arity)]


def _s_grid(cfg: dict, case: str, arity: int, n_min: int, smooth: bool) -> list:
    """The configured s vectors, or the default grid when none is given.
    Each must hold ``arity`` finite numbers within joint_mgf's range
    |s_k| <= log n at the smallest n of the schedule, and so must the
    smooth diagnostic's s = (1, ..., 1) when it runs."""
    limit = math.log(n_min) + 1e-12
    grid = cfg.get("s_grid")
    if limit < 1.0 and (grid is None or smooth):
        what = "the default s_grid" if grid is None else "the smooth diagnostic (bumps)"
        raise ValueError(
            f"{what} reads |s_k| = 1 > log {n_min}: start n_schedule at 3 or more"
        )
    if grid is None:
        return _default_s_grid(case, arity)
    if not isinstance(grid, list) or not grid:
        raise ValueError(f"s_grid {grid!r} is not a non-empty list of s vectors")
    for s in grid:
        if not (
            isinstance(s, list)
            and len(s) == arity
            and all(_is_number(v) and abs(v) <= limit for v in s)
        ):
            raise ValueError(
                f"s_grid entry {s!r} is not a list of {arity} numbers with "
                f"|s_k| <= log {n_min}"
            )
    return grid


def cmd_converge(args) -> int:
    cfg = _load_config(args.config)
    qcfg = _quad_config(cfg)
    schedule = _require(cfg, "n_schedule")
    if not isinstance(schedule, list) or not schedule:
        raise ValueError("n_schedule must be a non-empty list of integers >= 2")
    for v in schedule:
        if isinstance(v, bool) or not isinstance(v, int) or v < 2:
            raise ValueError(f"n_schedule entry {v!r} is not an integer >= 2")
    if any(b <= a for a, b in zip(schedule[:-1], schedule[1:])):
        raise ValueError("n_schedule must be strictly increasing")
    eps_cfg = _object(cfg, "regions").get("eps")
    if eps_cfg is not None and not _is_finite(eps_cfg):
        raise ValueError(f"regions.eps {eps_cfg!r} is not a number")
    smooth_diag = _object(cfg, "bumps").get("enabled", True)
    if not isinstance(smooth_diag, bool):
        raise ValueError(f"bumps.enabled {smooth_diag!r} is not true or false")
    pot, case = _build_potential(cfg)
    data = droplet_data(pot)
    if data.case_tag != case:
        raise ValueError(
            f"converge needs a case1 or case2 droplet: config case {case} "
            f"classifies as {data.case_tag}"
        )
    arity = standard_regions(data, schedule[0], eps=eps_cfg)[0].m
    s_grid = _s_grid(cfg, case, arity, schedule[0], smooth_diag)

    rows = []
    law_files = []
    out = _out_dir(args)
    for n in schedule:
        row, law, predicted, lim = convergence_row(
            pot, data, n, s_grid, qcfg, eps_cfg, smooth_diag
        )
        rows.append(row)
        if out is not None:
            path = os.path.join(out, f"law_n{n}.json")
            with open(path, "w") as fh:
                # each law's JSON text is written piece by piece, never whole
                fh.write(f'{{"n": {n}, "x_n": {json.dumps(lim.x_n)}, "exact": ')
                fh.writelines(law._json_pieces())
                fh.write(', "predicted": ')
                fh.writelines(predicted._json_pieces())
                fh.write(f', "limit": {json.dumps(lim.to_json_dict())}}}')
            law_files.append(path)
        print(
            f"n={n} tv=[{row['tv_lo']:.6f}, {row['tv_hi']:.6f}] "
            f"mgf_err_max={row['mgf_err_max']:.6f} seconds={row['seconds']:.3f}"
        )

    csv_rows = [["n", "tv_lo", "tv_hi", "mgf_err_max", "seconds"]] + [
        [str(r["n"]), _fmt(r["tv_lo"]), _fmt(r["tv_hi"]), _fmt(r["mgf_err_max"]),
         f"{r['seconds']:.3f}"]
        for r in rows
    ]
    if out is not None:
        with open(os.path.join(out, "convergence.csv"), "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(csv_rows)
        report = {
            "config": cfg,
            "case": case,
            "droplet": data.to_json_dict(),
            "rows": rows,
            "law_files": [os.path.basename(p) for p in law_files],
        }
        with open(os.path.join(out, "convergence.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    return 0


# ------------------------------------------------------- validate-potential


def cmd_validate_potential(args) -> int:
    cfg = _load_config(args.config)
    pot, _case = _build_potential(cfg)
    checks, data = validation_report(pot)
    failed = [c for c in checks if not c.passed]
    for c in checks:
        print(f"{c.name}: {'PASS' if c.passed else 'FAIL'} ({c.detail})")
    if data is not None:
        print(f"case: {data.case_tag}")
    if failed:
        print(f"error: check failed: {failed[0].name}", file=sys.stderr)
        return 2
    return 0


# ------------------------------------------------------------------- sample


def cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    pot, _case = _build_potential(cfg)
    qcfg = _quad_config(cfg)
    n = args.n if args.n is not None else _integer("n", cfg.get("n", 0))
    if n < 2:
        raise ValueError("n must be >= 2 (set --n or config key 'n')")
    seed = args.seed if args.seed is not None else _integer("seed", cfg.get("seed", 0))
    ms = sample_moduli(pot, n, seed, qcfg, reps=args.reps)
    out = _out_dir(args) or "."
    path = os.path.join(out, "moduli.csv")
    moduli_to_csv(ms, path)
    print(
        f"wrote {path} (n={n}, reps={args.reps}, seed={seed}, "
        f"law_truncation={ms.law_truncation:.3e})"
    )
    return 0


# -------------------------------------------------------------------- main


_FLAGS = {
    "--config": dict(help="JSON experiment config"),
    "--out": dict(help="output directory"),
    "--seed": dict(type=int, help="RNG seed"),
}


def _add_flags(sub, *flags: str) -> None:
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heinegas",
        description="Heine count laws and finite-n radial ensemble studies",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("heine", help="print a Heine law's table and moments")
    p.add_argument("--theta", type=float, nargs="+", required=True)
    p.add_argument("--q", type=float, nargs="+", required=True)
    p.add_argument("--pmf", action="store_true", help="print the pmf table")
    p.add_argument("--tol", type=float, default=1e-12, help="table tail bound")
    p.add_argument("--sample", type=int, default=0, help="draw count vectors")
    _add_flags(p, "--out", "--seed")
    p.set_defaults(func=cmd_heine, seed=0)

    p = subs.add_parser("converge", help="finite-n vs limit convergence study")
    _add_flags(p, "--config", "--out")
    p.set_defaults(func=cmd_converge)

    p = subs.add_parser(
        "validate-potential", help="run the potential validator suite"
    )
    _add_flags(p, "--config")
    p.set_defaults(func=cmd_validate_potential)

    p = subs.add_parser("sample", help="draw moduli replicas to CSV")
    p.add_argument("--n", type=int, default=None, help="particle count")
    p.add_argument("--reps", type=int, default=1, help="replica count")
    _add_flags(p, "--config", "--out", "--seed")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except _ENGINE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
