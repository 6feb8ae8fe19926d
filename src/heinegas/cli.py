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
import time
from typing import Optional, Sequence

import numpy as np

from . import heine as hd
from .engine import (
    QuadratureConfig,
    QuadratureError,
    exact_count_law,
    joint_mgf,
    landing_matrix,
    moduli_to_csv,
    sample_moduli,
    standard_regions,
)
from .limits import case1, case1_moments, case2, case2_predicted_law, case2_predicted_mgf
from .potentials import (
    BuildValidationError,
    ClassificationError,
    GridResolutionError,
    build_case1,
    build_case2,
    droplet_data,
    ginibre,
    validation_report,
)

_USER_ERRORS = (ValueError, BuildValidationError, ClassificationError, KeyError)
_ENGINE_ERRORS = (
    QuadratureError,
    GridResolutionError,
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


def _quad_config(cfg: dict, args) -> QuadratureConfig:
    # sample has no --quad-mode: the moduli sampler reads no mode
    mode = getattr(args, "quad_mode", None) or cfg.get("mode", "full")
    return QuadratureConfig(
        rel_tol=float(cfg.get("rel_tol", 1e-11)),
        window_constant=float(cfg.get("C", 10.0)),
        mode=mode,
    )


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ValueError(f"config key '{key}' is required")
    return cfg[key]


def _build_potential(cfg: dict):
    case = cfg.get("case")
    if case == "ginibre":
        return ginibre(), "ginibre"
    if case == "case1":
        return (
            build_case1(
                tuple(_require(cfg, "t")),
                tuple(_require(cfg, "w")),
                margin=float(cfg.get("margin", 0.02)),
            ),
            "case1",
        )
    if case == "case2":
        comps = tuple(
            tuple(float(v) for v in c) for c in _require(cfg, "components")
        )
        return (
            build_case2(
                comps,
                float(_require(cfg, "M0")),
                t=tuple(cfg.get("t", ())),
                w=tuple(cfg.get("w", ())),
                margin=float(cfg.get("margin", 0.02)),
            ),
            "case2",
        )
    raise ValueError("config key 'case' must be one of ginibre, case1, case2")


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
    if args.pmf:
        law = hd.pmf_table(params, tail_tol=args.tol)
        print(f"pmf table (cap={','.join(str(c) for c in law.cap)} "
              f"mass_deficit={law.mass_deficit:.3e})")
        for alpha, p in law.iter_entries():
            print(" ".join(str(a) for a in alpha) + " " + _fmt(p))
        report["law"] = law.to_json_dict()
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
        with open(os.path.join(out, "heine.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    return 0


# ----------------------------------------------------------------- converge


def _default_s_grid(case: str, arity: int) -> list:
    values = (-1.0, -0.5, 0.0, 0.5, 1.0) if case == "case1" else (-1.0, 0.0, 1.0)
    return [list(p) for p in itertools.product(values, repeat=arity)]


def _mgf_error_max(pot, n, s_grid, regions, qcfg, predict) -> float:
    worst = 0.0
    for s in s_grid:
        finite = joint_mgf(pot, n, s, regions, qcfg).value
        target = predict(s)
        worst = max(worst, abs(finite - target) / abs(target))
    return worst


def cmd_converge(args) -> int:
    cfg = _load_config(args.config)
    pot, case = _build_potential(cfg)
    if case not in ("case1", "case2"):
        raise ValueError("converge requires case1 or case2")
    qcfg = _quad_config(cfg, args)
    schedule = [int(v) for v in _require(cfg, "n_schedule")]
    if any(b <= a for a, b in zip(schedule[:-1], schedule[1:])):
        raise ValueError("n_schedule must be strictly increasing")
    data = droplet_data(pot)
    if data.case_tag != case:
        raise ValueError(
            f"classification tag {data.case_tag} does not match config case {case}"
        )
    eps_cfg = cfg.get("regions", {}).get("eps") if isinstance(cfg.get("regions"), dict) else None
    smooth_diag = True
    if isinstance(cfg.get("bumps"), dict):
        smooth_diag = bool(cfg["bumps"].get("enabled", True))

    if case == "case1":
        # the case-1 limit and its law do not depend on n
        lim1 = case1(data, pot)
        predicted1 = hd.pmf_table(lim1.heine, tail_tol=1e-12)
        predict_mgf1 = lambda s: hd.mgf(lim1.heine, s)
    rows = []
    law_files = []
    out = _out_dir(args)
    for n in schedule:
        t0 = time.monotonic()
        regions, eps = standard_regions(data, n, eps=eps_cfg)
        arity = regions.m
        s_grid = cfg.get("s_grid") or _default_s_grid(case, arity)
        law = exact_count_law(pot, n, regions, cfg=qcfg)
        landing = landing_matrix(pot, n, regions, qcfg)
        if case == "case1":
            lim, predicted, predict_mgf, x_n = lim1, predicted1, predict_mgf1, None
        else:
            lim = case2(data, pot, n)
            predicted = case2_predicted_law(lim, tail_tol=1e-12)
            predict_mgf = lambda s: case2_predicted_mgf(lim, s)
            x_n = lim.x_n
        tv_lo, tv_hi = hd.tv_distance(law, predicted)
        mgf_err = _mgf_error_max(pot, n, s_grid, regions, qcfg, predict_mgf)
        diag = None
        if smooth_diag:
            smooth, _ = standard_regions(data, n, eps=eps, smooth=True)
            s_ref = [1.0] * arity
            hard_val = joint_mgf(pot, n, s_ref, regions, qcfg).value
            smooth_val = joint_mgf(pot, n, s_ref, smooth, qcfg).value
            diag = abs(smooth_val - hard_val) / abs(hard_val)
        seconds = time.monotonic() - t0
        rows.append(
            {
                "n": n,
                "tv_lo": tv_lo,
                "tv_hi": tv_hi,
                "mgf_err_max": mgf_err,
                "seconds": seconds,
                "x_n": x_n,
                "eps": eps,
                "cap": list(law.cap),
                "exact_mass_deficit": law.mass_deficit,
                "kept_rows": {
                    "spans": [list(span) for span in landing.spans()],
                    "count": int(landing.rows.size),
                },
                "localization_bound": landing.bound,
                "predicted_mass_deficit": predicted.mass_deficit,
                "smooth_vs_hard_mgf_gap": diag,
                "limit": lim.to_json_dict(),
            }
        )
        if out is not None:
            path = os.path.join(out, f"law_n{n}.json")
            with open(path, "w") as fh:
                fh.write(
                    f'{{"n": {n}, "x_n": {json.dumps(x_n)}, "exact": {law.to_json()}, '
                    f'"predicted": {predicted.to_json()}, '
                    f'"limit": {json.dumps(lim.to_json_dict())}}}'
                )
            law_files.append(path)
        print(
            f"n={n} tv=[{tv_lo:.6f}, {tv_hi:.6f}] mgf_err_max={mgf_err:.6f} "
            f"seconds={seconds:.3f}"
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
    qcfg = _quad_config(cfg, args)
    n = args.n if args.n is not None else int(cfg.get("n", 0))
    if n < 2:
        raise ValueError("n must be >= 2 (set --n or config key 'n')")
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
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
    "--quad-mode": dict(choices=("windowed", "full", "both"), help="quadrature mode override"),
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
    _add_flags(p, "--config", "--out", "--quad-mode")
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
