"""End-to-end command-line driver checks (direct main() invocation)."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import heinegas as hg
from heinegas.cli import main
from heinegas.engine import QuadratureConfig
from heinegas.limits import convergence_row


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


CASE1_CFG = {"case": "case1", "t": [1.5, 2.0], "w": [0.2, 0.2]}
CASE2_CFG = {
    "case": "case2",
    "components": [[0.0, 1.0], [1.6, 2.2]],
    "M0": 0.5,
    "t": [1.2, 1.4],
    "w": [0.06, 0.06],
}


# -------------------------------------------------------------------- heine


def test_heine_pmf_and_moments(capsys):
    rc = main(["heine", "--theta", "1", "--q", "0.5", "--pmf"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "heine law: m=1" in out
    assert "pmf table" in out
    params = hg.validate_params([1.0], [0.5])
    mean_line = next(l for l in out.splitlines() if l.startswith("mean "))
    assert float(mean_line.split()[1]) == pytest.approx(
        float(hg.mean_vector(params)[0]), rel=1e-10
    )
    # pmf rows echo the closed form
    row0 = next(l for l in out.splitlines() if l.startswith("0 "))
    assert float(row0.split()[1]) == pytest.approx(
        hg.heine_pmf_1d(1.0, 0.5, 0), rel=1e-10
    )


def test_heine_rejects_bad_q(capsys):
    rc = main(["heine", "--theta", "1", "--q", "1.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err
    assert "q" in err


def test_heine_pmf_past_tail_tol_exits_2(capsys):
    rc = main(["heine", "--theta", "3", "3", "--q", "0.9", "0.9", "--pmf", "--tol", "1e-17"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: pmf table deficit")
    assert "cap overflow" in err and "Z tail bound" in err and "rounding" in err
    assert "Traceback" not in err


def test_module_entry_point_runs_the_cli():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "heinegas", "heine", "--theta", "1", "--q", "0.5"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("heine law: m=1")
    bad = subprocess.run(argv[:-1] + ["1.5"], env=env, capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2
    assert bad.stderr.startswith("error:")


def test_import_leaves_scipy_out():
    # scipy is a test-only dependency: the package itself must not load it
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, heinegas, heinegas.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_heine_sampling_deterministic(capsys):
    argv = ["heine", "--theta", "0.5", "--q", "0.4", "--sample", "5", "--seed", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert sum(1 for l in first.splitlines() if l.startswith("sample ")) == 5


def test_heine_json_report(tmp_path, capsys):
    rc = main(
        [
            "heine",
            "--theta", "0.5", "0.3",
            "--q", "0.4", "0.2",
            "--pmf",
            "--out", str(tmp_path),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    blob = json.loads((tmp_path / "heine.json").read_text())
    assert blob["theta"] == [0.5, 0.3]
    assert blob["q"] == [0.4, 0.2]
    assert "law" in blob and "covariance" in blob
    # the spliced law text reads back as the table the command computed
    law = hg.pmf_table(hg.validate_params([0.5, 0.3], [0.4, 0.2]), tail_tol=1e-12)
    back = hg.CountLaw.from_json_dict(blob["law"])
    assert np.array_equal(back.table, law.table)
    assert back.mass_deficit == law.mass_deficit


# --------------------------------------------------------- validate-potential


@pytest.mark.parametrize(
    "cfg,tag",
    [
        ({"case": "ginibre"}, "none"),
        (CASE1_CFG, "case1"),
        (CASE2_CFG, "case2"),
    ],
)
def test_validate_potential_reports(tmp_path, capsys, cfg, tag):
    path = write_config(tmp_path, "pot.json", cfg)
    rc = main(["validate-potential", "--config", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert f"case: {tag}" in out


@pytest.mark.parametrize(
    "cfg",
    [dict(CASE1_CFG, t=[0.5, 2.0]), dict(CASE2_CFG, w=[0.06])],
    ids=["outpost-off-piece", "window-missing"],
)
def test_validate_potential_rejects_bad_geometry(tmp_path, capsys, cfg):
    path = write_config(tmp_path, "pot.json", cfg)
    rc = main(["validate-potential", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_unknown_case_rejected(tmp_path, capsys):
    path = write_config(tmp_path, "pot.json", {"case": "mystery"})
    rc = main(["validate-potential", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "ginibre" in err


# ------------------------------------------------------------------ converge


def run_converge(tmp_path, capsys, cfg, subdir):
    out = tmp_path / subdir
    path = write_config(tmp_path, f"{subdir}.json", cfg)
    rc = main(["converge", "--config", path, "--out", str(out)])
    text = capsys.readouterr().out
    return rc, out, text


def test_converge_case1_outputs(tmp_path, capsys):
    cfg = dict(CASE1_CFG, n_schedule=[16, 32], s_grid=[[0.5, -0.5]])
    rc, out, text = run_converge(tmp_path, capsys, cfg, "run")
    assert rc == 0
    assert "n=16" in text and "n=32" in text
    with open(out / "convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "tv_lo", "tv_hi", "mgf_err_max", "seconds"]
    assert [r[0] for r in rows[1:]] == ["16", "32"]
    assert float(rows[2][2]) < float(rows[1][2])
    for n in (16, 32):
        blob = json.loads((out / f"law_n{n}.json").read_text())
        assert blob["n"] == n
        assert blob["x_n"] is None
        assert blob["exact"]["m"] == 2
        assert blob["limit"]["case"] == "case1"
        text = (out / f"law_n{n}.json").read_text()
        assert json.dumps(json.loads(text)) == text
    report = json.loads((out / "convergence.json").read_text())
    assert [r["n"] for r in report["rows"]] == [16, 32]
    for row in report["rows"]:
        # each row says which indices its landing matrix kept and what the
        # dropped ones may carry
        assert 0.0 <= row["localization_bound"] <= 1e-15
        spans = row["kept_rows"]["spans"]
        assert all(0 <= a <= b < row["n"] for a, b in spans)
        assert row["kept_rows"]["count"] == sum(b - a + 1 for a, b in spans)
        # and where π's quadrature converged: the splits per panel, the
        # nodes of that grid and the last refinement's change
        quad = row["quadrature"]
        assert sorted(quad) == ["gap", "nodes", "splits"]
        assert quad["splits"] >= 2 and quad["nodes"] >= 32 * quad["splits"]
        assert 0.0 <= quad["gap"] <= QuadratureConfig().rel_tol


def test_converge_deterministic_modulo_timing(tmp_path, capsys):
    cfg = dict(CASE1_CFG, n_schedule=[16], s_grid=[[0.5, -0.5]])
    _, out_a, _ = run_converge(tmp_path, capsys, cfg, "a")
    _, out_b, _ = run_converge(tmp_path, capsys, cfg, "b")
    for name in ("convergence.csv",):
        with open(out_a / name, newline="") as fh:
            rows_a = [r[:4] for r in csv.reader(fh)]
        with open(out_b / name, newline="") as fh:
            rows_b = [r[:4] for r in csv.reader(fh)]
        assert rows_a == rows_b
    assert (out_a / "law_n16.json").read_text() == (out_b / "law_n16.json").read_text()


def test_converge_case2_records_phase(tmp_path, capsys):
    cfg = dict(CASE2_CFG, n_schedule=[12], s_grid=[[0.5, -0.5, 0.5]])
    rc, out, _ = run_converge(tmp_path, capsys, cfg, "c2")
    assert rc == 0
    text = (out / "law_n12.json").read_text()
    assert json.dumps(json.loads(text)) == text
    blob = json.loads(text)
    assert blob["x_n"] == 0.0
    assert blob["limit"]["case"] == "case2"
    assert len(blob["limit"]["tilde_theta"]) == 3


@pytest.mark.parametrize(
    "cfg,pot,data,s_grid",
    [
        (CASE1_CFG, "case1_pot", "case1_data", [[0.5, -0.5], [1.0, 0.0]]),
        (CASE2_CFG, "case2_pot", "case2_data", [[0.5, -0.5, 0.5]]),
    ],
)
def test_convergence_row_is_the_cli_row(tmp_path, capsys, request, cfg, pot, data, s_grid):
    # the library row, minus its timing, is the row converge writes, and
    # its laws and limit are what the law file holds
    pot, data = request.getfixturevalue(pot), request.getfixturevalue(data)
    rc, out, _ = run_converge(tmp_path, capsys, dict(cfg, n_schedule=[16, 33], s_grid=s_grid), "r")
    assert rc == 0
    report = json.loads((out / "convergence.json").read_text())
    for written in report["rows"]:
        n = written["n"]
        row, law, predicted, lim = convergence_row(pot, data, n, s_grid, QuadratureConfig())
        row = json.loads(json.dumps(row))
        del row["seconds"], written["seconds"]
        assert row == written
        blob = json.loads((out / f"law_n{n}.json").read_text())
        assert blob["exact"] == json.loads(law.to_json())
        assert blob["predicted"] == json.loads(predicted.to_json())
        assert blob["limit"] == lim.to_json_dict() and blob["x_n"] == lim.x_n


def test_converge_rejects_non_increasing_schedule(tmp_path, capsys):
    cfg = dict(CASE1_CFG, n_schedule=[32, 32])
    path = write_config(tmp_path, "bad.json", cfg)
    rc = main(["converge", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "strictly increasing" in err


@pytest.mark.parametrize("bad", [0, 2.7, 1, True, "64"])
def test_converge_rejects_bad_schedule_entry(tmp_path, capsys, bad):
    path = write_config(tmp_path, "bad.json", dict(CASE1_CFG, n_schedule=[bad, 64]))
    rc = main(["converge", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"n_schedule entry {bad!r} is not an integer >= 2" in err


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"s_grid": 7}, "s_grid 7 is not a non-empty list"),
        ({"s_grid": "ab"}, "s_grid 'ab' is not a non-empty list"),
        ({"s_grid": []}, "s_grid [] is not a non-empty list"),
        ({"s_grid": [[0.5]]}, "s_grid entry [0.5] is not a list of 2 numbers"),
        ({"s_grid": [[0.5, -0.5], [None, 0.5]]}, "s_grid entry [None, 0.5]"),
        ({"s_grid": [[True, 0.5]]}, "s_grid entry [True, 0.5]"),
        ({"s_grid": [[float("nan"), 0.5]]}, "s_grid entry [nan, 0.5]"),
        ({"s_grid": [[3.0, 0.5]]}, "with |s_k| <= log 16"),
        ({"rel_tol": [1]}, "rel_tol [1] is not a number"),
        ({"rel_tol": "1e-9"}, "rel_tol '1e-9' is not a number"),
        ({"rel_tol": float("nan")}, "tolerances must be positive and finite (rel_tol nan)"),
        ({"rel_tol": float("inf")}, "tolerances must be positive and finite (rel_tol inf)"),
        ({"regions": {"eps": "0.1"}}, "regions.eps '0.1' is not a number"),
        ({"n_schedule": []}, "n_schedule must be a non-empty list"),
        ({"regions": [0.01]}, "regions [0.01] is not a JSON object"),
        ({"regions": {"eps": float("inf")}}, "regions.eps inf is not a number"),
        ({"bumps": 3}, "bumps 3 is not a JSON object"),
        ({"bumps": {"enabled": "no"}}, "bumps.enabled 'no' is not true or false"),
        # the default grid and the smooth diagnostic read |s_k| = 1 > log 2
        ({"n_schedule": [2, 4]}, "the default s_grid reads |s_k| = 1 > log 2: start n_schedule"),
        (
            {"n_schedule": [2, 4], "bumps": {"enabled": False}},
            "the default s_grid reads |s_k| = 1 > log 2",
        ),
        (
            {"n_schedule": [2, 4], "s_grid": [[0.5, -0.5]]},
            "the smooth diagnostic (bumps) reads |s_k| = 1 > log 2",
        ),
    ],
)
def test_converge_validates_config_before_computing(tmp_path, capsys, monkeypatch, fields, message):
    # a malformed config exits 2 with its message before any count law is
    # computed, and writes nothing
    def no_count_law(*args, **kwargs):
        raise AssertionError("a count law was computed before the config was checked")

    monkeypatch.setattr("heinegas.limits.exact_count_law", no_count_law)
    cfg = {**CASE1_CFG, "n_schedule": [16, 32], **fields}
    path = write_config(tmp_path, "bad.json", cfg)
    rc = main(["converge", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


_POTENTIAL_KEYS = [
    (CASE1_CFG, {"t": 7}, "t 7 is not a list of finite numbers"),
    (CASE1_CFG, {"w": [0.2, None]}, "w [0.2, None] is not a list of finite numbers"),
    (CASE1_CFG, {"margin": [1]}, "margin [1] is not a finite number"),
    (CASE2_CFG, {"components": [[0, 1], 5]}, "components [[0, 1], 5] is not two pairs"),
    (CASE2_CFG, {"components": [[0, 1], [1.6, "2.2"]]}, "components [1.6, '2.2'] is not"),
    (CASE2_CFG, {"M0": float("inf")}, "M0 inf is not a finite number"),
    (CASE2_CFG, {"t": [1.2, float("nan")]}, "t [1.2, nan] is not a list of finite numbers"),
]
_POTENTIAL_COMMANDS = (["converge"], ["sample", "--n", "8"], ["validate-potential"])


@pytest.mark.parametrize(
    "command,cfg,message",
    [
        (command, {**base, **fields}, message)
        for command in _POTENTIAL_COMMANDS
        for base, fields, message in _POTENTIAL_KEYS
    ]
    + [
        (["sample"], {**CASE1_CFG, "n": 8.7}, "n 8.7 is not an integer"),
        (["sample", "--n", "8"], {**CASE1_CFG, "seed": [1]}, "seed [1] is not an integer"),
    ],
)
def test_malformed_config_key_exits_2(tmp_path, capsys, command, cfg, message):
    # a key of the wrong type is named and exits 2, not with a traceback,
    # and a fractional n is not truncated into a run
    path = write_config(tmp_path, "bad.json", dict(cfg, n_schedule=[16]))
    rc = main(command + ["--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err


def test_converge_requires_gap_or_outposts(tmp_path, capsys):
    path = write_config(tmp_path, "gin.json", {"case": "ginibre", "n_schedule": [8]})
    rc = main(["converge", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "case1 or case2" in err


def test_converge_requires_schedule(tmp_path, capsys):
    path = write_config(tmp_path, "nos.json", CASE1_CFG)
    rc = main(["converge", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "n_schedule" in err


@pytest.mark.parametrize("command", [["converge"], ["sample", "--n", "8"]])
def test_unreadable_config_exits_2(tmp_path, capsys, command):
    rc = main(command + ["--config", str(tmp_path / "missing.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: cannot read config" in err and "missing.json" in err


@pytest.mark.parametrize("command", [["converge"], ["sample", "--n", "8"]])
def test_config_quadrature_mode_exits_2(tmp_path, capsys, command):
    # a run that asked for the windowed-vs-full cross-check must not be
    # given less without a word
    path = write_config(tmp_path, "c.json", dict(CASE1_CFG, n_schedule=[16], mode="both"))
    rc = main(command + ["--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config key 'mode'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["converge"], ["sample", "--n", "8"]])
def test_config_window_constant_exits_2(tmp_path, capsys, command):
    # the sampler reads the full grid; a run that set the peak-window
    # constant must hear that it is gone
    path = write_config(tmp_path, "c.json", dict(CASE1_CFG, n_schedule=[16], C=10.0))
    rc = main(command + ["--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config key 'C' is no longer read" in err
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------------------- sample


def test_sample_writes_deterministic_csv(tmp_path, capsys):
    path = write_config(tmp_path, "gin.json", {"case": "ginibre"})

    def draws(subdir, seed):
        out = tmp_path / subdir
        rc = main(
            [
                "sample",
                "--config", path,
                "--n", "8",
                "--reps", "2",
                "--seed", str(seed),
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        with open(out / "moduli.csv", newline="") as fh:
            return list(csv.reader(fh))

    rows_a = draws("sa", 5)
    rows_b = draws("sb", 5)
    rows_c = draws("sc", 6)
    assert rows_a[0] == ["j", "r"]
    assert len(rows_a) == 1 + 2 * 8
    assert rows_a == rows_b
    assert rows_a != rows_c


def test_sample_over_table_budget_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hg.engine, "_TABLE_ELEMENTS", 1000)
    path = write_config(tmp_path, "gin.json", {"case": "ginibre"})
    rc = main(["sample", "--config", path, "--n", "8", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "sampler table too large at n=8" in err
    assert "above the limit of 1,000" in err


def test_sample_over_draw_budget_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hg.engine, "_TABLE_ELEMENTS", 1000)
    path = write_config(tmp_path, "gin.json", {"case": "ginibre"})
    argv = ["sample", "--config", path, "--n", "8", "--reps", "200", "--out", str(tmp_path)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "reps=200 draws of n=8 moduli need 1,600 radii, above the limit of 1,000" in err
    assert not (tmp_path / "moduli.csv").exists()


def test_sample_rejects_single_particle(tmp_path, capsys):
    path = write_config(tmp_path, "gin.json", {"case": "ginibre"})
    rc = main(["sample", "--config", path, "--n", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "n must be >= 2 (set --n" in err


# ----------------------------------------------------------------- flags


@pytest.mark.parametrize(
    "command,flag",
    [
        (["heine", "--theta", "1", "--q", "0.5"], ["--config", "c.json"]),
        (["heine", "--theta", "1", "--q", "0.5"], ["--quad-mode", "full"]),
        (["converge", "--config", "c.json"], ["--seed", "1"]),
        (["validate-potential", "--config", "c.json"], ["--seed", "1"]),
        (["validate-potential", "--config", "c.json"], ["--out", "results"]),
        (["validate-potential", "--config", "c.json"], ["--quad-mode", "full"]),
        (["sample", "--config", "c.json", "--n", "12"], ["--quad-mode", "both"]),
        (["converge", "--config", "c.json"], ["--quad-mode", "full"]),
    ],
)
def test_subcommands_reject_flags_they_ignore(capsys, command, flag):
    rc = main(command + flag)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in err


def test_sample_requires_n(tmp_path, capsys):
    path = write_config(tmp_path, "gin.json", {"case": "ginibre"})
    rc = main(["sample", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "n must be" in err
