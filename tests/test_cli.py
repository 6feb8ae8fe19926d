"""End-to-end command-line driver checks (direct main() invocation)."""

import csv
import json

import numpy as np
import pytest

import heinegas as hg
from heinegas.cli import main


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


def test_validate_potential_rejects_bad_geometry(tmp_path, capsys):
    cfg = dict(CASE1_CFG, t=[0.5, 2.0])
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


def test_converge_rejects_non_increasing_schedule(tmp_path, capsys):
    cfg = dict(CASE1_CFG, n_schedule=[32, 32])
    path = write_config(tmp_path, "bad.json", cfg)
    rc = main(["converge", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "strictly increasing" in err


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
