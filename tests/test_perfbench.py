"""The benchmark's runner completes a short run and its output checks pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# count-laws is left out: one repetition of it takes about 6.5 s
@pytest.mark.parametrize("workload", ["sample-case1", "converge-case2"])
def test_benchmark_run_is_correct(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"]
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
