"""One short round of the benchmark, with its own output checkers, on a copy
of `bench/` and `src/` in a temporary directory, so that nothing is written
inside the checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["walk_local", "uniform_far", "weighted_skew",
                                      "exhaustive"])
def test_benchmark_round_checks_correct(tmp_path, workload):
    skip = shutil.ignore_patterns("out", "__pycache__")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
