import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import(order, **extra):
    env = {k: v for k, v in os.environ.items() if k not in POOLS}
    env.update(MGOPT_THREADS="1", PYTHONPATH=SRC, **extra)
    code = f"import {order}, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_mgopt_threads_applies_when_mgopt_comes_first():
    done = _import("mgopt, numpy")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "1"}])
def test_mgopt_threads_warns_when_numpy_comes_first(preset):
    done = _import("numpy, mgopt", **preset)
    assert done.returncode != 0
    assert "RuntimeWarning: MGOPT_THREADS=1 has no effect" in done.stderr


def test_no_warning_when_pools_already_match():
    done = _import("numpy, mgopt", **{var: "1" for var in POOLS})
    assert done.returncode == 0, done.stderr


def test_one_answer_on_one_and_two_threads(tmp_path):
    # The DP path at the default configuration: every reduced KKT system
    # the QP solves stays below the size at which the BLAS splits its work
    # across threads, so the run directory does not depend on the count.
    from mgopt.netmodel import benchmark_case_path

    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {k: v for k, v in os.environ.items() if k not in POOLS}
        env.update(MGOPT_THREADS=threads, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-m", "mgopt.cli", "optimize", benchmark_case_path(), "--scenario", "5", "--dr",
             "--seed", "0", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        runs.append(out)
    files = sorted(p.name for p in runs[0].iterdir())
    assert files == sorted(p.name for p in runs[1].iterdir()) and "objectives.json" in files
    for name in files:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
