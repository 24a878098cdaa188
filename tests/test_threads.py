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
