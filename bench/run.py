"""mgopt benchmark: whole day-ahead suites, checked, timed, optionally traced.

    python3 bench/run.py --workload day-suite --seed 0 --seconds 60 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src`` directory.  One workload per process, single-threaded
(``MGOPT_THREADS=1`` unless the caller sets another value, which the
environment record flags), one caller in a closed loop.

``--trace 0`` runs the whole suites that fit in ``--seconds`` (see
``Workload.suites_per_run``) and reports the end-to-end metrics: median suite
wall time, median set-up time over fresh processes, peak memory and the
quality block averaged over the suites.  ``--trace 1`` runs the seed's suite
once untraced and once traced and reports the per-layer metrics of the
traced one, with the tracing overhead.  Every suite's outputs are checked;
the last line of standard output is the JSON result.  A fuller record (the
environment, every suite, and in traced runs every span) goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 7


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    # Only a repository rooted at this checkout describes it.
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def environment_record(threads: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 has no mode argument
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": len(os.sched_getaffinity(0)),
        "mgopt_threads": threads,
        "threads_flag": None if threads == "1" else "MGOPT_THREADS is not 1: not comparable",
        "commit": _git_commit(),
        "machine": platform.machine(),
    }


def setup_seconds(workload: str) -> list:
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mgopt" / "__init__.py").is_file():
        _fail(f"no mgopt package under {SRC}; run from a source checkout")
    # Must precede the first numpy import; mgopt maps it onto the BLAS pools.
    threads = os.environ.setdefault("MGOPT_THREADS", "1")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import mgopt
    from mgopt import run_suite

    if Path(mgopt.__file__).resolve().parent != (SRC / "mgopt").resolve():
        _fail(f"imported mgopt from {mgopt.__file__}, not from {SRC}")

    from checks import QUALITY_SOURCE, ROWS, check_suite, load_reference, quality_block
    from layers import Tracer, layer_metrics
    from workloads import WORKLOADS, suite_seeds

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment_record(threads)
    if env["threads_flag"]:
        print(f"bench: warning: {env['threads_flag']}", file=sys.stderr)
    reference = load_reference(args.workload)

    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    case = workload.case()
    load_s = time.perf_counter() - t0

    if args.trace:
        plan = [(args.seed, False), (args.seed, True)]
    else:
        plan = [(seed, False) for seed in suite_seeds(args.seed, workload.suites_per_run(args.seconds))]
    suites = []
    failures = []  # (suite index, row, reason)
    for index, (seed, traced) in enumerate(plan):
        config = workload.config(seed)
        start = time.perf_counter()
        try:
            if traced:
                with tracer:
                    suite = tracer.span("scenarios.run_suite", run_suite, case, config)
            else:
                suite = run_suite(case, config)
        except Exception:  # a suite that raises fails every row; the run goes on
            traceback.print_exc()
            failures.extend((index, row, "run_suite raised") for row in ROWS)
            continue
        elapsed = time.perf_counter() - start
        failures.extend((index, row, reason) for row, reason in check_suite(suite, reference))
        suites.append({"seed": seed, "traced": traced, "suite_s": elapsed, "quality": quality_block(suite)})
    if not suites:
        _fail("no suite completed")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "suites": suites, "failures": failures}
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer_metrics(tracer).items()}
        metrics["netmodel.load.s"] = {"value": load_s, "unit": "s"}
        times = {s["traced"]: s["suite_s"] for s in suites}
        if len(times) == 2:
            metrics["trace.suite_s"] = {"value": times[True], "unit": "s"}
            metrics["trace.untraced_suite_s"] = {"value": times[False], "unit": "s"}
            metrics["trace.overhead_s"] = {"value": times[True] - times[False], "unit": "s"}
        record["trace_spans"] = tracer.dump()
    else:
        record["setup_probes_s"] = setup = setup_seconds(args.workload)
        metrics = {
            "suite_s": {"value": statistics.median(s["suite_s"] for s in suites), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        for name, (_, _, unit) in QUALITY_SOURCE.items():
            metrics[name] = {"value": statistics.fmean(s["quality"][name] for s in suites), "unit": unit}
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("environment: " + json.dumps(env))
    for index, row, reason in failures:
        print(f"check failed: suite {index} row {row}: {reason}")
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    failed = len({(index, row) for index, row, _ in failures})
    print(json.dumps({"correct": not failures, "attempted": len(ROWS) * len(plan), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
