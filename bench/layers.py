"""Outside-in layer trace: timing wrappers installed from the benchmark.

Each wrapper replaces a name that callers inside ``mgopt`` look up at call
time (a module global or a class attribute), so the program itself is not
edited.  A span records name, start, end and parent span; spans stay in
memory and are written out when the run ends.  Counters are read from the
public return values at the same boundary.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import mgopt.optimizer.problem as problem_mod
import mgopt.optimizer.scenarios as scenarios_mod
import mgopt.optimizer.sqp as sqp_mod
from mgopt.reliability import ContingencyEvaluator

SQP_CONVERGED = ("kkt", "small-step")


def _rows(array) -> int:
    return int(np.atleast_2d(np.asarray(array)).shape[0])


def _count_sweep(result, args, counts) -> None:
    counts["columns"] += int(result.iterations.size)
    counts["column_iterations"] += int(result.iterations.sum())
    counts["nonconverged"] += int((~result.converged).sum())


def _count_qp(result, args, counts) -> None:
    counts["pivots"] += int(result.pivots)
    counts["elastic"] += int(bool(result.elastic))


def _count_sqp(result, args, counts) -> None:
    counts["iterations"] += int(result.iterations)
    counts["objective_evaluations"] += int(result.objective_evaluations)
    counts["max_iterations_count"] += int(result.status == "max-iterations")
    counts["elastic_used"] += int(bool(result.elastic_used))
    counts["converged"] += int(result.status in SQP_CONVERGED)


def _count_ga(result, args, counts) -> None:
    counts["generations"] += int(result.generations)
    counts["evaluations"] += int(result.evaluations)


def _count_refine(result, args, counts) -> None:
    counts["rounds"] += int(result.rounds)


def _count_rows(result, args, counts) -> None:
    # args[0] is the bound instance; args[1] the batch of plans.
    counts["rows"] += _rows(args[1])


def _count_soc_rows(result, args, counts) -> None:
    counts["rows"] += 1 if args[1] is None else _rows(args[1])


# (span name, owner, attribute, counter).  The owners are the objects whose
# attribute the callers read: ``problem.sweep`` is the name DispatchProblem
# calls, not ``powerflow.sweep`` itself.
TARGETS: Tuple[Tuple[str, object, str, Optional[Callable]], ...] = (
    ("powerflow.sweep", problem_mod, "sweep", _count_sweep),
    ("qp", sqp_mod, "qp_subproblem", _count_qp),
    ("sqp", problem_mod, "sqp_solve", _count_sqp),
    ("ga", scenarios_mod, "ga_seed", _count_ga),
    ("objectives.evaluate", scenarios_mod, "evaluate_objectives", None),
    ("problem.metrics", problem_mod.DispatchProblem, "metrics", _count_rows),
    ("problem.repair", problem_mod.DispatchProblem, "repair", _count_rows),
    ("problem.split_eval", problem_mod.DispatchProblem, "split_eval", _count_rows),
    ("problem.refine", problem_mod.DispatchProblem, "refine", _count_refine),
    ("problem.derivatives", problem_mod._SplitDispatchNlp, "derivatives", None),
    ("reliability.cost_batch", ContingencyEvaluator, "cost_batch", _count_soc_rows),
)


class Tracer:
    """Span recorder with wrappers that stay installed only inside ``with``."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: List[list] = []
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, counter: Optional[Callable] = None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            counter(result, args, self.counts[name])
        return result

    def _wrap(self, name: str, original: Callable, counter: Optional[Callable]) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.span(name, original, *args, counter=counter, **kwargs)

        return traced

    def __enter__(self) -> "Tracer":
        for name, owner, attr, counter in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, counters.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        child_time = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        for name, counts in self.counts.items():
            totals[name].update(counts)
        return dict(totals)

    def dump(self) -> Dict[str, object]:
        """Spans in a JSON-ready form, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, s - origin, e - origin, p] for n, s, e, p in self.spans],
        }


# Per layer, the fields reported as "<layer>.<field>": calls, self_s and
# total_s come from the spans, the rest are counters read from return values.
LAYER_FIELDS = {
    "powerflow.sweep": ("calls", "self_s", "columns", "column_iterations", "nonconverged"),
    "qp": ("calls", "self_s", "pivots", "elastic"),
    "sqp": ("calls", "self_s", "total_s", "iterations", "objective_evaluations",
            "max_iterations_count", "elastic_used"),
    "problem.derivatives": ("calls", "self_s"),
    "problem.split_eval": ("calls", "self_s", "rows"),
    "ga": ("calls", "self_s", "total_s", "generations", "evaluations"),
    "problem.metrics": ("calls", "self_s", "rows"),
    "problem.repair": ("calls", "self_s", "rows"),
    "problem.refine": ("calls", "self_s", "rounds"),
    "reliability.cost_batch": ("calls", "self_s", "rows"),
    "objectives.evaluate": ("calls", "self_s"),
    "scenarios.run_suite": ("self_s",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced suite, as name -> (value, unit)."""
    totals = tracer.layer_totals()

    def get(layer: str, field: str) -> float:
        return totals.get(layer, {}).get(field, 0)

    out = {
        f"{layer}.{field}": (get(layer, field), "s" if field.endswith("_s") else "count")
        for layer, fields in LAYER_FIELDS.items()
        for field in fields
    }
    out["powerflow.sweep.us_per_column_iteration"] = (
        1e6 * _ratio(get("powerflow.sweep", "self_s"), get("powerflow.sweep", "column_iterations")), "us")
    out["qp.ms_per_call"] = (1e3 * _ratio(get("qp", "self_s"), get("qp", "calls")), "ms")
    out["sqp.converged_share"] = (_ratio(get("sqp", "converged"), get("sqp", "calls")), "share")
    out["ga.evals_per_s"] = (_ratio(get("ga", "evaluations"), get("ga", "total_s")), "1/s")
    # Every scenario's own search is one GA run followed by one refine; any
    # further refine is a cross-polish re-refinement.
    out["scenarios.polish_refines"] = (get("problem.refine", "calls") - get("ga", "calls"), "count")
    return out
