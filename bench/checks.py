"""Output checks and the quality block of one suite.

A check names the scenario row it blames, so a run can count failed rows
against rows attempted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from mgopt import OBJECTIVE_KEYS, SuiteResult
from mgopt.optimizer import SCENARIO_KEYS

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Quality metric -> (scenario row it is read from, objective or "total", unit).
QUALITY_SOURCE = {
    "weighted_total": ("weighted", "total", "1"),
    "dr_total": ("dr", "total", "1"),
    "cost_ct": ("cost", "cost", "ct"),
    "loss_kwh": ("loss", "loss", "kWh"),
    "ens_ct": ("ens", "ens", "ct"),
    "vdev_pu": ("vdev", "vdev", "pu"),
}

ROWS: Tuple[str, ...] = SCENARIO_KEYS + ("dr",)

# Slack for comparisons between values the suite computed on different
# evaluation paths (batched metrics against the scalar objectives).
REL_TOL = 1e-9


def _not_above(value: float, limit: float) -> bool:
    return value <= limit + REL_TOL * max(1.0, abs(limit))


def quality_block(suite: SuiteResult) -> Dict[str, float]:
    out = {}
    for name, (row, field, _) in QUALITY_SOURCE.items():
        if field == "total":
            out[name] = float(suite.totals[row])
        else:
            out[name] = float(suite.results[row].objectives[field])
    return out


def load_reference(workload: str) -> Dict[str, Dict[str, float]]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def check_suite(suite: SuiteResult, reference: Dict[str, Dict[str, float]]) -> List[Tuple[str, str]]:
    """(row, reason) for every failed check; empty when the suite is sound."""
    failures: List[Tuple[str, str]] = []
    results = suite.results
    for row in ROWS:
        r = results[row]
        if not r.feasible:
            failures.append((row, f"infeasible (violation {r.violation:.3g})"))
        if r.ga_value is not None and r.value is not None and not _not_above(r.value, r.ga_value):
            failures.append((row, f"refined value {r.value!r} worse than GA seed {r.ga_value!r}"))

    for key in OBJECTIVE_KEYS:
        own = results[key].objectives[key]
        best = min(results[row].objectives[key] for row in SCENARIO_KEYS)
        if not _not_above(own, best):
            failures.append((key, f"{key} {own!r} is not the best in its column ({best!r})"))

    best_total = min(suite.totals[row] for row in SCENARIO_KEYS)
    if not _not_above(suite.totals["weighted"], best_total):
        failures.append(("weighted", f"weighted total is not the lowest ({best_total!r})"))
    if not _not_above(suite.totals["dr"], suite.totals["weighted"]):
        failures.append(("dr", "DR total exceeds the weighted total"))

    # Lower is better for every quality metric, so only a worse value fails.
    for name, value in quality_block(suite).items():
        ref = reference[name]
        if not value <= ref["value"] * (1.0 + ref["rel_tol"]):
            failures.append(
                (QUALITY_SOURCE[name][0], f"{name} {value!r} above reference {ref['value']!r} (+{ref['rel_tol']})")
            )
    return failures
