"""Scenario runner: baseline, four single-objective runs, weighted run, DR.

Scenario 0 is the grid-only initial state (no optimisation).  Scenarios 1-4
minimise one objective each; scenario 5 minimises the weighted sum of the
four objectives normalised between the scenario-k optimum and the initial
state.  The demand-response variant re-runs scenario 5 with the shift
series in the decision vector.

Each optimisation is a GA seed followed by SQP refinement.  After the
individual runs the suite cross-polishes deterministically: whenever some
scenario's solution scores better on objective k than scenario k's own
solution, scenario k is re-refined from that point.  The sweeps are capped;
a scenario still beaten after them takes the plan that wins its column.  So
the final table has every single-objective run dominating its own metric and
the weighted run dominating the weighted total.  The table reads each plan's
cached kernel metrics, the same numbers those comparisons use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ahp import derive_weights
from ..devices import COMMIT_EPS, DispatchSchedule, zero_schedule
from ..dr import check_shift
from ..netmodel import MicrogridCase
from ..objectives import OBJECTIVE_KEYS, ObjectiveBounds, ObjectiveValues, weights_from_sequence
from ..powerflow import PowerFlowError, compile_network, solve_horizon
from ..reliability import ContingencyEvaluator
from .ga import GaConfig, ga_seed
from .problem import BatchMetrics, DispatchProblem, ObjectiveSpec
from .sqp import SqpConfig, SqpResult

SCENARIO_KEYS: Tuple[str, ...] = ("baseline",) + OBJECTIVE_KEYS + ("weighted",)

SCENARIO_LABELS: Dict[str, str] = {
    "baseline": "Initial state",
    "cost": "First scenario",
    "loss": "Second scenario",
    "ens": "Third scenario",
    "vdev": "Fourth scenario",
    "weighted": "Fifth scenario without DR",
    "dr": "Fifth scenario with DR",
}


def scenario_key(scenario_id: int) -> str:
    if not 0 <= scenario_id < len(SCENARIO_KEYS):
        raise ValueError(f"scenario id must be 0..{len(SCENARIO_KEYS) - 1}, got {scenario_id}")
    return SCENARIO_KEYS[scenario_id]


@dataclass
class OptimizerConfig:
    ga: GaConfig = field(default_factory=GaConfig)
    sqp: SqpConfig = field(default_factory=SqpConfig)
    seed: int = 0
    polish_sweeps: int = 3
    refine_rounds: int = 3


@dataclass
class ScenarioResult:
    key: str
    label: str
    schedule: DispatchSchedule
    objectives: ObjectiveValues
    value: Optional[float]
    feasible: bool
    violation: float
    ga_value: Optional[float] = None
    improved: bool = False
    # GA generations run for this scenario; below the configured budget when
    # the search stopped early.  None where no GA ran.
    ga_generations: Optional[int] = None
    # The last SQP solve of the refine that produced the plan (``trace`` is
    # its iteration log): its status, iterations and KKT residual.  None
    # where no solve ran, and the residual None where no iteration measured it.
    sqp_status: Optional[str] = None
    sqp_iterations: Optional[int] = None
    sqp_kkt: Optional[float] = None
    trace: List[Dict] = field(default_factory=list)
    elapsed_s: float = 0.0

    def as_row(self) -> Dict[str, float]:
        return self.objectives.as_dict()


@dataclass
class SuiteResult:
    case: MicrogridCase
    results: Dict[str, ScenarioResult]
    bounds: ObjectiveBounds
    weights: Dict[str, float]
    consistency_ratio: float
    seed: int
    totals: Dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def result(self, scenario_id: int, dr: bool = False) -> ScenarioResult:
        key = "dr" if dr else scenario_key(scenario_id)
        return self.results[key]


def grid_only_schedule(case: MicrogridCase, dr: bool = False) -> DispatchSchedule:
    """The initial state: every local source idle, all demand on the grid."""
    return zero_schedule(len(case.units), case.horizon, dr=dr)


def resolve_weights(
    case: MicrogridCase, weights: Optional[Sequence[float]] = None
) -> Tuple[Dict[str, float], float]:
    """Objective weights for the weighted scenario, with consistency ratio.

    Explicit weights (argument, then case field) win; otherwise the case's
    judgment matrix, then the built-in judgment set, feed the eigenvector
    method.  Direct weights carry a consistency ratio of 0 by convention.
    """
    if weights is not None:
        return weights_from_sequence(weights), 0.0
    if case.weights is not None:
        return weights_from_sequence(case.weights), 0.0
    vector, ratio = derive_weights(case.judgment_matrix)
    return weights_from_sequence(vector), ratio


def _rng_for(seed: int, scenario_id: int, dr: bool) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(scenario_id, 1 if dr else 0))
    )


@dataclass
class _Row:
    """One scenario's plan while the suite runs, evaluated once per plan."""

    x: np.ndarray
    metrics: BatchMetrics
    value: Optional[float] = None
    ga_value: Optional[float] = None
    ga_generations: Optional[int] = None
    sqp: Optional[SqpResult] = None
    elapsed_s: float = 0.0


def _optimize(
    problem: DispatchProblem,
    spec: ObjectiveSpec,
    config: OptimizerConfig,
    scenario_id: int,
    extra_seeds: Optional[np.ndarray] = None,
) -> _Row:
    """A GA seed refined by SQP, as the scenario's row."""
    t0 = time.perf_counter()
    rng = _rng_for(config.seed, scenario_id, problem.dr)
    evaluate, repair = problem.ga_functions(spec)
    seeds = problem.seed_points()
    if extra_seeds is not None and len(extra_seeds):
        seeds = np.vstack([np.atleast_2d(extra_seeds), seeds])
    ga = ga_seed(evaluate, repair, problem.lower, problem.upper, rng, config.ga, seeds)
    refined = problem.refine(ga.x, spec, config.sqp, max_rounds=config.refine_rounds)
    return _Row(
        x=refined.x,
        metrics=refined.metrics,
        value=refined.value,
        ga_value=refined.seed_value,
        ga_generations=ga.generations,
        sqp=refined.sqp,
        elapsed_s=time.perf_counter() - t0,
    )


def _beats(rival: float, own: float) -> bool:
    return rival < own * (1.0 - 1e-12) - 1e-12


def _cross_polish(
    problem: DispatchProblem,
    rows: Dict[str, _Row],
    targets: Sequence[Tuple[str, ObjectiveSpec]],
    rivals: Sequence[str],
    config: OptimizerConfig,
) -> None:
    """Make each target row score lowest on its own spec among the rivals.

    A target beaten by a rival is re-refined from the rival's plan and takes
    the result when it scores better.  A re-refine can hand another target a
    new rival, so the sweeps are capped; a target still beaten after them
    takes a copy of the plan that wins its column.  A copy adds no plan that
    was not already a rival, so it cannot beat any other target, and every
    target wins its column on return.

    Refining is deterministic, so a target is never re-refined twice from
    one plan.
    """
    reports = {key: spec.reported for key, spec in targets}
    tried = set()
    for _ in range(config.polish_sweeps):
        changed = False
        for key, spec in targets:
            own = reports[key].score(rows[key].metrics)
            for other in rivals:
                if other == key or not _beats(reports[key].score(rows[other].metrics), own):
                    continue
                start = rows[other].x.tobytes()
                if (key, start) in tried:
                    continue
                tried.add((key, start))
                refined = problem.refine(rows[other].x, spec, config.sqp, max_rounds=config.refine_rounds)
                if refined.value < own:
                    rows[key].x = refined.x
                    rows[key].metrics = refined.metrics
                    rows[key].value = own = refined.value
                    rows[key].sqp = refined.sqp
                    changed = True
        if not changed:
            break
    for key, _ in targets:
        best = min((other for other in rivals if other != key), key=lambda o: reports[key].score(rows[o].metrics))
        if _beats(reports[key].score(rows[best].metrics), reports[key].score(rows[key].metrics)):
            rows[key].x = rows[best].x.copy()
            rows[key].metrics = rows[best].metrics
            rows[key].value = reports[key].score(rows[best].metrics)
            rows[key].sqp = rows[best].sqp


def _require_power_flow(problem: DispatchProblem, x: np.ndarray, m: BatchMetrics) -> None:
    """Raise the typed PowerFlowError for a plan whose sweep failed.

    The kernel only flags such a plan; re-solving it on its own names the
    failure and the first hour it hits.
    """
    if m.ok[0]:
        return
    solve_horizon(problem.case, problem.schedule(x), net=problem.net)
    raise PowerFlowError("power flow failed for the plan")


def _objective_values(m: BatchMetrics) -> ObjectiveValues:
    return ObjectiveValues(**{key: float(m.values[key][0]) for key in OBJECTIVE_KEYS})


def evaluate_objectives(
    case: MicrogridCase,
    schedule: DispatchSchedule,
    evaluator: Optional[ContingencyEvaluator] = None,
) -> ObjectiveValues:
    """All four objectives for one schedule, from the batched kernel.

    Raises ValueError for a unit setpoint outside [0, p_max] or a shift
    that ``dr.check_shift`` refuses, and PowerFlowError when the schedule's
    power flow fails.
    """
    for unit, p in zip(case.units, schedule.dg_setpoints):
        bad = (p < -COMMIT_EPS) | (p > unit.p_max_kw + max(1e-9, 1e-9 * unit.p_max_kw))
        if bad.any():
            raise ValueError(f"setpoint {p[bad][0]} outside [0, {unit.p_max_kw}] for unit {unit.name}")
    if schedule.dr_shift is not None:
        check_shift(case, schedule.dr_shift)
    problem = DispatchProblem(case, dr=schedule.dr_shift is not None, evaluator=evaluator)
    x = problem.pack(schedule)
    m = problem.metrics(x)
    _require_power_flow(problem, x, m)
    return _objective_values(m)


def _finish_result(problem: DispatchProblem, key: str, row: _Row) -> ScenarioResult:
    m, sqp = row.metrics, row.sqp
    _require_power_flow(problem, row.x, m)
    return ScenarioResult(
        key=key,
        label=SCENARIO_LABELS.get(key, key),
        schedule=problem.schedule(row.x),
        objectives=_objective_values(m),
        value=row.value,
        feasible=float(m.violation[0]) <= 1e-6,
        violation=float(m.violation[0]),
        ga_value=row.ga_value,
        improved=row.ga_value is not None and row.value is not None and row.value < row.ga_value,
        ga_generations=row.ga_generations,
        sqp_status=sqp.status if sqp else None,
        sqp_iterations=sqp.iterations if sqp else None,
        sqp_kkt=float(sqp.kkt_residual) if sqp and np.isfinite(sqp.kkt_residual) else None,
        trace=list(sqp.trace) if sqp else [],
        elapsed_s=row.elapsed_s,
    )


def run_suite(
    case: MicrogridCase,
    config: Optional[OptimizerConfig] = None,
    weights: Optional[Sequence[float]] = None,
    include_dr: Optional[bool] = None,
) -> SuiteResult:
    """Run scenarios 0-5 (and the DR variant when the case defines one)."""
    t_start = time.perf_counter()
    config = config or OptimizerConfig()
    if include_dr is None:
        include_dr = case.dr is not None
    if include_dr and case.dr is None:
        raise ValueError("case defines no demand response program")

    net = compile_network(case)
    evaluator = ContingencyEvaluator(case)
    problem = DispatchProblem(case, net=net, evaluator=evaluator)
    weight_map, ratio = resolve_weights(case, weights)

    baseline = problem.pack(grid_only_schedule(case))
    rows: Dict[str, _Row] = {"baseline": _Row(baseline, problem.metrics(baseline))}
    _require_power_flow(problem, baseline, rows["baseline"].metrics)
    for idx, key in enumerate(OBJECTIVE_KEYS, start=1):
        rows[key] = _optimize(problem, ObjectiveSpec(key), config, idx)

    singles = [(key, ObjectiveSpec(key)) for key in OBJECTIVE_KEYS]
    _cross_polish(problem, rows, singles, ("baseline",) + OBJECTIVE_KEYS, config)

    # Normalisation brackets: scenario-k optimum to initial-state value.
    bounds: ObjectiveBounds = {}
    for key in OBJECTIVE_KEYS:
        low = float(rows[key].metrics.values[key][0])
        high = float(rows["baseline"].metrics.values[key][0])
        bounds[key] = (min(low, high), high)

    spec5 = ObjectiveSpec("weighted", weights=weight_map, bounds=bounds)
    prior = np.vstack([rows[k].x for k in ("baseline",) + OBJECTIVE_KEYS])
    rows["weighted"] = _optimize(problem, spec5, config, 5, extra_seeds=prior)

    # The weighted run must win the weighted total, and the single-objective
    # runs must still win their own metric now that it is a rival.
    _cross_polish(problem, rows, singles + [("weighted", spec5)], SCENARIO_KEYS, config)

    results = {key: _finish_result(problem, key, rows[key]) for key in SCENARIO_KEYS}
    totals = {key: spec5.reported.score(rows[key].metrics) for key in SCENARIO_KEYS}

    if include_dr:
        t0 = time.perf_counter()
        problem_dr = DispatchProblem(case, dr=True, net=net, evaluator=evaluator)
        if float(problem_dr.shift_bound.max(initial=0.0)) <= 0.0:
            # Degenerate program: nothing may move, so the answer is the
            # weighted run with a zero shift.
            x_dr = problem_dr.pack(problem.schedule(rows["weighted"].x))
            row_dr = _Row(x_dr, problem_dr.metrics(x_dr), value=totals["weighted"])
        else:
            prior_dr = np.vstack([problem_dr.pack(problem.schedule(rows[k].x)) for k in SCENARIO_KEYS])
            row_dr = _optimize(problem_dr, spec5, config, 5, extra_seeds=prior_dr)
        row_dr.elapsed_s = time.perf_counter() - t0
        results["dr"] = _finish_result(problem_dr, "dr", row_dr)
        totals["dr"] = row_dr.value

    return SuiteResult(
        case=case,
        results=results,
        bounds=bounds,
        weights=weight_map,
        consistency_ratio=ratio,
        seed=config.seed,
        totals=totals,
        elapsed_s=time.perf_counter() - t_start,
    )


def run_scenario(
    case: MicrogridCase,
    scenario_id: int,
    weights: Optional[Sequence[float]] = None,
    config: Optional[OptimizerConfig] = None,
    dr: bool = False,
) -> ScenarioResult:
    """One scenario's result, computed through the full suite for
    consistency: scenario 5 needs the others' optima for normalisation, and
    the cross-polish keeps the published table self-consistent."""
    suite = run_suite(case, config=config, weights=weights, include_dr=dr)
    return suite.result(scenario_id, dr=dr)
