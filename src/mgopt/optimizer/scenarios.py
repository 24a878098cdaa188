"""Scenario runner: baseline, four single-objective runs, weighted run, DR.

Scenario 0 is the grid-only initial state (no optimisation).  Scenarios 1-4
minimise one objective each; scenario 5 minimises the weighted sum of the
four objectives normalised between the scenario-k optimum and the initial
state.  The demand-response variant re-runs scenario 5 with the shift
series in the decision vector.

Each optimisation is a seed followed by SQP refinement.  The seed comes
from a dynamic programme over the state of charge
(``DispatchProblem.dp_seed``), on a stage table scored in two passes per
suite: the four single specs together, then the weighted spec once the
single rows have set its brackets.  The DR row starts from the weighted DP
plan with a zero shift.  The DP plan goes first among the GA's seeds, and
the GA then runs no generation: it scores those seeds alone, drawing no
random plan, and keeps the best, so the answer does not depend on the
seed.  Where the DP finds no plan (an hour with no feasible grid point, or
a unit grid past ``problem.STAGE_COLUMN_CAP``) the GA runs its configured
budget.  After the individual runs the suite cross-polishes
deterministically: whenever some scenario's solution scores better on
objective k than scenario k's own solution, scenario k is re-refined from
that point.  The sweeps are capped; a scenario still beaten after them
takes the plan that wins its column.  So the final table has every
single-objective run dominating its own metric and the weighted run
dominating the weighted total.  The table reads each plan's
cached kernel metrics, the same numbers those comparisons use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ahp import derive_weights
from ..devices import DispatchSchedule, zero_schedule
from ..netmodel import MicrogridCase
from ..objectives import OBJECTIVE_KEYS, ObjectiveBounds, ObjectiveValues, weights_from_sequence
from ..powerflow import _raise_if_failed, compile_network
from ..reliability import ContingencyEvaluator
from .ga import GaConfig, ga_seed
from .problem import BatchMetrics, DispatchProblem, ObjectiveSpec, RefineResult, _feasible
from .sqp import SqpConfig

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
    # GA generations run for this scenario: 0 where it started from a DP
    # plan, below the configured budget where the search stopped early.
    # None where no GA ran.
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
    """One scenario's plan while the suite runs.

    ``plan`` is the refine that produced it, or a plan no refine produced
    (the baseline's, a degenerate DR row's) with no SQP result; its metrics,
    evaluated once, are what every comparison reads.  A polish re-refine or
    an adopted rival plan replaces it.  The GA facts of the scenario's own
    run stay: ``ga_value`` is the first refine's ``seed_value``.
    """

    plan: RefineResult
    ga_value: Optional[float] = None
    ga_generations: Optional[int] = None
    elapsed_s: float = 0.0


def _dp_plans(problem: DispatchProblem, specs: Sequence[ObjectiveSpec]) -> List[Optional[np.ndarray]]:
    """Each spec's DP plan (``DispatchProblem.dp_seed``) from one scoring
    of the stage table; None for every spec where there is no table."""
    stages = problem.stage_minima(specs)
    if stages is None:
        return [None] * len(specs)
    return [problem.dp_seed(spec, stage) for spec, stage in zip(specs, stages)]


def _optimize(
    problem: DispatchProblem,
    spec: ObjectiveSpec,
    config: OptimizerConfig,
    scenario_id: int,
    extra_seeds: Optional[np.ndarray] = None,
    dp_plan: Optional[np.ndarray] = None,
) -> _Row:
    """A seed refined by SQP, as the scenario's row.

    The GA's seeds are the DP plan, then ``extra_seeds``, then the structured
    starts.  Where there is a DP plan the GA runs no generation: its
    population is those seeds alone (at most the configured population),
    scored once, and it keeps the best.  Otherwise it runs its configured
    budget."""
    t0 = time.perf_counter()
    rng = _rng_for(config.seed, scenario_id, problem.dr)
    evaluate, repair = problem.ga_functions(spec)
    starts = [s for s in (dp_plan, extra_seeds) if s is not None and len(s)]
    seeds = np.vstack([np.atleast_2d(s) for s in starts] + [problem.seed_points()])
    budget = config.ga
    if dp_plan is not None:
        # Only the seeds, no random plans: the row does not depend on the rng.
        budget = replace(config.ga, population=min(len(seeds), config.ga.population), generations=0)
    ga = ga_seed(evaluate, repair, problem.lower, problem.upper, rng, budget, seeds)
    refined = problem.refine(ga.x, spec, config.sqp, max_rounds=config.refine_rounds)
    return _Row(refined, ga_value=refined.seed_value, ga_generations=ga.generations, elapsed_s=time.perf_counter() - t0)


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
            own = reports[key].score(rows[key].plan.metrics)
            for other in rivals:
                if other == key or not _beats(reports[key].score(rows[other].plan.metrics), own):
                    continue
                start = rows[other].plan.x.tobytes()
                if (key, start) in tried:
                    continue
                tried.add((key, start))
                refined = problem.refine(rows[other].plan.x, spec, config.sqp, max_rounds=config.refine_rounds)
                if refined.value < own:
                    rows[key].plan, own = refined, refined.value
                    changed = True
        if not changed:
            break
    for key, _ in targets:
        report = reports[key]
        best = min((other for other in rivals if other != key), key=lambda o: report.score(rows[o].plan.metrics))
        value = report.score(rows[best].plan.metrics)
        if _beats(value, report.score(rows[key].plan.metrics)):
            rival = rows[best].plan
            rows[key].plan = replace(rival, x=rival.x.copy(), value=value)


def _objective_values(m: BatchMetrics) -> ObjectiveValues:
    return ObjectiveValues(**{key: float(m.values[key][0]) for key in OBJECTIVE_KEYS})


def evaluate_objectives(case: MicrogridCase, schedule: DispatchSchedule) -> ObjectiveValues:
    """All four objectives for one schedule, from the batched kernel.

    Raises ValueError for a schedule that ``DispatchProblem.check`` refuses,
    and PowerFlowError when the schedule's power flow fails.
    """
    problem = DispatchProblem(case, dr=schedule.dr_shift is not None)
    m = problem.metrics(problem.check(schedule))
    _raise_if_failed(m.converged[0], m.collapsed[0])
    return _objective_values(m)


def _finish_result(problem: DispatchProblem, key: str, row: _Row) -> ScenarioResult:
    """The published row; ``feasible`` is the refiner's own test (``_feasible``)."""
    plan, m, sqp = row.plan, row.plan.metrics, row.plan.sqp
    _raise_if_failed(m.converged[0], m.collapsed[0])
    return ScenarioResult(
        key=key,
        label=SCENARIO_LABELS.get(key, key),
        schedule=problem.schedule(plan.x),
        objectives=_objective_values(m),
        value=plan.value,
        feasible=_feasible(m),
        violation=float(m.violation[0]),
        ga_value=row.ga_value,
        improved=row.ga_value is not None and plan.value is not None and plan.value < row.ga_value,
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
    rows: Dict[str, _Row] = {"baseline": _Row(RefineResult(baseline, problem.metrics(baseline)))}
    _raise_if_failed(rows["baseline"].plan.metrics.converged[0], rows["baseline"].plan.metrics.collapsed[0])
    singles = [(key, ObjectiveSpec(key)) for key in OBJECTIVE_KEYS]
    dp_singles = _dp_plans(problem, [spec for _, spec in singles])
    for idx, ((key, spec), dp_plan) in enumerate(zip(singles, dp_singles), start=1):
        rows[key] = _optimize(problem, spec, config, idx, dp_plan=dp_plan)

    _cross_polish(problem, rows, singles, ("baseline",) + OBJECTIVE_KEYS, config)

    # Normalisation brackets: scenario-k optimum to initial-state value.
    bounds: ObjectiveBounds = {}
    for key in OBJECTIVE_KEYS:
        low = float(rows[key].plan.metrics.values[key][0])
        high = float(rows["baseline"].plan.metrics.values[key][0])
        bounds[key] = (min(low, high), high)

    spec5 = ObjectiveSpec("weighted", weights=weight_map, bounds=bounds)
    prior = np.vstack([rows[k].plan.x for k in ("baseline",) + OBJECTIVE_KEYS])
    # Feasibility does not depend on the spec, so the DP finds a plan for
    # every spec or for none, and the second pass runs only after a first
    # that found them.
    dp_weighted = _dp_plans(problem, [spec5])[0] if dp_singles[0] is not None else None
    rows["weighted"] = _optimize(problem, spec5, config, 5, extra_seeds=prior, dp_plan=dp_weighted)

    # The weighted run must win the weighted total, and the single-objective
    # runs must still win their own metric now that it is a rival.
    _cross_polish(problem, rows, singles + [("weighted", spec5)], SCENARIO_KEYS, config)

    results = {key: _finish_result(problem, key, rows[key]) for key in SCENARIO_KEYS}
    totals = {key: spec5.reported.score(rows[key].plan.metrics) for key in SCENARIO_KEYS}

    if include_dr:
        t0 = time.perf_counter()
        problem_dr = DispatchProblem(case, dr=True, net=net, evaluator=evaluator)
        if float(problem_dr.shift_bound.max(initial=0.0)) <= 0.0:
            # Degenerate program: nothing may move, so the answer is the
            # weighted run with a zero shift.
            x_dr = problem_dr.pack(problem.schedule(rows["weighted"].plan.x))
            row_dr = _Row(RefineResult(x_dr, problem_dr.metrics(x_dr), totals["weighted"]))
        else:
            prior_dr = np.vstack([problem_dr.pack(problem.schedule(rows[k].plan.x)) for k in SCENARIO_KEYS])
            dp_dr = None if dp_weighted is None else problem_dr.pack(problem.schedule(dp_weighted))
            row_dr = _optimize(problem_dr, spec5, config, 5, extra_seeds=prior_dr, dp_plan=dp_dr)
        row_dr.elapsed_s = time.perf_counter() - t0
        results["dr"] = _finish_result(problem_dr, "dr", row_dr)
        totals["dr"] = row_dr.plan.value

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
