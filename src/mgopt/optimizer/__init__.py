"""Dispatch optimisation: GA seeding, SQP refinement, scenario suite."""

from .ga import GaConfig, GaResult, ga_seed
from .problem import BatchMetrics, DispatchProblem, ObjectiveSpec, RefineResult
from .qp import QpError, QpInfeasibleError, QpResult, qp_subproblem
from .scenarios import (
    SCENARIO_KEYS,
    SCENARIO_LABELS,
    OptimizerConfig,
    ScenarioResult,
    SuiteResult,
    evaluate_objectives,
    grid_only_schedule,
    resolve_weights,
    run_scenario,
    run_suite,
    scenario_key,
)
from .sqp import NlpProblem, SqpConfig, SqpResult, sqp_solve

__all__ = [
    "BatchMetrics",
    "DispatchProblem",
    "GaConfig",
    "GaResult",
    "NlpProblem",
    "ObjectiveSpec",
    "OptimizerConfig",
    "QpError",
    "QpInfeasibleError",
    "QpResult",
    "RefineResult",
    "SCENARIO_KEYS",
    "SCENARIO_LABELS",
    "ScenarioResult",
    "SqpConfig",
    "SqpResult",
    "SuiteResult",
    "evaluate_objectives",
    "ga_seed",
    "grid_only_schedule",
    "qp_subproblem",
    "resolve_weights",
    "run_scenario",
    "run_suite",
    "scenario_key",
    "sqp_solve",
]
