"""Day-ahead microgrid dispatch optimisation.

Radial power flow by backward-forward sweep, battery and DG device models,
contingency-based reliability costing, AHP objective weighting and a
GA-seeded SQP dispatch optimizer with an optional demand-response shift.
"""

import os as _os
import sys as _sys
import warnings as _warnings

# MGOPT_THREADS caps the numeric backends' thread pools; it must land in the
# environment before numpy first loads, because the pools are sized then.
_threads = _os.environ.get("MGOPT_THREADS")
if _threads:
    _pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    if "numpy" in _sys.modules and any(_os.environ.get(_var) != _threads for _var in _pools):
        _warnings.warn(
            f"MGOPT_THREADS={_threads} has no effect: numpy was imported before mgopt, "
            f"so its thread pools are already sized; import mgopt first or set "
            f"{', '.join(_pools)} before starting Python",
            RuntimeWarning,
            stacklevel=2,
        )
    for _var in _pools:
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .ahp import DEFAULT_JUDGMENTS, consistency_ratio, derive_weights, principal_eigen
from .devices import DispatchSchedule, soc_trajectory, zero_schedule
from .dr import apply_shift, shift_bounds_kw
from .netmodel import (
    Battery,
    Branch,
    Bus,
    CaseError,
    Contingency,
    DgUnit,
    DrProgram,
    LoadPoint,
    MicrogridCase,
    OutageCostTable,
    benchmark_case_path,
    load_benchmark_case,
    load_case,
    save_case,
    validate_case,
)
from .objectives import OBJECTIVE_KEYS, ObjectiveValues
from .optimizer import (
    DispatchProblem,
    GaConfig,
    ObjectiveSpec,
    OptimizerConfig,
    ScenarioResult,
    SqpConfig,
    SuiteResult,
    evaluate_objectives,
    ga_seed,
    run_scenario,
    run_suite,
    sqp_solve,
)
from .powerflow import (
    PowerFlowError,
    PowerFlowSolution,
    compile_network,
    solve_horizon,
    sweep,
)
from .reliability import ContingencyEvaluator

__all__ = [
    "Battery",
    "Branch",
    "Bus",
    "CaseError",
    "Contingency",
    "ContingencyEvaluator",
    "DEFAULT_JUDGMENTS",
    "DgUnit",
    "DispatchProblem",
    "DispatchSchedule",
    "DrProgram",
    "GaConfig",
    "LoadPoint",
    "MicrogridCase",
    "OBJECTIVE_KEYS",
    "ObjectiveSpec",
    "ObjectiveValues",
    "OptimizerConfig",
    "OutageCostTable",
    "PowerFlowError",
    "PowerFlowSolution",
    "ScenarioResult",
    "SqpConfig",
    "SuiteResult",
    "apply_shift",
    "benchmark_case_path",
    "compile_network",
    "consistency_ratio",
    "derive_weights",
    "evaluate_objectives",
    "ga_seed",
    "load_benchmark_case",
    "load_case",
    "principal_eigen",
    "run_scenario",
    "run_suite",
    "save_case",
    "shift_bounds_kw",
    "soc_trajectory",
    "solve_horizon",
    "sqp_solve",
    "sweep",
    "validate_case",
    "zero_schedule",
]
