"""Objective functions for a dispatch schedule.

Four scalars summarise a schedule over the horizon: operation cost in cents,
network loss energy in kWh, expected outage cost in cents and cumulative
voltage deviation in per unit.  Each has a direct evaluator here, one
schedule at a time; the published objective table comes from these.  The
weighted scalarisation, which normalises all four onto [0, 1] against
bounds taken from the single-objective optima before applying importance
weights, is ``optimizer.ObjectiveSpec``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .devices import DispatchSchedule, dg_cost
from .netmodel import MicrogridCase
from .powerflow import PowerFlowSolution, solve_horizon
from .reliability import ContingencyEvaluator, unsupplied_energy_cost

OBJECTIVE_KEYS: Tuple[str, ...] = ("cost", "loss", "ens", "vdev")

OBJECTIVE_LABELS: Dict[str, str] = {
    "cost": "operation cost [ct]",
    "loss": "loss energy [kWh]",
    "ens": "expected outage cost [ct]",
    "vdev": "voltage deviation [pu]",
}


@dataclass(frozen=True)
class ObjectiveValues:
    cost: float
    loss: float
    ens: float
    vdev: float

    def as_dict(self) -> Dict[str, float]:
        return {"cost": self.cost, "loss": self.loss, "ens": self.ens, "vdev": self.vdev}

    def as_array(self) -> np.ndarray:
        return np.array([self.cost, self.loss, self.ens, self.vdev])

    def __getitem__(self, key: str) -> float:
        return self.as_dict()[key]


def operation_cost(
    case: MicrogridCase,
    schedule: DispatchSchedule,
    solution: PowerFlowSolution,
) -> float:
    """Fuel and purchase cost of the schedule in cents.

    Includes unit running cost, energy traded with the upstream grid at the
    hourly price (exports earn the same price), battery throughput cost and
    any demand-response incentive on load moved into an hour.
    """
    dt = case.period_hours
    prices = np.asarray(case.prices_ct_per_kwh, dtype=float)
    total = 0.0
    for u, unit in enumerate(case.units):
        for t in range(case.horizon):
            total += dg_cost(unit, schedule.dg_setpoints[u, t]) * dt
    total += float(prices @ solution.slack_kw) * dt
    if case.battery is not None:
        total += case.battery.usage_cost_ct_per_kwh * float(np.abs(schedule.battery_power).sum()) * dt
    if schedule.dr_shift is not None and case.dr is not None:
        moved_in = np.maximum(schedule.dr_shift, 0.0)
        total += case.dr.incentive_ct_per_kwh * float(moved_in.sum()) * dt
    return total


def network_loss_energy(case: MicrogridCase, solution: PowerFlowSolution) -> float:
    """Total branch loss over the horizon in kWh."""
    return float(solution.loss_kw.sum()) * case.period_hours


def expected_outage_cost(
    case: MicrogridCase,
    schedule: DispatchSchedule,
    evaluator: Optional[ContingencyEvaluator] = None,
) -> float:
    """Expected cost of energy not supplied under the listed contingencies."""
    return unsupplied_energy_cost(case, schedule, evaluator=evaluator)


def voltage_deviation(case: MicrogridCase, solution: PowerFlowSolution) -> float:
    """Sum of |1 - V| over all load buses and hours, in per unit."""
    load_buses = sorted({lp.bus for lp in case.load_points})
    idx = [solution.bus_ids.index(b) for b in load_buses]
    return float(np.abs(1.0 - np.abs(solution.voltage[:, idx])).sum())


def evaluate_objectives(
    case: MicrogridCase,
    schedule: DispatchSchedule,
    solution: Optional[PowerFlowSolution] = None,
    evaluator: Optional[ContingencyEvaluator] = None,
) -> ObjectiveValues:
    """All four objectives for one schedule, solving the power flow if needed."""
    if solution is None:
        solution = solve_horizon(case, schedule)
    return ObjectiveValues(
        cost=operation_cost(case, schedule, solution),
        loss=network_loss_energy(case, solution),
        ens=expected_outage_cost(case, schedule, evaluator=evaluator),
        vdev=voltage_deviation(case, solution),
    )


ObjectiveBounds = Dict[str, Tuple[float, float]]


def degenerate_bracket(low: float, high: float) -> bool:
    """Whether [low, high] is too narrow to normalise against.

    Such an interval cannot rank schedules, so every normalisation onto
    [0, 1] gives its objective a contribution of 0 and a slope of 0.
    """
    return high - low <= 1e-12 * max(1.0, abs(low), abs(high))


def normalize_objective(value: float, bounds: Tuple[float, float], key: str = "") -> float:
    """Map value onto [0, 1] within bounds, clamping overshoot on both sides.

    A degenerate interval maps everything to 0 and warns once per call site.
    """
    low, high = bounds
    span = high - low
    if degenerate_bracket(low, high):
        warnings.warn(
            f"objective {key or 'value'!r} has a degenerate normalisation interval "
            f"[{low}, {high}]; treating it as already optimal",
            stacklevel=2,
        )
        return 0.0
    return float(np.clip((value - low) / span, 0.0, 1.0))


def weights_from_sequence(weights: Sequence[float]) -> Dict[str, float]:
    """Pair a 4-vector of weights with the objective keys in canonical order."""
    arr = np.asarray(weights, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"expected 4 weights, got shape {arr.shape}")
    return dict(zip(OBJECTIVE_KEYS, arr.tolist()))
