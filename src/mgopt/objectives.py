"""Objective keys, labels, values and normalisation.

Four scalars summarise a schedule over the horizon: operation cost in cents,
network loss energy in kWh, expected outage cost in cents and cumulative
voltage deviation in per unit.  They are computed in batch by the
optimizer's evaluation kernel (``DispatchProblem.metrics``; one schedule at
a time through ``optimizer.evaluate_objectives``), and the published
objective table reads the same numbers.  ``normalize`` maps an objective
onto [0, 1] against bounds taken from the single-objective optima; it is the
one normalisation of the weighted scalarisation ``optimizer.ObjectiveSpec``,
its gradient and the CLI's normalised table (``normalize_objective``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

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


ObjectiveBounds = Dict[str, Tuple[float, float]]


def degenerate_bracket(low: float, high: float) -> bool:
    """Whether [low, high] is too narrow to normalise against.

    Such an interval cannot rank schedules, so every normalisation onto
    [0, 1] gives its objective a contribution of 0 and a slope of 0.
    """
    return high - low <= 1e-12 * max(1.0, abs(low), abs(high))


def normalize(values, bounds: Tuple[float, float], clamp_upper: bool = True) -> np.ndarray:
    """``(value - low) / (high - low)`` per value, floored at 0 and, with
    ``clamp_upper``, capped at 1; 0 everywhere for a degenerate bracket."""
    low, high = bounds
    values = np.asarray(values, dtype=float)
    if degenerate_bracket(low, high):
        return np.zeros_like(values)
    z = np.maximum((values - low) / (high - low), 0.0)
    return np.minimum(z, 1.0) if clamp_upper else z


def normalize_objective(value: float, bounds: Tuple[float, float], key: str = "") -> float:
    """Map value onto [0, 1] within bounds, clamping overshoot on both sides.

    A degenerate interval maps everything to 0 and warns once per call site.
    """
    if degenerate_bracket(*bounds):
        warnings.warn(
            f"objective {key or 'value'!r} has a degenerate normalisation interval "
            f"[{bounds[0]}, {bounds[1]}]; treating it as already optimal",
            stacklevel=2,
        )
    return float(normalize(value, bounds))


def weights_from_sequence(weights: Sequence[float]) -> Dict[str, float]:
    """Pair a 4-vector of weights with the objective keys in canonical order."""
    arr = np.asarray(weights, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"expected 4 weights, got shape {arr.shape}")
    return dict(zip(OBJECTIVE_KEYS, arr.tolist()))
