"""Supply-interruption model: islanding, restoration, expected outage cost.

Each contingency removes one element (a branch, or the upstream transformer)
and islands the subtree cut off from the slack.  Restoration is a screening
cascade: in-island generator headroom covers what it can, then the battery
sustains up to its power limit and whatever energy lies above SOC_min spread
over the repair duration.  The remaining shortfall, split over load
categories in proportion to their islanded demand, is priced with the outage
cost table and weighted by the failure rate.

Each horizon step contributes one period of exposure: the expected cost adds
rate * period * shortfall * repair_duration * outage_cost per contingency and
hour, with the end-of-period SOC standing in for the battery state at the
moment of failure.  Everything but the battery term is fixed by the case, so
``ContingencyEvaluator`` holds it as (contingency, hour) arrays and prices a
(batch, hour) block of SOC trajectories in one broadcast over (batch,
contingency, hour).  ``hourly`` states the rule per hour and ``cost_batch``
sums it; the optimizer's evaluation kernel and its dynamic programme over
the state of charge are the callers.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .netmodel import Contingency, MicrogridCase, OutageCostTable, TRANSFORMER_ELEMENT
from .powerflow import CompiledNetwork, compile_network

__all__ = [
    "Contingency",
    "OutageCostTable",
    "island_partition",
    "ContingencyEvaluator",
]


def island_partition(case: MicrogridCase, element: str) -> frozenset:
    """Bus ids cut off from the slack when ``element`` fails.

    ``element`` is a branch id or "transformer"; the transformer outage
    islands every bus.  The slack itself is never part of the island.
    """
    return _island(compile_network(case), element)


def _island(net: CompiledNetwork, element: str) -> frozenset:
    """The island read from the compiled tree: row b of the path matrix
    holds exactly the buses downstream of branch b."""
    if element == TRANSFORMER_ELEMENT:
        return frozenset(net.bus_ids) - {net.bus_ids[net.slack]}
    if element not in net.branch_ids:
        raise KeyError(f"unknown network element {element!r}")
    row = net.bibc[net.branch_ids.index(element)]
    return frozenset(net.bus_ids[j] for j in np.flatnonzero(row))


class ContingencyEvaluator:
    """Schedule-independent precomputation for fast expected-cost evaluation.

    Everything except the battery term is fixed by the case and held as a
    (contingency, hour) array: the price mix, the remainder that in-island
    headroom leaves and the battery's cap on what it can sustain of it.  The
    expected cost is then a function of the SOC trajectory alone.
    """

    def __init__(self, case: MicrogridCase):
        self.case = case
        T, conts, battery = case.horizon, case.contingencies, case.battery
        net = compile_network(case)
        islands = [_island(net, cont.element) for cont in conts]

        def inside(bus: str) -> np.ndarray:
            """A (contingency, 1) column: 1.0 where the contingency islands ``bus``."""
            return np.array([bus in island for island in islands], dtype=float).reshape(-1, 1)

        demand = np.zeros((len(conts), T))
        by_category: Dict[str, np.ndarray] = {}
        for lp in case.load_points:
            p = inside(lp.bus) * np.asarray(lp.profile_kw, dtype=float)
            demand += p
            by_category[lp.category] = by_category.get(lp.category, 0.0) + p
        self.mix = np.zeros_like(demand)
        positive = demand > 0
        for category, p in by_category.items():
            price = np.array([case.outage_costs.cost(category, cont.repair_hours) for cont in conts]).reshape(-1, 1)
            self.mix[positive] += (price * p)[positive] / demand[positive]
        # Capacity screening of in-island generation at each unit's dispatch cap.
        headroom = np.zeros_like(demand)
        for unit in case.units:
            headroom += inside(unit.bus) * [case.unit_cap_kw(unit, t) for t in range(T)]
        self.remainder = np.maximum(0.0, demand - headroom)
        self.sustain_cap = np.zeros_like(demand)
        if battery is not None:
            self.sustain_cap = np.where(inside(battery.bus) > 0, np.minimum(self.remainder, battery.p_max_kw), 0.0)
        self.soc_min = 0.0 if battery is None else battery.soc_min_kwh
        self.repair = np.array([cont.repair_hours for cont in conts]).reshape(-1, 1)
        self.weight = [cont.rate_per_hour * case.period_hours * cont.repair_hours for cont in conts]

    def hourly(self, soc_kwh: np.ndarray, hours: slice = slice(None)) -> np.ndarray:
        """Expected cost per trajectory and hour, ct, of a (batch, hour)
        block of SOC over ``hours`` of the horizon (all of it by default).
        Each hour's cost depends on that hour's SOC alone."""
        sustain = np.maximum(0.0, soc_kwh - self.soc_min)[:, np.newaxis, :] / self.repair
        shortfall = np.maximum(0.0, self.remainder[:, hours] - np.minimum(self.sustain_cap[:, hours], sustain))
        priced = self.mix[:, hours] * shortfall
        # Added in case order, not by a dot product, whose order BLAS picks.
        total = np.zeros((priced.shape[0], priced.shape[2]))
        for c, weight in enumerate(self.weight):
            total += weight * priced[:, c]
        return total

    def cost_batch(self, soc_kwh: np.ndarray) -> np.ndarray:
        """Vectorised cost for a (batch, horizon) block of SOC trajectories:
        the sum of ``hourly`` over the hours."""
        return self.hourly(soc_kwh).sum(axis=1)
