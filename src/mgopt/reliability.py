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
``ContingencyEvaluator`` precomputes it once and prices a whole block of SOC
trajectories per call; the optimizer's evaluation kernel is its only caller.
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


def _island_headroom_kw(case: MicrogridCase, islanded: frozenset, hour: int) -> float:
    """Capacity screening of in-island generation at each unit's dispatch cap."""
    total = 0.0
    for unit in case.units:
        if unit.bus in islanded:
            total += case.unit_cap_kw(unit, hour)
    return total


class ContingencyEvaluator:
    """Schedule-independent precomputation for fast expected-cost evaluation.

    Everything except the battery term is fixed by the case: islanded demand,
    in-island headroom and the category-weighted outage price per hour.  The
    expected cost is then a function of the SOC trajectory alone.
    """

    def __init__(self, case: MicrogridCase):
        self.case = case
        T = case.horizon
        net = compile_network(case)
        self.terms = []
        for cont in case.contingencies:
            islanded = _island(net, cont.element)
            s_out = np.zeros(T)
            by_category: Dict[str, np.ndarray] = {}
            for lp in case.load_points:
                if lp.bus in islanded:
                    p = np.asarray(lp.profile_kw, dtype=float)
                    s_out += p
                    by_category[lp.category] = by_category.get(lp.category, 0.0) + p
            mix = np.zeros(T)
            positive = s_out > 0
            for category, p in by_category.items():
                price = case.outage_costs.cost(category, cont.repair_hours)
                mix[positive] += price * p[positive] / s_out[positive]
            headroom = np.array([_island_headroom_kw(case, islanded, t) for t in range(T)])
            self.terms.append(
                {
                    "contingency": cont,
                    "islanded": islanded,
                    "s_out": s_out,
                    "mix": mix,
                    "remainder": np.maximum(0.0, s_out - headroom),
                    "battery_in": case.battery is not None and case.battery.bus in islanded,
                }
            )

    def cost_batch(self, soc_kwh: np.ndarray) -> np.ndarray:
        """Vectorised cost for a (batch, horizon) block of SOC trajectories."""
        case = self.case
        battery = case.battery
        total = np.zeros(soc_kwh.shape[0])
        for term in self.terms:
            cont: Contingency = term["contingency"]
            remainder = term["remainder"][np.newaxis, :]
            if term["battery_in"] and battery is not None:
                sustain = np.maximum(0.0, soc_kwh - battery.soc_min_kwh) / cont.repair_hours
                s_rst = np.minimum(np.minimum(remainder, battery.p_max_kw), sustain)
            else:
                s_rst = np.zeros_like(remainder)
            shortfall = np.maximum(0.0, remainder - s_rst)
            hourly = term["mix"][np.newaxis, :] * shortfall
            total += cont.rate_per_hour * case.period_hours * cont.repair_hours * hourly.sum(axis=1)
        return total
