"""Demand-response load shifting.

A shift moves consumption between hours without changing the daily total:
positive entries add load, negative entries remove it, and the vector must
sum to zero.  Removal is capped per hour at the programme's shiftable
fraction of the participating demand.  Shifted energy spreads over the
participating load points in proportion to their demand that hour, so each
point keeps its power factor and its share of the feeder.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .netmodel import MicrogridCase

NEUTRALITY_TOL = 1e-9


def participating_demand_kw(case: MicrogridCase) -> np.ndarray:
    """Hourly total demand of the load points enrolled in the programme."""
    if case.dr is None:
        raise ValueError("case has no demand response program")
    total = np.zeros(case.horizon)
    for lp in case.load_points:
        if lp.category in case.dr.participating:
            total += np.asarray(lp.profile_kw, dtype=float)
    return total


def shift_bounds_kw(case: MicrogridCase) -> np.ndarray:
    """Per-hour cap on shiftable power, fraction times participating demand."""
    if case.dr is None:
        raise ValueError("case has no demand response program")
    return case.dr.shiftable_fraction * participating_demand_kw(case)


def check_shift(case: MicrogridCase, shift: Sequence[float]) -> np.ndarray:
    """The shift as a float array, or ValueError naming what it breaks: one
    finite entry per hour, energy neutral, removing no more than the
    shiftable fraction of any hour's participating demand, adding no load in
    an hour without such demand to distribute it, and leaving it non-negative.
    """
    if case.dr is None:
        raise ValueError("case has no demand response program")
    arr = np.asarray(shift, dtype=float)
    if arr.shape != (case.horizon,):
        raise ValueError(f"shift must have shape ({case.horizon},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("shift contains non-finite entries")

    total = participating_demand_kw(case)
    residual = abs(float(arr.sum()))
    if residual > NEUTRALITY_TOL * max(1.0, float(np.abs(arr).sum())):
        raise ValueError(f"shift is not energy neutral, residual {residual:.3e} kW")
    bound = case.dr.shiftable_fraction * total
    slack = 1e-9 * np.maximum(1.0, total)
    low = np.flatnonzero(arr < -bound - slack)
    if low.size:
        t = int(low[0])
        raise ValueError(f"shift removes {-arr[t]:.6g} kW at hour {t}, cap is {bound[t]:.6g} kW")
    empty = np.flatnonzero((arr > NEUTRALITY_TOL) & (total <= 0.0))
    if empty.size:
        raise ValueError(f"shift adds load at hour {int(empty[0])} where no participating demand exists")
    negative = np.flatnonzero(total + arr < -slack)
    if negative.size:
        raise ValueError(f"shift drives participating demand negative at hour {int(negative[0])}")
    return arr


def apply_shift(case: MicrogridCase, shift: Sequence[float]) -> MicrogridCase:
    """A copy of the case with a shift ``check_shift`` accepts folded into the load profiles."""
    arr = check_shift(case, shift)
    total = participating_demand_kw(case)
    safe = np.where(total > 0, total, 1.0)
    points = []
    for lp in case.load_points:
        if lp.category not in case.dr.participating:
            points.append(lp)
            continue
        profile = np.asarray(lp.profile_kw, dtype=float)
        share = np.where(total > 0, profile / safe, 0.0)
        shifted = np.maximum(profile + share * arr, 0.0)
        points.append(replace(lp, profile_kw=tuple(float(v) for v in shifted)))
    return replace(case, load_points=tuple(points))
