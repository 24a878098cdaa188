"""Demand-response load shifting.

A shift moves consumption between hours without changing the daily total:
positive entries add load, negative entries remove it, and the vector must
sum to zero.  Removal is capped per hour at the programme's shiftable
fraction of the participating demand.  Shifted energy spreads over the
participating load points in proportion to their demand that hour, so each
point keeps its power factor and its share of the feeder.

``check_schedule`` states, beside the shift rules, the setpoint rules a
schedule read from outside must keep: those of every plan the optimizer
can produce.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .devices import COMMIT_EPS, DispatchSchedule, soc_trajectory
from .netmodel import MicrogridCase

NEUTRALITY_TOL = 1e-9
SOC_TOL = 1e-9  # kWh a schedule's SOC may pass its window by


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


def check_schedule(case: MicrogridCase, schedule: DispatchSchedule) -> None:
    """ValueError, naming the column and the hour, unless every value of
    the schedule is finite, each unit's setpoint lies in [0, p_max], the
    battery's power within +-p_max (0 without a battery) and its SOC inside
    [soc_min, soc_max] to SOC_TOL, and a shift passes ``check_shift``.
    A setpoint may pass its upper limit, and the battery its lower one, by
    1e-9 relative (1e-9 kW at least); a unit may dip COMMIT_EPS below 0."""
    units = schedule.dg_setpoints
    if units.shape != (len(case.units), case.horizon):
        raise ValueError(f"unit setpoints must have shape {(len(case.units), case.horizon)}, got {units.shape}")
    battery = case.battery
    limits = (-battery.p_max_kw, battery.p_max_kw) if battery is not None else (0.0, 0.0)
    columns = [(u.name, p, 0.0, u.p_max_kw) for u, p in zip(case.units, units)]
    columns.append(("battery_kw", schedule.battery_power, *limits))
    for name, p, low, high in columns:
        slack = max(1e-9, 1e-9 * high)
        floor = low - slack if low else -COMMIT_EPS
        bad = np.flatnonzero(~np.isfinite(p) | (p < floor) | (p > high + slack))
        if bad.size:
            t = int(bad[0])
            raise ValueError(f"{name} at hour {t}: {p[t]:.6g} kW outside [{low:g}, {high:g}] kW")
    if battery is not None:
        soc = soc_trajectory(battery, schedule.battery_power, case.period_hours)
        bad = np.flatnonzero((soc < battery.soc_min_kwh - SOC_TOL) | (soc > battery.soc_max_kwh + SOC_TOL))
        if bad.size:
            t = int(bad[0])
            raise ValueError(
                f"battery_kw at hour {t}: SOC {soc[t]:.6g} kWh outside "
                f"[{battery.soc_min_kwh:g}, {battery.soc_max_kwh:g}] kWh"
            )
    if schedule.dr_shift is not None:
        check_shift(case, schedule.dr_shift)


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
