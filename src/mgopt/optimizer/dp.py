"""Dynamic programme over the state of charge that plans every row.

The day decomposes by hour except for the battery: every network term and
the cost belong to one hour, the outage cost is a sum over hours of a
function of that hour's SOC, and the model has no ramp, start-up or
up/down-time coupling.  So a dynamic programme over the SOC finds the
commitment and the battery path globally on a grid (R. Bellman, *Dynamic
Programming*, 1957; for unit commitment W. L. Snyder, H. D. Powell and
J. C. Rayburn, IEEE Trans. Power Systems 2(2), 1987).  ``stage_table``
sweeps each distinct hourly column of a unit grid at every battery level
once, through the GA's lean kernel, and keeps every point's hourly terms;
``plan`` takes, per spec, level and hour, the best value and setpoints,
runs the programme on them and repairs its plan.  Both only read the
``DispatchProblem`` they are given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .problem import DispatchProblem, ObjectiveSpec

# The stage table's unit grid: a renewable unit at these shares of its
# hourly cap, every other unit off or at STAGE_UNIT_LEVELS evenly spaced
# points of [p_min, cap]; the battery from -p_max to p_max in steps of
# p_max / STAGE_BATTERY_STEPS.
STAGE_RENEWABLE_SHARES = (1.0, 0.5)
STAGE_UNIT_LEVELS = 5
STAGE_BATTERY_STEPS = 10

# Plans (of T columns each) per stage-table batch: 1,008 columns on the
# benchmark case, which bound each batch's transient arrays.  A column of a
# batch that runs longer moves by rounding, so the width stays for the
# stored table to keep its bytes; that table is stored whole, 25 bytes a
# column (StageTable).
STAGE_BATCH_PLANS = 48

# A stage table over more columns than this (unit combinations x battery
# levels x hours; 145,152 on the benchmark case, 3.6 MB stored; 15 MB at
# the cap) is not built, and the GA seeds every row.  The unit grid grows
# as 2^renewables x 6^others.  Scoring takes about 1.1 s per million
# distinct columns swept, 0.11 s for the benchmark's 99,792 (2-core
# x86_64, one thread).  A default suite (seed 0) takes 1.18 of the GA
# path's time from the DP on a copy of the benchmark case with two more
# renewables (580,608 columns), whose vdev and DR solves run to the SQP's
# iteration cap, and 0.65 with one more microturbine (870,912): the column
# count alone does not decide which path is quicker.
STAGE_COLUMN_CAP = 600_000

# Points of the dynamic programme's SOC grid over [soc_min, soc_max]:
# 0.25 kWh apart on the benchmark battery.
SOC_GRID_POINTS = 161

# A next SOC this far (kWh) outside the window counts as inside; repair
# clips it.
_SOC_SLACK = 1e-9


@dataclass
class StageTable:
    """The stage table (``stage_table``): the battery levels
    (``battery_kw``), the unit grid's (combination, unit, hour) setpoints
    (``units``), and per (combination, level, hour) the hourly "cost",
    "loss" (energy) and "vdev" terms (``hourly``) and whether the point
    counts there (``feasible``).  A point that repeats an earlier
    combination's setpoints in an hour does not count in that hour and
    holds zero terms; its first occurrence counts for it."""

    battery_kw: np.ndarray
    units: np.ndarray
    hourly: Dict[str, np.ndarray]
    feasible: np.ndarray


def _battery_levels(problem: DispatchProblem) -> np.ndarray:
    """The stage table's battery powers, kW: 0 alone without a battery."""
    if problem.case.battery is None:
        return np.zeros(1)
    steps = np.arange(-STAGE_BATTERY_STEPS, STAGE_BATTERY_STEPS + 1)
    return problem.case.battery.p_max_kw * steps / STAGE_BATTERY_STEPS


def _unit_grid(problem: DispatchProblem, levels: int) -> Optional[np.ndarray]:
    """(combination, unit, hour) setpoints of the stage table's unit grid,
    or None when the table, at ``levels`` battery levels, would pass
    STAGE_COLUMN_CAP.  A unit whose hourly cap is below its minimum is off
    at every level."""
    options = []
    for i, unit in enumerate(problem.case.units):
        cap, p_min = problem.caps[i], problem.p_min[i, 0]
        if unit.renewable:
            options.append(np.outer(STAGE_RENEWABLE_SHARES, cap))
        else:
            share = np.linspace(0.0, 1.0, STAGE_UNIT_LEVELS)[:, np.newaxis]
            running = np.where(cap >= p_min, p_min + share * (cap - p_min), 0.0)
            options.append(np.vstack([np.zeros(problem.T), running]))
    sizes = [len(levels) for levels in options]
    count = int(np.prod(sizes, dtype=float))
    if count * levels * problem.T > STAGE_COLUMN_CAP:
        return None
    grid = np.zeros((count, problem.n_units, problem.T))
    for i, k in enumerate(np.indices(sizes).reshape(problem.n_units, count)):
        grid[:, i] = options[i][k]
    return grid


def stage_table(problem: DispatchProblem) -> Optional[StageTable]:
    """The stage table: the hourly cost, loss energy and voltage deviation
    of every point of the unit grid at every battery level, and where each
    counts (``StageTable``).

    A grid point counts in an hour only where its sweep converged with zero
    violation there.  Points of one hour with equal unit setpoints (a
    renewable with a zero cap sits at 0 at both shares, a unit whose cap is
    below its minimum is off at every level) share one sweep column, which
    the first of them holds, so each distinct (hour, setpoints, battery
    level) column is scored once, through the GA's lean kernel
    (``GA_TOLERANCE``) and without the outage cost, which ``plan`` adds from
    the SOC.  A batch takes whole combinations in order, their distinct
    columns at every level and hour, up to the columns of
    STAGE_BATCH_PLANS // L combinations (1,008 on the benchmark case).  That
    width bounds each batch's transient arrays and stays so that the stored
    table keeps its bytes; where no column repeats, those are the whole-day
    batches the table was once scored in.  None when the table would pass
    STAGE_COLUMN_CAP.
    """
    levels = _battery_levels(problem)
    L, T = levels.size, problem.T
    grid = _unit_grid(problem, L)
    if grid is None:
        return None
    count = len(grid)
    # Per hour, whether a combination is the first with its setpoints.  With
    # return_index np.unique skips its np.ma check, whose first call imports
    # numpy.ma (+1.1 MB RSS in numpy 2.4), as np.isin's does.
    distinct = np.zeros((count, T), dtype=bool)
    for t in range(T):
        distinct[np.unique(grid[:, :, t], axis=0, return_index=True)[1], t] = True
    cells = (count, L, T)
    hourly = {key: np.zeros(cells) for key in ("cost", "loss", "vdev")}
    feasible = np.zeros(cells, dtype=bool)
    # As wide as a batch of whole combinations at every level and hour.
    width = max(1, STAGE_BATCH_PLANS // L) * L * T
    ends = np.cumsum(L * distinct.sum(axis=1))
    start = 0
    while start < count:
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + width, side="right")))
        c, level, t = np.nonzero(np.broadcast_to(distinct[start:stop, np.newaxis, :], (stop - start, L, T)))
        c += start
        p_batt = levels[level][np.newaxis, :]
        m = problem._evaluate(grid[c, :, t].T[np.newaxis], np.maximum(p_batt, 0.0), np.maximum(-p_batt, 0.0), None,
                              lean=True, hours=t[np.newaxis, :])
        feasible[c, level, t] = m.converged[0] & (m.hourly_violation[0] == 0.0)
        hourly["cost"][c, level, t] = m.hourly_cost[0]
        hourly["loss"][c, level, t] = m.hourly_loss_kw[0] * problem.dt
        hourly["vdev"][c, level, t] = m.hourly_vdev[0]
        start = stop
    return StageTable(levels, grid, hourly, feasible)


def _minima(table: StageTable, spec: ObjectiveSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Per battery level and hour, the least hourly value over the unit grid,
    inf where no grid point counts, and the (level, unit, hour) setpoints
    that reach it, 0 where none does.

    The hourly value weighs the hour's terms by the spec's ``slopes``; the
    outage cost, a function of the SOC alone, is left to ``plan``.  On ties
    the earlier combination wins.
    """
    value = np.zeros(table.feasible.shape)
    for key, coeff in spec.slopes().items():
        if key in table.hourly:
            value += coeff * table.hourly[key]
    value = np.where(table.feasible, value, np.inf)
    pick = value.argmin(axis=0)
    low = np.take_along_axis(value, pick[np.newaxis], axis=0)[0]
    n_units, T = table.units.shape[1:]
    units = table.units[pick[:, np.newaxis, :], np.arange(n_units)[:, np.newaxis], np.arange(T)]
    return low, np.where(np.isfinite(low)[:, np.newaxis], units, 0.0)


def plan(problem: DispatchProblem, table: Optional[StageTable], spec: ObjectiveSpec) -> Optional[np.ndarray]:
    """The repaired plan of a dynamic programme over the SOC on the minima
    of ``spec`` over the stage table ``table``, or None where it finds none.

    A backward pass takes the least value to go from every point of an SOC
    grid (SOC_GRID_POINTS over the window), reading the next hour's values
    by linear interpolation.  A forward pass from ``soc_initial`` then takes
    each hour's best level at the exact next SOC.  A level counts where its
    next SOC stays inside the window; the outage cost enters as the spec's
    ens slope times the next SOC's ``ContingencyEvaluator.hourly`` term.
    Without a battery each hour takes its own minimum.  There is no plan
    without a table, when some hour has no feasible grid point, or when no
    level keeps the SOC path feasible.
    """
    if table is None:
        return None
    stage_value, stage_units = _minima(table, spec)
    if not np.isfinite(stage_value).any(axis=0).all():
        return None
    x = np.zeros(problem.n)
    blocks = problem.blocks(x)[0]
    b = problem.case.battery
    if b is None:
        blocks[: problem.n_units] = stage_units[0]
        return problem.repair(x)[0]

    levels = table.battery_kw
    energy = np.where(levels > 0, problem.gain * levels, problem.drain * levels)
    grid = np.linspace(b.soc_min_kwh, b.soc_max_kwh, SOC_GRID_POINTS)
    step = grid[1] - grid[0]
    ens = spec.slopes().get("ens", 0.0)

    def to_go(t: int, soc: np.ndarray, future: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(state, level) values of hour t from the states ``soc``, and the next SOCs."""
        nxt = problem.keep * soc[:, np.newaxis] + energy
        inside = (nxt >= b.soc_min_kwh - _SOC_SLACK) & (nxt <= b.soc_max_kwh + _SOC_SLACK)
        value = stage_value[:, t] + _interpolate(future, (np.clip(nxt, grid[0], grid[-1]) - grid[0]) / step)
        if ens:
            value = value + ens * problem.evaluator.hourly(nxt.reshape(-1, 1), slice(t, t + 1)).reshape(nxt.shape)
        return np.where(inside, value, np.inf), nxt

    future = [np.zeros(grid.size)]
    for t in reversed(range(1, problem.T)):
        future.append(to_go(t, grid, future[-1])[0].min(axis=1))
    soc = np.array([b.soc_initial_kwh])
    for t in range(problem.T):
        value, nxt = to_go(t, soc, future[problem.T - 1 - t])
        level = int(np.argmin(value[0]))
        if not np.isfinite(value[0, level]):
            return None
        blocks[: problem.n_units, t] = stage_units[level, :, t]
        blocks[problem.n_units, t] = levels[level]
        soc = nxt[:, level]
    return problem.repair(x)[0]


def _interpolate(values: np.ndarray, position: np.ndarray) -> np.ndarray:
    """``values`` on a uniform grid read at fractional indices ``position``
    (inside the grid) by linear interpolation; inf wherever a neighbour
    with a positive weight is inf."""
    i = np.minimum(position.astype(np.intp), values.size - 2)
    w = position - i
    low, high = values[i], values[i + 1]
    with np.errstate(invalid="ignore"):
        mixed = (1.0 - w) * low + w * high
    return np.where(w == 0.0, low, np.where(w == 1.0, high, mixed))
