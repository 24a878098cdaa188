"""Dispatch problem encoding shared by the seeders and the SQP refiner.

This module owns the mapping between plan vectors and schedules, batched
evaluation of the four objectives over whole populations, the repair
operators that keep device constraints satisfied exactly, and the smooth
split-battery problem the SQP refiner works on; ``dp`` seeds every row.

Evaluation is vectorised end to end: a population of plans becomes one
column batch for the network sweep (population times hours columns), the
state of charge is an affine map of the charge and discharge series, and
the expected outage cost reuses the per-contingency precomputation.  The
problem knows where a plan can put power, at the load points', the units'
and the battery's buses, so it builds that injection set once: consumption
is formed over its rows alone and the sweep iterates over them.  The
network terms come from those buses: the loss is ``I^H Re(DLF) I`` over
their currents, vdev reads the load buses among them, and the empty buses
enter the violation only where the set's transfer gain (0.375 on the
benchmark case, 1.0 on its sectioned long feeder) cannot place them
inside the limits from the injection buses' voltages.  The GA and the
stage table read values, violations and hourly terms alone, so their lean
evaluation forms no array of buses times columns and sweeps only to
``GA_TOLERANCE``; ``metrics`` and ``split_eval`` run the same rule to the
sweep's default tolerance and add the magnitudes at every bus.  Repair is
a projection: it projects the shift onto zero net energy by an exact
breakpoint search and clips the battery hour by hour to the powers that
keep the state of charge in its window, and a second pass changes no bit.

A plan is a run of ``T``-hour blocks.  The signed plan the GA searches is
``[unit 0 | ... | unit n_units-1 | battery | shift]`` and its split-battery
relaxation ``[unit 0 | ... | unit n_units-1 | charge | discharge | shift]``,
the shift block present only under demand response.  ``blocks`` views
either as a (plan, block, hour) array, and every read or write of a plan
goes through that view.

The split-battery problem's network rows (``c(x) <= 0``) sit at fixed
positions in one layout, ``[soc_lo (T) | soc_hi (T) | imp (T) | exp (T) |
v_lo (n_bus*T) | v_hi (n_bus*T)]``, the voltage blocks bus-major (row
``4T + b*T + t`` is v_lo at bus b, hour t).  A subproblem carries its rows
as layout indices and gathers their values and Jacobian rows; the vdev
subproblem appends the epigraph rows of its kink cells after them
(``_SplitDispatchNlp``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..devices import COMMIT_EPS, DispatchSchedule
from ..dr import check_shift, shift_bounds_kw
from ..netmodel import MicrogridCase
from ..objectives import OBJECTIVE_KEYS, ObjectiveBounds, degenerate_bracket, normalize
from ..powerflow import (
    DEFAULT_TOLERANCE,
    CompiledNetwork,
    InjectionSet,
    SweepResult,
    compile_network,
    load_consumption_pu,
    shift_distribution_pu,
    sweep,
)
from ..reliability import ContingencyEvaluator
from .qp import pinned_mask
from .sqp import NlpProblem, SqpConfig, SqpResult, sqp_solve

# Objective stand-in for plans whose power flow failed; large enough to lose
# every tournament without overflowing arithmetic downstream.
LARGE_OBJECTIVE = 1e9

# A seed's bus voltage within this many pu of a limit puts that row into the
# screened subproblem.
SCREEN_MARGIN = 0.02

# A seed's load-bus voltage within this many pu of 1.0 carries its |1 - V|
# term as an epigraph variable in the subproblem of every spec that weighs
# vdev.
KINK_MARGIN = 0.004

# The sweep tolerance (pu) of the kernel's lean mode, where every other
# evaluation uses powerflow.DEFAULT_TOLERANCE.  The GA ranks fitness only to
# ga.PROGRESS = 1e-3 relative and reports nothing; on the benchmark case the
# values it sees are within 1.5e-5 relative of the exact ones, 1.5 % of
# PROGRESS, and its ok flags and zero-violation decisions are those of the
# exact sweep (near voltage collapse by powerflow.SETTLE_RATIO).
GA_TOLERANCE = 1e-4

# A plan is feasible when its summed network violation (pu) is at most
# this; a refine round adds every row the polished plan violates by more.
_FEASIBILITY_TOL = 1e-7

# The outage cost is piecewise linear in the SOC; the SQP subproblem takes
# its slope at each hour's SOC by central differences of step
# SOC_REL_STEP * max(1, |soc|) kWh, which average the two sides of a kink.
SOC_REL_STEP = 1e-5


@dataclass(frozen=True)
class ObjectiveSpec:
    """What a single optimisation run minimises.

    ``key`` is one of the four objective keys or "weighted".  The weighted
    form normalises each objective against ``bounds`` (``objectives.normalize``);
    ``clamp_upper`` selects the reporting convention (hard [0, 1] clamp) while
    the default keeps slope above the upper bound so the optimiser still feels
    values beyond it.  A key whose bounds form a degenerate bracket
    contributes nothing, silently; the CLI's normalised table warns about it.
    ``reported`` is the spec runs are compared and reported on, the clamped
    form of a weighted spec and the spec itself otherwise; ``score`` is the
    scalar of the first plan of a ``BatchMetrics``.
    """

    key: str
    weights: Optional[Dict[str, float]] = None
    bounds: Optional[ObjectiveBounds] = None
    clamp_upper: bool = False

    def __post_init__(self) -> None:
        if self.key != "weighted" and self.key not in OBJECTIVE_KEYS:
            raise ValueError(f"unknown objective key {self.key!r}")
        if self.key == "weighted" and (self.weights is None or self.bounds is None):
            raise ValueError("weighted objective needs weights and bounds")

    @property
    def reported(self) -> "ObjectiveSpec":
        return replace(self, clamp_upper=True) if self.key == "weighted" else self

    def scalar_array(self, values: Dict[str, np.ndarray]) -> np.ndarray:
        """Scalarise per-plan objective values (arrays broadcast together)."""
        if self.key != "weighted":
            return np.asarray(values[self.key], dtype=float)
        total: np.ndarray = np.zeros_like(np.asarray(values["cost"], dtype=float))
        for key in OBJECTIVE_KEYS:
            if not degenerate_bracket(*self.bounds[key]):
                total = total + self.weights[key] * normalize(values[key], self.bounds[key], self.clamp_upper)
        return total

    def scalar(self, values: Dict[str, float]) -> float:
        return float(self.scalar_array({k: np.asarray([v]) for k, v in values.items()})[0])

    def score(self, m: "BatchMetrics") -> float:
        return float(self.scalar_array(m.values)[0])

    def slopes(self) -> Dict[str, float]:
        """d(scalar)/d(objective value) per key where the normalisation is
        linear, leaving out its floor and clamp: 1 for a single objective,
        w / (high - low) per non-degenerate bracket of a weighted one."""
        if self.key != "weighted":
            return {self.key: 1.0}
        return {
            key: self.weights[key] / (self.bounds[key][1] - self.bounds[key][0])
            for key in OBJECTIVE_KEYS
            if not degenerate_bracket(*self.bounds[key])
        }

    def chain(self, values: Dict[str, float]) -> Dict[str, float]:
        """d(scalar)/d(objective value) at the given point, per key."""
        if self.key != "weighted":
            return self.slopes()
        coeffs: Dict[str, float] = {}
        for key, slope in self.slopes().items():
            z = normalize(values[key], self.bounds[key], self.clamp_upper)
            if z > 0.0 and not (self.clamp_upper and z >= 1.0):
                coeffs[key] = slope
        return coeffs


@dataclass
class BatchMetrics:
    """Evaluation of a population of plans, one row per plan; ``converged``
    and ``collapsed`` are the sweep's flags per plan and hour, and
    ``violation`` sums ``hourly_violation`` where every hour converged.
    ``vmag`` holds the magnitudes at every bus, (bus, plan, hour), and
    ``injection_voltage`` the complex voltages at the injection buses,
    (plan, injection bus, hour): the exact mode keeps both, the lean mode
    neither.  The per-plan fields, ``values``, ``violation``, ``ok`` and
    ``soc_kwh``, are None for a row of stage-table columns
    (``DispatchProblem._evaluate``)."""

    converged: np.ndarray
    collapsed: np.ndarray
    slack_kw: np.ndarray
    vmag: Optional[np.ndarray]
    hourly_cost: np.ndarray
    hourly_loss_kw: np.ndarray
    hourly_vdev: np.ndarray
    hourly_violation: np.ndarray
    values: Optional[Dict[str, np.ndarray]] = None
    violation: Optional[np.ndarray] = None
    ok: Optional[np.ndarray] = None
    soc_kwh: Optional[np.ndarray] = None
    injection_voltage: Optional[np.ndarray] = None


class DispatchProblem:
    """Vector encoding and evaluation machinery for one case."""

    def __init__(
        self,
        case: MicrogridCase,
        dr: bool = False,
        net: Optional[CompiledNetwork] = None,
        evaluator: Optional[ContingencyEvaluator] = None,
    ):
        if dr and case.dr is None:
            raise ValueError("case defines no demand response program")
        self.case = case
        self.dr = dr
        self.net = net or compile_network(case)
        self.evaluator = evaluator or ContingencyEvaluator(case)

        T = case.horizon
        units = case.units
        self.T = T
        self.n_units = len(units)
        self.n = (self.n_units + 1 + int(dr)) * T

        self.unit_bus = np.array([self.net.bus_index[u.bus] for u in units], dtype=int)
        self.batt_bus = None if case.battery is None else self.net.bus_index[case.battery.bus]
        self.load_idx = np.array(
            sorted({self.net.bus_index[lp.bus] for lp in case.load_points}), dtype=int
        )
        # Every bus a plan can put power at; the shift moves load among load buses.
        placed = np.zeros(self.net.n_bus, dtype=bool)
        placed[self.load_idx] = placed[self.unit_bus] = True
        if self.batt_bus is not None:
            placed[self.batt_bus] = True
        self.injections = InjectionSet(self.net, placed)
        # A placed bus's row in the set, which orders every consumption array.
        self._row = np.cumsum(placed) - 1
        self.base_load = load_consumption_pu(case, self.net)[placed]
        self.shift_factors = shift_distribution_pu(case, self.net)[placed] if dr else None

        self.caps = np.empty((self.n_units, T))
        for i, u in enumerate(units):
            self.caps[i] = [case.unit_cap_kw(u, t) for t in range(T)]
        # The unit limits and costs, each a (unit, 1) column that broadcasts
        # against the (..., unit, hour) unit blocks of plans.
        self.slopes = np.array([u.cost_slope_ct_per_kwh for u in units]).reshape(-1, 1)
        self.fixed = np.array([u.cost_fixed_ct_per_h for u in units]).reshape(-1, 1)
        self.p_min = np.array([u.p_min_kw for u in units]).reshape(-1, 1)
        self.p_max = np.array([u.p_max_kw for u in units]).reshape(-1, 1)
        self.committable = np.array([u.committable for u in units], dtype=bool).reshape(-1, 1)

        self.shift_bound = shift_bounds_kw(case) if dr else np.zeros(T)

        self.lower = np.zeros(self.n)
        self.upper = np.zeros(self.n)
        lower, upper = self.blocks(self.lower)[0], self.blocks(self.upper)[0]
        upper[: self.n_units] = self.caps
        if case.battery is not None:
            lower[self.n_units] = -case.battery.p_max_kw
            upper[self.n_units] = case.battery.p_max_kw
        if dr:
            lower[-1] = -self.shift_bound
            upper[-1] = self.shift_bound

        self.prices = np.asarray(case.prices_ct_per_kwh, dtype=float)
        self.dt = case.period_hours
        self.vmin, self.vmax = case.voltage_limits
        self.import_limit = case.grid_limit_kw
        self.export_limit = case.effective_export_limit_kw
        self.s_base = case.base_power_kva

        # The battery's period rule, read here alone: soc' = keep * soc + gain *
        # charge - drain * discharge, so soc = soc0 * decay + chg @ M_c.T - dis @ M_d.T.
        b = case.battery
        self.keep, self.gain, self.drain = 1.0, 0.0, 0.0
        if b is not None:
            self.keep = 1.0 - b.self_discharge_per_h * self.dt
            self.gain = b.eta_charge * self.dt
            self.drain = self.dt / b.eta_discharge
        ages = np.subtract.outer(np.arange(T), np.arange(T))
        K = np.where(ages >= 0, self.keep ** np.maximum(ages, 0), 0.0)
        self.soc_decay = self.keep ** np.arange(1, T + 1)
        self.M_c, self.M_d = self.gain * K, self.drain * K

    # ------------------------------------------------------------------
    # vector <-> schedule

    def blocks(self, X: np.ndarray) -> np.ndarray:
        """(plan, block, hour) view of a signed or split plan vector, or of
        one per row, in the block order the module docstring gives; writes
        through it reach a contiguous ``X``."""
        return X.reshape(-1, X.shape[-1] // self.T, self.T)

    def unpack(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        B = self.blocks(np.atleast_2d(np.asarray(X, dtype=float)))
        shift = B[:, -1] if self.dr else None
        return B[:, : self.n_units], B[:, self.n_units], shift

    def pack(self, schedule: DispatchSchedule) -> np.ndarray:
        x = np.zeros(self.n)
        B = self.blocks(x)[0]
        B[: self.n_units] = schedule.dg_setpoints
        B[self.n_units] = schedule.battery_power
        if self.dr and schedule.dr_shift is not None:
            B[-1] = schedule.dr_shift
        return x

    def schedule(self, x: np.ndarray) -> DispatchSchedule:
        p_units, p_batt, shift = self.unpack(x)
        return DispatchSchedule(
            p_units[0].copy(),
            p_batt[0].copy(),
            shift[0].copy() if shift is not None else None,
        )

    def check(self, schedule: DispatchSchedule) -> np.ndarray:
        """The packed plan of a schedule read from outside, or ValueError
        naming the column and hour of the first value no repaired plan holds:
        a unit or the battery outside ``lower``/``upper`` (the hourly caps,
        +-p_max), a committable unit neither 0 nor inside [p_min, cap] (so
        running where its cap is below p_min), an SOC from ``soc_split``
        outside its window or a shift that ``dr.check_shift`` refuses.  A
        power may pass a limit by 1e-9 of it (1e-9 kW at least), an idle unit
        sit within COMMIT_EPS of 0 and the SOC pass its window by 1e-9 kWh.
        """
        shape = (self.n_units, self.T)
        if schedule.dg_setpoints.shape != shape:
            raise ValueError(f"unit setpoints must have shape {shape}, got {schedule.dg_setpoints.shape}")
        x = self.pack(schedule)
        B, lower, upper = self.blocks(x)[0], self.blocks(self.lower)[0], self.blocks(self.upper)[0]
        for i, name in enumerate([u.name for u in self.case.units] + ["battery_kw"]):
            p, low, high = B[i], lower[i], upper[i]
            _refuse(name, p, (p >= low - _slack(low)) & (p <= high + _slack(high)), low, high)
            if i < self.n_units and self.committable[i, 0]:
                p_min = np.full(self.T, self.p_min[i, 0])
                running = (p >= p_min - _slack(p_min)) & (high >= p_min)
                _refuse(name, p, running | (p <= COMMIT_EPS), p_min, high, idle="0 or ")
        b = self.case.battery
        if b is not None:
            soc = self.soc_split(*self._signed(x)[1:3])[0]
            low, high = np.full(self.T, b.soc_min_kwh), np.full(self.T, b.soc_max_kwh)
            _refuse("battery_kw", soc, (soc >= low - 1e-9) & (soc <= high + 1e-9), low, high, "SOC ", "kWh")
        if schedule.dr_shift is not None:
            check_shift(self.case, schedule.dr_shift)
        return x

    # ------------------------------------------------------------------
    # evaluation

    def soc_split(self, chg: np.ndarray, dis: np.ndarray) -> np.ndarray:
        if self.case.battery is None:
            return np.zeros_like(chg)
        soc0 = self.case.battery.soc_initial_kwh
        return soc0 * self.soc_decay[np.newaxis, :] + chg @ self.M_c.T - dis @ self.M_d.T

    def _consumption(
        self,
        p_units: np.ndarray,
        p_net: np.ndarray,
        shift: Optional[np.ndarray],
        hours: np.ndarray,
    ) -> np.ndarray:
        """Net consumption (injection bus, B, H) in pu for one population,
        over the rows of ``injections``.  Column (b, h) is at hour
        ``hours[b, h]`` of the horizon.

        Units subtract one at a time in their order, so units sharing a bus
        accumulate exactly as ``np.subtract.at`` would, without its cost.
        """
        cons = np.take(self.base_load, hours, axis=1)
        for i, bus in enumerate(self.unit_bus):
            cons[self._row[bus]] -= p_units[:, i] / self.s_base
        if self.batt_bus is not None:
            cons[self._row[self.batt_bus]] += p_net / self.s_base
        if shift is not None:
            cons += np.take(self.shift_factors, hours, axis=1) * shift
        return cons

    def _hourly_cost(
        self,
        p_units: np.ndarray,
        slack_kw: np.ndarray,
        throughput_kw: np.ndarray,
        shift: Optional[np.ndarray],
        hours: np.ndarray,
    ) -> np.ndarray:
        """Operation cost per plan and hour, ct, at ``hours`` as in ``_consumption``."""
        running = self.slopes * p_units
        running += self.fixed
        running[~(p_units > COMMIT_EPS)] = 0.0
        # Added in unit order; numpy's own sum pairs eight or more units on a one-hour horizon.
        rate = np.zeros_like(slack_kw)
        for unit in running.swapaxes(0, 1):
            rate += unit
        rate += self.prices[hours] * slack_kw
        if self.case.battery is not None:
            rate += self.case.battery.usage_cost_ct_per_kwh * throughput_kw
        if shift is not None and self.case.dr is not None:
            rate += self.case.dr.incentive_ct_per_kwh * np.maximum(shift, 0.0)
        return rate * self.dt

    def _violation(self, res: SweepResult, slack_kw: np.ndarray) -> np.ndarray:
        """Network violation per plan and hour, per-unit so voltage and
        power compare.

        The voltage terms are exact at the injection buses.  The empty buses
        add theirs as a sum of its own, taken only in the converged columns
        where the gain bound (``SweepResult.beyond``: no empty bus lies
        further from 1.0 pu than the gain times the farthest injection bus)
        cannot place them inside the limits; elsewhere they are 0.  A column
        that did not converge holds whatever its terms came to.
        """
        B, T = slack_kw.shape
        mag = res.injection_magnitude
        cells = (mag.shape[0], B, T)
        v_low = np.maximum(0.0, self.vmin - mag).reshape(cells).sum(axis=0)
        v_high = np.maximum(0.0, mag - self.vmax).reshape(cells).sum(axis=0)
        g_in = np.maximum(0.0, slack_kw - self.import_limit) / self.s_base
        g_out = np.maximum(0.0, -slack_kw - self.export_limit) / self.s_base
        total = v_low + v_high + g_in + g_out
        columns = res.beyond(self.vmin, self.vmax)
        columns = columns[res.converged[columns]]
        if columns.size:
            rest = res.rest_magnitude(columns)
            excess = (np.maximum(0.0, self.vmin - rest) + np.maximum(0.0, rest - self.vmax)).sum(axis=0)
            total += np.bincount(columns, weights=excess, minlength=B * T).reshape(B, T)
        return total

    def _evaluate(
        self,
        p_units: np.ndarray,
        chg: np.ndarray,
        dis: np.ndarray,
        shift: Optional[np.ndarray],
        lean: bool = False,
        hours: Optional[np.ndarray] = None,
    ) -> BatchMetrics:
        """Objectives, network violation and hourly series for split parts.

        Plans whose sweep failed score LARGE_OBJECTIVE on every network
        objective and on the violation; the choice drops whatever
        non-finite values their rows hold.  The sweep runs over the
        problem's injection set, so the vdev terms gather the load buses'
        rows of its magnitudes.  The exact mode (``metrics``, ``split_eval``)
        sweeps to DEFAULT_TOLERANCE and keeps ``vmag`` and
        ``injection_voltage``; the ``lean`` one (the GA's evaluate,
        the DP's stage table) sweeps to GA_TOLERANCE and keeps neither, so it
        forms no array of buses times columns.  ``hours`` gives the hour of
        each (row, column), None the plain day; with it the parts are
        columns, not whole plans, and the per-plan fields, the outage cost
        among them, stay None.
        """
        B, H = chg.shape
        day = hours is None
        if day:
            hours = np.broadcast_to(np.arange(H), (B, H))
        # One column per plan-hour.
        cons = self._consumption(p_units, chg - dis, shift, hours)
        res = sweep(self.net, cons.reshape(cons.shape[0], -1), injections=self.injections,
                    tolerance=GA_TOLERANCE if lean else DEFAULT_TOLERANCE)
        converged = res.converged.reshape(B, H)
        # The slack bus holds 1.0 pu, so its power is the conjugate of its current.
        slack_kw = res.slack_current.real.reshape(B, H) * self.s_base
        loss_kw = res.loss_pu.reshape(B, H) * self.s_base
        dev = np.abs(1.0 - res.injection_magnitude[self._row[self.load_idx]])
        hourly_vdev = dev.sum(axis=0).reshape(B, H)
        hourly_cost = self._hourly_cost(p_units, slack_kw, chg + dis, shift, hours)
        with np.errstate(invalid="ignore"):
            m = BatchMetrics(
                converged=converged,
                collapsed=res.collapsed.reshape(B, H),
                slack_kw=slack_kw,
                vmag=None,
                hourly_cost=hourly_cost,
                hourly_loss_kw=loss_kw,
                hourly_vdev=hourly_vdev,
                hourly_violation=self._violation(res, slack_kw),
            )
            if day:
                m.ok = converged.all(axis=1)
                m.soc_kwh = self.soc_split(chg, dis)
                m.values = {
                    "cost": np.where(m.ok, hourly_cost.sum(axis=1), LARGE_OBJECTIVE),
                    "loss": np.where(m.ok, loss_kw.sum(axis=1) * self.dt, LARGE_OBJECTIVE),
                    "ens": self.evaluator.cost_batch(m.soc_kwh),
                    "vdev": np.where(m.ok, hourly_vdev.sum(axis=1), LARGE_OBJECTIVE),
                }
                m.violation = np.where(m.ok, m.hourly_violation.sum(axis=1), LARGE_OBJECTIVE)
            # Last, so that no temporary above adds to the largest arrays' peak.
            if not lean:
                m.vmag = np.abs(res.voltage).reshape(self.net.n_bus, B, H)
                m.injection_voltage = res.injection_voltage.reshape(-1, B, H).transpose(1, 0, 2).copy()
        return m

    def _signed(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Split parts of signed plans: the battery splits by its sign."""
        p_units, p_batt, shift = self.unpack(X)
        return p_units, np.maximum(p_batt, 0.0), np.maximum(-p_batt, 0.0), shift

    def metrics(self, X: np.ndarray) -> BatchMetrics:
        """Objectives and network violation for a population of plans."""
        return self._evaluate(*self._signed(X))

    # ------------------------------------------------------------------
    # repair

    def is_on(self, p_units: np.ndarray) -> np.ndarray:
        """The one on/off test, per unit-hour of (..., n_units, T) setpoints:
        a committable unit below half its minimum, or with an hourly cap
        below its minimum, is off; every other unit-hour is on."""
        return ~self.committable | ((p_units >= 0.5 * self.p_min) & (self.caps >= self.p_min))

    def repair(self, X: np.ndarray) -> np.ndarray:
        """Project plans onto device-feasible points (box, commitment, SOC,
        shift balance); a second repair changes no bit.  Network constraints
        stay with the penalty."""
        X = np.clip(np.atleast_2d(np.asarray(X, dtype=float)), self.lower, self.upper)
        B = self.blocks(X)
        p = B[:, : self.n_units]
        B[:, : self.n_units] = np.where(self.is_on(p), np.clip(p, self.p_min, self.caps), 0.0)
        if self.case.battery is not None:
            B[:, self.n_units] = self._repair_battery(B[:, self.n_units])
        if self.dr:
            B[:, -1] = self._project_shift(B[:, -1])
        return X

    def _repair_battery(self, p: np.ndarray) -> np.ndarray:
        """Row-parallel sequential smallest-change SOC clip, a projection.

        Hour by hour, the power is clipped between the powers that take the
        kept state (keep * state) to soc_min and to soc_max, each room over
        ``gain`` where it is a charge and over ``drain`` where it is a
        discharge (a charge to soc_min: self-discharge took the SOC under
        it), then to +-p_max; the state advances by the period rule at that
        power.  The states follow from the output alone, so a second pass
        finds the same bounds and changes no bit.
        """
        b = self.case.battery
        window = np.array([[b.soc_min_kwh], [b.soc_max_kwh]])
        # Hour-major, so that each hour's powers are one contiguous row.
        p = p.T.copy()
        state = np.full(p.shape[1], b.soc_initial_kwh)
        for q in p:
            kept = self.keep * state
            room = window - kept
            low, high = room / np.where(room >= 0.0, self.gain, self.drain)
            np.minimum(np.maximum(q, low, out=q), high, out=q)
            np.minimum(np.maximum(q, -b.p_max_kw, out=q), b.p_max_kw, out=q)
            state = kept + q * np.where(q >= 0.0, self.gain, self.drain)
        return p.T

    def _project_shift(self, s: np.ndarray) -> np.ndarray:
        """Project shift rows onto zero net energy inside the hourly box; a
        clipped row with |sum s| <= T eps sum |s|, balanced to its own
        rounding, comes back unchanged, so the output is a fixed point.

        The projection is clip(s - mu, lo, hi) at the root mu of g(mu) =
        sum_t clip(s_t - mu, lo_t, hi_t), a continuous quadratic knapsack
        (Kiwiel, Math. Prog. 112, 2008).  g is piecewise linear and
        nonincreasing.  Past the knot s_t - hi_t hour t leaves its upper
        bound and moves with mu; past s_t - lo_t it rests on its lower one.
        One sort of the knots and a running sum give g at every knot; the
        root lies past the last knot where g > 0, at g's value there over
        the count of free hours, which is the slope's magnitude.
        """
        hi = self.shift_bound
        lo = -hi
        s = np.clip(s, lo, hi)
        knots = np.concatenate([s - hi, s - lo], axis=1)
        order = np.argsort(knots, axis=1, kind="stable")
        knots = np.take_along_axis(knots, order, axis=1)
        free = np.cumsum(np.where(order < s.shape[1], 1, -1), axis=1)
        # Every hour is on its upper bound up to the first knot.
        fall = np.cumsum(free[:, :-1] * np.diff(knots, axis=1), axis=1)
        g = hi.sum() - np.concatenate([np.zeros((s.shape[0], 1)), fall], axis=1)
        last = np.maximum((g > 0).sum(axis=1, keepdims=True) - 1, 0)
        mu = np.take_along_axis(knots, last, axis=1)
        # g at that knot once more, exactly, then the linear step to its root.
        at_knot = np.clip(s - mu, lo, hi).sum(axis=1, keepdims=True)
        mu += at_knot / np.maximum(np.take_along_axis(free, last, axis=1), 1)
        rounding = s.shape[1] * np.finfo(float).eps * np.abs(s).sum(axis=1, keepdims=True)
        return np.where(np.abs(s.sum(axis=1, keepdims=True)) <= rounding, s, np.clip(s - mu, lo, hi))

    # ------------------------------------------------------------------
    # starting points

    def seed_points(self) -> np.ndarray:
        """Structured starting plans: idle, full output, price-driven, and a
        charge-early battery cycle.  All repaired."""
        T = self.T
        seeds = np.zeros((4, self.n))
        S = self.blocks(seeds)
        S[1, : self.n_units] = self.caps

        # Flat out when the price covers the running cost, a committable unit's fixed cost included.
        greedy = S[2]
        breakeven = self.slopes.copy()
        breakeven[self.committable] += self.fixed[self.committable] / self.p_max[self.committable]
        greedy[: self.n_units] = np.where(self.prices >= breakeven, self.caps, 0.0)
        if self.case.battery is not None:
            order = np.argsort(self.prices, kind="stable")
            window = max(1, T // 6)
            plan = np.zeros(T)
            plan[order[:window]] = self.case.battery.p_max_kw
            plan[order[-window:]] = -self.case.battery.p_max_kw
            greedy[self.n_units] = plan
            quarter = max(1, T // 4)
            charge_up = np.zeros(T)
            charge_up[:quarter] = self.case.battery.p_max_kw
            charge_up[-quarter:] = -self.case.battery.p_max_kw
            S[3, self.n_units] = charge_up
        if self.dr:
            thirds = np.argsort(self.prices, kind="stable")
            cut = T // 3
            shift = np.zeros(T)
            shift[thirds[:cut]] = self.shift_bound[thirds[:cut]]
            shift[thirds[-cut:]] = -self.shift_bound[thirds[-cut:]]
            greedy[-1] = shift
        return self.repair(seeds)

    def ga_functions(self, spec: ObjectiveSpec):
        """(evaluate, repair) pair in the shape the genetic seeder expects."""

        def evaluate(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            # The kernel's lean mode, converged only as far as the GA ranks.
            m = self._evaluate(*self._signed(X), lean=True)
            obj = spec.scalar_array(m.values)
            obj = np.where(m.ok, obj, LARGE_OBJECTIVE)
            return obj, m.violation

        return evaluate, self.repair

    # ------------------------------------------------------------------
    # split-battery smooth problem for the SQP refiner

    def commitment_mask(self, x: np.ndarray) -> np.ndarray:
        """Per unit-hour on/off decision (``is_on``) of a plan."""
        return self.is_on(self.unpack(x)[0][0])

    def split_bounds(self, commit: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # The charge and discharge blocks take the signed battery block's place.
        lower = np.zeros(self.n + self.T)
        upper = np.zeros(self.n + self.T)
        lo, up = self.blocks(lower)[0], self.blocks(upper)[0]
        lo[: self.n_units] = np.where(commit & self.committable, self.p_min, 0.0)
        up[: self.n_units] = np.where(self.committable & ~commit, 0.0, self.caps)
        p_batt = 0.0 if self.case.battery is None else self.case.battery.p_max_kw
        up[self.n_units : self.n_units + 2] = p_batt
        if self.dr:
            lo[-1] = -self.shift_bound
            up[-1] = self.shift_bound
        return lower, upper

    def split_from_signed(self, x: np.ndarray) -> np.ndarray:
        p_units, p_batt, shift = self.unpack(x)
        parts = [p_units[0], np.maximum(p_batt, 0.0), np.maximum(-p_batt, 0.0)]
        if self.dr:
            parts.append(shift)
        return np.concatenate(parts).reshape(-1)

    def signed_from_split(self, xs: np.ndarray) -> np.ndarray:
        p_units, chg, dis, shift = self.split_parts(xs)
        parts = [p_units[0], chg - dis]
        if self.dr:
            parts.append(shift)
        return np.concatenate(parts).reshape(-1)

    def split_parts(self, Xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        B = self.blocks(np.atleast_2d(Xs))
        shift = B[:, -1] if self.dr else None
        return B[:, : self.n_units], B[:, self.n_units], B[:, self.n_units + 1], shift

    def split_eval(self, Xs: np.ndarray) -> BatchMetrics:
        """Metrics for split-battery rows.

        Simultaneous charge and discharge is allowed by the relaxation; it
        pays throughput cost on both and loses the round-trip deficit from
        the SOC, so the optimum keeps them complementary.  The rows keep the
        injection buses' complex voltages for the refiner's derivatives.
        """
        return self._evaluate(*self.split_parts(Xs))

    def _row_mask(self, soc, imp, exp, v_lo: np.ndarray, v_hi: np.ndarray) -> np.ndarray:
        """Mask over the row layout from a mask or flag per kind; the slack
        bus holds its voltage and has no voltage rows."""
        T = self.T
        volt = np.stack([v_lo, v_hi])
        volt[:, self.net.slack] = False
        kinds = [np.broadcast_to(soc, 2 * T), np.broadcast_to(imp, T), np.broadcast_to(exp, T)]
        return np.concatenate(kinds + [volt.reshape(-1)])

    def screen_rows(self, vmag: np.ndarray) -> np.ndarray:
        """Layout indices of the rows worth carrying in the smooth subproblem.

        SOC bounds and grid limits are always in; voltage rows only where the
        seed comes within SCREEN_MARGIN of a limit.  The refine loop adds
        any row found violated afterwards, so screening costs only reruns.
        """
        near_lo, near_hi = vmag < self.vmin + SCREEN_MARGIN, vmag > self.vmax - SCREEN_MARGIN
        battery, export = self.case.battery is not None, np.isfinite(self.export_limit)
        return np.flatnonzero(self._row_mask(battery, True, export, near_lo, near_hi))

    def violated_rows(self, vmag: np.ndarray, slack_kw: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Layout indices of the network rows a single plan violates beyond
        tol: the voltage rows first, then import, then export."""
        imp = slack_kw > self.import_limit + tol * self.s_base
        exp = -slack_kw > self.export_limit + tol * self.s_base
        rows = np.flatnonzero(self._row_mask(False, imp, exp, vmag < self.vmin - tol, vmag > self.vmax + tol))
        return rows[np.argsort(rows < 4 * self.T, kind="stable")]

    def load_cells(self, flags: np.ndarray) -> np.ndarray:
        """Bus-major cell indices (``bus * T + hour``) of the load-bus-hours
        set in an (n_bus, T) mask."""
        mask = np.zeros_like(flags)
        mask[self.load_idx] = flags[self.load_idx]
        return np.flatnonzero(mask)

    def refine(
        self,
        x: np.ndarray,
        spec: ObjectiveSpec,
        config: Optional[SqpConfig] = None,
        max_rounds: int = 3,
    ) -> "RefineResult":
        """SQP-polish a repaired plan; never returns a worse reported value.

        Commitment is frozen at the seed's on/off pattern.  After each solve
        the split battery merges back to a signed series and the plan is
        re-repaired (merging can only raise the SOC); any network row the
        polished plan violates joins the subproblem and the solve repeats.
        Every spec with a vdev slope (the vdev spec and the weighted ones),
        whose optimum puts load-bus-hours at V = 1 where |1 - V| has its
        kink, carries those within KINK_MARGIN of 1.0 pu at the seed as
        epigraph cells (``_SplitDispatchNlp``), and any other cell whose
        voltage crossed 1.0 during a solve joins them the same way.  With
        the smooth term a weighted solve stalls at such a kink once ``kkt``
        asks for a small step.  The seed and the polished plans pass one
        feasibility test.
        """
        report = spec.reported
        x = self.repair(x)[0]
        seed_m = self.metrics(x)
        seed_value = report.score(seed_m)

        lower, upper = self.split_bounds(self.commitment_mask(x))
        xs = np.clip(self.split_from_signed(x), lower, upper)
        rows = self.screen_rows(seed_m.vmag[:, 0, :])
        kinky = "vdev" in spec.slopes()
        kinks = self.load_cells(np.abs(1.0 - seed_m.vmag[:, 0, :]) < KINK_MARGIN) if kinky else np.zeros(0, np.intp)

        best_x, best_m = x, seed_m
        best_value = seed_value if _feasible(seed_m) else np.inf
        candidate, cand_m = x, seed_m
        sqp_result: Optional[SqpResult] = None
        rounds = 0
        for _ in range(max_rounds):
            rounds += 1
            nlp = _SplitDispatchNlp(self, spec, lower, upper, rows, kinks)
            sqp_result = sqp_solve(nlp, nlp.settle(xs), config)
            xs = sqp_result.x[: lower.size]
            candidate = self.repair(self.signed_from_split(xs))[0]
            cand_m = self.metrics(candidate)
            violated = self.violated_rows(cand_m.vmag[:, 0, :], cand_m.slack_kw[0], tol=_FEASIBILITY_TOL)
            new_rows = _missing(violated, rows)
            # A cell whose voltage crossed 1.0 met the kink of its smooth term.
            new_kinks = _missing(self.load_cells(nlp.crossed), kinks) if kinky else kinks[:0]
            value = report.score(cand_m)
            if _feasible(cand_m) and value < best_value:
                best_x, best_m, best_value = candidate, cand_m, value
            if not new_rows.size and not new_kinks.size:
                break
            rows = np.concatenate([rows, new_rows])
            kinks = np.concatenate([kinks, new_kinks])
        if not np.isfinite(best_value):
            # Neither the seed nor any polish round was feasible; fall back
            # to the least-violating of the seed and the last round's plan.
            if float(cand_m.violation[0]) < float(seed_m.violation[0]):
                best_x, best_m = candidate, cand_m
            best_value = report.score(best_m)
        return RefineResult(
            x=best_x,
            metrics=best_m,
            value=best_value,
            seed_value=seed_value,
            rounds=rounds,
            sqp=sqp_result,
        )


def _slack(limit: np.ndarray) -> np.ndarray:
    """How far a schedule's value may pass a limit: 1e-9 of it, 1e-9 at least."""
    return np.maximum(1e-9, 1e-9 * np.abs(limit))


def _refuse(name: str, p: np.ndarray, held: np.ndarray, low: np.ndarray, high: np.ndarray,
            what: str = "", unit: str = "kW", idle: str = "") -> None:
    """ValueError naming the first hour where ``held`` fails, its value and the limits."""
    bad = np.flatnonzero(~held)
    if bad.size:
        t = int(bad[0])
        limits = f"{idle}[{low[t]:g}, {high[t]:g}]"
        raise ValueError(f"{name} at hour {t}: {what}{p[t]:.6g} {unit} outside {limits} {unit}")


def _feasible(m: BatchMetrics) -> bool:
    """The test ``refine`` keeps plans by and the suite publishes as ``feasible``."""
    return bool(m.ok[0]) and float(m.violation[0]) <= _FEASIBILITY_TOL


def _missing(found: np.ndarray, held: np.ndarray) -> np.ndarray:
    """The entries of ``found`` not in ``held``, in order."""
    # Not np.isin: in numpy 2.4 its first call imports numpy.ma (+1.1 MB RSS).
    return found[(found[:, np.newaxis] != held).all(axis=1)]


@dataclass
class RefineResult:
    """A refined plan with its metrics, reported value, seed value, rounds
    and last SQP solve; the defaults hold a plan no refine produced."""

    x: np.ndarray
    metrics: BatchMetrics
    value: Optional[float] = None
    seed_value: Optional[float] = None
    rounds: int = 0
    sqp: Optional[SqpResult] = None


class _SplitDispatchNlp(NlpProblem):
    """Smooth dispatch subproblem over the split-battery vector.

    ``rows`` index the enforced network rows in the problem's row layout.
    ``kinks`` are load-bus-hours (bus-major cells, ``bus * T + hour``) whose
    |1 - V| term, not differentiable at V = 1, is carried exactly as an
    epigraph (Nocedal & Wright §17.2).  Each gets a variable e and the rows
    (1 - V) - e <= 0 and (V - 1) - e <= 0, and the objective scores vdev as
    the smooth |1 - V| of the other load-bus-hours plus the sum of e.  The
    rows hold e >= |1 - V| >= 0, so e carries no bound of its own: one
    would make three constraints active in two directions wherever V = 1.
    At e = |1 - V| the objective is the plan's own score, and a spec that
    weighs vdev prices e, so a solution holds every e on that envelope.

    The variables are ``[split plan | e]``, and the inequality rows are the
    carried layout rows, then the (1 - V) - e rows, then the (V - 1) - e
    rows.  The derivatives are exact (``_sensitivities``): they read the
    sweep of the plan's own evaluation, one row a point, and add no sweep
    column; the rows' Jacobians take the voltage derivatives at the
    carried cells and the kink cells alone.  Each e enters the
    Lagrangian linearly and is in no Hessian block, so the SQP keeps a unit
    diagonal for it; the QP solves each e out together with its envelope
    row.  ``settle`` puts every e back on its envelope after each trial
    step, so the envelope row is exactly 0 at every iterate and the SQP
    warm-starts the first QP with it.
    """

    def __init__(
        self,
        problem: DispatchProblem,
        spec: ObjectiveSpec,
        lower: np.ndarray,
        upper: np.ndarray,
        rows: Sequence[int],
        kinks: Sequence[int] = (),
    ):
        kinks = np.asarray(kinks, dtype=np.intp)
        super().__init__(
            np.concatenate([lower, np.full(kinks.size, -np.inf)]),
            np.concatenate([upper, np.full(kinks.size, np.inf)]),
        )
        self.problem = problem
        self.spec = spec
        self.rows = np.asarray(rows, dtype=np.intp)
        self.n_split = lower.size
        T, cells = problem.T, problem.net.n_bus * problem.T
        self._volt = self.rows >= 4 * T
        # The carried voltage rows' bus-major (bus, hour) cells, and which
        # of them are lower bounds.
        k = self.rows[self._volt] - 4 * T
        self._volt_bus, self._volt_hour = np.divmod(k % cells, T)
        self._volt_low = k < cells
        self._kink_bus, self._kink_hour = np.divmod(kinks, T)
        # Load-bus cells, (n_load, 1, T), whose |1 - V| stays in the smooth term.
        smooth = np.ones((problem.net.n_bus, T), dtype=bool)
        smooth[self._kink_bus, self._kink_hour] = False
        self._smooth = smooth[problem.load_idx][:, np.newaxis, :]
        # Cells whose voltage has been on both sides of 1.0 at the points
        # evaluated, against the first one.
        self.crossed = np.zeros((problem.net.n_bus, T), dtype=bool)
        self._below: Optional[np.ndarray] = None
        self._key: Optional[bytes] = None
        b = problem.case.battery
        self._soc_min, self._soc_max = (b.soc_min_kwh, b.soc_max_kwh) if b is not None else (0.0, 1.0)
        self._soc_scale = self._soc_max - self._soc_min
        # The affine SOC rows, soc_lo then soc_hi, over the charge and discharge blocks.
        self._J_soc = np.zeros((2 * T, lower.size))
        J = problem.blocks(self._J_soc)
        J[:, problem.n_units] = np.vstack([-problem.M_c, problem.M_c]) / self._soc_scale
        J[:, problem.n_units + 1] = np.vstack([problem.M_d, -problem.M_d]) / self._soc_scale
        self._free = ~pinned_mask(lower, upper)
        # Each unit's and battery block's kW, as a change of consumption at
        # one injection row: a unit takes a kW off its bus's, charge adds
        # one at the battery's and discharge takes one off (no row, sign 0,
        # without a battery).  The shift's spreads by shift_factors.
        pointed = problem.n_units + 2
        self._kw_row = np.zeros(pointed, dtype=np.intp)
        self._kw_sign = np.zeros(pointed)
        self._kw_row[: problem.n_units] = problem._row[problem.unit_bus]
        self._kw_sign[: problem.n_units] = -1.0
        if problem.batt_bus is not None:
            self._kw_row[problem.n_units :] = problem._row[problem.batt_bus]
            self._kw_sign[problem.n_units :] = (1.0, -1.0)
        # The carried voltage cells, then the kink cells: bus, hour, the
        # DLF row over the injection buses, and the split variables of
        # their hour, one per block.
        self._cell_bus = np.concatenate([self._volt_bus, self._kink_bus])
        self._cell_hour = np.concatenate([self._volt_hour, self._kink_hour])
        self._cell_drop = problem.injections.drop[self._cell_bus]
        self._cell_columns = np.arange(lower.size // T) * T + self._cell_hour[:, np.newaxis]

    def _hourly_vdev(self, vmag: np.ndarray) -> np.ndarray:
        """Smooth vdev per plan and hour from (n_bus, B, T) magnitudes."""
        dev = np.abs(1.0 - vmag[self.problem.load_idx])
        return np.where(self._smooth, dev, 0.0).sum(axis=0)

    def _eval(self, z: np.ndarray) -> BatchMetrics:
        """The one-row evaluation of z's split plan, remembered for the most
        recent plan only; its injection-bus voltages are what
        ``_sensitivities`` differentiates at."""
        xs = z[: self.n_split]
        key = xs.tobytes()
        if key != self._key:
            m = self.problem.split_eval(xs[np.newaxis, :])
            below = m.vmag[:, 0, :] < 1.0
            if self._below is None:
                self._below = below
            self.crossed |= below != self._below
            self._key, self._m = key, m
        return self._m

    def _kink_dev(self, z: np.ndarray) -> np.ndarray:
        """1 - V at the kink cells."""
        return 1.0 - self._eval(z).vmag[self._kink_bus, 0, self._kink_hour]

    def settle(self, z: np.ndarray) -> np.ndarray:
        """The point ``[xs | e]`` for z's split plan xs (or xs itself), with
        every e on its envelope |1 - V|.  Raising an e to it lowers the
        violation as much as it raises vdev; lowering one lowers vdev alone."""
        xs = z[: self.n_split]
        return np.concatenate([xs, np.abs(self._kink_dev(xs))])

    def stationarity_scale(self, grad: np.ndarray) -> float:
        """The vdev objective is in pu and its plan derivatives are about
        1e-3 pu per kW, so an absolute test would stop it short; it is
        measured against its own plan gradient."""
        if self.spec.key != "vdev":
            return super().stationarity_scale(grad)
        return max(float(np.abs(grad[: self.n_split]).max(initial=0.0)), 1e-6)

    def _values(self, z: np.ndarray) -> Dict[str, float]:
        """The objective values at z, with the kink cells' |1 - V| read as their e."""
        m = self._eval(z)
        values = {key: float(v[0]) for key, v in m.values.items()}
        if m.ok[0] and self._kink_bus.size:
            values["vdev"] = float(self._hourly_vdev(m.vmag).sum(axis=1)[0]) + float(z[self.n_split :].sum())
        return values

    def objective(self, z: np.ndarray) -> float:
        if not self._eval(z).ok[0]:
            return LARGE_OBJECTIVE
        return self.spec.scalar(self._values(z))

    def eq_constraints(self, z: np.ndarray) -> np.ndarray:
        if not self.problem.dr:
            return np.zeros(0)
        shift = self.problem.blocks(z[: self.n_split])[0, -1]
        return np.array([shift.sum() / self.problem.s_base])

    def ineq_constraints(self, z: np.ndarray) -> np.ndarray:
        m, p = self._eval(z), self.problem
        soc, slack_kw, vmag = m.soc_kwh[0], m.slack_kw[0], m.vmag[:, 0, :]
        layout = [
            (self._soc_min - soc) / self._soc_scale, (soc - self._soc_max) / self._soc_scale,
            (slack_kw - p.import_limit) / p.s_base, (-slack_kw - p.export_limit) / p.s_base,
            (p.vmin - vmag).reshape(-1), (vmag - p.vmax).reshape(-1),
        ]
        dev, e = self._kink_dev(z), z[self.n_split :]
        return np.concatenate([np.concatenate(layout)[self.rows], dev - e, -dev - e])

    def hessian_blocks(self) -> np.ndarray:
        """One block per hour: row t holds hour t's unit, charge, discharge
        and shift variables.  Hour t of every network quantity depends only
        on hour t of the plan, the SOC and shift-balance rows are affine and
        the outage cost is piecewise linear in the SOC, so the Lagrangian's
        curvature is block diagonal by hour.  Each e enters the Lagrangian
        linearly and is in no block."""
        return self.problem.blocks(np.arange(self.n_split))[0].T

    def _sensitivities(self, xs: np.ndarray) -> Tuple[Dict[str, np.ndarray], np.ndarray, np.ndarray]:
        """Objective gradients (of vdev's smooth term), d(slack_kw) (T, ns)
        and d(vmag) at the carried voltage rows' cells, then at the kink
        cells (cells, ns), of the split plan ``xs``, exact at its sweep and
        zero in the pinned variables.

        Hour t of the sweep is the fixed point V = 1 - D I, I = conj(S / V),
        over the injection buses, D = DLF[inj, inj] and S their consumption.
        A change dS moves the currents by dI = c + N conj(dI), c = conj(dS /
        V) and N = diag(conj(S / V^2)) conj(D): linear in dI's real and
        imaginary parts, so one real 2n_inj system per hour gives dI for
        every block of the plan at once (the implicit function theorem; A.
        Christakou et al., IEEE Trans. Smart Grid 4(2), 2013): a kW of a
        unit, of charge, of discharge or of shift.  Every
        quantity read is then a linear form in dI: the slack power its sum,
        the loss 2 Re(I^H R dI) with R = Re(D), and a bus's voltage change
        -DLF[bus, inj] dI.  Hour t of any network quantity depends only on hour t of
        the plan, so a voltage cell at hour t has one nonzero column per
        block.  Where the cost has a kink, a unit at or below COMMIT_EPS and
        a zero shift under the DR incentive, its slope is the mean of the
        two sides.  The outage cost chains through the affine SOC map
        instead, by central differences in the SOC (SOC_REL_STEP).
        """
        p = self.problem
        T, ns = p.T, xs.size
        m = self._eval(xs)
        p_units, chg, dis, shift = p.split_parts(xs)
        # (hour, injection bus); an hour whose sweep failed reads as unloaded.
        ok = m.converged[0][:, np.newaxis]
        V = np.where(ok, m.injection_voltage[0].T, 1.0)
        S = np.where(ok, p._consumption(p_units, chg - dis, shift, np.arange(T)[np.newaxis])[:, 0].T, 0.0)
        D, n = p.injections.drop_inj, V.shape[1]
        inv = np.conj(1.0 / V)
        I = np.conj(S) * inv
        N = (I * inv)[:, :, np.newaxis] * np.conj(D)
        system = np.empty((T, 2 * n, 2 * n))
        system[:, :n, :n] = -N.real
        system[:, n:, n:] = N.real
        system[:, :n, n:] = system[:, n:, :n] = -N.imag
        system[:, np.arange(2 * n), np.arange(2 * n)] += 1.0
        # c per hour and block: a kW of each block of the plan.
        c = np.zeros((T, n, ns // T), complex)
        c[:, self._kw_row, np.arange(self._kw_row.size)] = self._kw_sign * inv[:, self._kw_row] / p.s_base
        if p.dr:
            c[:, :, -1] = np.conj(p.shift_factors.T) * inv
        # Per hour and block, [Re dI; Im dI].
        dI = np.linalg.solve(system, np.concatenate([c.real, c.imag], axis=1))

        # The slack power, the loss and the smooth vdev as linear forms over
        # [Re dI; Im dI]; d|V_b| = Re(conj(V_b) dV_b) / |V_b|, and the sign
        # of 1 - |V| is 0 (the mean of the two sides) where |V| = 1.
        rows = p._row[p.load_idx]
        away = np.sign(1.0 - np.abs(V[:, rows])) * self._smooth[:, 0, :].T / np.abs(V[:, rows])
        vdev = (away * np.conj(V[:, rows])) @ D[rows]
        RI = I @ p.injections.resistance
        forms = np.zeros((T, 3, 2 * n))
        forms[:, 0, :n] = p.s_base
        forms[:, 1, :n], forms[:, 1, n:] = 2.0 * p.s_base * RI.real, 2.0 * p.s_base * RI.imag
        forms[:, 2, :n], forms[:, 2, n:] = vdev.real, -vdev.imag
        # (quantity, variable), the variables block by block.
        by_variable = (forms @ dI).transpose(1, 2, 0).reshape(3, -1)
        d_slack_var, d_loss_var, d_vdev_var = by_variable * self._free[:ns]
        # A cell's magnitude: d|V| = Re(r dI), r = -conj(V) DLF[bus, inj] / |V|.
        v = 1.0 - np.einsum("cn,cn->c", self._cell_drop, I[self._cell_hour])
        r = -(np.conj(v) / np.abs(v))[:, np.newaxis] * self._cell_drop
        d_cell = np.einsum("cm,cmk->ck", np.concatenate([r.real, -r.imag], axis=1), dI[self._cell_hour])

        plan = p.blocks(xs)[0]
        own = np.zeros_like(plan)
        own[: p.n_units] = p.slopes * np.where(plan[: p.n_units] > COMMIT_EPS, 1.0, 0.5)
        if p.case.battery is not None:
            own[p.n_units : p.n_units + 2] = p.case.battery.usage_cost_ct_per_kwh
        if p.dr:
            own[-1] = p.case.dr.incentive_ct_per_kwh * 0.5 * (1.0 + np.sign(plan[-1]))
        grads = {
            "cost": p.dt * (self._free[:ns] * own.reshape(-1) + np.tile(p.prices, len(plan)) * d_slack_var),
            "loss": p.dt * d_loss_var,
            "ens": np.zeros(ns),
            "vdev": d_vdev_var,
        }
        columns = np.arange(ns)
        d_slack = np.zeros((T, ns))
        d_slack[columns % T, columns] = d_slack_var
        d_cells = np.zeros((self._cell_bus.size, ns))
        at = self._cell_columns
        d_cells[np.arange(at.shape[0])[:, np.newaxis], at] = self._free[at] * d_cell

        if p.case.battery is not None:
            soc = m.soc_kwh[0]
            hs = SOC_REL_STEP * np.maximum(1.0, np.abs(soc))
            probe = np.repeat(soc[np.newaxis, :], 2 * T, axis=0)
            probe[2 * np.arange(T), np.arange(T)] += hs
            probe[2 * np.arange(T) + 1, np.arange(T)] -= hs
            costs = p.evaluator.cost_batch(probe)
            g_soc = (costs[0::2] - costs[1::2]) / (2.0 * hs)
            ens = p.blocks(grads["ens"])[0]
            ens[p.n_units] = g_soc @ p.M_c
            ens[p.n_units + 1] = -(g_soc @ p.M_d)
        return grads, d_slack, d_cells

    def derivatives(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = self.problem
        ns, n = self.n_split, self.n
        grads, d_slack, d_cells = self._sensitivities(z[:ns])
        d_volt, d_kink = np.split(d_cells, [self._volt_bus.size])
        chain = self.spec.chain(self._values(z))
        grad = np.zeros(n)
        for key, coeff in chain.items():
            grad[:ns] += coeff * grads[key]
        grad[ns:] = chain.get("vdev", 0.0)

        # The shift-balance row reads the shift block, last in the split plan.
        J_eq = np.zeros((int(p.dr), n))
        J_eq[:, ns - p.T : ns] = 1.0 / p.s_base

        # The rows gathered from the layout's blocks, then the epigraph rows.
        volt, m, ne = self._volt, self.rows.size, d_kink.shape[0]
        J_in = np.zeros((m + 2 * ne, n))
        layout = J_in[:m, :ns]
        layout[~volt] = np.concatenate([self._J_soc, d_slack / p.s_base, -d_slack / p.s_base])[self.rows[~volt]]
        layout[volt] = np.where(self._volt_low[:, np.newaxis], -d_volt, d_volt)
        J_in[m : m + ne, :ns] = -d_kink
        J_in[m + ne :, :ns] = d_kink
        J_in[m + np.arange(2 * ne), ns + np.tile(np.arange(ne), 2)] = -1.0
        return grad, J_eq, J_in
