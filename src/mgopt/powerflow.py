"""Radial power flow by the backward-forward sweep, in path-matrix form.

The network is a tree rooted at the slack bus.  Each iteration draws
constant-power load currents from the present voltage guess, accumulates
them into branch currents from the leaves toward the root (backward sweep),
then drops voltages from the root outward across branch impedances (forward
sweep).  Both sweeps are fixed linear maps of the topology: ``BIBC`` (branch
by bus, 1 where the bus lies in the branch's subtree) takes bus currents to
branch currents, and ``DLF = BIBC^T diag(z) BIBC`` takes them to voltage
drops, so one iteration is ``V = 1 - DLF conj(S / V)`` (J.-H. Teng, "A
direct approach for distribution system load flow solutions", IEEE Trans.
Power Delivery 18(3), 2003).

The iteration runs over a set of injection buses (``InjectionSet``), and
the other buses, which draw no current, leave it.  A caller that knows
where its power can go builds the set once and passes consumption over its
rows alone; given consumption at every bus, ``sweep`` takes the buses with
an injection in some column.  Convergence is still judged over every bus: a
column converges when its largest voltage change at any bus is below the
tolerance.  At the empty buses one transfer gain per set (``InjectionSet``)
bounds the voltage changes and magnitudes by the injection buses' and
settles that test, and the collapse floor, for most columns; only a column
it cannot settle takes the exact product.  What the sweep yields is the
injection buses' voltages and currents.  The slack current is the
currents' sum and the series loss ``sum_b r_b |I_b|^2`` equals ``I^H
Re(DLF) I`` over them; the voltage at every bus and the branch currents are
derived from them only when read.

Loads are constant power at their power factor, generators are negative
constant-power loads at unity power factor, the battery is a signed
constant-power injection, and the slack bus absorbs whatever residual the
balance needs.  The sweep is vectorised over an arbitrary number of
injection columns, so a whole horizon (or a whole GA population by stacking
hours) solves in one call.  Each call allocates the arrays it works in and
hands its caller arrays of its own, so sweeps on one network are
re-entrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from .devices import DispatchSchedule
from .dr import participating_demand_kw
from .netmodel import MicrogridCase, validate_radial

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 100
COLLAPSE_FLOOR_PU = 0.5
# A column stops at a tolerance looser than DEFAULT_TOLERANCE only on an
# iteration that shrank its change by this factor or more.  One that
# converges more slowly, as near voltage collapse, runs on to
# DEFAULT_TOLERANCE, so whether it converges within the iteration cap is
# decided as at the default.  While the change shrinks this fast, what
# remains to the fixed point is about a ninth of the last change or less.
SETTLE_RATIO = 0.1
# A bound stands in for the exact value it bounds only when it clears its
# test by this much (relative to the tolerance, absolute in pu for voltage
# magnitudes near 1.0), which covers the rounding of the gain and the value.
BOUND_MARGIN = 1e-9
# The rounding (pu) of an injection-bus voltage change, a difference of two
# iterates near 1.0 pu, before the gain scales it to the empty buses.
ROUNDING = 8 * np.finfo(float).eps


class PowerFlowError(RuntimeError):
    """Power flow failure; ``hour`` is the first offending column."""

    def __init__(self, message: str, hour: Optional[int] = None):
        super().__init__(message)
        self.hour = hour


class ConvergenceError(PowerFlowError):
    pass


class VoltageCollapseError(PowerFlowError):
    pass


@dataclass(frozen=True)
class CompiledNetwork:
    """Sweep-ready arrays for one case topology."""

    bus_ids: Tuple[str, ...]
    bus_index: Dict[str, int]
    slack: int
    branch_ids: Tuple[str, ...]
    parent: np.ndarray
    child: np.ndarray
    z_pu: np.ndarray
    s_base_kw: float

    @property
    def n_bus(self) -> int:
        return len(self.bus_ids)

    @property
    def n_branch(self) -> int:
        return len(self.branch_ids)

    @cached_property
    def bibc(self) -> np.ndarray:
        """Branch-by-bus path matrix: 1 where the bus lies in the branch's subtree.

        Row ``b`` lists the buses whose current branch ``b`` carries; column
        ``j`` lists the branches between the slack and bus ``j``.
        """
        paths = np.zeros((self.n_branch, self.n_bus))
        # Branches are in sweep order, children before parents, so walking
        # them backwards completes each parent's path before its children's.
        for b in range(self.n_branch - 1, -1, -1):
            paths[:, self.child[b]] = paths[:, self.parent[b]]
            paths[b, self.child[b]] = 1.0
        return paths

    @cached_property
    def dlf(self) -> np.ndarray:
        """Bus-current-to-voltage-drop matrix ``BIBC^T diag(z) BIBC``.

        Entry ``(i, j)`` is the impedance of the path that buses ``i`` and
        ``j`` share from the slack.
        """
        return self.bibc.T @ (self.z_pu[:, np.newaxis] * self.bibc)


def compile_network(case: MicrogridCase) -> CompiledNetwork:
    """Validate the topology and convert impedances to per-unit arrays."""
    ordered = validate_radial(case.buses, case.branches)
    bus_ids = case.bus_ids()
    index = {b: i for i, b in enumerate(bus_ids)}
    z_base = case.z_base_ohm
    return CompiledNetwork(
        bus_ids=bus_ids,
        bus_index=index,
        slack=index[case.slack_bus],
        branch_ids=tuple(b.id for b in ordered),
        parent=np.array([index[b.from_bus] for b in ordered], dtype=int),
        child=np.array([index[b.to_bus] for b in ordered], dtype=int),
        z_pu=np.array([(b.resistance_ohm + 1j * b.reactance_ohm) / z_base for b in ordered]),
        s_base_kw=case.base_power_kva,
    )


def load_consumption_pu(case: MicrogridCase, net: CompiledNetwork) -> np.ndarray:
    """Complex constant-power demand per bus and hour, per-unit."""
    s = np.zeros((net.n_bus, case.horizon), dtype=complex)
    for lp in case.load_points:
        tan_phi = math.tan(math.acos(lp.power_factor))
        p = np.asarray(lp.profile_kw, dtype=float)
        s[net.bus_index[lp.bus]] += (p + 1j * tan_phi * p) / net.s_base_kw
    return s


def shift_distribution_pu(case: MicrogridCase, net: CompiledNetwork) -> np.ndarray:
    """Per-bus complex factor that one kW of DR shift adds at each hour.

    Shifted load spreads over participating load points in proportion to
    their demand that hour and keeps each point's power factor.  Hours with
    no participating demand get a zero column; apply_shift refuses shifts
    there.
    """
    base = participating_demand_kw(case)
    factors = np.zeros((net.n_bus, case.horizon), dtype=complex)
    safe = np.where(base > 0, base, 1.0)
    for lp in case.load_points:
        if lp.category not in case.dr.participating:
            continue
        tan_phi = math.tan(math.acos(lp.power_factor))
        share = np.where(base > 0, np.asarray(lp.profile_kw, dtype=float) / safe, 0.0)
        factors[net.bus_index[lp.bus]] += share * (1.0 + 1j * tan_phi)
    return factors / net.s_base_kw


def consumption_from_schedule(
    case: MicrogridCase, schedule: Optional[DispatchSchedule], net: CompiledNetwork
) -> np.ndarray:
    """Net complex consumption per bus and hour under a schedule, per-unit."""
    s = load_consumption_pu(case, net)
    if schedule is None:
        return s
    for i, unit in enumerate(case.units):
        s[net.bus_index[unit.bus]] -= schedule.dg_setpoints[i] / net.s_base_kw
    if case.battery is not None:
        s[net.bus_index[case.battery.bus]] += schedule.battery_power / net.s_base_kw
    if schedule.dr_shift is not None:
        s += shift_distribution_pu(case, net) * schedule.dr_shift
    return s


class InjectionSet:
    """Product matrices and the empty-bus gain for one set of injection buses.

    ``inj`` are the buses flagged in ``has_injection``, in bus order, and
    ``rest`` the others, the slack aside: its voltage is fixed at 1.0 pu.
    A set may hold a bus that draws nothing in some batch; its current is
    then zero.
    With I the injection currents, every bus voltage is ``1 - DLF[:, inj] I``.

    The empty buses draw nothing, so ``V_rest - 1 = T (V_inj - 1)`` with
    ``T = DLF[rest, inj] DLF[inj, inj]^-1`` (nonsingular, as no impedance is
    zero or negative).  ``gain``, the largest absolute row sum of T, bounds
    every empty bus's voltage change and deviation from 1.0 pu by that times
    the largest at an injection bus, which skips the products over the empty
    buses wherever they cannot change an answer.  It is 0.375 on the
    benchmark case (one empty bus) and 1.0 on the long feeder (40).
    """

    def __init__(self, net: "CompiledNetwork", has_injection: np.ndarray):
        inj = np.flatnonzero(has_injection)
        empty = ~has_injection
        empty[net.slack] = False
        rest = np.flatnonzero(empty)
        self.inj, self.rest = inj, rest
        self.drop = net.dlf[:, inj]
        self.drop_inj, self.drop_rest = self.drop[inj], self.drop[rest]
        # DLF is symmetric, so T^T = DLF[inj, inj]^-1 DLF[inj, rest].
        self.gain = float(np.abs(np.linalg.solve(self.drop_inj, self.drop_rest.T)).sum(axis=0).max(initial=0.0))
        # Branch b carries BIBC[b, inj] I, and Re(DLF) = BIBC^T diag(r) BIBC.
        self.bibc = net.bibc[:, inj]
        self.resistance = np.ascontiguousarray(self.drop_inj.real)


class SweepResult:
    """A batch of sweeps, one column per injection pattern.

    ``iterations``, ``converged`` and ``collapsed`` describe each column.
    The iteration runs over the injection buses ``injection`` alone, so what
    it yields is their last voltage iterate (``injection_voltage``, its
    magnitudes in ``injection_magnitude``) and the currents they draw at it; everything
    else follows from these.  The slack current is the currents' sum and the
    loss ``loss_pu`` is ``I^H Re(DLF) I`` over them.  The voltage at every
    bus and the branch currents are products of a bus or branch count times
    the batch, formed on first read.  Each has one column per batch column,
    and each is the caller's: no later sweep writes it.
    """

    def __init__(
        self,
        net: "CompiledNetwork",
        injections: InjectionSet,
        voltage: np.ndarray,
        magnitude: np.ndarray,
        iterate: np.ndarray,
        current: np.ndarray,
        iterations: np.ndarray,
        converged: np.ndarray,
        collapsed: np.ndarray,
    ):
        self._net, self._set = net, injections
        self._iterate, self._current = iterate, current
        self.injection = injections.inj
        self.injection_voltage = voltage
        self.injection_magnitude = magnitude
        self.iterations = iterations
        self.converged = converged
        self.collapsed = collapsed

    @cached_property
    def slack_current(self) -> np.ndarray:
        """The injection currents' sum per column, added bus by bus in bus
        order: numpy sums a lone column's contiguous array pairwise."""
        total = np.zeros(self._current.shape[1], complex)
        for row in self._current:
            total += row
        return total

    @cached_property
    def loss_pu(self) -> np.ndarray:
        """Series loss per column, ``sum_b r_b |I_b|^2 = I^H Re(DLF[inj, inj]) I``.

        One real product over the float view of the injection currents: the
        row of ``f.T @ R`` for a real or imaginary part f holds ``R f``, and
        each column's two rows sit side by side.  The product runs row-wise,
        so a column's loss does not depend on its batch.
        """
        f = self._current.view(float)
        terms = np.matmul(f.T, self._set.resistance)
        np.multiply(terms, f.T, out=terms)
        n, m = self._current.shape
        return terms.reshape(m, 2 * n).sum(axis=1)

    @cached_property
    def voltage(self) -> np.ndarray:
        """Complex voltage at every bus, (n_bus, columns)."""
        net, m = self._net, self.injection_voltage.shape[1]
        # Over every bus, not the empty ones alone: a product one bus wide
        # would go to gemv and round with the batch.
        product = _by_row(self._set.drop, self._iterate, np.empty((m, net.n_bus), complex))
        with np.errstate(invalid="ignore"):
            v = np.subtract(1.0, product, out=np.empty((net.n_bus, m), complex))
        v[self._set.inj] = self.injection_voltage
        v[net.slack] = 1.0
        return v

    @cached_property
    def branch_current(self) -> np.ndarray:
        """Complex current in every branch, (n_branch, columns)."""
        shape = (self._current.shape[1], self._net.n_branch)
        return _by_row(self._set.bibc, self._current, np.empty(shape, complex))

    @cached_property
    def _reach(self) -> np.ndarray:
        """Per column, the gain times the injection buses' largest |1 - V|:
        no empty bus's magnitude lies further than this from 1.0 pu.  First
        read in ``sweep``, under its errstate."""
        size = np.abs(1.0 - self.injection_voltage)
        return self._set.gain * size.max(axis=0, initial=0.0)

    def beyond(self, low: float, high: float) -> np.ndarray:
        """The columns whose empty-bus magnitudes the gain bound cannot
        place inside [low, high]; NaN fails the test."""
        reach = self._reach
        return np.flatnonzero(~((1.0 - reach >= low + BOUND_MARGIN) & (1.0 + reach <= high - BOUND_MARGIN)))

    def rest_magnitude(self, columns: np.ndarray) -> np.ndarray:
        """Exact voltage magnitudes at the empty buses, (rest, len(columns))."""
        drop = self._set.drop_rest
        with np.errstate(all="ignore"):
            iterate = np.take(self._iterate, columns, axis=1)
            product = _by_row(drop, iterate, np.empty((columns.size, drop.shape[0]), complex))
            return np.abs(np.subtract(1.0, product, out=product))


def sweep(
    net: CompiledNetwork,
    consumption_pu: np.ndarray,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    injections: Optional[InjectionSet] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> SweepResult:
    """Run the backward-forward sweep on a column batch of injections.

    consumption_pu has shape (n_bus, m), or (len(injections.inj), m) over
    the rows of a prebuilt ``injections`` set; positive real part consumes.
    Voltages start flat at 1.0 pu.  A column converges when its largest
    voltage change over all buses drops below ``tolerance``, or below
    DEFAULT_TOLERANCE where that is tighter and the column converges slowly
    (SETTLE_RATIO).  A column whose final magnitude is under 0.5 pu at any
    bus, or that ends unconverged after dipping under it on the way, is
    reported collapsed rather than merely unconverged.

    The iteration runs over the set's buses, by default those with an
    injection in some column; the other buses draw no current and their
    voltages follow from the last iteration's currents.  The returned
    currents are recomputed from the final voltages, so each bus absorbs
    exactly its specified power and the slack picks up losses; the loss
    identity then closes to roundoff.

    Without a prebuilt set, the set is built for this call.  In both forms
    the caller owns the result's arrays, and a column's result is the same
    for the same set.

    A column's result equals the same column's in any batch that stops at
    the same iteration, a lone column's too (``_by_row``); in a batch that
    runs longer a converged column moves on by rounding-level amounts (up
    to 2e-12 pu in a 58-plan GA batch of the benchmark case).
    """
    s = np.asarray(consumption_pu, dtype=complex)
    if s.ndim == 1:
        s = s[:, np.newaxis]
    if injections is None:
        injections = InjectionSet(net, s.any(axis=1))
        s = s[injections.inj]
    v, iterate, spare, iterations, converged, _ = _iterate(injections, s, max_iterations, tolerance)

    with np.errstate(all="ignore"):
        current = np.conjugate(np.divide(s, v, out=spare), out=spare)
        current[~np.isfinite(current)] = 0.0
        magnitude = np.abs(v)
        collapsed = _below_floor(magnitude)
        result = SweepResult(net, injections, v, magnitude, iterate, current, iterations, converged, collapsed)
        doubtful = result.beyond(COLLAPSE_FLOOR_PU, np.inf)
        if doubtful.size:
            collapsed[doubtful] |= _below_floor(result.rest_magnitude(doubtful))
    unsettled = np.flatnonzero(~converged)
    if unsettled.size:
        # A dip on the way counts only against a column that ends
        # unconverged, so the loop above does not watch for one; such
        # columns run again, watched.  Their iterates are independent of
        # their batch (``_by_row``), so the flags are those of a watched run.
        collapsed[unsettled] |= _dips(injections, s[:, unsettled], max_iterations, tolerance)
    converged &= ~collapsed
    iterations[~converged] = max_iterations
    return result


def _iterate(injections: InjectionSet, s_inj: np.ndarray, max_iterations: int, tolerance: float, watch: bool = False):
    """The fixed-point loop over the injection buses, each column to
    ``tolerance`` or, where it converges slowly, to DEFAULT_TOLERANCE.

    Returns the last voltage iterate, the currents it was drawn from, a
    spare buffer of the same shape, the iterations and convergence flags,
    and, when ``watch`` is set, which columns dipped under the collapse
    floor at any bus on the way.
    """
    shape = s_inj.shape
    m = shape[1]
    acc, prev = np.zeros(shape, complex), np.empty(shape, complex)
    v, v_new = np.ones(shape, complex), np.empty(shape, complex)
    size = np.empty(shape)
    by_row = np.empty(shape[::-1], complex)
    iterations = np.zeros(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    dipped = np.zeros(m, dtype=bool)
    last = np.full(m, np.inf)
    strict = min(tolerance, DEFAULT_TOLERANCE)

    with np.errstate(all="ignore"):
        for k in range(1, max_iterations + 1):
            acc, prev = prev, acc
            np.conjugate(np.divide(s_inj, v, out=acc), out=acc)
            np.subtract(1.0, _by_row(injections.drop_inj, acc, by_row), out=v_new)
            # A non-finite change propagates through the maximum and fails
            # the tolerance test, like an infinite one.
            dv = np.abs(np.subtract(v_new, v, out=v), out=size).max(axis=0, initial=0.0)
            if watch:
                dipped |= _dipped(injections, acc, v_new)
            # Each column's tolerance this iteration (SETTLE_RATIO).
            limit = np.where(dv <= SETTLE_RATIO * last, tolerance, strict)
            last = dv
            # A column that passes on the injection buses is confirmed on the
            # rest, since a bus without load can move the most.
            screened = np.flatnonzero(~converged & (dv < limit))
            if screened.size:
                newly = screened[_settled_at_rest(injections, acc, prev, screened, dv[screened], limit[screened])]
                iterations[newly] = k
                converged[newly] = True
            v, v_new = v_new, v
            if converged.all():
                break
    return v, acc, prev, iterations, converged, dipped


def _settled_at_rest(
    injections: InjectionSet, acc: np.ndarray, prev: np.ndarray, screened: np.ndarray, dv: np.ndarray,
    tolerance: np.ndarray,
) -> np.ndarray:
    """Whether each screened column's voltage change at the empty buses is
    under its tolerance: by the gain times its change ``dv`` at the
    injection buses where that clears the tolerance, exactly elsewhere."""
    settled = injections.gain * (dv + ROUNDING) < tolerance * (1.0 - BOUND_MARGIN)
    unsure = np.flatnonzero(~settled)
    if unsure.size:
        columns = screened[unsure]
        change = acc[:, columns] - prev[:, columns]
        step = _by_row(injections.drop_rest, change, np.empty((unsure.size, injections.rest.size), complex))
        settled[unsure] = np.abs(step).max(axis=0, initial=0.0) < tolerance[unsure]
    return settled


def _dipped(injections: InjectionSet, acc: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Columns whose voltages from the currents ``acc``, ``v`` at the
    injection buses, fall under the collapse floor at some bus.  Every bus
    lies within max(gain, 1) times the largest |1 - v| of 1.0 pu, which
    clears most of them."""
    flags = np.zeros(acc.shape[1], dtype=bool)
    reach = max(injections.gain, 1.0) * np.abs(1.0 - v).max(axis=0, initial=0.0)
    risky = np.flatnonzero(~(1.0 - reach > COLLAPSE_FLOOR_PU + BOUND_MARGIN))
    if risky.size:
        drop = _by_row(injections.drop, acc[:, risky], np.empty((risky.size, injections.drop.shape[0]), complex))
        flags[risky] = _below_floor(np.abs(np.subtract(1.0, drop, out=drop)))
    return flags


def _dips(injections: InjectionSet, s_inj: np.ndarray, max_iterations: int, tolerance: float) -> np.ndarray:
    """Which columns dip under the collapse floor in a watched run of their own."""
    return _iterate(injections, np.ascontiguousarray(s_inj), max_iterations, tolerance, watch=True)[-1]


def _by_row(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` for a column batch ``b``, returned as a transposed view of ``out``.

    The product runs as ``b.T @ a.T`` into row-major storage: gemm rounds
    each row of its result the same wherever the row sits in the batch (it
    does not for columns), so a column's result does not depend on what it
    is batched with.  Numpy hands a one-row product to gemv, which rounds
    differently, so a lone column is multiplied as a pair.  This is the one
    place a lone column is paired: the sweep's other product, the loss's,
    already has two rows per column.
    """
    if b.shape[1] == 1:
        out[...] = np.matmul(np.repeat(b, 2, axis=1).T, a.T)[:1]
        return out.T
    return np.matmul(b.T, a.T, out=out).T


def _below_floor(magnitude: np.ndarray) -> np.ndarray:
    """Columns with a non-finite magnitude or one under the collapse floor.

    NaN propagates through both reductions and fails both comparisons.
    """
    low = ~(magnitude.min(axis=0, initial=np.inf) >= COLLAPSE_FLOOR_PU)
    return low | ~np.isfinite(magnitude.max(axis=0, initial=0.0))


@dataclass
class PowerFlowSolution:
    """Hourly sweep results, hour-major."""

    bus_ids: Tuple[str, ...]
    branch_ids: Tuple[str, ...]
    voltage: np.ndarray
    branch_current: np.ndarray
    loss_kw: np.ndarray
    slack_kw: np.ndarray
    slack_kvar: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    collapsed: np.ndarray

    @property
    def horizon(self) -> int:
        return self.voltage.shape[0]

    @property
    def voltage_magnitude(self) -> np.ndarray:
        return np.abs(self.voltage)

    def min_voltage(self) -> float:
        return float(self.voltage_magnitude.min())

    def bus_voltage(self, bus_id: str) -> np.ndarray:
        return self.voltage_magnitude[:, self.bus_ids.index(bus_id)]


def package_solution(net: CompiledNetwork, result: SweepResult) -> PowerFlowSolution:
    """Assemble the public record from raw sweep arrays; the slack bus sits at 1.0 pu."""
    s_slack = np.conj(result.slack_current) * net.s_base_kw
    return PowerFlowSolution(
        bus_ids=net.bus_ids,
        branch_ids=net.branch_ids,
        voltage=result.voltage.T.copy(),
        branch_current=result.branch_current.T.copy(),
        loss_kw=result.loss_pu * net.s_base_kw,
        slack_kw=s_slack.real.copy(),
        slack_kvar=s_slack.imag.copy(),
        iterations=result.iterations.copy(),
        converged=result.converged.copy(),
        collapsed=result.collapsed.copy(),
    )


def _raise_if_failed(
    converged: np.ndarray, collapsed: np.ndarray, max_iterations: int = DEFAULT_MAX_ITERATIONS
) -> None:
    """The typed PowerFlowError at the first hour whose flags say its sweep failed."""
    if converged.all():
        return
    hour = int(np.flatnonzero(~converged)[0])
    if collapsed[hour]:
        raise VoltageCollapseError(f"voltage collapse below {COLLAPSE_FLOOR_PU} pu at hour {hour}", hour)
    raise ConvergenceError(f"no convergence within {max_iterations} iterations at hour {hour}", hour)


def solve_horizon(
    case: MicrogridCase,
    schedule: Optional[DispatchSchedule] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    raise_on_failure: bool = True,
) -> PowerFlowSolution:
    """Solve every hour of the horizon for a schedule (grid-only if None)."""
    net = compile_network(case)
    s = consumption_from_schedule(case, schedule, net)
    result = sweep(net, s, max_iterations)
    if raise_on_failure:
        _raise_if_failed(result.converged, result.collapsed, max_iterations)
    return package_solution(net, result)
