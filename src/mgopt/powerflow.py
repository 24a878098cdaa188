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

Buses with no injection in any column of a batch draw no current, so they
leave the iteration; their voltages are recovered from the last iteration's
currents afterwards.  Convergence is still judged over every bus: a column
converges when its largest voltage change at any bus is below the
tolerance.

Loads are constant power at their power factor, generators are negative
constant-power loads at unity power factor, the battery is a signed
constant-power injection, and the slack bus absorbs whatever residual the
balance needs.  The sweep is vectorised over an arbitrary number of
injection columns, so a whole horizon (or a whole GA population by stacking
hours) solves in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .devices import DispatchSchedule
from .dr import participating_demand_kw
from .netmodel import MicrogridCase, validate_radial

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 100
COLLAPSE_FLOOR_PU = 0.5


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

    @cached_property
    def workspace(self) -> "Workspace":
        """Scratch memory shared by the batched evaluations on this network."""
        return Workspace()


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


def load_consumption_pu(case: MicrogridCase, net: Optional[CompiledNetwork] = None) -> np.ndarray:
    """Complex constant-power demand per bus and hour, per-unit."""
    net = net or compile_network(case)
    s = np.zeros((net.n_bus, case.horizon), dtype=complex)
    for lp in case.load_points:
        tan_phi = math.tan(math.acos(lp.power_factor))
        p = np.asarray(lp.profile_kw, dtype=float)
        s[net.bus_index[lp.bus]] += (p + 1j * tan_phi * p) / net.s_base_kw
    return s


def shift_distribution_pu(case: MicrogridCase, net: Optional[CompiledNetwork] = None) -> np.ndarray:
    """Per-bus complex factor that one kW of DR shift adds at each hour.

    Shifted load spreads over participating load points in proportion to
    their demand that hour and keeps each point's power factor.  Hours with
    no participating demand get a zero column; apply_shift refuses shifts
    there.
    """
    base = participating_demand_kw(case)
    net = net or compile_network(case)
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
    case: MicrogridCase, schedule: Optional[DispatchSchedule], net: Optional[CompiledNetwork] = None
) -> np.ndarray:
    """Net complex consumption per bus and hour under a schedule, per-unit."""
    net = net or compile_network(case)
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


class Workspace:
    """Grow-only scratch memory for batched sweeps, reused from call to call.

    Each named slot is one flat buffer that grows to the largest request
    and never shrinks; a request gets a C-contiguous view of its prefix.  At
    GA batch sizes fresh arrays cost more in page faults than the arithmetic
    does, and whether the allocator maps them afresh or reuses freed heap
    depends on its dynamic mmap threshold, so without reuse the wall time
    would also depend on what the process happened to free earlier.

    ``sweep`` may write any slot.  Between sweeps a caller may use any slot
    too, knowing that the last sweep's voltages live in "bus" and its branch
    currents in "wide".  A workspace is not for concurrent use.
    """

    def __init__(self) -> None:
        self._slots: Dict[str, np.ndarray] = {}

    def take(self, slot: str, shape: Tuple[int, ...], dtype=float) -> np.ndarray:
        """A ``shape`` view of the slot's buffer; its contents are unspecified."""
        size = math.prod(shape)
        buffer = self._slots.get(slot)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self._slots[slot] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)

    def gather(self, slot: str, a: np.ndarray, index: np.ndarray, axis: int) -> np.ndarray:
        """``a`` indexed along ``axis``, written into the slot.

        np.take's default mode="raise" gathers into a fresh array and copies
        it over; the indices are in range, so "clip" gives the same values.
        """
        shape = a.shape[:axis] + (index.size,) + a.shape[axis + 1 :]
        return np.take(a, index, axis=axis, out=self.take(slot, shape, a.dtype), mode="clip")


class SweepResult(NamedTuple):
    voltage: np.ndarray
    branch_current: np.ndarray
    slack_current: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    collapsed: np.ndarray


def sweep(
    net: CompiledNetwork,
    consumption_pu: np.ndarray,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    workspace: Optional[Workspace] = None,
) -> SweepResult:
    """Run the backward-forward sweep on a column batch of injections.

    consumption_pu has shape (n_bus, m); positive real part consumes.
    Voltages start flat at 1.0 pu.  A column converges when its largest
    voltage change over all buses drops below DEFAULT_TOLERANCE; columns whose
    magnitude dips under 0.5 pu at any bus are reported collapsed rather
    than merely unconverged.

    The iteration runs over the buses with an injection in some column; the
    other buses draw no current and their voltages follow from the last
    iteration's currents.  The returned currents are recomputed from the
    final voltages, so each bus absorbs exactly its specified power and the
    slack picks up losses; the loss identity then closes to roundoff.

    The arrays that grow with the batch times the buses live in
    ``workspace``.  With a shared one, the result's voltage and branch
    current are views that stay valid until the next call that uses the same
    workspace, and consumption passed in from one of its slots is
    overwritten.  Without one, the result owns its arrays.
    """
    s = np.asarray(consumption_pu, dtype=complex)
    if s.ndim == 1:
        s = s[:, np.newaxis]
    if s.shape[1] == 1:
        # Numpy hands a one-row product to gemv, which rounds differently
        # from gemm, so a lone column is solved alongside a copy of itself.
        # That keeps it bitwise equal to the same column inside any batch
        # that stops at the same iteration.  A batch iterates every column
        # until its slowest converges, so inside a batch that runs longer a
        # converged column moves on by rounding-level amounts (up to 2e-12
        # pu in a 58-plan GA batch of the benchmark case).
        pair = sweep(net, np.repeat(s, 2, axis=1), max_iterations, workspace)
        return SweepResult(*(field[..., :1] for field in pair))
    ws = Workspace() if workspace is None else workspace

    m = s.shape[1]
    has_injection = s.any(axis=1)
    inj = np.flatnonzero(has_injection)
    shape = (len(inj), m)
    s_inj = ws.gather("s_inj", s, inj, 0)
    drop = net.dlf[:, inj]
    drop_inj, drop_rest = drop[inj], drop[~has_injection]
    # |V_j| >= 1 - sum_k |DLF[j, k]| |I_k| at every bus j, so a column whose
    # bound clears the floor cannot have dipped; the margin covers rounding.
    reach = np.abs(drop).max(axis=0, initial=0.0)
    acc, prev = ws.take("acc", shape, complex), ws.take("prev", shape, complex)
    v, v_new = ws.take("v", shape, complex), ws.take("v_new", shape, complex)
    acc.fill(0.0)
    v.fill(1.0)
    size = ws.take("real", shape)
    by_row = ws.take("wide", shape[::-1], complex)
    iterations = np.zeros(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    dipped = np.zeros(m, dtype=bool)

    with np.errstate(all="ignore"):
        for k in range(1, max_iterations + 1):
            acc, prev = prev, acc
            np.conjugate(np.divide(s_inj, v, out=acc), out=acc)
            np.subtract(1.0, _by_row(drop_inj, acc, by_row), out=v_new)
            # A non-finite change propagates through the maximum and fails
            # the tolerance test, like an infinite one.
            dv = np.abs(np.subtract(v_new, v, out=v), out=size).max(axis=0, initial=0.0)
            risky = np.flatnonzero(~(1.0 - reach @ np.abs(acc, out=size) > COLLAPSE_FLOOR_PU + 1e-9))
            if risky.size:
                # The "wide" and "bus" slots are free until the loop ends.
                at_risk = ws.gather("wide", acc, risky, 1)
                v_risky = np.matmul(drop, at_risk, out=ws.take("bus", (net.n_bus, risky.size), complex))
                dipped[risky] |= _below_floor(np.subtract(1.0, v_risky, out=v_risky), ws)
            # A column that passes on the injection buses is confirmed on the
            # rest, since a bus without load can move the most.
            screened = np.flatnonzero(~converged & (dv < DEFAULT_TOLERANCE))
            if screened.size:
                change = ws.gather("wide", acc, screened, 1)
                np.subtract(change, ws.gather("bus", prev, screened, 1), out=change)
                step = np.matmul(drop_rest, change, out=ws.take("bus", (len(drop_rest), screened.size), complex))
                step_size = np.abs(step, out=ws.take("real", step.shape)).max(axis=0, initial=0.0)
                newly = screened[step_size < DEFAULT_TOLERANCE]
                iterations[newly] = k
                converged[newly] = True
            v, v_new = v_new, v
            if converged.all():
                break

        product = _by_row(drop, acc, ws.take("wide", (m, net.n_bus), complex))
        v = np.subtract(1.0, product, out=ws.take("bus", (net.n_bus, m), complex))
        v[net.slack] = 1.0
        collapsed = _below_floor(v, ws) | (dipped & ~converged)
        converged &= ~collapsed
        iterations[~converged] = max_iterations
        acc = ws.gather("acc", v, inj, 0)
        np.conjugate(np.divide(s_inj, acc, out=acc), out=acc)
    acc[~np.isfinite(acc)] = 0.0
    # BIBC is 0/1, so its product is plain sums and rounds the same for any
    # batch in either orientation.
    current = np.matmul(net.bibc[:, inj], acc, out=ws.take("wide", (net.n_branch, m), complex))
    return SweepResult(v, current, acc.sum(axis=0), iterations, converged, collapsed)


def _by_row(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` for a column batch ``b``, returned as a transposed view of ``out``.

    The product runs as ``b.T @ a.T`` into row-major storage: gemm rounds
    each row of its result the same wherever the row sits in the batch (it
    does not for columns), so a column's result does not depend on what it
    is batched with.
    """
    return np.matmul(b.T, a.T, out=out).T


def _below_floor(v: np.ndarray, workspace: Workspace) -> np.ndarray:
    """Columns with a non-finite voltage or a magnitude under the collapse floor.

    NaN propagates through both reductions and fails both comparisons.  The
    magnitudes go to the workspace's "real" slot.
    """
    magnitude = np.abs(v, out=workspace.take("real", v.shape))
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
    """Assemble the public record from raw sweep arrays."""
    s_slack = result.voltage[net.slack] * np.conj(result.slack_current) * net.s_base_kw
    loss = (np.abs(result.branch_current) ** 2 * net.z_pu.real[:, np.newaxis]).sum(axis=0) * net.s_base_kw
    return PowerFlowSolution(
        bus_ids=net.bus_ids,
        branch_ids=net.branch_ids,
        voltage=result.voltage.T.copy(),
        branch_current=result.branch_current.T.copy(),
        loss_kw=loss.real.copy(),
        slack_kw=s_slack.real.copy(),
        slack_kvar=s_slack.imag.copy(),
        iterations=result.iterations.copy(),
        converged=result.converged.copy(),
        collapsed=result.collapsed.copy(),
    )


def _raise_if_failed(result: SweepResult, max_iterations: int) -> None:
    if result.converged.all():
        return
    hour = int(np.flatnonzero(~result.converged)[0])
    if result.collapsed[hour]:
        raise VoltageCollapseError(f"voltage collapse below {COLLAPSE_FLOOR_PU} pu at hour {hour}", hour)
    raise ConvergenceError(f"no convergence within {max_iterations} iterations at hour {hour}", hour)


def solve_horizon(
    case: MicrogridCase,
    schedule: Optional[DispatchSchedule] = None,
    net: Optional[CompiledNetwork] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    raise_on_failure: bool = True,
) -> PowerFlowSolution:
    """Solve every hour of the horizon for a schedule (grid-only if None)."""
    net = net or compile_network(case)
    s = consumption_from_schedule(case, schedule, net)
    result = sweep(net, s, max_iterations)
    if raise_on_failure:
        _raise_if_failed(result, max_iterations)
    return package_solution(net, result)
