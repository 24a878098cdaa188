"""Independent reference implementations the tests compare against.

Everything here is deliberately written in the most literal way possible:
admittance-matrix fixed-point iteration and a per-branch loop sweep for
power flow, exhaustive active-set enumeration for QPs, plain python loops
for battery and outage arithmetic.  None of it shares code with the
package; the loop sweep borrows only the package's thresholds, the
dense QP solver only its result and error types, since matching them is
what they check, and ``FunctionNlp`` only the SQP's problem contract.
``FunctionNlp`` poses callables as an SQP problem and differentiates them
one coordinate at a time by ``gradient`` and ``jacobian``, the generic
central differences the SQP once defaulted to.  ``split_differences`` is
the dispatch subproblem's derivatives as the package took them before they
were exact, by central differences of its plan in batches, one block at a
time; it borrows the package's SOC step for the outage cost, whose slope
the package still differences.

The scalar device checks, the per-contingency restoration breakdown, the
scalar objective evaluators and the single-hour power flow at the end were
the package's own single-schedule versions of what the optimizer now does in
batch.  They stay here as references and borrow the package's SOC
recursion, island partition, headroom screen, contingency precomputation
and horizon power flow.  So are the tuple-tagged network rows of the SQP
subproblem, the interpreter the row layout replaced, the scattered
``np.subtract.at`` form of the dispatch problem's bus injections, and the
dense voltage derivatives of the subproblem, which the package now takes at
the carried voltage rows and kink cells only, and its objective with the
kink cells' epigraph variables summed one load-bus-hour at a time.
``all_bus_kernel`` is the dispatch kernel as it read every bus and every
branch current, and ``bisect_shift_projection`` the shift projection as it
bisected for its multiplier.
``active_guess`` is the first QP's warm start as the subproblem declared it
before the SQP worked it out from the rows exactly at 0 and the bounds.
The ``offset_*`` plan-vector forms index the
signed and split vectors by block offsets, as the package did before it read
plans through ``DispatchProblem.blocks``, and the ``unit_loop_*`` forms read
each unit's limits from its record in a loop over the units, as the package
did before it held them as arrays.
``grid_minimum`` enumerates every battery path on the grid of the dispatch
problem's dynamic programme, the independent check of its stage table and
SOC recursion on one- and two-hour cases, and ``streamed_stage_minima``
the stage table's minima as the package took them before it stored the
table, as running minima over its scoring batches.  ``sectioned_case`` and
``truncated_case`` are case builders, not references: the first deepens a
feeder without changing its physics, the second cuts the day short.  The
recursive tree walk is the form ``validate_radial`` had before it took an
explicit stack, kept as the reference for its branch order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from mgopt.devices import COMMIT_EPS, DispatchSchedule, soc_trajectory
from mgopt.netmodel import Battery, Branch, Bus, DgUnit, MicrogridCase, validate_case
from mgopt.objectives import OBJECTIVE_KEYS, ObjectiveValues
from mgopt.optimizer.problem import GA_TOLERANCE, SOC_REL_STEP, STAGE_BATCH_PLANS, StageMinima
from mgopt.optimizer.qp import QpError, QpInfeasibleError, QpResult, pinned_mask
from mgopt.optimizer.sqp import NlpProblem
from mgopt.powerflow import (
    COLLAPSE_FLOOR_PU,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    CompiledNetwork,
    PowerFlowSolution,
    compile_network,
    consumption_from_schedule,
    load_consumption_pu,
    package_solution,
    shift_distribution_pu,
    solve_horizon,
    sweep,
)
from mgopt.reliability import ContingencyEvaluator, island_partition

# Central differences step coordinate i by DEFAULT_REL_STEP * max(1, |x_i|).
DEFAULT_REL_STEP = 1e-5


# ---------------------------------------------------------------------------
# power flow


class LoopSweep(NamedTuple):
    """The loop sweep's result: every bus voltage and branch current."""

    voltage: np.ndarray
    branch_current: np.ndarray
    slack_current: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    collapsed: np.ndarray


def gauss_seidel_voltages(
    n_bus: int,
    branches: Sequence[Tuple[int, int, complex]],
    consumption_pu: np.ndarray,
    slack: int = 0,
    tolerance: float = 1e-12,
    max_iterations: int = 20000,
) -> np.ndarray:
    """Fixed-point power flow on the bus admittance matrix.

    branches are (from, to, z) with z in pu; consumption_pu is the complex
    load per bus (slack entry ignored).  Returns voltages with V_slack = 1.
    """
    Y = np.zeros((n_bus, n_bus), dtype=complex)
    for i, j, z in branches:
        y = 1.0 / z
        Y[i, i] += y
        Y[j, j] += y
        Y[i, j] -= y
        Y[j, i] -= y
    v = np.ones(n_bus, dtype=complex)
    injection = -np.asarray(consumption_pu, dtype=complex)
    for _ in range(max_iterations):
        prev = v.copy()
        for i in range(n_bus):
            if i == slack:
                continue
            i_net = np.conj(injection[i] / v[i])
            v[i] = (i_net - Y[i] @ v + Y[i, i] * v[i]) / Y[i, i]
        if np.abs(v - prev).max() < tolerance:
            break
    return v


def two_bus_voltage(r_pu: float, x_pu: float, p_pu: float, q_pu: float) -> complex:
    """Closed-form receiving-end voltage of a single line from a 1 pu source.

    Solves V * conj((V - 1)/z) = -(p + jq) exactly via the quadratic in V
    (V taken real-positive reference at the load angle).
    """
    z = complex(r_pu, x_pu)
    s = complex(p_pu, q_pu)
    # V = 1 + z * I and I = conj(-s / V): iterate the contraction to 1e-16,
    # which for a two-bus network is the exact solution to machine precision.
    v = 1.0 + 0.0j
    for _ in range(10000):
        nxt = 1.0 - z * np.conj(s / v)
        if abs(nxt - v) < 1e-16:
            return nxt
        v = nxt
    return v


def branch_loss_pu(voltage: np.ndarray, branches: Sequence[Tuple[int, int, complex]]) -> float:
    """Sum of |I|^2 R over branches for a solved voltage vector."""
    total = 0.0
    for i, j, z in branches:
        current = (voltage[i] - voltage[j]) / z
        total += (abs(current) ** 2) * z.real
    return total


def injection_balance_pu(
    voltage: np.ndarray,
    branches: Sequence[Tuple[int, int, complex]],
    consumption_pu: np.ndarray,
    slack: int = 0,
) -> float:
    """Real slack injection minus total real consumption.

    For an exact solution this equals the series loss; the gap between the
    two is the convergence error of the solve.
    """
    Y = np.zeros((len(voltage), len(voltage)), dtype=complex)
    for i, j, z in branches:
        y = 1.0 / z
        Y[i, i] += y
        Y[j, j] += y
        Y[i, j] -= y
        Y[j, i] -= y
    s_slack = voltage[slack] * np.conj(Y[slack] @ voltage)
    load = np.asarray(consumption_pu, dtype=complex)
    return float(s_slack.real - sum(load[i].real for i in range(len(voltage)) if i != slack))


def loop_sweep(
    net: CompiledNetwork,
    consumption_pu: np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> LoopSweep:
    """The backward-forward sweep as literal per-branch loops.

    consumption_pu has shape (n_bus, m); positive real part consumes.
    Voltages start flat at 1.0 pu.  A column converges when its largest
    voltage change drops below ``tolerance``; columns whose magnitude dips
    under 0.5 pu are reported collapsed rather than merely unconverged.

    The returned currents are recomputed from the final voltages, so each
    bus absorbs exactly its specified power and the slack picks up losses;
    the loss identity then closes to roundoff.
    """
    s = np.asarray(consumption_pu, dtype=complex)
    squeeze = s.ndim == 1
    if squeeze:
        s = s[:, np.newaxis]
    n, m = s.shape
    v = np.ones((n, m), dtype=complex)
    i_branch = np.zeros((net.n_branch, m), dtype=complex)
    iterations = np.zeros(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    dipped = np.zeros(m, dtype=bool)
    parent, child = net.parent, net.child

    for k in range(1, max_iterations + 1):
        with np.errstate(all="ignore"):
            acc = np.conj(s / v)
        for b in range(net.n_branch):
            i_branch[b] = acc[child[b]]
            acc[parent[b]] += i_branch[b]
        v_new = v.copy()
        v_new[net.slack] = 1.0
        for b in range(net.n_branch - 1, -1, -1):
            v_new[child[b]] = v_new[parent[b]] - net.z_pu[b] * i_branch[b]
        with np.errstate(invalid="ignore"):
            dv = np.abs(v_new - v)
            magnitude = np.abs(v_new)
        dv = np.where(np.isfinite(dv), dv, np.inf).max(axis=0) if n else np.zeros(m)
        dipped |= ~np.isfinite(magnitude).all(axis=0)
        dipped |= np.where(np.isfinite(magnitude), magnitude, np.inf).min(axis=0) < COLLAPSE_FLOOR_PU
        v = v_new
        newly = ~converged & (dv < tolerance)
        iterations[newly] = k
        converged |= newly
        if converged.all():
            break

    with np.errstate(invalid="ignore"):
        magnitude = np.abs(v)
    finite = np.isfinite(magnitude).all(axis=0)
    final_low = np.where(np.isfinite(magnitude), magnitude, np.inf).min(axis=0) < COLLAPSE_FLOOR_PU
    collapsed = ~finite | final_low | (dipped & ~converged)
    converged &= ~collapsed
    iterations[~converged] = max_iterations

    with np.errstate(all="ignore"):
        acc = np.conj(s / v)
        acc[~np.isfinite(acc)] = 0.0
    for b in range(net.n_branch):
        i_branch[b] = acc[child[b]]
        acc[parent[b]] += i_branch[b]
    return LoopSweep(v, i_branch, acc[net.slack].copy(), iterations, converged, collapsed)


def random_radial_network(
    rng: np.random.Generator, max_buses: int = 5
) -> Tuple[int, List[Tuple[int, int, complex]], np.ndarray]:
    """A random tree with per-unit impedances and a modest complex load."""
    n = int(rng.integers(2, max_buses + 1))
    branches = []
    for child in range(1, n):
        parent = int(rng.integers(0, child))
        z = complex(rng.uniform(0.005, 0.05), rng.uniform(0.002, 0.03))
        branches.append((parent, child, z))
    p = rng.uniform(0.0, 0.4, n)
    q = p * rng.uniform(0.2, 0.6, n)
    p[0] = q[0] = 0.0
    return n, branches, p + 1j * q


def random_feeder_with_empty_buses(
    rng: np.random.Generator, max_buses: int = 15, columns: int = 6
) -> Tuple[int, List[Tuple[int, int, complex]], np.ndarray]:
    """A random tree in which some buses carry no injection at all.

    Inner buses left empty become junctions (several children) or series
    sections (one child); empty dead-end leaves are added on top.  Loaded
    buses draw or inject a different power in each of ``columns`` columns,
    and some columns are all zero.  Parents are numbered below children.
    """
    n_loaded = int(rng.integers(2, max(3, max_buses - 3)))
    branches = []
    for child in range(1, n_loaded):
        parent = int(rng.integers(0, child))
        branches.append((parent, child, complex(rng.uniform(0.005, 0.05), rng.uniform(0.002, 0.03))))
    n = n_loaded + int(rng.integers(1, max_buses - n_loaded + 1))
    for leaf in range(n_loaded, n):
        branches.append((int(rng.integers(0, n_loaded)), leaf, complex(rng.uniform(0.005, 0.05), rng.uniform(0.002, 0.03))))
    has_child = np.zeros(n, dtype=bool)
    has_child[[parent for parent, _, _ in branches]] = True
    loaded = np.zeros(n, dtype=bool)
    loaded[1:n_loaded] = ~has_child[1:n_loaded] | (rng.random(n_loaded - 1) < 0.5)
    loaded[n_loaded - 1] = True
    p = rng.uniform(-0.15, 0.4, (n, columns)) * loaded[:, np.newaxis]
    q = np.maximum(p, 0.0) * rng.uniform(0.2, 0.6, (n, 1))
    s = p + 1j * q
    s[:, rng.random(columns) < 0.2] = 0.0
    return n, branches, s


def random_feeder_case(case: MicrogridCase, rng: np.random.Generator, scale: float = 0.5) -> MicrogridCase:
    """The case moved onto a tree from ``random_feeder_with_empty_buses``,
    its per-unit impedances times ``scale`` on the case's base: the load
    points, then the units, then the battery take the tree's loaded buses in
    turn, and the other buses stay empty.  Only the transformer's
    contingencies are kept; the others name branches the tree lacks."""
    n, edges, s = random_feeder_with_empty_buses(rng)
    loaded = itertools.cycle(f"r{i}" for i in np.flatnonzero(np.abs(s).any(axis=1)))
    z_base = case.z_base_ohm
    branches = tuple(
        Branch(f"q{k}", f"r{parent}", f"r{child}", scale * z.real * z_base, scale * z.imag * z_base)
        for k, (parent, child, z) in enumerate(edges)
    )
    return validate_case(replace(
        case,
        buses=(Bus("r0", "slack"),) + tuple(Bus(f"r{i}") for i in range(1, n)),
        branches=branches,
        load_points=tuple(replace(lp, bus=next(loaded)) for lp in case.load_points),
        units=tuple(replace(u, bus=next(loaded)) for u in case.units),
        battery=None if case.battery is None else replace(case.battery, bus=next(loaded)),
        contingencies=tuple(c for c in case.contingencies if c.element == "transformer"),
    ))


def sectioned_case(case: MicrogridCase, sections: int) -> MicrogridCase:
    """The case with every branch cut into equal series sections through empty buses."""
    buses, branches = list(case.buses), []
    for br in case.branches:
        chain = [br.from_bus] + [f"{br.id}.{k}" for k in range(1, sections)] + [br.to_bus]
        buses.extend(Bus(bus_id) for bus_id in chain[1:-1])
        for k in range(sections):
            branches.append(Branch(
                id=br.id if k == 0 else f"{br.id}.{k}",
                from_bus=chain[k],
                to_bus=chain[k + 1],
                resistance_ohm=br.resistance_ohm / sections,
                reactance_ohm=br.reactance_ohm / sections,
            ))
    return validate_case(replace(case, buses=tuple(buses), branches=tuple(branches)))


# ---------------------------------------------------------------------------
# quadratic programs


def qp_enumerate(
    H: np.ndarray,
    g: np.ndarray,
    A: Optional[np.ndarray],
    b: Optional[np.ndarray],
    G: Optional[np.ndarray],
    h: Optional[np.ndarray],
    tol: float = 1e-9,
) -> Optional[np.ndarray]:
    """Global minimiser of 1/2 x'Hx + g'x by trying every active set.

    Equalities are always active.  For each subset of inequalities, solve the
    KKT system, keep the candidate if it is primal feasible with nonnegative
    multipliers on the active inequalities.  H must be positive definite.
    """
    n = len(g)
    A = np.zeros((0, n)) if A is None else np.atleast_2d(A)
    b = np.zeros(0) if b is None else np.atleast_1d(b)
    G = np.zeros((0, n)) if G is None else np.atleast_2d(G)
    h = np.zeros(0) if h is None else np.atleast_1d(h)
    m = G.shape[0]
    best_x = None
    best_val = math.inf
    for active in itertools.chain.from_iterable(
        itertools.combinations(range(m), k) for k in range(m + 1)
    ):
        C = np.vstack([A, G[list(active)]]) if active else A
        d = np.concatenate([b, h[list(active)]]) if active else b
        k = C.shape[0]
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = H
        kkt[:n, n:] = C.T
        kkt[n:, :n] = C
        rhs = np.concatenate([-g, d])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        x, mults = sol[:n], sol[n : n + k]
        ineq_mults = mults[A.shape[0] :]
        if np.any(ineq_mults < -tol):
            continue
        if A.shape[0] and np.abs(A @ x - b).max() > tol:
            continue
        if m and np.max(G @ x - h) > tol:
            continue
        val = 0.5 * float(x @ H @ x) + float(g @ x)
        if val < best_val - 1e-12:
            best_val = val
            best_x = x
    return best_x


def random_qp(
    rng: np.random.Generator, max_n: int = 6, max_m: int = 4
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A random strictly convex QP with a known feasible point.

    Returns (H, g, A, b, G, h, lower, upper); bounds are returned separately
    so the solver under test can treat them natively while the enumerator
    folds them into G.
    """
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(0, max_m + 1))
    M = rng.normal(size=(n, n))
    H = M @ M.T + n * np.eye(n)
    g = rng.normal(size=n) * 2.0
    x_feas = rng.normal(size=n)
    n_eq = int(rng.integers(0, min(2, n) + 1))
    if n_eq:
        A = rng.normal(size=(n_eq, n))
        b = A @ x_feas
    else:
        A, b = None, None
    if m:
        G = rng.normal(size=(m, n))
        h = G @ x_feas + rng.uniform(0.05, 1.5, m)
    else:
        G = np.zeros((0, n))
        h = np.zeros(0)
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    for i in range(n):
        if rng.random() < 0.35:
            lower[i] = x_feas[i] - rng.uniform(0.05, 2.0)
        if rng.random() < 0.35:
            upper[i] = x_feas[i] + rng.uniform(0.05, 2.0)
    return H, g, A, b, G, h, lower, upper


def random_epigraph_qp(
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A dispatch-sized QP step plus an l1 term as an epigraph.

    ``random_dispatch_qp`` over x, and 60 variables e_i with unit curvature,
    a price of 1 and no bounds, each held above a_i'x - u_i and l_i - a_i'x
    by the rows (a_i'x - u_i) - e_i <= 0 and (l_i - a_i'x) - e_i <= 0, a_i
    sparse and l_i < a_i'x < u_i at the start, where e = 0.  Returns (H, g,
    A, b, G, h, lower, upper).
    """
    H, g, A, b, G, h, lower, upper = random_dispatch_qp(rng)
    n, ne = g.size, 60
    rows = rng.normal(size=(ne, n)) * (rng.random((ne, n)) < 0.05)
    eq_rows = np.vstack([A, np.eye(n)[lower == upper]])
    x0, *_ = np.linalg.lstsq(eq_rows, np.concatenate([b, lower[lower == upper]]), rcond=None)
    at = rows @ x0
    eye = np.eye(ne)
    H_all = np.zeros((n + ne, n + ne))
    H_all[:n, :n] = H
    H_all[n:, n:] = eye
    G_all = np.block([[G, np.zeros((G.shape[0], ne))], [rows, -eye], [-rows, -eye]])
    h_all = np.concatenate([h, at + rng.uniform(1e-3, 0.05, ne), -at + rng.uniform(1e-3, 0.05, ne)])
    return (
        H_all, np.concatenate([g, np.ones(ne)]), np.hstack([A, np.zeros((A.shape[0], ne))]), b, G_all, h_all,
        np.concatenate([lower, np.full(ne, -np.inf)]), np.concatenate([upper, np.full(ne, np.inf)]),
    )


def random_kinked_epigraph_qp(
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """An l1 term at its kink, as the SQP poses it at a settled iterate.

    60 box-bounded variables with a dense strictly convex Hessian, and 30
    variables e_i with unit curvature, a price of 1 and no bounds, held above
    |a_i'x| by the rows a_i'x - e_i <= 0 and -a_i'x - e_i <= 0, a_i sparse.
    At the start x = 0, e = 0 both rows of every pair are exactly 0; a warm
    start with every general row puts both in the working set.  Returns (H,
    g, G, h, lower, upper).
    """
    n, ne = 60, 30
    M = rng.normal(size=(n, n)) / np.sqrt(n)
    H = np.zeros((n + ne, n + ne))
    H[:n, :n] = M @ M.T + np.diag(rng.uniform(0.2, 2.0, n))
    H[n:, n:] = np.eye(ne)
    rows = rng.normal(size=(ne, n)) * (rng.random((ne, n)) < 0.1)
    eye = np.eye(ne)
    return (
        H, np.concatenate([rng.normal(size=n), np.ones(ne)]),
        np.block([[rows, -eye], [-rows, -eye]]), np.zeros(2 * ne),
        np.concatenate([-rng.uniform(0.0, 1.0, n), np.full(ne, -np.inf)]),
        np.concatenate([rng.uniform(0.0, 1.0, n), np.full(ne, np.inf)]),
    )


def bounds_as_rows(
    G: np.ndarray, h: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold finite bounds into the inequality block for the enumerator."""
    n = len(lower)
    rows = [G] if G.size else [np.zeros((0, n))]
    rhs = [h]
    for i in range(n):
        if np.isfinite(upper[i]):
            row = np.zeros(n)
            row[i] = 1.0
            rows.append(row[np.newaxis, :])
            rhs.append(np.array([upper[i]]))
        if np.isfinite(lower[i]):
            row = np.zeros(n)
            row[i] = -1.0
            rows.append(row[np.newaxis, :])
            rhs.append(np.array([-lower[i]]))
    return np.vstack(rows), np.concatenate(rhs)


def random_dispatch_qp(
    rng: np.random.Generator, contradictory: bool = False, on_bound: float = 0.25
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A random strictly convex QP shaped like one SQP step on a dispatch day.

    About 170 variables, 100 sparse general rows and up to 24 sparse
    equality rows, 20-60 pinned variables, and bounds that pass through or
    near the starting point, as at an iterate sitting on many of its
    bounds, so that many bounds and some general rows are active at the
    optimum.  The starting point is the least-squares solution of the
    equality rows and the pinned values, where the solvers start; a share
    ``on_bound`` of the bounds pass through it and a fifth of the general
    rows come within 1e-3 of it.  No general row is exactly tight there:
    the slack of such a row is rounding noise, and on a degenerate vertex
    the ratio test then picks its blocking row by the sign of that noise.
    ``contradictory`` adds a pair of rows no point satisfies, which forces
    the elastic retry.  Returns (H, g, A, b, G, h, lower, upper).
    """
    n = int(rng.integers(160, 181))
    m = int(rng.integers(90, 111))
    n_eq = int(rng.integers(0, 25))
    M = rng.normal(size=(n, n)) / np.sqrt(n)
    H = M @ M.T + np.diag(rng.uniform(0.2, 2.0, n))
    g = rng.normal(size=n)
    pinned = np.zeros(n, dtype=bool)
    pinned[rng.choice(n, size=int(rng.integers(20, 61)), replace=False)] = True
    value = np.where(rng.random(n) < 0.5, 0.0, rng.normal(size=n) * 0.05)
    A = rng.normal(size=(n_eq, n)) * (rng.random((n_eq, n)) < 0.1)
    b = rng.normal(size=n_eq) * 0.05
    eq_rows = np.vstack([A, np.eye(n)[pinned]])
    x0, *_ = np.linalg.lstsq(eq_rows, np.concatenate([b, value[pinned]]), rcond=None)
    lower = x0 - np.where(rng.random(n) < on_bound, 0.0, rng.uniform(0.0, 1.0, n))
    upper = x0 + np.where(rng.random(n) < on_bound, 0.0, rng.uniform(0.0, 1.0, n))
    lower[rng.random(n) < 0.1] = -np.inf
    upper[rng.random(n) < 0.1] = np.inf
    lower[pinned] = upper[pinned] = value[pinned]
    G = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.1)
    h = G @ x0 + np.where(rng.random(m) < 0.2, rng.uniform(1e-6, 1e-3, m), rng.uniform(0.0, 0.5, m))
    if contradictory:
        row = rng.normal(size=n)
        G = np.vstack([G, row, -row])
        h = np.concatenate([h, [-1.0, -1.0]])
    return H, g, A, b, G, h, lower, upper


def _dense_kkt_solve(H: np.ndarray, rows: np.ndarray, rhs_top: np.ndarray, rhs_bottom: np.ndarray):
    """Solve the equality-constrained KKT system; None when singular."""
    n, k = H.shape[0], rows.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = H
    if k:
        kkt[n:, :n] = rows
        kkt[:n, n:] = rows.T
    rhs = np.concatenate([rhs_top, rhs_bottom])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(sol).all():
        return None
    return sol[:n], sol[n:]


def _dense_active_set_loop(
    H: np.ndarray,
    g: np.ndarray,
    eq_rows: np.ndarray,
    eq_rhs: np.ndarray,
    in_rows: np.ndarray,
    in_rhs: np.ndarray,
    x: np.ndarray,
    working: List[int],
    max_pivots: int,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int], int]:
    """Classic primal active-set iteration from a feasible point.

    Returns (x, eq multipliers, inequality multipliers, working set, pivots).
    Ties in the ratio test and the drop rule break toward the smallest row
    index, which keeps the loop deterministic and cycle-free in practice.
    """
    n = x.size
    m = in_rows.shape[0]
    pivots = 0
    mu = np.zeros(m)
    lam = np.zeros(eq_rows.shape[0])
    while True:
        if pivots > max_pivots:
            raise QpError("active-set iteration limit exceeded")
        act = in_rows[working] if working else np.zeros((0, n))
        rows = np.vstack([eq_rows, act]) if eq_rows.size or len(working) else np.zeros((0, n))
        sol = _dense_kkt_solve(
            H,
            rows,
            -(H @ x + g),
            np.concatenate([eq_rhs - eq_rows @ x, (in_rhs[working] - in_rows[working] @ x) if working else np.zeros(0)]),
        )
        if sol is None:
            # Degenerate working set: drop its most recent member and retry.
            if not working:
                raise QpError("singular KKT system with empty working set")
            working.pop()
            pivots += 1
            continue
        p, mults = sol
        n_eq = eq_rows.shape[0]
        lam = mults[:n_eq]
        mu = np.zeros(m)
        for j, idx in enumerate(working):
            mu[idx] = mults[n_eq + j]
        if np.abs(p).max(initial=0.0) <= tol * (1.0 + np.abs(x).max(initial=0.0)):
            worst = min(
                (idx for idx in working if mu[idx] < -tol),
                key=lambda idx: (mu[idx], idx),
                default=None,
            )
            if worst is None:
                return x, lam, mu, working, pivots
            working.remove(worst)
            pivots += 1
            continue
        alpha = 1.0
        blocking = None
        slack = in_rhs - in_rows @ x
        direction = in_rows @ p
        for i in range(m):
            if i in working or direction[i] <= tol:
                continue
            ratio = slack[i] / direction[i]
            if ratio < alpha - 1e-14:
                alpha = max(ratio, 0.0)
                blocking = i
        x = x + alpha * p
        pivots += 1
        if blocking is not None:
            working.append(blocking)
            continue
        # An unblocked full step lands exactly on the subproblem optimum and
        # the multipliers just solved belong to that point, so testing them
        # here avoids re-solving a system whose residual noise can exceed the
        # stationarity threshold.
        worst = min(
            (idx for idx in working if mu[idx] < -tol),
            key=lambda idx: (mu[idx], idx),
            default=None,
        )
        if worst is None:
            return x, lam, mu, working, pivots
        working.remove(worst)


def dense_qp(
    H: np.ndarray,
    g: np.ndarray,
    A: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    G: Optional[np.ndarray] = None,
    h: Optional[np.ndarray] = None,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
    warm_start: Optional[Sequence[Tuple[str, int]]] = None,
    tol: float = 1e-10,
    elastic_penalty: Optional[float] = None,
) -> QpResult:
    """The package's former dense active-set QP solver, kept as a reference.

    Bounds become unit inequality rows and pinned variables (lo == hi)
    equality rows, so one working-set loop covers everything and each pivot
    re-solves the dense KKT system of the whole working set.  Same signature,
    result type, tie-breaks and pivot count as ``qp_subproblem``.

    ``warm_start`` takes a previous result's active set.  Infeasible starts
    trigger elastic relaxation automatically; the result carries the flag and
    the largest residual slack.  Raises QpInfeasibleError when the equality
    rows and bounds admit no point at all, and QpError on breakdown.
    """
    g = np.asarray(g, dtype=float)
    n = g.size
    H = np.asarray(H, dtype=float).reshape(n, n)
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float).reshape(-1)
    G = np.zeros((0, n)) if G is None else np.asarray(G, dtype=float).reshape(-1, n)
    h = np.zeros(0) if h is None else np.asarray(h, dtype=float).reshape(-1)
    lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if (lo > hi + 1e-12).any():
        raise QpInfeasibleError("crossed bounds")
    m_general = G.shape[0]

    # Uniform internal form: pinned variables join the equality block, finite
    # bounds join the inequality block behind the general rows.
    pinned = np.isfinite(lo) & np.isfinite(hi) & (hi - lo <= 1e-14 * np.maximum(1.0, np.abs(lo)))
    eq_rows = [A]
    eq_rhs = [b]
    tags: List[Tuple[str, int]] = [("in", i) for i in range(m_general)]
    in_rows = [G]
    in_rhs = [h]
    for i in range(n):
        if pinned[i]:
            row = np.zeros(n)
            row[i] = 1.0
            eq_rows.append(row[np.newaxis, :])
            eq_rhs.append(np.array([lo[i]]))
            continue
        if np.isfinite(hi[i]):
            row = np.zeros(n)
            row[i] = 1.0
            in_rows.append(row[np.newaxis, :])
            in_rhs.append(np.array([hi[i]]))
            tags.append(("hi", i))
        if np.isfinite(lo[i]):
            row = np.zeros(n)
            row[i] = -1.0
            in_rows.append(row[np.newaxis, :])
            in_rhs.append(np.array([-lo[i]]))
            tags.append(("lo", i))
    eq_rows_arr = np.vstack(eq_rows)
    eq_rhs_arr = np.concatenate(eq_rhs)
    in_rows_arr = np.vstack(in_rows) if in_rows else np.zeros((0, n))
    in_rhs_arr = np.concatenate(in_rhs) if in_rhs else np.zeros(0)

    x0 = _dense_feasible_start(eq_rows_arr, eq_rhs_arr, lo, hi)
    feas_tol = 1e-9 * (1.0 + np.abs(in_rhs_arr).max(initial=0.0))
    violated = in_rows_arr @ x0 - in_rhs_arr > feas_tol

    if not violated.any():
        x, lam, mu, working, pivots = _dense_run(
            H, g, eq_rows_arr, eq_rhs_arr, in_rows_arr, in_rhs_arr, x0, tags, warm_start, tol
        )
        return _dense_package(n, m_general, A.shape[0], x, lam, mu, tags, working, pivots, False, 0.0)

    # Elastic retry: one slack per violated general row restores a feasible
    # start; bound rows cannot be violated by the clipped start.
    bad = [k for k in np.flatnonzero(violated) if tags[k][0] == "in"]
    if len(bad) != int(violated.sum()):
        raise QpInfeasibleError("equality rows conflict with the variable bounds")
    scale = max(1.0, float(np.abs(g).max(initial=0.0)), float(np.abs(H).max(initial=0.0)))
    rho = elastic_penalty if elastic_penalty is not None else 1e6 * scale
    ns = len(bad)
    He = np.zeros((n + ns, n + ns))
    He[:n, :n] = H
    He[n:, n:] = np.eye(ns) * 1e-8 * scale
    ge = np.concatenate([g, np.full(ns, rho)])
    eq_e = np.hstack([eq_rows_arr, np.zeros((eq_rows_arr.shape[0], ns))])
    in_e = np.hstack([in_rows_arr, np.zeros((in_rows_arr.shape[0], ns))])
    tags_e = list(tags)
    for j, k in enumerate(bad):
        in_e[k, n + j] = -1.0
        row = np.zeros(n + ns)
        row[n + j] = -1.0
        in_e = np.vstack([in_e, row])
        tags_e.append(("slack", j))
    in_rhs_e = np.concatenate([in_rhs_arr, np.zeros(ns)])
    s0 = np.zeros(ns)
    resid = in_rows_arr @ x0 - in_rhs_arr
    for j, k in enumerate(bad):
        s0[j] = resid[k] + 1.0
    x, lam, mu, working, pivots = _dense_run(
        He, ge, eq_e, eq_rhs_arr, in_e, in_rhs_e, np.concatenate([x0, s0]), tags_e, warm_start, tol
    )
    max_slack = float(np.abs(x[n:]).max(initial=0.0))
    return _dense_package(n, m_general, A.shape[0], x[:n], lam, mu, tags, working, pivots, True, max_slack)


def _dense_feasible_start(eq_rows: np.ndarray, eq_rhs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    n = lo.size
    x0 = np.clip(np.zeros(n), lo, hi)
    if not eq_rows.shape[0]:
        return x0
    tol = 1e-8 * (1.0 + np.abs(eq_rhs).max(initial=0.0))
    sol, *_ = np.linalg.lstsq(eq_rows, eq_rhs, rcond=None)
    x0 = np.clip(sol, lo, hi)
    if np.abs(eq_rows @ x0 - eq_rhs).max(initial=0.0) <= tol:
        return x0
    # Clipping broke the equalities.  Alternate projections between the
    # affine set and the box converge whenever the intersection is nonempty,
    # but the tail can be slow, so periodically pin the variables sitting on
    # a bound and re-solve the equalities over the free ones exactly.
    pinv = np.linalg.pinv(eq_rows)
    for k in range(1000):
        x0 = np.clip(x0 - pinv @ (eq_rows @ x0 - eq_rhs), lo, hi)
        if np.abs(eq_rows @ x0 - eq_rhs).max(initial=0.0) <= tol:
            return x0
        if k % 20 == 19:
            polished = _dense_pinned_resolve(eq_rows, eq_rhs, lo, hi, x0, tol)
            if polished is not None:
                return polished
    raise QpInfeasibleError("equality rows conflict with the variable bounds")


def _dense_pinned_resolve(
    eq_rows: np.ndarray,
    eq_rhs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    x: np.ndarray,
    tol: float,
) -> Optional[np.ndarray]:
    """Fix bound-active variables and solve the equalities over the rest."""
    span = np.where(np.isfinite(hi - lo), hi - lo, 1.0)
    edge = 1e-9 * np.maximum(1.0, np.abs(span))
    free = (x > lo + edge) & (x < hi - edge)
    if not free.any():
        return None
    candidate = x.copy()
    rhs = eq_rhs - eq_rows[:, ~free] @ x[~free]
    sol, *_ = np.linalg.lstsq(eq_rows[:, free], rhs, rcond=None)
    candidate[free] = sol
    inside = (candidate >= lo - edge) & (candidate <= hi + edge)
    if not inside.all():
        return None
    candidate = np.clip(candidate, lo, hi)
    if np.abs(eq_rows @ candidate - eq_rhs).max(initial=0.0) > tol:
        return None
    return candidate


def _dense_run(H, g, eq_rows, eq_rhs, in_rows, in_rhs, x0, tags, warm_start, tol):
    working: List[int] = []
    if warm_start:
        wanted = set(warm_start)
        slack = in_rows @ x0 - in_rhs
        for i, tag in enumerate(tags):
            if tag in wanted and abs(slack[i]) <= 1e-9 * (1.0 + abs(in_rhs[i])):
                working.append(i)
    max_pivots = 50 * (x0.size + in_rows.shape[0] + 10)
    return _dense_active_set_loop(H, g, eq_rows, eq_rhs, in_rows, in_rhs, x0, working, max_pivots, tol)


def _dense_package(n, m_general, n_eq, d, lam, mu, tags, working, pivots, elastic, max_slack) -> QpResult:
    ineq_mult = np.zeros(m_general)
    lower_mult = np.zeros(n)
    upper_mult = np.zeros(n)
    for k, tag in enumerate(tags):
        kind, idx = tag
        if k >= mu.size:
            continue
        if kind == "in":
            ineq_mult[idx] = mu[k]
        elif kind == "lo":
            lower_mult[idx] = mu[k]
        elif kind == "hi":
            upper_mult[idx] = mu[k]
    active = tuple(tags[i] for i in working if i < len(tags) and tags[i][0] != "slack")
    return QpResult(
        d=np.asarray(d, dtype=float),
        eq_multipliers=lam[:n_eq].copy(),
        ineq_multipliers=ineq_mult,
        lower_multipliers=lower_mult,
        upper_multipliers=upper_mult,
        active_set=active,
        pivots=pivots,
        elastic=elastic,
        max_slack=max_slack,
    )


# ---------------------------------------------------------------------------
# nonlinear programs


def gradient(objective: Callable[[np.ndarray], float], x: Sequence[float]) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    return jacobian(lambda z: [objective(z)], x, m=1)[0]


def jacobian(
    function: Callable[[np.ndarray], np.ndarray],
    x: Sequence[float],
    m: Optional[int] = None,
) -> np.ndarray:
    """Central-difference Jacobian of a vector function; coordinate i steps
    by DEFAULT_REL_STEP * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    h = DEFAULT_REL_STEP * np.maximum(1.0, np.abs(x))
    if m is None:
        m = np.asarray(function(x), dtype=float).size
    J = np.empty((m, x.size))
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        fp = np.asarray(function(xp), dtype=float)
        fm = np.asarray(function(xm), dtype=float)
        J[:, i] = (fp - fm) / (2.0 * h[i])
    return J


class FunctionNlp(NlpProblem):
    """An ``NlpProblem`` from callables: the objective, the bounds and the
    optional equality and inequality rows, differentiated one coordinate at
    a time by ``gradient`` and ``jacobian``."""

    def __init__(
        self,
        objective: Callable[[np.ndarray], float],
        lower: Sequence[float],
        upper: Sequence[float],
        eq: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        ineq: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        super().__init__(lower, upper)
        self._objective = objective
        self._eq = eq
        self._ineq = ineq

    def objective(self, x: np.ndarray) -> float:
        return float(self._objective(x))

    def eq_constraints(self, x: np.ndarray) -> np.ndarray:
        if self._eq is None:
            return np.zeros(0)
        return np.atleast_1d(np.asarray(self._eq(x), dtype=float))

    def ineq_constraints(self, x: np.ndarray) -> np.ndarray:
        if self._ineq is None:
            return np.zeros(0)
        return np.atleast_1d(np.asarray(self._ineq(x), dtype=float))

    def derivatives(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        grad = gradient(self.objective, x)
        n_eq = self.eq_constraints(x).size
        n_in = self.ineq_constraints(x).size
        J_eq = jacobian(self.eq_constraints, x, m=n_eq) if n_eq else np.zeros((0, x.size))
        J_in = jacobian(self.ineq_constraints, x, m=n_in) if n_in else np.zeros((0, x.size))
        return grad, J_eq, J_in


# ---------------------------------------------------------------------------
# battery and reliability


def soc_loop(
    soc0: float,
    powers: Sequence[float],
    eta_c: float,
    eta_d: float,
    delta: float,
    dt: float = 1.0,
) -> List[float]:
    """Literal per-step SOC recursion."""
    out = []
    state = soc0
    for p in powers:
        state = state * (1.0 - delta * dt)
        if p >= 0:
            state += eta_c * p * dt
        else:
            state += p * dt / eta_d
        out.append(state)
    return out


def recursive_radial_order(buses: Sequence[Bus], branches: Sequence[Branch]) -> List[Branch]:
    """Branches of a valid tree, oriented parent-to-child, in the recursive
    depth-first post-order from the slack: each branch after its subtree.

    This is the recursion ``validate_radial`` replaced with an explicit
    stack; it needs one interpreter frame per tree level.
    """
    adjacency: Dict[str, List[Branch]] = {b.id: [] for b in buses}
    for br in branches:
        adjacency[br.from_bus].append(br)
        adjacency[br.to_bus].append(br)
    ordered: List[Branch] = []

    def descend(bus: str, via: Optional[Branch]) -> None:
        for br in adjacency[bus]:
            if br is via:
                continue
            child = br.to_bus if br.from_bus == bus else br.from_bus
            oriented = br if br.from_bus == bus else replace(br, from_bus=bus, to_bus=child)
            descend(child, br)
            ordered.append(oriented)

    descend(next(b.id for b in buses if b.kind == "slack"), None)
    return ordered


def island_of(case, element: str) -> frozenset:
    """Bus ids unreachable from the slack once ``element`` is removed."""
    slack = case.slack_bus
    if element == "transformer":
        return frozenset(b.id for b in case.buses if b.id != slack)
    neighbours: Dict[str, List[str]] = {b.id: [] for b in case.buses}
    for br in case.branches:
        if br.id == element:
            continue
        neighbours[br.from_bus].append(br.to_bus)
        neighbours[br.to_bus].append(br.from_bus)
    seen = {slack}
    queue = [slack]
    while queue:
        for nb in neighbours[queue.pop()]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return frozenset(b.id for b in case.buses if b.id not in seen)


def outage_cost_loop(case, soc: Optional[np.ndarray]) -> float:
    """Expected unsupplied-energy cost by direct per-contingency loops."""
    total = 0.0
    for cont in case.contingencies:
        islanded = island_of(case, cont.element)
        for t in range(case.horizon):
            s_out = sum(lp.profile_kw[t] for lp in case.load_points if lp.bus in islanded)
            if s_out <= 0:
                continue
            headroom = 0.0
            for u in case.units:
                if u.bus in islanded:
                    headroom += case.availability_kw[u.name][t] if u.renewable else u.p_max_kw
            s_rdg = min(s_out, headroom)
            s_rst = 0.0
            battery = case.battery
            if battery is not None and battery.bus in islanded:
                level = battery.soc_initial_kwh if soc is None else float(soc[t])
                s_rst = min(
                    s_out - s_rdg,
                    battery.p_max_kw,
                    max(0.0, level - battery.soc_min_kwh) / cont.repair_hours,
                )
                s_rst = max(0.0, s_rst)
            shortfall = max(0.0, s_out - s_rdg - s_rst)
            price = 0.0
            for lp in case.load_points:
                if lp.bus in islanded and lp.profile_kw[t] > 0:
                    price += (
                        case.outage_costs.cost(lp.category, cont.repair_hours)
                        * lp.profile_kw[t]
                        / s_out
                    )
            total += cont.rate_per_hour * case.period_hours * cont.repair_hours * price * shortfall
    return total


# ---------------------------------------------------------------------------
# AHP


def consistent_matrix(weights: Sequence[float]) -> np.ndarray:
    """The perfectly consistent judgment matrix M[i, j] = w_i / w_j."""
    w = np.asarray(weights, dtype=float)
    return w[:, np.newaxis] / w[np.newaxis, :]


# ---------------------------------------------------------------------------
# scalar device checks and restoration breakdown


class Violation(NamedTuple):
    hour: int
    kind: str
    amount: float


def threshold_commitment(unit: DgUnit, p_kw: float) -> float:
    """Map a relaxed setpoint onto the unit's committable range.

    Output below half the minimum decommits the unit; between half and the
    minimum it is pulled up to p_min; otherwise clipped to [p_min, p_max].
    """
    p = min(max(p_kw, 0.0), unit.p_max_kw)
    if not unit.committable:
        return p
    if p < 0.5 * unit.p_min_kw:
        return 0.0
    return min(max(p, unit.p_min_kw), unit.p_max_kw)


def battery_feasibility(
    battery: Battery,
    powers_kw: Sequence[float],
    period_hours: float = 1.0,
    tol: float = 1e-9,
) -> List[Violation]:
    """Power-limit and SOC-window violations of a battery plan."""
    p = np.asarray(powers_kw, dtype=float)
    violations: List[Violation] = []
    for t, value in enumerate(p):
        excess = abs(value) - battery.p_max_kw
        if excess > tol:
            violations.append(Violation(t, "battery_power", excess))
    soc = soc_trajectory(battery, p, period_hours)
    for t, value in enumerate(soc):
        if value < battery.soc_min_kwh - tol:
            violations.append(Violation(t, "soc_min", battery.soc_min_kwh - value))
        elif value > battery.soc_max_kwh + tol:
            violations.append(Violation(t, "soc_max", value - battery.soc_max_kwh))
    return violations


def repair_battery_powers(
    battery: Battery,
    powers_kw: Sequence[float],
    period_hours: float = 1.0,
    soc_initial_kwh: Optional[float] = None,
) -> np.ndarray:
    """Smallest-change sequential clip keeping SOC inside its window.

    Clips each hour's power to the device limit, then to whatever keeps the
    running SOC within [soc_min, soc_max].  Self-discharge at the lower bound
    can force a trickle charge.
    """
    p = np.clip(np.asarray(powers_kw, dtype=float), -battery.p_max_kw, battery.p_max_kw)
    keep = 1.0 - battery.self_discharge_per_h * period_hours
    state = battery.soc_initial_kwh if soc_initial_kwh is None else soc_initial_kwh
    out = np.empty_like(p)
    for t in range(p.size):
        e_min = battery.soc_min_kwh - state * keep
        e_max = battery.soc_max_kwh - state * keep
        e = battery.eta_charge * period_hours * max(p[t], 0.0) + period_hours * min(p[t], 0.0) / battery.eta_discharge
        e = min(max(e, e_min), e_max)
        if e >= 0:
            out[t] = e / (battery.eta_charge * period_hours)
        else:
            out[t] = e * battery.eta_discharge / period_hours
        out[t] = min(max(out[t], -battery.p_max_kw), battery.p_max_kw)
        e = battery.eta_charge * period_hours * max(out[t], 0.0) + period_hours * min(out[t], 0.0) / battery.eta_discharge
        state = state * keep + e
    return out


def grid_feasibility(
    grid_limit_kw: float,
    slack_kw: Sequence[float],
    export_limit_kw: Optional[float] = None,
    tol: float = 1e-9,
) -> List[Violation]:
    """Grid-tie violations of an hourly exchange series.

    Import is bounded by grid_limit_kw; export by export_limit_kw, which
    defaults to the same magnitude (symmetric tie).
    """
    limit_out = grid_limit_kw if export_limit_kw is None else export_limit_kw
    violations: List[Violation] = []
    for t, value in enumerate(np.asarray(slack_kw, dtype=float)):
        if value > grid_limit_kw + tol:
            violations.append(Violation(t, "grid_import", value - grid_limit_kw))
        elif -value > limit_out + tol:
            violations.append(Violation(t, "grid_export", -value - limit_out))
    return violations


def unit_feasibility(
    units: Sequence[DgUnit],
    setpoints: np.ndarray,
    caps: np.ndarray,
    tol: float = 1e-6,
) -> List[Violation]:
    """Dispatch-window violations per unit-hour.

    caps holds the hour-dependent upper bound (availability for renewables,
    p_max otherwise).  Committable units may sit at zero; anything strictly
    between zero and p_min violates the commitment window.
    """
    violations: List[Violation] = []
    for i, unit in enumerate(units):
        scale = max(1.0, unit.p_max_kw)
        for t in range(setpoints.shape[1]):
            p = setpoints[i, t]
            if p < -tol * scale:
                violations.append(Violation(t, f"{unit.name}_min", -p))
            elif p > caps[i, t] + tol * scale:
                violations.append(Violation(t, f"{unit.name}_max", p - caps[i, t]))
            elif unit.committable and COMMIT_EPS < p < unit.p_min_kw - tol * scale:
                violations.append(Violation(t, f"{unit.name}_commit", unit.p_min_kw - p))
    return violations


def restoration(
    case: MicrogridCase,
    schedule: Optional[DispatchSchedule],
    hour: int,
    islanded: frozenset,
    repair_hours: float,
    soc_kwh: Optional[float] = None,
) -> Tuple[float, float, float]:
    """Restoration cascade for one islanding event at one hour.

    Returns (S_out, S_rdg, S_rst): islanded demand, the part in-island DG
    headroom can pick up, and the part the battery can sustain for the repair
    duration.  ``soc_kwh`` overrides the schedule-derived end-of-period SOC.
    """
    s_out = sum(lp.profile_kw[hour] for lp in case.load_points if lp.bus in islanded)
    s_rdg = min(s_out, sum(case.unit_cap_kw(unit, hour) for unit in case.units if unit.bus in islanded))
    s_rst = 0.0
    battery = case.battery
    if battery is not None and battery.bus in islanded:
        if soc_kwh is None:
            powers = schedule.battery_power if schedule is not None else np.zeros(case.horizon)
            soc_kwh = float(soc_trajectory(battery, powers, case.period_hours)[hour])
        energy_limited = max(0.0, soc_kwh - battery.soc_min_kwh) / repair_hours
        s_rst = min(s_out - s_rdg, battery.p_max_kw, energy_limited)
        s_rst = max(0.0, s_rst)
    return s_out, s_rdg, s_rst


def contingency_rows(case: MicrogridCase, schedule: Optional[DispatchSchedule] = None) -> List[Dict]:
    """Per-contingency, per-hour restoration breakdown for reporting."""
    soc = None
    if case.battery is not None:
        powers = schedule.battery_power if schedule is not None else np.zeros(case.horizon)
        soc = soc_trajectory(case.battery, powers, case.period_hours)
    rows: List[Dict] = []
    for cont in case.contingencies:
        islanded = island_partition(case, cont.element)
        for t in range(case.horizon):
            s_out, s_rdg, s_rst = restoration(
                case, schedule, t, islanded, cont.repair_hours,
                soc_kwh=None if soc is None else float(soc[t]),
            )
            shortfall = max(0.0, s_out - s_rdg - s_rst)
            mix = 0.0
            if s_out > 0:
                for lp in case.load_points:
                    if lp.bus in islanded:
                        price = case.outage_costs.cost(lp.category, cont.repair_hours)
                        mix += price * lp.profile_kw[t] / s_out
            rows.append(
                {
                    "contingency": cont.id,
                    "hour": t,
                    "islanded_kw": s_out,
                    "dg_restored_kw": s_rdg,
                    "battery_restored_kw": s_rst,
                    "shortfall_kw": shortfall,
                    "expected_cost_ct": cont.rate_per_hour * case.period_hours * cont.repair_hours * mix * shortfall,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# scalar objectives and single-hour power flow


def solve_hour(
    case: MicrogridCase,
    schedule: Optional[DispatchSchedule] = None,
    hour: int = 0,
    net: Optional[CompiledNetwork] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> PowerFlowSolution:
    """Solve a single hour; the result has horizon 1 and carries the
    sweep's convergence flags rather than raising."""
    net = net or compile_network(case)
    s = consumption_from_schedule(case, schedule, net)[:, hour : hour + 1]
    return package_solution(net, sweep(net, s, max_iterations))


def dg_cost(unit: DgUnit, p_kw: float, committed: Optional[bool] = None) -> float:
    """Hourly running cost of one unit, ct/h.

    A decommitted unit costs nothing; commitment defaults to p > 0.
    """
    if p_kw < -COMMIT_EPS or p_kw > unit.p_max_kw + max(1e-9, 1e-9 * unit.p_max_kw):
        raise ValueError(f"setpoint {p_kw} outside [0, {unit.p_max_kw}] for unit {unit.name}")
    if committed is None:
        committed = p_kw > COMMIT_EPS
    if not committed:
        return 0.0
    return unit.cost_slope_ct_per_kwh * p_kw + unit.cost_fixed_ct_per_h


def contingency_cost(evaluator: ContingencyEvaluator, soc_kwh: Optional[np.ndarray]) -> float:
    """Expected unsupplied-energy cost of one SOC trajectory over the horizon,
    ct; None holds the battery at its initial SOC (zeros without a battery)."""
    if soc_kwh is None:
        battery = evaluator.case.battery
        soc_kwh = np.full(evaluator.case.horizon, 0.0 if battery is None else battery.soc_initial_kwh)
    return float(evaluator.cost_batch(np.atleast_2d(soc_kwh))[0])


def unsupplied_energy_cost(
    case: MicrogridCase,
    schedule: Optional[DispatchSchedule] = None,
    soc_kwh: Optional[np.ndarray] = None,
    evaluator: Optional[ContingencyEvaluator] = None,
) -> float:
    """Expected outage cost of a schedule over the horizon, ct."""
    if soc_kwh is None and case.battery is not None:
        powers = schedule.battery_power if schedule is not None else np.zeros(case.horizon)
        soc_kwh = soc_trajectory(case.battery, powers, case.period_hours)
    evaluator = evaluator or ContingencyEvaluator(case)
    return contingency_cost(evaluator, None if case.battery is None else soc_kwh)


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


# ---------------------------------------------------------------------------
# Dispatch problem


def all_bus_kernel(
    problem, X: np.ndarray, large: float = 1e9
) -> Tuple[Dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """(values, violation, ok, vmag) of signed plans as the package's kernel
    had them before it read the injection buses alone: magnitudes at every
    bus, the loss summed over the branch currents, the voltage violation
    summed over every bus, and ``nan_to_num`` ahead of the choice that drops
    failed plans.  ``large`` is the stand-in score of a failed plan."""
    p_units, p_batt, shift = problem.unpack(X)
    chg, dis = np.maximum(p_batt, 0.0), np.maximum(-p_batt, 0.0)
    B, T, net = p_batt.shape[0], problem.T, problem.net
    cons = subtract_at_consumption(problem, p_units, chg - dis, shift)
    res = sweep(net, cons.reshape(net.n_bus, B * T))
    with np.errstate(invalid="ignore"):
        vmag = np.abs(res.voltage).reshape(net.n_bus, B, T)
    slack_s = res.voltage[net.slack] * np.conj(res.slack_current)
    slack_kw = slack_s.real.reshape(B, T) * problem.s_base
    loss_pu = (np.abs(res.branch_current) ** 2 * net.z_pu.real[:, np.newaxis]).sum(axis=0)
    loss_kw = loss_pu.reshape(B, T) * problem.s_base
    ok = res.converged.reshape(B, T).all(axis=1)
    soc = problem.soc_split(chg, dis)
    hourly_cost = problem._hourly_cost(p_units, slack_kw, chg + dis, shift)
    hourly_vdev = np.abs(1.0 - vmag[problem.load_idx]).sum(axis=0)
    with np.errstate(invalid="ignore"):
        values = {
            "cost": np.where(ok, np.nan_to_num(hourly_cost, nan=large).sum(axis=1), large),
            "loss": np.where(ok, np.nan_to_num(loss_kw, nan=large).sum(axis=1) * problem.dt, large),
            "ens": problem.evaluator.cost_batch(soc),
            "vdev": np.where(ok, np.nan_to_num(hourly_vdev, nan=large).sum(axis=1), large),
        }
        v_low = np.maximum(0.0, problem.vmin - vmag).sum(axis=(0, 2))
        v_high = np.maximum(0.0, vmag - problem.vmax).sum(axis=(0, 2))
        g_in = np.maximum(0.0, slack_kw - problem.import_limit).sum(axis=1) / problem.s_base
        g_out = np.maximum(0.0, -slack_kw - problem.export_limit).sum(axis=1) / problem.s_base
        violation = np.where(ok, np.nan_to_num(v_low + v_high + g_in + g_out, nan=large), large)
    return values, violation, ok, vmag


def grid_unit_options(problem) -> List[List[np.ndarray]]:
    """Per unit, its hourly setpoint series on the DP's grid."""
    case, T = problem.case, problem.T
    options = []
    for unit in case.units:
        caps = np.array([case.unit_cap_kw(unit, t) for t in range(T)])
        if unit.renewable:
            options.append([caps, caps / 2.0])
        else:
            levels = [np.zeros(T)]
            for k in range(5):
                levels.append(np.array([
                    unit.p_min_kw + k / 4.0 * (cap - unit.p_min_kw) if cap >= unit.p_min_kw else 0.0 for cap in caps
                ]))
            options.append(levels)
    return options


def grid_plan_score(problem, slopes: Dict[str, float], x: np.ndarray) -> float:
    """A signed plan's score as ``grid_minimum`` prices it: the slopes times
    the cost, loss and vdev of ``problem.metrics`` and the ens slope times
    ``outage_cost_loop`` on the plan's SOC from ``soc_loop``."""
    case, b = problem.case, problem.case.battery
    m = problem.metrics(x)
    score = sum(coeff * float(m.values[key][0]) for key, coeff in slopes.items() if key != "ens")
    if slopes.get("ens"):
        powers = problem.schedule(x).battery_power
        soc = None if b is None else np.array(
            soc_loop(b.soc_initial_kwh, powers, b.eta_charge, b.eta_discharge, b.self_discharge_per_h, case.period_hours))
        score += slopes["ens"] * outage_cost_loop(case, soc)
    return score


def grid_minimum(problem, slopes: Dict[str, float]) -> Tuple[float, np.ndarray]:
    """(score, signed plan) of the best plan on the DP's grid of a short
    case, by enumeration.

    The grid holds each renewable at its hourly cap or half of it, every
    other unit off or at 5 evenly spaced points of [p_min, cap] (off where
    the cap is below p_min) and the battery at 21 levels from -p_max to
    p_max.  Every (combination, level) pair is held through the whole
    horizon and scored by ``problem.metrics`` at the sweep's default
    tolerance; it counts in an hour where that hour converged and every
    bus voltage and the grid exchange lie inside the limits.  Every battery
    path, one level per hour, whose ``soc_loop`` SOC stays in the window is
    then priced as in ``grid_plan_score``: each hour's least feasible
    point, plus the ens slope times ``outage_cost_loop``.
    """
    case, T, b = problem.case, problem.T, problem.case.battery
    combos = list(itertools.product(*grid_unit_options(problem)))
    levels = [0.0] if b is None else [b.p_max_kw * k / 10.0 for k in range(-10, 11)]
    pairs = list(itertools.product(range(len(combos)), range(len(levels))))
    X = np.zeros((len(pairs), problem.n))
    for row, (c, level) in enumerate(pairs):
        B = problem.blocks(X[row])[0]
        for i, series in enumerate(combos[c]):
            B[i] = series
        B[problem.n_units] = levels[level]
    m = problem.metrics(X)
    vmin, vmax = case.voltage_limits
    with np.errstate(invalid="ignore"):
        inside = ((m.vmag >= vmin) & (m.vmag <= vmax)).all(axis=0)
        inside &= (m.slack_kw <= case.grid_limit_kw) & (-m.slack_kw <= case.effective_export_limit_kw)
    feasible = m.converged & inside
    hourly = {"cost": m.hourly_cost, "loss": m.hourly_loss_kw * case.period_hours, "vdev": m.hourly_vdev}
    value = np.zeros((len(pairs), T))
    for key, coeff in slopes.items():
        if key != "ens":
            value += coeff * hourly[key]
    value = np.where(feasible, value, np.inf).reshape(len(combos), len(levels), T)
    best_combo = value.argmin(axis=0)
    best = value.min(axis=0)

    best_score, best_path = np.inf, None
    for path in itertools.product(range(len(levels)), repeat=T):
        stage = sum(best[level, t] for t, level in enumerate(path))
        if not np.isfinite(stage):
            continue
        soc = None
        if b is not None:
            powers = [levels[level] for level in path]
            soc = soc_loop(b.soc_initial_kwh, powers, b.eta_charge, b.eta_discharge, b.self_discharge_per_h,
                           case.period_hours)
            if min(soc) < b.soc_min_kwh or max(soc) > b.soc_max_kwh:
                continue
            soc = np.array(soc)
        score = stage + slopes.get("ens", 0.0) * outage_cost_loop(case, soc)
        if score < best_score:
            best_score, best_path = score, path
    if best_path is None:
        return np.inf, None
    x = np.zeros(problem.n)
    B = problem.blocks(x)[0]
    for t, level in enumerate(best_path):
        for i, series in enumerate(combos[best_combo[level, t]]):
            B[i, t] = series[t]
        B[problem.n_units, t] = levels[level]
    return best_score, x


def streamed_stage_minima(problem, specs: Sequence) -> Optional[List[StageMinima]]:
    """Each spec's ``StageMinima``, scored as the package did before it
    stored the stage table: batches of whole combinations at every level,
    keeping only each spec's running minima over them; on ties the earlier
    combination stays.  None past the column cap."""
    levels = problem._battery_levels()
    L, T = levels.size, problem.T
    grid = problem._unit_grid(L)
    if grid is None:
        return None
    per_batch = max(1, STAGE_BATCH_PLANS // L)
    slopes = [spec.slopes() for spec in specs]
    tables = [StageMinima(levels, np.full((L, T), np.inf), np.zeros((L, problem.n_units, T))) for _ in specs]
    power = np.broadcast_to(levels[:, np.newaxis], (L, T))
    unit, hour = np.arange(problem.n_units)[:, np.newaxis], np.arange(T)
    for start in range(0, len(grid), per_batch):
        combos = grid[start : start + per_batch]
        k = len(combos)
        # Plan j holds combination j // L at level j % L in every hour.
        p_batt = np.tile(power, (k, 1))
        m = problem._evaluate(np.repeat(combos, L, axis=0), np.maximum(p_batt, 0.0), np.maximum(-p_batt, 0.0),
                              None, vmag=False, tolerance=GA_TOLERANCE)
        feasible = (m.converged & (m.hourly_violation == 0.0)).reshape(k, L, T)
        hourly = {"cost": m.hourly_cost, "loss": m.hourly_loss_kw * problem.dt, "vdev": m.hourly_vdev}
        for table, slope in zip(tables, slopes):
            value = np.zeros((k * L, T))
            for key, coeff in slope.items():
                if key in hourly:
                    value += coeff * hourly[key]
            value = np.where(feasible, value.reshape(k, L, T), np.inf)
            pick = value.argmin(axis=0)
            low = np.take_along_axis(value, pick[np.newaxis], axis=0)[0]
            better = low < table.value
            table.value[better] = low[better]
            table.units[:] = np.where(better[:, np.newaxis], combos[pick[:, np.newaxis], unit, hour], table.units)
    return tables


def bisect_shift_projection(shift_bound: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Shift rows projected onto zero net energy inside the hourly box
    [-shift_bound, shift_bound], by bisection on the multiplier.

    Solves sum(clip(s - mu, lo, hi)) = 0 for mu; the sum is monotone in mu
    and the bracket endpoints clip every hour to one bound, so the residual
    after 80 halvings is at roundoff.
    """
    lo = -shift_bound[np.newaxis, :]
    hi = shift_bound[np.newaxis, :]
    s = np.clip(s, lo, hi)
    mu_lo = (s - hi).min(axis=1)
    mu_hi = (s - lo).max(axis=1)
    for _ in range(80):
        mu = 0.5 * (mu_lo + mu_hi)
        total = np.clip(s - mu[:, np.newaxis], lo, hi).sum(axis=1)
        mu_lo = np.where(total > 0, mu, mu_lo)
        mu_hi = np.where(total > 0, mu_hi, mu)
    mu = 0.5 * (mu_lo + mu_hi)
    return np.clip(s - mu[:, np.newaxis], lo, hi)


def subtract_at_consumption(problem, p_units: np.ndarray, p_net: np.ndarray, shift: Optional[np.ndarray]) -> np.ndarray:
    """Net bus consumption (n_bus, B, T) in pu at every bus, the unit
    injections scattered with ``np.subtract.at`` as the package once did."""
    case, net = problem.case, problem.net
    cons = np.repeat(load_consumption_pu(case, net)[:, np.newaxis, :], p_net.shape[0], axis=1)
    np.subtract.at(cons, problem.unit_bus, p_units.transpose(1, 0, 2) / problem.s_base)
    if problem.batt_bus is not None:
        cons[problem.batt_bus] += p_net / problem.s_base
    if shift is not None:
        cons += shift_distribution_pu(case, net)[:, np.newaxis, :] * shift[np.newaxis, :, :]
    return cons


# ---------------------------------------------------------------------------
# Plan-vector forms by block offsets: the unit blocks take the first
# n_units * T entries, the signed battery block (or the charge and then the
# discharge block of the split vector) follows, and the shift comes last.


def _unit_len(problem) -> int:
    return problem.n_units * problem.T


def offset_unpack(problem, X: np.ndarray):
    """(p_units, p_batt, shift) of signed plans."""
    p, u_len = problem, _unit_len(problem)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p_units = X[:, :u_len].reshape(X.shape[0], p.n_units, p.T)
    p_batt = X[:, u_len : u_len + p.T]
    shift = X[:, u_len + p.T :] if p.dr else None
    return p_units, p_batt, shift


def offset_pack(problem, schedule: DispatchSchedule) -> np.ndarray:
    parts = [schedule.dg_setpoints.reshape(-1), schedule.battery_power]
    if problem.dr:
        parts.append(schedule.dr_shift if schedule.dr_shift is not None else np.zeros(problem.T))
    return np.concatenate(parts)


def offset_schedule(problem, x: np.ndarray) -> DispatchSchedule:
    p_units, p_batt, shift = offset_unpack(problem, x)
    return DispatchSchedule(p_units[0].copy(), p_batt[0].copy(), shift[0].copy() if shift is not None else None)


def offset_signed_bounds(problem) -> Tuple[np.ndarray, np.ndarray]:
    p, u_len = problem, _unit_len(problem)
    lower, upper = np.zeros(p.n), np.zeros(p.n)
    upper[:u_len] = p.caps.reshape(-1)
    if p.case.battery is not None:
        lower[u_len : u_len + p.T] = -p.case.battery.p_max_kw
        upper[u_len : u_len + p.T] = p.case.battery.p_max_kw
    if p.dr:
        lower[u_len + p.T :] = -p.shift_bound
        upper[u_len + p.T :] = p.shift_bound
    return lower, upper


def offset_repair(problem, X: np.ndarray) -> np.ndarray:
    """The package's repair with its battery and shift projections borrowed."""
    p, u_len, T = problem, _unit_len(problem), problem.T
    X = np.clip(np.atleast_2d(np.asarray(X, dtype=float)), *offset_signed_bounds(p))
    for i, unit in enumerate(p.case.units):
        if unit.committable:
            block = X[:, i * T : (i + 1) * T]
            X[:, i * T : (i + 1) * T] = np.where(block < 0.5 * unit.p_min_kw, 0.0, np.clip(block, unit.p_min_kw, unit.p_max_kw))
    if p.case.battery is not None:
        X[:, u_len : u_len + T] = p._repair_battery(X[:, u_len : u_len + T])
    if p.dr:
        X[:, u_len + T :] = p._project_shift(X[:, u_len + T :])
    return X


def offset_seed_points(problem) -> np.ndarray:
    p, u_len, T = problem, _unit_len(problem), problem.T
    seeds = np.zeros((4, p.n))
    seeds[1, :u_len] = p.caps.reshape(-1)
    greedy = seeds[2]
    for i, unit in enumerate(p.case.units):
        if unit.committable:
            on = p.prices >= unit.cost_slope_ct_per_kwh + unit.cost_fixed_ct_per_h / unit.p_max_kw
            greedy[i * T : (i + 1) * T] = np.where(on, unit.p_max_kw, 0.0)
        else:
            greedy[i * T : (i + 1) * T] = np.where(p.prices >= unit.cost_slope_ct_per_kwh, p.caps[i], 0.0)
    if p.case.battery is not None:
        p_max = p.case.battery.p_max_kw
        order = np.argsort(p.prices, kind="stable")
        window, quarter = max(1, T // 6), max(1, T // 4)
        greedy[u_len + order[:window]] = p_max
        greedy[u_len + order[-window:]] = -p_max
        seeds[3, u_len : u_len + quarter] = p_max
        seeds[3, u_len + T - quarter : u_len + T] = -p_max
    if p.dr:
        thirds = np.argsort(p.prices, kind="stable")
        cut = T // 3
        greedy[u_len + T + thirds[:cut]] = p.shift_bound[thirds[:cut]]
        greedy[u_len + T + thirds[-cut:]] = -p.shift_bound[thirds[-cut:]]
    return offset_repair(p, seeds)


def offset_split_bounds(problem, commit: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    p, u_len, T = problem, _unit_len(problem), problem.T
    ns = u_len + 2 * T + (T if p.dr else 0)
    lower, upper = np.zeros(ns), np.zeros(ns)
    for i, unit in enumerate(p.case.units):
        block = slice(i * T, (i + 1) * T)
        if unit.committable:
            lower[block] = np.where(commit[i], unit.p_min_kw, 0.0)
            upper[block] = np.where(commit[i], unit.p_max_kw, 0.0)
        else:
            upper[block] = p.caps[i]
    upper[u_len : u_len + 2 * T] = 0.0 if p.case.battery is None else p.case.battery.p_max_kw
    if p.dr:
        lower[u_len + 2 * T :] = -p.shift_bound
        upper[u_len + 2 * T :] = p.shift_bound
    return lower, upper


def offset_split_from_signed(problem, x: np.ndarray) -> np.ndarray:
    u_len, T = _unit_len(problem), problem.T
    p_batt = x[u_len : u_len + T]
    return np.concatenate([x[:u_len], np.maximum(p_batt, 0.0), np.maximum(-p_batt, 0.0), x[u_len + T :]])


def offset_signed_from_split(problem, xs: np.ndarray) -> np.ndarray:
    u_len, T = _unit_len(problem), problem.T
    chg, dis = xs[u_len : u_len + T], xs[u_len + T : u_len + 2 * T]
    return np.concatenate([xs[:u_len], chg - dis, xs[u_len + 2 * T :]])


def offset_split_parts(problem, Xs: np.ndarray):
    """(p_units, chg, dis, shift) of split plans."""
    p, u_len, T = problem, _unit_len(problem), problem.T
    Xs = np.atleast_2d(Xs)
    p_units = Xs[:, :u_len].reshape(Xs.shape[0], p.n_units, T)
    shift = Xs[:, u_len + 2 * T :] if p.dr else None
    return p_units, Xs[:, u_len : u_len + T], Xs[:, u_len + T : u_len + 2 * T], shift


def offset_soc_jacobian(nlp) -> np.ndarray:
    """The split subproblem's affine SOC rows, soc_lo then soc_hi."""
    p, u_len, T = nlp.problem, _unit_len(nlp.problem), nlp.problem.T
    J = np.zeros((2 * T, nlp.n))
    J[:, u_len : u_len + T] = np.vstack([-p.M_c, p.M_c]) / nlp._soc_scale
    J[:, u_len + T : u_len + 2 * T] = np.vstack([p.M_d, -p.M_d]) / nlp._soc_scale
    return J


def offset_eq_jacobian(nlp) -> np.ndarray:
    """The shift-balance row under DR, none otherwise."""
    p = nlp.problem
    J_eq = np.zeros((int(p.dr), nlp.n))
    J_eq[:, _unit_len(p) + 2 * p.T :] = 1.0 / p.s_base
    return J_eq


# ---------------------------------------------------------------------------
# Per-unit loop forms: each unit's limits and on/off rule read from its
# record, one unit at a time, as the package did before it held the unit
# limits as arrays.  The on/off test here is repair's strict "below half the
# minimum is off" on one side and ``commitment_mask``'s "above half the
# minimum is on" on the other, so the two differ at exactly half.


def _unit_caps(problem, unit: DgUnit) -> np.ndarray:
    """A unit's hourly upper bound, read from the case one hour at a time."""
    return np.array([problem.case.unit_cap_kw(unit, t) for t in range(problem.T)])


def unit_loop_repair(problem, X: np.ndarray) -> np.ndarray:
    """The package's repair with its battery and shift projections borrowed."""
    X = np.clip(np.atleast_2d(np.asarray(X, dtype=float)), problem.lower, problem.upper)
    B = problem.blocks(X)
    for i, unit in enumerate(problem.case.units):
        if not unit.committable:
            continue
        p = B[:, i]
        cap = _unit_caps(problem, unit)
        B[:, i] = np.where(
            (p < 0.5 * unit.p_min_kw) | (cap < unit.p_min_kw), 0.0, np.clip(p, unit.p_min_kw, cap)
        )
    if problem.case.battery is not None:
        B[:, problem.n_units] = problem._repair_battery(B[:, problem.n_units])
    if problem.dr:
        B[:, -1] = problem._project_shift(B[:, -1])
    return X


def unit_loop_commitment_mask(problem, x: np.ndarray) -> np.ndarray:
    p_units = problem.unpack(x)[0][0]
    mask = np.ones((problem.n_units, problem.T), dtype=bool)
    for i, unit in enumerate(problem.case.units):
        if unit.committable:
            mask[i] = (p_units[i] > 0.5 * unit.p_min_kw) & (_unit_caps(problem, unit) >= unit.p_min_kw)
    return mask


def unit_loop_split_bounds(problem, commit: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    lower = np.zeros(problem.n + problem.T)
    upper = np.zeros(problem.n + problem.T)
    lo, up = problem.blocks(lower)[0], problem.blocks(upper)[0]
    for i, unit in enumerate(problem.case.units):
        if unit.committable:
            lo[i] = np.where(commit[i], unit.p_min_kw, 0.0)
            up[i] = np.where(commit[i], _unit_caps(problem, unit), 0.0)
        else:
            up[i] = problem.caps[i]
    p_batt = 0.0 if problem.case.battery is None else problem.case.battery.p_max_kw
    up[problem.n_units : problem.n_units + 2] = p_batt
    if problem.dr:
        lo[-1] = -problem.shift_bound
        up[-1] = problem.shift_bound
    return lower, upper


def unit_loop_seed_points(problem) -> np.ndarray:
    T = problem.T
    seeds = np.zeros((4, problem.n))
    S = problem.blocks(seeds)
    S[1, : problem.n_units] = problem.caps

    greedy = S[2]
    for i, unit in enumerate(problem.case.units):
        if unit.committable:
            breakeven = unit.cost_slope_ct_per_kwh + unit.cost_fixed_ct_per_h / unit.p_max_kw
            on = problem.prices >= breakeven
            greedy[i] = np.where(on, unit.p_max_kw, 0.0)
        else:
            on = problem.prices >= unit.cost_slope_ct_per_kwh
            greedy[i] = np.where(on, problem.caps[i], 0.0)
    if problem.case.battery is not None:
        order = np.argsort(problem.prices, kind="stable")
        window = max(1, T // 6)
        plan = np.zeros(T)
        plan[order[:window]] = problem.case.battery.p_max_kw
        plan[order[-window:]] = -problem.case.battery.p_max_kw
        greedy[problem.n_units] = plan
        quarter = max(1, T // 4)
        charge_up = np.zeros(T)
        charge_up[:quarter] = problem.case.battery.p_max_kw
        charge_up[-quarter:] = -problem.case.battery.p_max_kw
        S[3, problem.n_units] = charge_up
    if problem.dr:
        thirds = np.argsort(problem.prices, kind="stable")
        cut = T // 3
        shift = np.zeros(T)
        shift[thirds[:cut]] = problem.shift_bound[thirds[:cut]]
        shift[thirds[-cut:]] = -problem.shift_bound[thirds[-cut:]]
        greedy[-1] = shift
    return unit_loop_repair(problem, seeds)


def unit_loop_hourly_cost(
    problem, p_units: np.ndarray, slack_kw: np.ndarray, throughput_kw: np.ndarray, shift: Optional[np.ndarray]
) -> np.ndarray:
    """Operation cost per plan and hour, ct."""
    rate = np.zeros_like(slack_kw)
    for i in range(problem.n_units):
        p = p_units[:, i, :]
        rate += np.where(p > COMMIT_EPS, problem.slopes[i] * p + problem.fixed[i], 0.0)
    rate += problem.prices[np.newaxis, :] * slack_kw
    if problem.case.battery is not None:
        rate += problem.case.battery.usage_cost_ct_per_kwh * throughput_kw
    if shift is not None and problem.case.dr is not None:
        rate += problem.case.dr.incentive_ct_per_kwh * np.maximum(shift, 0.0)
    return rate * problem.dt


def truncated_case(case: MicrogridCase, horizon: int, start: int = 0) -> MicrogridCase:
    """The case over ``horizon`` hours from hour ``start``, its first by default."""
    hours = slice(start, start + horizon)
    return validate_case(
        replace(
            case,
            horizon=horizon,
            prices_ct_per_kwh=case.prices_ct_per_kwh[hours],
            availability_kw={name: series[hours] for name, series in case.availability_kw.items()},
            load_points=tuple(replace(lp, profile_kw=lp.profile_kw[hours]) for lp in case.load_points),
        )
    )


def epigraph_objective(nlp, z: np.ndarray) -> float:
    """The split subproblem's objective at z = [xs | e], rebuilt one
    load-bus-hour at a time: a kink cell adds its e, any other cell its
    |1 - V|.  With every e at |1 - V| it is the plan's own score."""
    p = nlp.problem
    xs, e = z[: nlp.n_split], z[nlp.n_split :]
    m = p.split_eval(xs[np.newaxis, :])
    kinks = [int(b) * p.T + int(t) for b, t in zip(nlp._kink_bus, nlp._kink_hour)]
    vdev = 0.0
    for b in p.load_idx:
        for t in range(p.T):
            cell = int(b) * p.T + t
            vdev += e[kinks.index(cell)] if cell in kinks else abs(1.0 - m.vmag[b, 0, t])
    values = {key: float(v[0]) for key, v in m.values.items()}
    values["vdev"] = vdev
    return nlp.spec.scalar(values)


def split_differences(nlp, xs: np.ndarray) -> Tuple[Dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """What ``_SplitDispatchNlp._sensitivities`` returns, by batched central
    differences, as the package once took it: objective gradients (of
    vdev's smooth term), d(slack_kw) (T, ns) and d(vmag) at the carried
    voltage rows' cells, then at the kink cells (cells, ns), of the split
    plan ``xs``, with steps of DEFAULT_REL_STEP.

    Perturbing every free hour of one block at once still isolates each
    partial, because hour t of any network quantity depends only on hour
    t of the plan; so a voltage cell at hour t has one nonzero column per
    block.  The outage cost is the exception; it chains through the
    affine SOC map instead.
    """
    p = nlp.problem
    T, ns = p.T, xs.size
    free = p.blocks(~pinned_mask(nlp.lower[:ns], nlp.upper[:ns]))[0]
    column = p.blocks(np.arange(ns))[0]
    h = DEFAULT_REL_STEP * np.maximum(1.0, np.abs(xs))
    bus = np.concatenate([nlp._volt_bus, nlp._kink_bus])
    hour = np.concatenate([nlp._volt_hour, nlp._kink_hour])

    # One perturbation pair per block with a free hour; a case without a
    # battery pins its charge and discharge blocks, so they have none.
    moved = [b for b in range(len(free)) if free[b].any()]
    X = np.empty((2 * len(moved), ns))
    for k, b in enumerate(moved):
        mask = np.zeros_like(free)
        mask[b] = free[b]
        step = np.where(mask.reshape(-1), h, 0.0)
        X[2 * k] = xs + step
        X[2 * k + 1] = xs - step
    data = p.split_eval(X) if moved else None
    hourly_vdev = nlp._hourly_vdev(data.vmag) if moved else None

    grads = {key: np.zeros(ns) for key in OBJECTIVE_KEYS}
    d_cells = np.zeros((bus.size, ns))
    d_slack = np.zeros((T, ns))
    for k, b in enumerate(moved):
        hours = np.nonzero(free[b])[0]
        cols = column[b, hours]
        denom = 2.0 * h[cols]
        hi, lo_ = 2 * k, 2 * k + 1
        grads["cost"][cols] = (data.hourly_cost[hi, hours] - data.hourly_cost[lo_, hours]) / denom
        grads["loss"][cols] = (data.hourly_loss_kw[hi, hours] - data.hourly_loss_kw[lo_, hours]) * p.dt / denom
        grads["vdev"][cols] = (hourly_vdev[hi, hours] - hourly_vdev[lo_, hours]) / denom
        d_slack[hours, cols] = (data.slack_kw[hi, hours] - data.slack_kw[lo_, hours]) / denom
        r = np.flatnonzero(free[b, hour])
        c = column[b, hour[r]]
        d_cells[r, c] = (data.vmag[bus[r], hi, hour[r]] - data.vmag[bus[r], lo_, hour[r]]) / (2.0 * h[c])

    if p.case.battery is not None:
        soc = p.split_eval(xs[np.newaxis, :]).soc_kwh[0]
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


def dense_vmag_differences(nlp, xs: np.ndarray) -> np.ndarray:
    """d(vmag)/dx (n_bus, T, ns) of a split subproblem at every bus and hour,
    by the package's batched central differences, as the package once built
    it before it kept only the carried voltage rows."""
    p = nlp.problem
    T, ns = p.T, xs.size
    free = ~pinned_mask(nlp.lower, nlp.upper)
    h = DEFAULT_REL_STEP * np.maximum(1.0, np.abs(xs))
    u_len = p.n_units * T
    starts = [u * T for u in range(p.n_units)]
    if p.case.battery is not None:
        starts += [u_len, u_len + T]
    if p.dr:
        starts.append(u_len + 2 * T)
    masks = []
    for start in starts:
        mask = np.zeros(ns, dtype=bool)
        mask[start : start + T] = free[start : start + T]
        if mask.any():
            masks.append((start, mask))
    # One batch, as in the package: a sweep column's rounding depends on
    # how long its batch iterates.
    X = np.vstack([z for _, mask in masks for z in (xs + np.where(mask, h, 0.0), xs - np.where(mask, h, 0.0))])
    vmag = p.split_eval(X).vmag
    d_vmag = np.zeros((p.net.n_bus, T, ns))
    for bi, (start, mask) in enumerate(masks):
        hours = np.nonzero(mask[start : start + T])[0]
        cols = start + hours
        d_vmag[:, hours, cols] = (vmag[:, 2 * bi, hours] - vmag[:, 2 * bi + 1, hours]) / (2.0 * h[cols])
    return d_vmag


# ---------------------------------------------------------------------------
# Tuple-tagged network rows of the split-battery subproblem: ("soc_lo", t),
# ("soc_hi", t), ("imp", t), ("exp", t), ("v_lo", b, t) and ("v_hi", b, t),
# built and read back one row at a time.


def tuple_voltage_rows(problem, low: np.ndarray, high: np.ndarray) -> List[Tuple]:
    """Lower- then upper-voltage rows where the (bus, hour) masks hold."""
    rows: List[Tuple] = []
    for kind, mask in (("v_lo", low), ("v_hi", high)):
        for b, t in zip(*np.nonzero(mask)):
            if b != problem.net.slack:
                rows.append((kind, int(b), int(t)))
    return rows


def tuple_screen_rows(problem, vmag: np.ndarray, voltage_margin: float = 0.02) -> List[Tuple]:
    """Constraint rows worth carrying in the smooth subproblem."""
    rows: List[Tuple] = []
    if problem.case.battery is not None:
        rows.extend(("soc_lo", t) for t in range(problem.T))
        rows.extend(("soc_hi", t) for t in range(problem.T))
    rows.extend(("imp", t) for t in range(problem.T))
    if np.isfinite(problem.export_limit):
        rows.extend(("exp", t) for t in range(problem.T))
    near_lo = vmag < problem.vmin + voltage_margin
    near_hi = vmag > problem.vmax - voltage_margin
    rows.extend(tuple_voltage_rows(problem, near_lo, near_hi))
    return rows


def tuple_violated_rows(problem, vmag: np.ndarray, slack_kw: np.ndarray, tol: float = 1e-9) -> List[Tuple]:
    """All network rows a single plan violates beyond tol."""
    rows = tuple_voltage_rows(problem, vmag < problem.vmin - tol, vmag > problem.vmax + tol)
    for t in np.nonzero(slack_kw > problem.import_limit + tol * problem.s_base)[0]:
        rows.append(("imp", int(t)))
    if np.isfinite(problem.export_limit):
        for t in np.nonzero(-slack_kw > problem.export_limit + tol * problem.s_base)[0]:
            rows.append(("exp", int(t)))
    return rows


def tuple_row_index(problem, row: Tuple) -> int:
    """Position of a tuple row in the package's row layout."""
    T, cells = problem.T, problem.net.n_bus * problem.T
    kind = row[0]
    if kind in ("soc_lo", "soc_hi", "imp", "exp"):
        return ("soc_lo", "soc_hi", "imp", "exp").index(kind) * T + row[1]
    return 4 * T + (cells if kind == "v_hi" else 0) + row[1] * T + row[2]


def _soc_scale(problem) -> float:
    battery = problem.case.battery
    return battery.soc_max_kwh - battery.soc_min_kwh if battery is not None else 1.0


def tuple_row_values(problem, rows: Sequence[Tuple], soc: np.ndarray, slack_kw: np.ndarray, vmag: np.ndarray) -> np.ndarray:
    """Constraint values c <= 0 of the rows at one evaluated point."""
    p = problem
    scale = _soc_scale(p)
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        kind = row[0]
        if kind == "soc_lo":
            out[i] = (p.case.battery.soc_min_kwh - soc[row[1]]) / scale
        elif kind == "soc_hi":
            out[i] = (soc[row[1]] - p.case.battery.soc_max_kwh) / scale
        elif kind == "imp":
            out[i] = (slack_kw[row[1]] - p.import_limit) / p.s_base
        elif kind == "exp":
            out[i] = (-slack_kw[row[1]] - p.export_limit) / p.s_base
        elif kind == "v_lo":
            out[i] = p.vmin - vmag[row[1], row[2]]
        else:
            out[i] = vmag[row[1], row[2]] - p.vmax
    return out


def tuple_row_jacobian(problem, rows: Sequence[Tuple], d_slack: np.ndarray, d_vmag: Optional[np.ndarray], ns: int) -> np.ndarray:
    """Jacobian of the rows from d(slack_kw)/dx (T, ns) and d(vmag)/dx (n_bus, T, ns)."""
    p = problem
    T = p.T
    u_len = p.n_units * T
    scale = _soc_scale(p)
    J_in = np.zeros((len(rows), ns))
    for i, row in enumerate(rows):
        kind = row[0]
        if kind == "soc_lo":
            J_in[i, u_len : u_len + T] = -p.M_c[row[1]] / scale
            J_in[i, u_len + T : u_len + 2 * T] = p.M_d[row[1]] / scale
        elif kind == "soc_hi":
            J_in[i, u_len : u_len + T] = p.M_c[row[1]] / scale
            J_in[i, u_len + T : u_len + 2 * T] = -p.M_d[row[1]] / scale
        elif kind == "imp":
            J_in[i] = d_slack[row[1]] / p.s_base
        elif kind == "exp":
            J_in[i] = -d_slack[row[1]] / p.s_base
        elif kind == "v_lo":
            J_in[i] = -d_vmag[row[1], row[2]]
        else:
            J_in[i] = d_vmag[row[1], row[2]]
    return J_in


def active_guess(nlp, z: np.ndarray) -> Optional[Tuple[Tuple[str, int], ...]]:
    """The epigraph row each settled e sits on and the bounds z sits on, as
    QP tags: the warm start ``_SplitDispatchNlp`` once declared itself.

    Without kinks the first QP starts cold (None).
    """
    if not nlp._kink_bus.size:
        return None
    m, ne = nlp.rows.size, nlp._kink_bus.size
    envelope = m + np.arange(ne) + np.where(nlp._kink_dev(z) >= 0.0, 0, ne)
    return (
        tuple(("in", int(i)) for i in envelope)
        + tuple(("hi", int(j)) for j in np.flatnonzero(z >= nlp.upper))
        + tuple(("lo", int(j)) for j in np.flatnonzero(z <= nlp.lower))
    )
