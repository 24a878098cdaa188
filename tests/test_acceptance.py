"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states the tolerance it enforces.  The scenario-level checks
share the session-scoped suite fixture, so the module's own wall time
stays far inside the runtime budget the last test asserts.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from mgopt.ahp import derive_weights
from mgopt.cli import EXIT_OK, main as cli_main
from mgopt.devices import soc_trajectory
from mgopt.netmodel import Battery, benchmark_case_path
from mgopt.objectives import OBJECTIVE_KEYS
from mgopt.optimizer import SqpConfig, qp_subproblem, sqp_solve
from mgopt.powerflow import CompiledNetwork, compile_network, consumption_from_schedule, sweep

from oracles import (
    FunctionNlp,
    bounds_as_rows,
    branch_loss_pu,
    consistent_matrix,
    gauss_seidel_voltages,
    injection_balance_pu,
    qp_enumerate,
    random_qp,
    random_radial_network,
)

TABLE_KEYS = ("baseline",) + OBJECTIVE_KEYS + ("weighted",)

FAST_FLAGS = [
    "--ga-population", "12",
    "--ga-generations", "8",
    "--polish-sweeps", "1",
    "--refine-rounds", "2",
]

RUN_FILES = ("case.yaml", "config.json", "schedule.csv", "objectives.json", "trace.csv", "seed.txt")


def _compiled(n_bus, branches):
    """CompiledNetwork from (parent, child, z) tuples with parent < child."""
    ordered = sorted(branches, key=lambda br: -br[1])
    ids = tuple(str(i) for i in range(n_bus))
    return CompiledNetwork(
        bus_ids=ids,
        bus_index={b: i for i, b in enumerate(ids)},
        slack=0,
        branch_ids=tuple(f"l{c}" for _, c, _ in ordered),
        parent=np.array([p for p, _, _ in ordered], dtype=int),
        child=np.array([c for _, c, _ in ordered], dtype=int),
        z_pu=np.array([z for _, _, z in ordered]),
        s_base_kw=100.0,
    )


def _objective(suite, scenario, key):
    return suite.results[scenario].objectives.as_dict()[key]


def test_criterion_01_sweep_matches_fixed_point_reference():
    """24 random radial networks (<= 5 buses) agree with an independent
    Gauss-Seidel solve within 1e-8 pu, all inside one second."""
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for _ in range(24):
        n, branches, s = random_radial_network(rng)
        result = sweep(_compiled(n, branches), s)
        assert result.converged.all()
        reference = gauss_seidel_voltages(n, branches, s)
        assert np.abs(result.voltage[:, 0] - reference).max() < 1e-8
    assert time.perf_counter() - start < 1.0


def test_criterion_02_loss_identity_on_converged_solves(suite):
    """Sum of per-branch series losses equals the injection-balance residual
    within 1e-8 pu, on random networks and on every scheduled solve."""
    rng = np.random.default_rng(22)
    for _ in range(20):
        n, branches, s = random_radial_network(rng)
        result = sweep(_compiled(n, branches), s)
        assert result.converged.all()
        v = result.voltage[:, 0]
        assert abs(branch_loss_pu(v, branches) - injection_balance_pu(v, branches, s)) < 1e-8

    net = compile_network(suite.case)
    branches = list(zip(net.parent.tolist(), net.child.tolist(), net.z_pu.tolist()))
    for key, res in suite.results.items():
        s = consumption_from_schedule(suite.case, res.schedule, net)
        result = sweep(net, s)
        assert result.converged.all(), key
        for t in range(suite.case.horizon):
            v = result.voltage[:, t]
            gap = abs(branch_loss_pu(v, branches) - injection_balance_pu(v, branches, s[:, t]))
            assert gap < 1e-8, (key, t)


def test_criterion_03_state_of_charge_properties():
    """Unit-efficiency trajectories conserve energy exactly, a charge and
    matched discharge recover eta_c*eta_d within 1e-12, and the three
    single-step reference trajectories are reproduced exactly."""
    lossless = Battery(
        bus="f1-1", soc_min_kwh=0.0, soc_max_kwh=1000.0, soc_initial_kwh=50.0,
        p_max_kw=100.0, eta_charge=1.0, eta_discharge=1.0, self_discharge_per_h=0.0,
    )
    rng = np.random.default_rng(33)
    for _ in range(20):
        p = rng.uniform(-10.0, 10.0, 24)
        soc = soc_trajectory(lossless, p)
        total = 50.0
        for value in p:
            total += value
        assert soc[-1] == total

    for eta_c, eta_d in ((0.9, 0.9), (0.8, 0.95), (0.7, 0.7)):
        battery = replace(lossless, eta_charge=eta_c, eta_discharge=eta_d)
        stored = soc_trajectory(battery, [5.0])[0] - 50.0
        back = soc_trajectory(battery, [5.0, -stored * eta_d])
        assert abs(back[1] - 50.0) < 1e-12
        assert abs(stored * eta_d - 5.0 * eta_c * eta_d) < 1e-12

    charge = replace(lossless, soc_initial_kwh=20.0)
    assert soc_trajectory(charge, [4.0])[0] == 24.0
    drain = replace(lossless, soc_initial_kwh=20.0, eta_discharge=0.9)
    assert soc_trajectory(drain, [-4.0])[0] == 20.0 - 4.0 / 0.9
    idle = replace(lossless, soc_initial_kwh=40.0, self_discharge_per_h=0.01)
    soc = soc_trajectory(idle, np.zeros(24))
    state = 40.0
    for t in range(24):
        state = state * 0.99
        assert soc[t] == state


def test_criterion_04_qp_solver_matches_enumeration():
    """200 random convex QPs (n <= 6, m <= 4) match exhaustive active-set
    enumeration within 1e-6, all inside ten seconds."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(200):
        H, g, A, b, G, h, lower, upper = random_qp(rng)
        G_all, h_all = bounds_as_rows(G, h, lower, upper)
        expected = qp_enumerate(H, g, A, b, G_all, h_all)
        assert expected is not None
        result = qp_subproblem(H, g, A=A, b=b, G=G if G.size else None,
                               h=h if h.size else None, lower=lower, upper=upper)
        if result.elastic:
            assert result.max_slack < 1e-7
        assert np.abs(result.d - expected).max() < 1e-6
    assert time.perf_counter() - start < 10.0


def test_criterion_05_nonlinear_solver_reference_problems():
    """min x1+x2 on the unit circle reaches (-sqrt2/2, -sqrt2/2) within 1e-6
    in at most 30 iterations; the strictly convex quadratic, whose first
    step is an exact Newton step, needs at most two."""
    box = np.full(2, -10.0), np.full(2, 10.0)
    circle = FunctionNlp(
        lambda x: float(x[0] + x[1]), *box,
        eq=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
    )
    result = sqp_solve(circle, np.array([1.0, 0.0]), SqpConfig(tol_kkt=1e-8))
    assert result.converged
    assert result.iterations <= 30
    assert np.abs(result.x - (-np.sqrt(2.0) / 2.0)).max() < 1e-6

    b = np.array([0.3, -1.7, 2.5])
    quadratic = FunctionNlp(
        lambda x: 0.5 * float(x @ x) - float(b @ x), np.full(3, -10.0), np.full(3, 10.0)
    )
    result = sqp_solve(quadratic, np.zeros(3))
    assert result.converged
    assert result.iterations <= 2
    assert np.abs(result.x - b).max() == 0.0


def test_criterion_06_each_scenario_dominates_its_own_objective(suite):
    """Scenario k's objective k is the smallest of that column across the
    initial state and every other scenario, within 1e-6 relative."""
    for key in OBJECTIVE_KEYS:
        own = _objective(suite, key, key)
        for other in TABLE_KEYS:
            if other == key:
                continue
            rival = _objective(suite, other, key)
            assert own <= rival * (1.0 + 1e-6) + 1e-12, (key, other)


def test_criterion_07_weighted_solution_between_extremes(suite):
    """Each objective at the weighted solution lies between that objective's
    single-scenario optimum and its initial-state value, within 1e-6
    relative."""
    for key in OBJECTIVE_KEYS:
        value = _objective(suite, "weighted", key)
        best = _objective(suite, key, key)
        initial = _objective(suite, "baseline", key)
        assert value >= best - 1e-6 * max(1.0, abs(best)), key
        assert value <= initial + 1e-6 * max(1.0, abs(initial)), key


def test_criterion_08_demand_response_dominates_fixed_load(suite):
    """Load shifting enlarges the feasible set, so the with-shift weighted
    total never exceeds the fixed-load one, and on the benchmark (15 %
    shiftable) the operation cost strictly decreases."""
    assert suite.case.dr is not None
    assert suite.case.dr.shiftable_fraction == 0.15
    assert suite.totals["dr"] <= suite.totals["weighted"] * (1.0 + 1e-9) + 1e-12
    assert _objective(suite, "dr", "cost") < _objective(suite, "weighted", "cost")


def test_criterion_09_refinement_never_worse_than_seed(suite):
    """Every optimised scenario ends at or below its GA seed value."""
    checked = 0
    for key, res in suite.results.items():
        if res.ga_value is None:
            continue
        assert res.value is not None, key
        assert res.value <= res.ga_value + 1e-12, key
        checked += 1
    assert checked >= 5


def test_criterion_10_weight_recovery_from_consistent_judgments():
    """A perfectly consistent pairwise matrix returns its generating weights
    within 1e-6 with a consistency ratio of zero."""
    target = np.array([0.157, 0.483, 0.272, 0.088])
    target = target / target.sum()
    weights, ratio = derive_weights(consistent_matrix(target))
    assert np.abs(np.asarray(weights) - target).max() < 1e-6
    assert ratio == pytest.approx(0.0, abs=1e-9)


def test_criterion_11_same_seed_runs_are_byte_identical(tmp_path):
    """Repeating an optimize invocation with one seed reproduces every
    output file byte for byte."""
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main([
            "optimize", benchmark_case_path(), "--scenario", "5", "--dr",
            "--seed", "3", "--out", str(out), *FAST_FLAGS,
        ])
        assert code == EXIT_OK
        outputs.append(out)
    for file in RUN_FILES:
        assert (outputs[0] / file).read_bytes() == (outputs[1] / file).read_bytes(), file


def test_criterion_12_full_suite_runtime(suite):
    """The complete scenario suite, demand response included, runs in well
    under ten minutes."""
    assert set(suite.results) == set(TABLE_KEYS) | {"dr"}
    assert suite.elapsed_s < 600.0
