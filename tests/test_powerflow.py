import copy
import math

import numpy as np
import pytest

import mgopt.powerflow as powerflow
from mgopt.devices import DispatchSchedule, zero_schedule
from mgopt.optimizer.problem import GA_TOLERANCE
from mgopt.powerflow import (
    CompiledNetwork,
    ConvergenceError,
    InjectionSet,
    VoltageCollapseError,
    compile_network,
    consumption_from_schedule,
    load_consumption_pu,
    package_solution,
    shift_distribution_pu,
    solve_horizon,
    sweep,
)

from oracles import (
    branch_loss_pu,
    gauss_seidel_voltages,
    injection_balance_pu,
    loop_sweep,
    random_feeder_with_empty_buses,
    random_radial_network,
    sectioned_case,
    solve_hour,
    two_bus_voltage,
)


def _compiled(n_bus, branches, s_base_kw=100.0):
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
        s_base_kw=s_base_kw,
    )


def test_two_bus_closed_form():
    net = _compiled(2, [(0, 1, 0.05 + 0.0j)])
    result = sweep(net, np.array([0.0, 0.1], dtype=complex))
    expected = (1.0 + math.sqrt(1.0 - 4 * 0.05 * 0.1)) / 2.0
    assert expected == 0.9949747468305833
    assert abs(result.voltage[1, 0].real - expected) < 1e-12
    assert abs(result.voltage[1, 0].imag) < 1e-12
    assert result.converged.all()


def test_two_bus_with_reactance_matches_fixed_point():
    net = _compiled(2, [(0, 1, 0.03 + 0.02j)])
    s = np.array([0.0, 0.2 + 0.1j])
    result = sweep(net, s)
    expected = two_bus_voltage(0.03, 0.02, 0.2, 0.1)
    assert abs(result.voltage[1, 0] - expected) < 1e-12


def test_sweep_matches_admittance_reference():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n, branches, s = random_radial_network(rng)
        net = _compiled(n, branches)
        result = sweep(net, s)
        assert result.converged.all()
        reference = gauss_seidel_voltages(n, branches, s)
        assert np.abs(result.voltage[:, 0] - reference).max() < 1e-8


def test_loss_identity_on_random_networks():
    rng = np.random.default_rng(202)
    for _ in range(25):
        n, branches, s = random_radial_network(rng)
        net = _compiled(n, branches)
        result = sweep(net, s)
        assert result.converged.all()
        v = result.voltage[:, 0]
        series = branch_loss_pu(v, branches)
        residual = injection_balance_pu(v, branches, s)
        assert abs(series - residual) < 1e-8


def test_loss_identity_on_benchmark(benchmark_case):
    net = compile_network(benchmark_case)
    s = load_consumption_pu(benchmark_case, net)
    result = sweep(net, s)
    assert result.converged.all()
    branches = list(zip(net.parent.tolist(), net.child.tolist(), net.z_pu.tolist()))
    for t in range(benchmark_case.horizon):
        v = result.voltage[:, t]
        series = branch_loss_pu(v, branches)
        residual = injection_balance_pu(v, branches, s[:, t])
        assert abs(series - residual) < 1e-8


def test_batch_equals_single_columns(benchmark_case):
    # Converged columns keep iterating until the whole batch settles, so
    # batch and single solves agree to the sweep tolerance, not bitwise.
    net = compile_network(benchmark_case)
    s = load_consumption_pu(benchmark_case, net)
    batch = sweep(net, s)
    for t in (0, 11, 23):
        single = sweep(net, s[:, t])
        assert np.abs(single.voltage[:, 0] - batch.voltage[:, t]).max() < 1e-9
        assert np.abs(single.branch_current[:, 0] - batch.branch_current[:, t]).max() < 1e-9


def test_slack_absorbs_loads_plus_losses(benchmark_case):
    solution = solve_horizon(benchmark_case)
    total_load = np.array(
        [benchmark_case.total_load_kw(t) for t in range(benchmark_case.horizon)]
    )
    assert np.abs(solution.slack_kw - total_load - solution.loss_kw).max() < 1e-6


def test_generation_raises_voltage_and_cuts_import(benchmark_case):
    base = solve_horizon(benchmark_case)
    schedule = zero_schedule(len(benchmark_case.units), benchmark_case.horizon)
    fc = [u.name for u in benchmark_case.units].index("FC")
    schedule.dg_setpoints[fc, :] = 40.0
    gen = solve_horizon(benchmark_case, schedule)
    assert gen.slack_kw.max() < base.slack_kw.max()
    assert gen.bus_voltage("f2-4").min() > base.bus_voltage("f2-4").min()


def test_battery_charge_adds_load(benchmark_case):
    schedule = zero_schedule(len(benchmark_case.units), benchmark_case.horizon)
    schedule.battery_power[:] = 10.0
    charged = solve_horizon(benchmark_case, schedule)
    base = solve_horizon(benchmark_case)
    assert np.all(charged.slack_kw > base.slack_kw)


def test_shift_distribution_is_unit_per_kw(benchmark_case):
    net = compile_network(benchmark_case)
    factors = shift_distribution_pu(benchmark_case, net)
    participating = np.zeros(benchmark_case.horizon)
    for lp in benchmark_case.load_points:
        if lp.category in benchmark_case.dr.participating:
            participating += np.asarray(lp.profile_kw)
    for t in range(benchmark_case.horizon):
        real_total = factors[:, t].real.sum() * net.s_base_kw
        if participating[t] > 0:
            assert abs(real_total - 1.0) < 1e-12
            assert factors[:, t].imag.sum() > 0.0
        else:
            assert real_total == 0.0


def test_shift_changes_consumption(benchmark_case):
    net = compile_network(benchmark_case)
    shift = np.zeros(benchmark_case.horizon)
    shift[3], shift[19] = 5.0, -5.0
    schedule = zero_schedule(len(benchmark_case.units), benchmark_case.horizon, dr=True)
    schedule.dr_shift[:] = shift
    s = consumption_from_schedule(benchmark_case, schedule, net)
    base = load_consumption_pu(benchmark_case, net)
    delta = (s - base).real.sum(axis=0) * net.s_base_kw
    assert abs(delta[3] - 5.0) < 1e-12
    assert abs(delta[19] + 5.0) < 1e-12
    assert np.abs(np.delete(delta, [3, 19])).max() < 1e-12


def test_solve_hour_matches_horizon(benchmark_case):
    full = solve_horizon(benchmark_case)
    one = solve_hour(benchmark_case, hour=9)
    assert np.array_equal(one.voltage[0], full.voltage[9])
    assert one.slack_kw[0] == full.slack_kw[9]
    assert one.horizon == 1


def test_voltage_collapse_detected():
    net = _compiled(2, [(0, 1, 0.05 + 0.02j)])
    result = sweep(net, np.array([0.0, 30.0], dtype=complex))
    assert bool(result.collapsed[0]) and not bool(result.converged[0])


def test_collapse_raises(benchmark_case):
    from dataclasses import replace

    heavy = benchmark_case.load_points[0]
    overloaded = replace(
        benchmark_case,
        load_points=benchmark_case.load_points + (replace(heavy, profile_kw=(4000.0,) * 24),),
        contingencies=(),
    )
    with pytest.raises(VoltageCollapseError):
        solve_horizon(overloaded)


def test_nonconvergence_raises(benchmark_case):
    with pytest.raises(ConvergenceError, match="at hour 0"):
        solve_horizon(benchmark_case, max_iterations=1)


def test_unconverged_flag_without_raise(benchmark_case):
    solution = solve_horizon(benchmark_case, max_iterations=1, raise_on_failure=False)
    assert not solution.converged.all()


def test_package_solution_loss_is_real_nonnegative(benchmark_case):
    net = compile_network(benchmark_case)
    result = sweep(net, load_consumption_pu(benchmark_case, net))
    solution = package_solution(net, result)
    assert solution.loss_kw.min() >= 0.0
    assert solution.voltage.shape == (24, net.n_bus)
    assert solution.min_voltage() > 0.95


# ---------------------------------------------------------------------------
# path-matrix sweep against the per-branch loop sweep


def _assert_matches_loop_sweep(net, s, rtol=0.0, **kwargs):
    got = sweep(net, s, **kwargs)
    want = loop_sweep(net, s, **kwargs)
    for field in ("voltage", "branch_current", "slack_current"):
        np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=rtol, atol=1e-12, err_msg=field)
    for field in ("iterations", "converged", "collapsed"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)
    return got


def test_path_matrices_follow_the_tree():
    # 0 - 1 - 2 and 1 - 3: branch l1 carries buses 1, 2 and 3.
    z = [0.01 + 0.02j, 0.03 + 0.01j, 0.02 + 0.02j]
    net = _compiled(4, [(0, 1, z[0]), (1, 2, z[1]), (1, 3, z[2])])
    rows = {branch: net.bibc[i] for i, branch in enumerate(net.branch_ids)}
    np.testing.assert_array_equal(rows["l1"], [0, 1, 1, 1])
    np.testing.assert_array_equal(rows["l2"], [0, 0, 1, 0])
    np.testing.assert_array_equal(rows["l3"], [0, 0, 0, 1])
    assert net.dlf[2, 3] == z[0]
    assert net.dlf[2, 2] == z[0] + z[1]
    assert not net.dlf[0].any() and not net.dlf[:, 0].any()


def test_sweep_matches_loop_sweep_on_feeders_with_empty_buses():
    rng = np.random.default_rng(303)
    for _ in range(50):
        n, branches, s = random_feeder_with_empty_buses(rng)
        net = _compiled(n, branches)
        result = _assert_matches_loop_sweep(net, s)
        assert result.converged.all()
    # With no injection anywhere, no bus is left in the iteration.
    _assert_matches_loop_sweep(net, np.zeros_like(s))


def test_sweep_matches_loop_sweep_on_benchmark_day(benchmark_case):
    net = compile_network(benchmark_case)
    s = load_consumption_pu(benchmark_case, net)
    _assert_matches_loop_sweep(net, s)
    unconverged = _assert_matches_loop_sweep(net, s, max_iterations=1)
    assert not unconverged.converged.any()


def test_sweep_matches_loop_sweep_on_sectioned_benchmark(benchmark_case):
    case = sectioned_case(benchmark_case, 4)
    net = compile_network(case)
    assert net.n_bus == len(benchmark_case.buses) + 3 * len(benchmark_case.branches)
    s = load_consumption_pu(case, net)
    result = _assert_matches_loop_sweep(net, s)
    # The sections change no physics: the original buses see the same voltages.
    base = compile_network(benchmark_case)
    plain = sweep(base, load_consumption_pu(benchmark_case, base))
    same = [net.bus_index[b] for b in base.bus_ids]
    np.testing.assert_allclose(result.voltage[same], plain.voltage, rtol=0, atol=1e-12)


def test_sweep_matches_loop_sweep_near_collapse():
    # Heavy loads cut off after a few iterations: many columns dip under the
    # floor on the way and end unconverged, which marks them collapsed.
    # Their currents run to hundreds of pu, hence the relative tolerance.
    rng = np.random.default_rng(404)
    dipped = 0
    for _ in range(20):
        n, branches, s = random_feeder_with_empty_buses(rng)
        result = _assert_matches_loop_sweep(_compiled(n, branches), 12.0 * s, rtol=1e-12, max_iterations=3)
        with np.errstate(invalid="ignore"):
            low = np.abs(result.voltage).min(axis=0) < 0.5
        dipped += (result.collapsed & ~low).sum()
    assert dipped > 0


def test_empty_bus_with_the_largest_change_holds_convergence_back():
    # A series capacitor after an empty bus: the empty bus swings more than
    # the load behind it, so the load's change alone would stop too early.
    z1, z2 = 0.02 + 0.05j, 0.01 - 0.05j
    assert abs(z1) > abs(z1 + z2)
    net = _compiled(3, [(0, 1, z1), (1, 2, z2)])
    s = np.zeros((3, 60), dtype=complex)
    s[2] = np.linspace(0.2, 4.0, 60) * (1.0 + 0.3j)
    result = _assert_matches_loop_sweep(net, s)
    assert result.converged.all()


def test_collapse_at_an_empty_bus_above_every_injection_bus():
    # A series capacitor behind an empty bus: a reactive load pulls the empty
    # bus under the floor while the load's own bus stays near 1.0 pu.
    net = _compiled(3, [(0, 1, 0.01 + 0.5j), (1, 2, 0.01 - 0.5j)])
    s = np.zeros((3, 11), dtype=complex)
    s[2] = 0.1 + 1j * np.linspace(0.0, 2.0, 11)
    result = _assert_matches_loop_sweep(net, s)
    np.testing.assert_array_equal(result.injection, [2])
    magnitude = np.abs(result.voltage)
    assert (magnitude[2] > 0.99).all()
    below = magnitude[1] < 0.5
    assert below.any() and not below.all()
    np.testing.assert_array_equal(result.collapsed, below)


def test_mixed_batch_flags_dips_only_where_columns_end_unconverged(benchmark_case):
    # Every third hour at twelve times its load: within the cap the light
    # columns and some heavy ones converge, while others dip under the floor
    # on the way and end unconverged above it.  Only the last are collapsed
    # for the dip, exactly as the loop sweep, which watches every column at
    # every iteration, flags them.
    case = sectioned_case(benchmark_case, 4)
    net = compile_network(case)
    s = load_consumption_pu(case, net)[:, :12] * np.where(np.arange(12) % 3 == 0, 12.0, 1.0)
    result = _assert_matches_loop_sweep(net, s, max_iterations=25)
    low = np.abs(result.voltage).min(axis=0) < 0.5
    assert result.converged.sum() >= 9
    assert (result.collapsed & ~result.converged & ~low).any()


def test_lone_column_matches_its_batch_bitwise(benchmark_case):
    # Capped below the fewest iterations any hour needs, no column converges,
    # so every column runs the same iterations whatever it is batched with.
    net = compile_network(benchmark_case)
    s = 4.0 * load_consumption_pu(benchmark_case, net)
    batch = sweep(net, s, max_iterations=7)
    assert not batch.converged.any() and not batch.collapsed.any()
    for cols in ([0], [9], [23], [1, 2], [2, 3, 4], [0, 4, 5, 6, 1], list(range(5, 18))):
        part = sweep(net, s[:, cols], max_iterations=7)
        for field in ("voltage", "branch_current", "slack_current"):
            np.testing.assert_array_equal(getattr(part, field), getattr(batch, field)[..., cols], err_msg=field)


def test_sweep_matches_loop_sweep_on_collapse():
    net = _compiled(2, [(0, 1, 0.05 + 0.02j)])
    result = _assert_matches_loop_sweep(net, np.array([[0.0, 0.0], [30.0, 0.1]], dtype=complex))
    np.testing.assert_array_equal(result.collapsed, [True, False])
    np.testing.assert_array_equal(result.converged, [False, True])


def _flag_changes_at_the_ga_tolerance(seed):
    """Columns whose converged or collapsed flag, or whose inside-the-limits
    decision, differs between the GA tolerance and the default on heavily
    loaded random feeders; also the columns that end unconverged without
    collapsing at the default, the ones the looser tolerance could pass."""
    rng = np.random.default_rng(seed)
    changed = stalled = 0
    for _ in range(40):
        n, branches, s = random_feeder_with_empty_buses(rng, columns=40)
        net = _compiled(n, branches)
        s = s * np.geomspace(1.0, 20.0, s.shape[1])
        exact, loose = sweep(net, s), sweep(net, s, tolerance=GA_TOLERANCE)
        changed += (exact.converged != loose.converged).sum() + (exact.collapsed != loose.collapsed).sum()
        both = exact.converged & loose.converged
        inside = [((abs(r.voltage[:, both]) >= 0.95) & (abs(r.voltage[:, both]) <= 1.05)).all(axis=0) for r in (exact, loose)]
        changed += (inside[0] != inside[1]).sum()
        stalled += (~exact.converged & ~exact.collapsed).sum()
    return changed, stalled


def test_ga_tolerance_keeps_the_flags_near_collapse(monkeypatch):
    # Near the nose of the power-flow curve a column converges slowly: the
    # GA tolerance alone would pass it within the cap where the default
    # does not.  Such a column runs on to the default (SETTLE_RATIO).
    changed, stalled = _flag_changes_at_the_ga_tolerance(1)
    assert changed == 0 and stalled > 0
    monkeypatch.setattr(powerflow, "SETTLE_RATIO", np.inf)
    assert _flag_changes_at_the_ga_tolerance(1)[0] > 0


# ---------------------------------------------------------------------------
# a prebuilt injection set and the network's workspace


SWEEP_FIELDS = ("voltage", "branch_current", "slack_current", "injection_magnitude", "loss_pu",
                "iterations", "converged", "collapsed")


def _assert_same_bits(got, want):
    for field in SWEEP_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_workspace_sweep_is_bitwise_equal_on_feeders_with_empty_buses():
    # A sweep over a prebuilt set's rows, in the network's workspace, is the
    # all-bus sweep, converging and collapsing.
    rng = np.random.default_rng(505)
    for _ in range(20):
        n, branches, s = random_feeder_with_empty_buses(rng)
        net = _compiled(n, branches)
        injections = InjectionSet(net, s.any(axis=1))
        for scale, cap in ((1.0, 100), (12.0, 3)):
            rows = scale * s[injections.inj]
            _assert_same_bits(sweep(net, rows, cap, injections), sweep(net, scale * s, cap))


def test_workspace_sweep_is_bitwise_equal_as_the_batch_grows_and_shrinks(benchmark_case):
    case = sectioned_case(benchmark_case, 4)
    net = compile_network(case)
    base = load_consumption_pu(case, net)
    injections = InjectionSet(net, base.any(axis=1))
    rng = np.random.default_rng(606)
    for width in (1440, 48, 1392):
        s = base[:, rng.integers(0, case.horizon, width)] * rng.uniform(0.0, 2.0, width)
        s[:, 1] = 12.0 * base[:, base.real.sum(axis=0).argmax()]
        s[:, 2] = 0.0
        shared = sweep(net, s[injections.inj], injections=injections)
        assert shared.collapsed[1] and shared.converged[2]
        _assert_same_bits(shared, sweep(net, s))


def test_rest_magnitudes_of_a_column_do_not_depend_on_the_columns_read_with_it(benchmark_case):
    # numpy hands a one-column product to gemv, which rounds differently from
    # a row of gemm; a lone column must read the same bits as among others.
    case = sectioned_case(benchmark_case, 4)
    net = compile_network(case)
    base = load_consumption_pu(case, net)
    rng = np.random.default_rng(707)
    width = 60
    result = sweep(net, base[:, rng.integers(0, case.horizon, width)] * rng.uniform(0.5, 2.0, width))
    for column in range(width):
        others = rng.choice(np.delete(np.arange(width), column), 2, replace=False)
        alone = result.rest_magnitude(np.array([column]))
        among = result.rest_magnitude(np.array([column, *others]))
        assert alone[:, 0].tobytes() == among[:, 0].tobytes(), column


# ---------------------------------------------------------------------------
# the transfer gain that bounds the empty buses


def _gain_networks(benchmark_case):
    """(network, consumption at every bus) for the benchmark case, its
    sectioned variant and random feeders with empty buses."""
    networks = []
    for case in (benchmark_case, sectioned_case(benchmark_case, 4)):
        net = compile_network(case)
        networks.append((net, load_consumption_pu(case, net)))
    rng = np.random.default_rng(808)
    for _ in range(12):
        n, branches, s = random_feeder_with_empty_buses(rng, columns=12)
        networks.append((_compiled(n, branches), s))
    return networks


def test_transfer_reproduces_the_empty_buses_rows(benchmark_case):
    # V_rest - 1 = T (V_inj - 1) rests on DLF[rest, inj] = T DLF[inj, inj].
    for net, s in _gain_networks(benchmark_case):
        injections = InjectionSet(net, s.any(axis=1))
        assert injections.rest.size
        transfer = np.linalg.solve(injections.drop_inj, injections.drop_rest.T).T
        scale = np.abs(net.dlf).max()
        np.testing.assert_allclose(transfer @ injections.drop_inj, injections.drop_rest, rtol=0, atol=1e-13 * scale)
        assert injections.gain == pytest.approx(np.abs(transfer).sum(axis=1).max(), rel=1e-12)


def test_problem_sets_have_the_documented_gains(benchmark_case):
    # The benchmark case's problem set leaves one bus empty; on the long
    # feeder every section bus lies between two buses of the set or beyond one.
    from mgopt.optimizer.problem import DispatchProblem

    assert DispatchProblem(benchmark_case).injections.gain == pytest.approx(0.375, abs=5e-4)
    assert DispatchProblem(sectioned_case(benchmark_case, 4)).injections.gain == pytest.approx(1.0, rel=1e-12)


def _sweep_bits(net, rows, cap, injections, tolerance):
    """Every bit a caller can read from a workspace sweep, copied before the
    workspace is reused, and for a few voltage bands the columns with an
    empty bus outside the band (NaN counts as outside)."""
    result = sweep(net, rows, cap, injections, tolerance)
    bits = {field: getattr(result, field).tobytes() for field in SWEEP_FIELDS}
    for low, high in ((0.95, 1.05), (0.975, 1.02), (powerflow.COLLAPSE_FLOOR_PU, np.inf)):
        columns = result.beyond(low, high)
        rest = result.rest_magnitude(columns)
        bits[low, high] = columns[~((rest >= low) & (rest <= high)).all(axis=0)].tobytes()
    return bits, result.converged.copy(), result.collapsed.copy()


@pytest.mark.parametrize("tolerance", [powerflow.DEFAULT_TOLERANCE, GA_TOLERANCE])
def test_gain_bound_decides_as_the_exact_products(benchmark_case, tolerance):
    # With the gain at inf every empty-bus decision takes the exact product;
    # the finite gain must reach the same bits, from light loads to past
    # voltage collapse, and capped short of convergence (the watched rerun).
    kinds = np.zeros(3, dtype=int)
    for net, s in _gain_networks(benchmark_case):
        injections = InjectionSet(net, s.any(axis=1))
        exact = copy.copy(injections)
        exact.gain = np.inf
        heavy = np.concatenate([scale * s[injections.inj] for scale in (1.0, 3.0, 6.0, 10.0, 16.0, 24.0)], axis=1)
        for cap in (100, 4):
            got, converged, collapsed = _sweep_bits(net, heavy, cap, injections, tolerance)
            want = _sweep_bits(net, heavy, cap, exact, tolerance)[0]
            assert got == want
            kinds += [converged.sum(), collapsed.sum(), (~converged & ~collapsed).sum()]
    assert (kinds > 0).all(), kinds


def test_converged_empty_buses_lie_within_the_gain(benchmark_case):
    for net, s in _gain_networks(benchmark_case):
        injections = InjectionSet(net, s.any(axis=1))
        for scale in (1.0, 6.0, 16.0):
            result = sweep(net, scale * s)
            v = result.voltage[:, result.converged]
            deviation = np.abs(1.0 - v[injections.inj]).max(axis=0, initial=0.0)
            reach = np.abs(1.0 - v[injections.rest]).max(axis=0, initial=0.0)
            assert (reach <= injections.gain * deviation + powerflow.BOUND_MARGIN).all()
