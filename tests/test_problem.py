import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from mgopt.devices import DispatchSchedule, soc_trajectory
from mgopt.dr import check_shift
import mgopt.optimizer.dp as dp_mod
import mgopt.optimizer.problem as problem_mod
import mgopt.optimizer.sqp as sqp
import mgopt.powerflow as powerflow
from mgopt.optimizer import BatchMetrics, DispatchProblem, ObjectiveSpec, SqpConfig, sqp_solve
from mgopt.optimizer.problem import KINK_MARGIN, _SplitDispatchNlp
from mgopt.optimizer.qp import pinned_mask
from mgopt.objectives import OBJECTIVE_KEYS
from mgopt.powerflow import SweepResult, compile_network, sweep

from oracles import (
    active_guess,
    all_bus_kernel,
    battery_feasibility,
    bisect_shift_projection,
    dense_vmag_differences,
    epigraph_objective,
    evaluate_objectives,
    gradient,
    grid_feasibility,
    jacobian,
    offset_eq_jacobian,
    offset_pack,
    offset_repair,
    offset_schedule,
    offset_seed_points,
    offset_signed_bounds,
    offset_signed_from_split,
    offset_soc_jacobian,
    offset_split_bounds,
    offset_split_from_signed,
    offset_split_parts,
    offset_unpack,
    random_feeder_case,
    repair_battery_powers,
    sectioned_case,
    split_differences,
    subtract_at_consumption,
    threshold_commitment,
    tuple_row_index,
    tuple_row_jacobian,
    tuple_row_values,
    tuple_screen_rows,
    tuple_violated_rows,
    truncated_case,
    unit_feasibility,
    unit_loop_commitment_mask,
    unit_loop_hourly_cost,
    unit_loop_repair,
    unit_loop_seed_points,
    unit_loop_split_bounds,
)
from test_dr import committable_pv_case


# The exact network derivatives (``_SplitDispatchNlp._sensitivities``)
# against central differences with steps of oracles.DEFAULT_REL_STEP, as a
# share of each compared quantity's largest entry.  Measured on the cases of
# ``DERIVATIVE_CASES`` and on the other seed plans, the two differ by at
# most 7.7e-8 (voltage magnitudes), 6.7e-8 (vdev) and 3e-9 (cost, loss and
# slack power).  That gap grows as the step shrinks (1.3e-8 at 1e-5 and
# 7.6e-8 at 2.5e-6 for vdev on the packaged case), so it is the sweep's
# 1e-10 pu convergence noise divided by the step, and the truncation error
# lies below it; the tolerance allows 13 times the largest gap.
DIFFERENCE_TOL = 1e-6

DERIVATIVE_CASES = ["random-0", "random-1", "random-2", "benchmark", "dr", "no-battery", "sectioned"]


@pytest.fixture(scope="module")
def problem(benchmark_case):
    return DispatchProblem(benchmark_case)


@pytest.fixture(scope="module")
def dr_problem(benchmark_case):
    return DispatchProblem(benchmark_case, dr=True)


def _random_plans(problem, rng, count):
    span = problem.upper - problem.lower
    return problem.lower + rng.random((count, problem.n)) * span


def _plain_day(series):
    """The ``hours`` of whole plans for (plan, hour) series: each row's own day."""
    return np.broadcast_to(np.arange(series.shape[-1]), series.shape)


def _caps(case):
    rows = []
    for u in case.units:
        if u.renewable:
            rows.append(np.minimum(case.availability_kw[u.name], u.p_max_kw))
        else:
            rows.append(np.full(case.horizon, u.p_max_kw))
    return np.array(rows)


def test_caps_follow_the_case_unit_cap(benchmark_case):
    pv = benchmark_case.unit("PV2")
    profile = list(benchmark_case.availability_kw["PV2"])
    profile[11] = pv.p_max_kw + 5e-10
    case = replace(benchmark_case, availability_kw={**benchmark_case.availability_kw, "PV2": tuple(profile)})
    caps = DispatchProblem(case).caps
    for i, unit in enumerate(case.units):
        assert caps[i].tolist() == [case.unit_cap_kw(unit, t) for t in range(case.horizon)]
    assert caps[[u.name for u in case.units].index("PV2"), 11] == pv.p_max_kw


def test_vector_length(problem, dr_problem, benchmark_case):
    T = benchmark_case.horizon
    n_units = len(benchmark_case.units)
    assert problem.n == n_units * T + T
    assert dr_problem.n == n_units * T + 2 * T


def test_pack_unpack_round_trip(problem):
    rng = np.random.default_rng(0)
    x = _random_plans(problem, rng, 1)[0]
    schedule = problem.schedule(x)
    assert np.array_equal(problem.pack(schedule), x)
    p_units, p_batt, shift = problem.unpack(x)
    assert np.array_equal(p_units[0], schedule.dg_setpoints)
    assert np.array_equal(p_batt[0], schedule.battery_power)
    assert shift is None


def test_pack_unpack_round_trip_with_shift(dr_problem):
    rng = np.random.default_rng(1)
    x = _random_plans(dr_problem, rng, 1)[0]
    schedule = dr_problem.schedule(x)
    assert schedule.dr_shift is not None
    assert np.array_equal(dr_problem.pack(schedule), x)


def test_repair_yields_device_feasible_plans(problem, benchmark_case):
    rng = np.random.default_rng(2)
    repaired = problem.repair(_random_plans(problem, rng, 12))
    caps = _caps(benchmark_case)
    for row in repaired:
        schedule = problem.schedule(row)
        assert not unit_feasibility(benchmark_case.units, schedule.dg_setpoints, caps)
        assert not battery_feasibility(benchmark_case.battery, schedule.battery_power)


def test_repair_matches_sequential_references(benchmark_case):
    # Plans drawn past the box so every clip and the SOC window engage, on
    # the benchmark, on half-hour periods, and with a battery that starts
    # empty and self-discharges: holding it at its floor takes a charge the
    # plan did not ask for.
    battery = benchmark_case.battery
    trickle = replace(benchmark_case, battery=replace(battery, self_discharge_per_h=0.02,
                                                      soc_initial_kwh=battery.soc_min_kwh))
    for name, case in (("benchmark", benchmark_case), ("half-hour", replace(benchmark_case, period_hours=0.5)),
                       ("trickle", trickle)):
        problem = DispatchProblem(case)
        rng = np.random.default_rng(12)
        plans = _random_plans(problem, rng, 8) * 1.5 - 0.25 * (problem.upper - problem.lower)
        repaired = problem.repair(plans)
        T = problem.T
        block = slice(problem.n_units * T, (problem.n_units + 1) * T)
        if name == "trickle":
            assert (repaired[:, block][plans[:, block] <= 0.0] > 0.0).any()
        for raw, row in zip(plans, repaired):
            expected = repair_battery_powers(case.battery, raw[block], case.period_hours)
            assert np.abs(row[block] - expected).max() < 1e-9, name
            for i, unit in enumerate(case.units):
                if unit.committable:
                    unit_block = slice(i * T, (i + 1) * T)
                    expected = [threshold_commitment(unit, p) for p in raw[unit_block]]
                    assert np.abs(row[unit_block] - expected).max() < 1e-12, unit.name


def test_repair_is_idempotent(problem):
    rng = np.random.default_rng(3)
    once = problem.repair(_random_plans(problem, rng, 8))
    twice = problem.repair(once)
    assert np.abs(twice - once).max() < 1e-9


def test_repair_projects_shift_to_zero_sum(dr_problem):
    rng = np.random.default_rng(4)
    repaired = dr_problem.repair(_random_plans(dr_problem, rng, 10))
    shift = repaired[:, (dr_problem.n_units + 1) * dr_problem.T :]
    assert np.abs(shift.sum(axis=1)).max() < 1e-6
    assert (shift >= -dr_problem.shift_bound - 1e-9).all()
    assert (shift <= dr_problem.shift_bound + 1e-9).all()


def test_shift_projection_matches_bisection(benchmark_case):
    # No participating demand in the first four hours makes them zero-width.
    participating = benchmark_case.dr.participating
    case = replace(benchmark_case, load_points=tuple(
        replace(lp, profile_kw=(0.0,) * 4 + lp.profile_kw[4:]) if lp.category in participating else lp
        for lp in benchmark_case.load_points))
    dr_problem = DispatchProblem(case, dr=True)
    bound = dr_problem.shift_bound
    assert (bound[:4] == 0.0).all() and (bound[4:] > 0.0).all()
    rng = np.random.default_rng(13)
    # Half the box each way, so moving the sum out in proportion to the box stays inside it.
    balanced = rng.uniform(-0.5, 0.5, (4, dr_problem.T)) * bound
    balanced -= balanced.sum(axis=1, keepdims=True) * bound / bound.sum()
    rows = {
        "random": rng.uniform(-1.5, 1.5, (40, dr_problem.T)) * bound,
        "at one bound": np.vstack([bound, -bound, 3.0 * bound]),
        "zero-width hours only": np.where(bound == 0.0, 0.0, 2.0 * bound)[np.newaxis, :] * [[1.0], [-1.0]],
        "no move": np.vstack([balanced, np.zeros(dr_problem.T)]),
    }
    for name, s in rows.items():
        got = dr_problem._project_shift(s)
        np.testing.assert_allclose(got, bisect_shift_projection(bound, s), rtol=0, atol=1e-12, err_msg=name)
        assert np.abs(got.sum(axis=1)).max() < 1e-12, name
    np.testing.assert_allclose(dr_problem._project_shift(balanced), balanced, rtol=0, atol=1e-12)


def test_soc_signed_matches_sequential(problem, benchmark_case):
    rng = np.random.default_rng(5)
    T = problem.T
    p = problem.repair(_random_plans(problem, rng, 6))[:, problem.n_units * T : (problem.n_units + 1) * T]
    soc = problem.soc_split(np.maximum(p, 0.0), np.maximum(-p, 0.0))
    for row, expected in zip(p, soc):
        loop = soc_trajectory(benchmark_case.battery, row)
        assert np.abs(expected - loop).max() < 1e-9


def test_split_merge_round_trip(problem, dr_problem):
    rng = np.random.default_rng(6)
    for prob in (problem, dr_problem):
        x = prob.repair(_random_plans(prob, rng, 1))[0]
        xs = prob.split_from_signed(x)
        assert np.array_equal(prob.signed_from_split(xs), x)
        # A signed series splits into complementary charge and discharge.
        u_len = prob.n_units * prob.T
        chg = xs[u_len : u_len + prob.T]
        dis = xs[u_len + prob.T : u_len + 2 * prob.T]
        assert (np.minimum(chg, dis) == 0.0).all()
        p = (chg - dis)[np.newaxis]
        assert np.abs(prob.soc_split(chg[np.newaxis], dis[np.newaxis])[0]
                      - prob.soc_split(np.maximum(p, 0.0), np.maximum(-p, 0.0))[0]).max() < 1e-12


def _layout_problem(benchmark_case, name):
    if name == "benchmark":
        return DispatchProblem(benchmark_case)
    if name == "no-battery":
        return DispatchProblem(replace(benchmark_case, battery=None), dr=True)
    if name == "horizon-12":
        return DispatchProblem(truncated_case(benchmark_case, 12), dr=True)
    return DispatchProblem(benchmark_case, dr=True)


def _same_bits(a, b):
    return (a is None and b is None) or (a.shape == b.shape and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("name", ["benchmark", "dr", "no-battery", "horizon-12"])
def test_block_layout_matches_offsets(benchmark_case, name):
    # Every plan read and write through the (plan, block, hour) view against
    # the same form written with block offsets, bit for bit.
    prob = _layout_problem(benchmark_case, name)
    for got, want in zip((prob.lower, prob.upper), offset_signed_bounds(prob)):
        assert _same_bits(got, want)
    if name == "no-battery":
        # No -0.0 for the missing battery; the DR shift's lower bounds are negative.
        assert not np.signbit(prob.blocks(prob.lower)[0][: prob.n_units + 1]).any()
    assert _same_bits(prob.seed_points(), offset_seed_points(prob))
    rng = np.random.default_rng(21)
    raw = _random_plans(prob, rng, 6) * 1.5 - 0.25 * (prob.upper - prob.lower)
    plans = prob.repair(raw)
    assert _same_bits(plans, offset_repair(prob, raw))
    for got, want in zip(prob.unpack(plans), offset_unpack(prob, plans)):
        assert _same_bits(got, want)
    # The view itself: unit blocks, then the battery, then the shift.
    p_units, p_batt, shift = offset_unpack(prob, plans)
    B = prob.blocks(plans)
    assert B.shape == (6, prob.n_units + 1 + int(prob.dr), prob.T)
    assert _same_bits(B[:, : prob.n_units], p_units) and _same_bits(B[:, prob.n_units], p_batt)
    assert not prob.dr or _same_bits(B[:, -1], shift)
    spec = ObjectiveSpec("cost")
    for x in plans:
        schedule, expected = prob.schedule(x), offset_schedule(prob, x)
        for field in ("dg_setpoints", "battery_power", "dr_shift"):
            assert _same_bits(getattr(schedule, field), getattr(expected, field)), field
        assert _same_bits(prob.pack(schedule), offset_pack(prob, schedule))
        # A schedule without a shift, as the suite packs its non-DR optima for DR.
        bare = DispatchSchedule(schedule.dg_setpoints, schedule.battery_power, None)
        assert _same_bits(prob.pack(bare), offset_pack(prob, bare))
        xs = prob.split_from_signed(x)
        assert _same_bits(xs, offset_split_from_signed(prob, x))
        assert _same_bits(prob.signed_from_split(xs), offset_signed_from_split(prob, xs))
        commit = prob.commitment_mask(x)
        for got, want in zip(prob.split_bounds(commit), offset_split_bounds(prob, commit)):
            assert _same_bits(got, want)
        lower, upper = prob.split_bounds(commit)
        nlp = _SplitDispatchNlp(prob, spec, lower, upper, [])
        assert _same_bits(nlp._J_soc, offset_soc_jacobian(nlp))
    assert _same_bits(nlp.derivatives(xs)[1], offset_eq_jacobian(nlp))
    split = np.vstack([prob.split_from_signed(x) for x in plans])
    for got, want in zip(prob.split_parts(split), offset_split_parts(prob, split)):
        assert _same_bits(got, want)
    _, chg, dis, _ = offset_split_parts(prob, split)
    S = prob.blocks(split)
    assert S.shape == (6, prob.n_units + 2 + int(prob.dr), prob.T)
    assert _same_bits(S[:, prob.n_units], chg) and _same_bits(S[:, prob.n_units + 1], dis)


def test_metrics_equal_split_eval_on_split_rows(problem, dr_problem):
    # Both front ends share one kernel, so a signed plan and its split form
    # must evaluate to the same bits, the injection buses' complex voltages
    # (which the refiner's derivatives read) among them.
    rng = np.random.default_rng(11)
    for prob in (problem, dr_problem):
        plans = prob.repair(_random_plans(prob, rng, 6))
        signed = prob.metrics(plans)
        split = prob.split_eval(np.vstack([prob.split_from_signed(x) for x in plans]))
        for key in ("cost", "loss", "ens", "vdev"):
            assert np.array_equal(signed.values[key], split.values[key]), key
        for field in ("violation", "ok", "slack_kw", "soc_kwh", "vmag",
                      "hourly_cost", "hourly_loss_kw", "hourly_vdev"):
            assert np.array_equal(getattr(signed, field), getattr(split, field)), field
        assert signed.injection_voltage.tobytes() == split.injection_voltage.tobytes()


def test_lone_plan_metrics_match_its_batch_row(benchmark_case):
    # On a one-hour case one plan is one sweep column, solved alone; in a
    # batch whose columns all converge at the same iteration (7 here) every
    # field of its metrics must be its row's, bit for bit.
    prob = DispatchProblem(truncated_case(benchmark_case, 1, start=12))
    plans = prob.repair(np.vstack([prob.seed_points(), _random_plans(prob, np.random.default_rng(5), 8)]))
    batch = prob.metrics(plans)
    for i, x in enumerate(plans):
        lone = prob.metrics(x)
        for key in OBJECTIVE_KEYS:
            assert lone.values[key].tobytes() == batch.values[key][i : i + 1].tobytes(), (i, key)
        assert lone.vmag.tobytes() == batch.vmag[:, i : i + 1].tobytes(), i
        for f in fields(BatchMetrics):
            if f.name not in ("values", "vmag"):
                assert getattr(lone, f.name).tobytes() == getattr(batch, f.name)[i : i + 1].tobytes(), (i, f.name)


def test_consumption_matches_subtract_at(benchmark_case):
    # Units subtract one at a time, which is what np.subtract.at does with
    # a repeated bus; the shared-bus case puts PV1, WT and MT on one bus.
    shared = {"PV1", "WT", "MT"}
    stacked = replace(benchmark_case, units=tuple(
        replace(u, bus="f1-3") if u.name in shared else u for u in benchmark_case.units))
    rng = np.random.default_rng(12)
    for case, dr in ((benchmark_case, False), (stacked, False), (stacked, True)):
        prob = DispatchProblem(case, dr=dr)
        p_units, p_batt, shift = prob.unpack(prob.repair(_random_plans(prob, rng, 58)))
        got = prob._consumption(p_units, p_batt, shift, _plain_day(p_batt))
        every_bus = subtract_at_consumption(prob, p_units, p_batt, shift)
        # The problem's rows are its injection buses; every other bus draws nothing.
        assert got.tobytes() == every_bus[prob.injections.inj].tobytes()
        assert not np.delete(every_bus, prob.injections.inj, axis=0).any()
    assert len(set(DispatchProblem(stacked).unit_bus.tolist())) == len(stacked.units) - 2


def _unit_problem(benchmark_case, name):
    units = benchmark_case.units
    if name == "shared-bus":
        units = tuple(replace(u, bus="f1-3") if u.name in {"PV1", "WT", "MT"} else u for u in units)
    if name == "no-committable":
        units = tuple(replace(u, p_min_kw=0.0) for u in units)
    if name == "committable-pv":
        units = tuple(replace(u, p_min_kw=5.0) if u.name == "PV1" else u for u in units)
    case = replace(benchmark_case, units=units, battery=None if name == "no-battery" else benchmark_case.battery)
    if name == "one-hour-ten-units":
        # numpy sums eight or more terms along a contiguous axis pairwise.
        twins = tuple(replace(u, name=u.name + "-2") for u in units)
        availability = {**case.availability_kw, **{n + "-2": a for n, a in case.availability_kw.items()}}
        case = truncated_case(replace(case, units=units + twins, availability_kw=availability), 1)
    return DispatchProblem(case, dr=name == "dr")


@pytest.mark.parametrize(
    "name", ["benchmark", "shared-bus", "no-battery", "dr", "no-committable", "one-hour-ten-units", "committable-pv"]
)
def test_unit_arrays_match_unit_loops(benchmark_case, name):
    # The unit limits and the on/off test read as arrays against the same
    # forms read from each unit's record in a loop, bit for bit.
    prob = _unit_problem(benchmark_case, name)
    assert prob.committable.any() == (name != "no-committable")
    assert _same_bits(prob.seed_points(), unit_loop_seed_points(prob))
    rng = np.random.default_rng(23)
    raw = _random_plans(prob, rng, 12) * 1.5 - 0.25 * (prob.upper - prob.lower)
    units = prob.blocks(raw)[:, : prob.n_units]
    units[:4] = prob.p_min * rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], units[:4].shape)
    plans = prob.repair(raw)
    assert _same_bits(plans, unit_loop_repair(prob, raw))
    for x in plans:
        commit = prob.commitment_mask(x)
        assert _same_bits(commit, unit_loop_commitment_mask(prob, x))
        for mask in (commit, rng.random(commit.shape) < 0.5):
            for got, want in zip(prob.split_bounds(mask), unit_loop_split_bounds(prob, mask)):
                assert _same_bits(got, want)
    # The cost rate from setpoints on both sides of the running threshold.
    p_units = rng.random((200, prob.n_units, prob.T)) * prob.p_max
    p_units *= rng.choice([0.0, 1e-10, 1.0], p_units.shape, p=[0.1, 0.1, 0.8])
    slack_kw = rng.normal(0.0, 50.0, (200, prob.T))
    shift = rng.normal(0.0, 5.0, (200, prob.T)) if prob.dr else None
    args = (p_units, slack_kw, np.abs(slack_kw), shift)
    assert _same_bits(prob._hourly_cost(*args, _plain_day(slack_kw)), unit_loop_hourly_cost(prob, *args))


def test_committable_renewable_stays_under_its_hourly_cap(benchmark_case):
    # PV1 with a 5 kW minimum: at hour 7 only 3.75 kW is available, so the
    # unit cannot run there.  Before, repair lifted it to 5 kW and the SQP
    # bounds allowed it 25 kW (p_max) at that hour.
    units = tuple(replace(u, p_min_kw=5.0) if u.name == "PV1" else u for u in benchmark_case.units)
    case = replace(benchmark_case, units=units)
    prob = DispatchProblem(case)
    caps = _caps(case)
    assert caps[0, 7] == 3.75
    full = prob.blocks(np.zeros(prob.n))
    full[0, : prob.n_units] = caps
    x = prob.repair(full.reshape(-1))[0]
    p_pv = prob.blocks(x)[0, 0]
    assert p_pv[7] == 0.0 and p_pv[8] == caps[0, 8]
    assert not prob.commitment_mask(x)[0, 7]
    rng = np.random.default_rng(41)
    for row in prob.repair(_random_plans(prob, rng, 12)):
        assert not unit_feasibility(case.units, prob.schedule(row).dg_setpoints, caps)
    lower, upper = (prob.blocks(v)[0, : prob.n_units] for v in prob.split_bounds(prob.commitment_mask(x)))
    assert (upper <= caps).all() and (lower <= upper).all()
    assert upper[0, 7] == 0.0 and lower[0, 8] == 5.0 and upper[0, 8] == caps[0, 8]


def test_check_accepts_every_limit_exactly(problem, benchmark_case):
    case, battery = benchmark_case, benchmark_case.battery
    caps = problem.blocks(problem.upper)[0, : problem.n_units]
    power = np.zeros(case.horizon)
    power[0], power[1] = battery.p_max_kw, -battery.p_max_kw
    problem.check(DispatchSchedule(caps, power))
    problem.check(DispatchSchedule(caps * (1.0 + 1e-10), power * (1.0 + 1e-10)))
    # Every committable unit at its minimum, and a hair under it.
    floor = np.where(problem.committable, problem.p_min, caps)
    problem.check(DispatchSchedule(floor, np.zeros(case.horizon)))
    problem.check(DispatchSchedule(floor * (1.0 - 1e-10), np.zeros(case.horizon)))
    # Idle until the last hour, then discharge onto soc_min: self-discharge
    # would take an earlier landing below it.
    idle = soc_trajectory(battery, np.zeros(case.horizon))
    power = np.zeros(case.horizon)
    power[-1] = -(idle[-2] * (1.0 - battery.self_discharge_per_h) - battery.soc_min_kwh) * battery.eta_discharge
    problem.check(DispatchSchedule(np.zeros_like(caps), power))
    power[-1] -= 1e-6
    with pytest.raises(ValueError, match=f"battery_kw at hour {case.horizon - 1}: SOC"):
        problem.check(DispatchSchedule(np.zeros_like(caps), power))
    no_battery = DispatchProblem(replace(case, battery=None))
    no_battery.check(DispatchSchedule(caps, np.zeros(case.horizon)))
    with pytest.raises(ValueError, match=re.escape("battery_kw at hour 1: 1 kW outside [0, 0] kW")):
        no_battery.check(DispatchSchedule(caps, np.eye(case.horizon)[1]))


def test_check_refuses_exactly_what_the_oracles_refuse(benchmark_case):
    # Repaired plans with up to two entries moved onto a limit or at least
    # 1 kW beyond one, so the check's tolerances and the oracles' agree.  PV1
    # is committable at 5 kW, above its availability in the early and late
    # hours.
    case = committable_pv_case(benchmark_case)[0]
    prob = DispatchProblem(case, dr=True)
    caps, p_batt = prob.blocks(prob.upper)[0, : prob.n_units], case.battery.p_max_kw
    rng = np.random.default_rng(53)
    verdicts = []
    for x in prob.repair(_random_plans(prob, rng, 80)):
        B = prob.blocks(x)[0]
        for _ in range(rng.integers(3)):
            i, t = rng.integers(prob.n_units + 2), rng.integers(prob.T)
            if i < prob.n_units:
                p_min = prob.p_min[i, 0]
                B[i, t] = rng.choice([0.0, p_min, caps[i, t], 0.5 * p_min, caps[i, t] + 1.0, -1.0])
            elif i == prob.n_units:
                B[i, t] = rng.choice([-1.0, 1.0]) * (p_batt + rng.choice([0.0, 1.0]))
            else:
                B[i, t] += rng.choice([-1.0, 1.0])
        schedule = prob.schedule(x)
        expected = bool(unit_feasibility(case.units, schedule.dg_setpoints, caps, tol=1e-9)
                        or battery_feasibility(case.battery, schedule.battery_power, case.period_hours))
        try:
            check_shift(case, schedule.dr_shift)
        except ValueError:
            expected = True
        try:
            assert np.array_equal(prob.check(schedule), x)
            refused = False
        except ValueError:
            refused = True
        assert refused == expected
        verdicts.append(refused)
    assert 20 < sum(verdicts) < 60


def test_commitment_mask_follows_repair(problem, dr_problem):
    # One on/off rule: on unrepaired plans, including committable units at
    # exactly half their minimum, the mask says on where repair keeps the unit
    # running.
    rng = np.random.default_rng(31)
    for prob in (problem, dr_problem):
        committable = [i for i, unit in enumerate(prob.case.units) if unit.committable]
        plans = _random_plans(prob, rng, 8)
        units = prob.blocks(plans)[:, : prob.n_units]
        for i in committable:
            units[:, i, ::3] = 0.5 * prob.case.units[i].p_min_kw
        for x, fixed in zip(plans, prob.repair(plans)):
            running = prob.blocks(fixed)[0, committable] > 0.0
            assert np.array_equal(prob.commitment_mask(x)[committable], running)


def test_metrics_agree_with_direct_objectives(problem, benchmark_case):
    rng = np.random.default_rng(7)
    plans = problem.repair(_random_plans(problem, rng, 5))
    m = problem.metrics(plans)
    assert m.ok.all()
    for i, row in enumerate(plans):
        direct = evaluate_objectives(benchmark_case, problem.schedule(row))
        for key in ("cost", "loss", "ens", "vdev"):
            batch = float(m.values[key][i])
            assert batch == pytest.approx(direct[key], rel=1e-7, abs=1e-6), key


def test_metrics_slack_matches_grid_feasibility(problem, benchmark_case):
    rng = np.random.default_rng(8)
    plans = problem.repair(_random_plans(problem, rng, 3))
    m = problem.metrics(plans)
    for i in range(plans.shape[0]):
        violations = grid_feasibility(
            benchmark_case.grid_limit_kw,
            m.slack_kw[i],
            benchmark_case.effective_export_limit_kw,
        )
        if m.violation[i] == 0.0:
            assert not violations


def test_seed_points_inside_bounds(problem, dr_problem):
    for prob in (problem, dr_problem):
        seeds = prob.seed_points()
        assert seeds.shape == (4, prob.n)
        assert (seeds >= prob.lower - 1e-9).all()
        assert (seeds <= prob.upper + 1e-9).all()
        assert np.abs(prob.repair(seeds) - seeds).max() < 1e-9


def test_objective_spec_validation():
    with pytest.raises(ValueError, match="unknown objective"):
        ObjectiveSpec("volt")
    with pytest.raises(ValueError, match="needs weights and bounds"):
        ObjectiveSpec("weighted")


def test_objective_spec_scalarisation():
    bounds = {"cost": (0.0, 10.0), "loss": (0.0, 4.0), "ens": (0.0, 1.0), "vdev": (0.0, 2.0)}
    weights = {"cost": 0.4, "loss": 0.3, "ens": 0.2, "vdev": 0.1}
    spec = ObjectiveSpec("weighted", weights=weights, bounds=bounds)
    values = {"cost": np.array([5.0]), "loss": np.array([8.0]),
              "ens": np.array([0.5]), "vdev": np.array([-1.0])}
    # Unclamped form keeps slope above the upper bound: loss z = 2.
    assert spec.scalar_array(values)[0] == pytest.approx(0.4 * 0.5 + 0.3 * 2.0 + 0.2 * 0.5, abs=1e-12)
    clamped = ObjectiveSpec("weighted", weights=weights, bounds=bounds, clamp_upper=True)
    assert clamped.scalar_array(values)[0] == pytest.approx(0.4 * 0.5 + 0.3 * 1.0 + 0.2 * 0.5, abs=1e-12)
    # Chain drops keys at or outside their active range.
    point = {"cost": 5.0, "loss": 8.0, "ens": 0.5, "vdev": -1.0}
    chain = spec.chain(point)
    assert set(chain) == {"cost", "loss", "ens"}
    assert chain["cost"] == pytest.approx(0.04, abs=1e-12)
    assert set(clamped.chain(point)) == {"cost", "ens"}
    plain = ObjectiveSpec("loss")
    assert plain.scalar_array(values)[0] == 8.0
    assert plain.chain(point) == {"loss": 1.0}


def test_split_nlp_gradient_matches_naive_fd(problem):
    for key in ("cost", "loss", "vdev"):
        spec = ObjectiveSpec(key)
        x = problem.seed_points()[2]
        commit = problem.commitment_mask(x)
        lower, upper = problem.split_bounds(commit)
        xs = np.clip(problem.split_from_signed(x), lower, upper)
        m = problem.metrics(x)
        rows = problem.screen_rows(m.vmag[:, 0, :])
        nlp = _SplitDispatchNlp(problem, spec, lower, upper, rows)
        grad, J_eq, J_in = nlp.derivatives(xs)

        naive = gradient(nlp.objective, xs)
        free = (upper - lower) > 1e-12
        scale = max(1.0, np.abs(naive[free]).max())
        assert np.abs((grad - naive)[free]).max() < 1e-4 * scale, key


def test_split_nlp_constraint_rows_match_fd(problem):
    spec = ObjectiveSpec("cost")
    x = problem.seed_points()[2]
    commit = problem.commitment_mask(x)
    lower, upper = problem.split_bounds(commit)
    xs = np.clip(problem.split_from_signed(x), lower, upper)
    m = problem.metrics(x)
    rows = problem.screen_rows(m.vmag[:, 0, :])
    nlp = _SplitDispatchNlp(problem, spec, lower, upper, rows)
    _, _, J_in = nlp.derivatives(xs)

    naive = jacobian(nlp.ineq_constraints, xs, m=len(rows))
    free = (upper - lower) > 1e-12
    assert np.abs((J_in - naive)[:, free]).max() < 1e-4 * max(1.0, np.abs(naive).max())


def _derivative_problem(benchmark_case, variant):
    """A case of DERIVATIVE_CASES: a random feeder with empty buses, the
    packaged case, its DR problem with a DR incentive of 2 ct/kWh, its
    battery-free copy or its sectioned feeder."""
    if variant.startswith("random"):
        return DispatchProblem(random_feeder_case(benchmark_case, np.random.default_rng(int(variant[-1]))))
    case = {
        "dr": replace(benchmark_case, dr=replace(benchmark_case.dr, incentive_ct_per_kwh=2.0)),
        "no-battery": replace(benchmark_case, battery=None),
        "sectioned": sectioned_case(benchmark_case, 4),
    }.get(variant, benchmark_case)
    return DispatchProblem(case, dr=variant == "dr")


def _kinked_subproblem(problem, spec):
    """The price-driven seed with the first renewable at 0 in its first
    hour with a cap, as a subproblem carrying every bus-hour's lower
    voltage row and the load-bus-hours of the even hours as kink cells;
    under DR it shifts nothing in every third hour.  Both sit on a kink of
    the cost: its slope there is the mean of the two sides."""
    x = problem.seed_points()[2]
    plan = problem.blocks(x)[0]
    unit = [u.renewable for u in problem.case.units].index(True)
    hour = int(np.flatnonzero(problem.caps[unit] > 0)[0])
    plan[unit, hour] = 0.0
    if problem.dr:
        plan[-1, ::3] = 0.0
    lower, upper = problem.split_bounds(problem.commitment_mask(x))
    xs = np.clip(problem.split_from_signed(x), lower, upper)
    assert xs[unit * problem.T + hour] == 0.0 < upper[unit * problem.T + hour]
    if problem.dr:
        assert problem.case.dr.incentive_ct_per_kwh > 0
    T, cells = problem.T, problem.net.n_bus * problem.T
    kinks = problem.load_cells(np.broadcast_to(np.arange(T) % 2 == 0, (problem.net.n_bus, T)))
    return _SplitDispatchNlp(problem, spec, lower, upper, 4 * T + np.arange(cells), kinks), xs


def _within_difference_error(exact, differenced):
    return np.abs(exact - differenced).max(initial=0.0) <= DIFFERENCE_TOL * np.abs(differenced).max(initial=0.0)


@pytest.mark.parametrize("variant", DERIVATIVE_CASES)
def test_exact_sensitivities_match_central_differences(benchmark_case, variant):
    # Each objective's gradient, the slack power's, and the magnitudes' at
    # every carried voltage cell and kink cell, against the batched central
    # differences the subproblem once took (oracles.split_differences).
    problem = _derivative_problem(benchmark_case, variant)
    nlp, xs = _kinked_subproblem(problem, ObjectiveSpec("cost"))
    grads, d_slack, d_cells = nlp._sensitivities(xs)
    ref_grads, ref_slack, ref_cells = split_differences(nlp, xs)
    for key in OBJECTIVE_KEYS:
        assert _within_difference_error(grads[key], ref_grads[key]), key
    assert _within_difference_error(d_slack, ref_slack)
    volt = nlp._volt_bus.size
    assert volt == problem.net.n_bus * problem.T and d_cells.shape[0] > volt
    assert _within_difference_error(d_cells[:volt], ref_cells[:volt])
    assert _within_difference_error(d_cells[volt:], ref_cells[volt:])


@pytest.mark.parametrize("variant", DERIVATIVE_CASES)
def test_every_specs_gradient_matches_central_differences(benchmark_case, variant):
    # The single specs and a weighted one bracketed 20 % below the idle
    # plan: the plan part of the gradient against the spec's chain over the
    # differenced objective gradients, and each kink cell's e at vdev's.
    problem = _derivative_problem(benchmark_case, variant)
    idle = problem.metrics(np.zeros(problem.n)).values
    bounds = {key: (0.8 * float(idle[key][0]), float(idle[key][0])) for key in OBJECTIVE_KEYS}
    weights = {"cost": 0.4, "loss": 0.2, "ens": 0.1, "vdev": 0.3}
    specs = [ObjectiveSpec(key) for key in OBJECTIVE_KEYS] + [ObjectiveSpec("weighted", weights=weights, bounds=bounds)]
    for spec in specs:
        nlp, xs = _kinked_subproblem(problem, spec)
        z = nlp.settle(xs)
        grad = nlp.derivatives(z)[0]
        chain = spec.chain(nlp._values(z))
        assert chain, spec.key
        differenced = split_differences(nlp, xs)[0]
        expected = sum(coeff * differenced[key] for key, coeff in chain.items())
        assert _within_difference_error(grad[: xs.size], expected), spec.key
        assert np.array_equal(grad[xs.size :], np.full(z.size - xs.size, chain.get("vdev", 0.0))), spec.key


def test_ens_gradient_chain_along_directions(problem):
    # Keep the SOC strictly inside its window so the piecewise-linear
    # restoration cost is smooth around the probe point, and keep the probe
    # direction on strictly interior coordinates so nothing clips.
    T = problem.T
    off = problem.n_units * T
    lower, upper = problem.split_bounds(problem.commitment_mask(np.zeros(problem.n)))
    xs = np.zeros(off + 2 * T)
    xs[off : off + 6] = 3.0
    xs[off + T + 6 : off + T + 12] = 2.5
    assert (xs >= lower).all() and (xs <= upper).all()
    bounds = {k: (0.0, 1.0) for k in ("cost", "loss", "ens", "vdev")}
    spec = ObjectiveSpec("weighted", weights={"cost": 0.0, "loss": 0.0, "ens": 1.0, "vdev": 0.0},
                         bounds=bounds)
    nlp = _SplitDispatchNlp(problem, spec, lower, upper, [])
    grad, _, _ = nlp.derivatives(xs)
    rng = np.random.default_rng(9)
    for _ in range(5):
        direction = np.zeros_like(xs)
        direction[off : off + 6] = rng.normal(size=6)
        direction[off + T + 6 : off + T + 12] = rng.normal(size=6)
        eps = 1e-5
        fd = (nlp.objective(xs + eps * direction) - nlp.objective(xs - eps * direction)) / (2.0 * eps)
        assert fd == pytest.approx(float(grad @ direction), rel=1e-5, abs=1e-9)


def test_refine_never_returns_worse_value(problem):
    rng = np.random.default_rng(10)
    spec = ObjectiveSpec("cost")
    cfg = SqpConfig(max_iterations=20)
    for seed in problem.seed_points()[2:3]:
        result = problem.refine(seed, spec, cfg)
        assert result.value <= result.seed_value + 1e-9 * max(1.0, abs(result.seed_value))
        m = problem.metrics(result.x)
        assert m.ok[0]
        assert float(m.violation[0]) <= 1e-7
        assert np.abs(problem.repair(result.x) - result.x).max() < 1e-9
        assert result.metrics.violation.tobytes() == m.violation.tobytes()
        assert all(result.metrics.values[k].tobytes() == m.values[k].tobytes() for k in m.values)


def test_refine_holds_the_seed_to_the_same_feasibility_test(benchmark_case):
    # Under tight voltage limits three SQP iterations end on a plan that
    # still breaks a screened voltage row by about 3e-7 pu.  It must not
    # replace the feasible seed, whose violation is 0.
    case = replace(benchmark_case, voltage_limits=(0.97, 1.03))
    problem = DispatchProblem(case)
    seed = problem.seed_points()[1]
    assert float(problem.metrics(seed).violation[0]) == 0.0
    result = problem.refine(seed, ObjectiveSpec("cost"), SqpConfig(max_iterations=3))
    m = problem.metrics(result.x)
    assert m.ok[0]
    assert float(m.violation[0]) <= 1e-7
    assert result.metrics.violation.tobytes() == m.violation.tobytes()


@pytest.mark.parametrize("variant", ["benchmark", "dr", "no-battery", "no-export-limit"])
def test_row_layout_matches_tuple_rows(benchmark_case, variant):
    case = {
        "no-battery": replace(benchmark_case, battery=None),
        "no-export-limit": replace(benchmark_case, export_limit_kw=math.inf),
    }.get(variant, benchmark_case)
    problem = DispatchProblem(case, dr=variant == "dr")
    x = problem.seed_points()[2]
    vmag = problem.metrics(x).vmag[:, 0, :]
    screened = tuple_screen_rows(problem, vmag)
    rows = problem.screen_rows(vmag)
    assert rows.tolist() == [tuple_row_index(problem, r) for r in screened]

    # A probe that breaks voltage, import and (when finite) export rows.
    rng = np.random.default_rng(3)
    v_probe = rng.uniform(problem.vmin - 0.02, problem.vmax + 0.02, vmag.shape)
    s_probe = rng.uniform(-1.5, 1.5, problem.T) * problem.import_limit
    violated = tuple_violated_rows(problem, v_probe, s_probe)
    assert {r[0] for r in violated} >= {"v_lo", "v_hi", "imp"}
    index_violated = problem.violated_rows(v_probe, s_probe)
    assert index_violated.tolist() == [tuple_row_index(problem, r) for r in violated]

    # The rows a refine round carries next: screened plus new violated ones.
    tuple_rows = screened + [r for r in violated if r not in screened]
    rows = np.concatenate([rows, index_violated[(index_violated[:, np.newaxis] != rows).all(axis=1)]])
    assert rows.tolist() == [tuple_row_index(problem, r) for r in tuple_rows]

    lower, upper = problem.split_bounds(problem.commitment_mask(x))
    xs = np.clip(problem.split_from_signed(x), lower, upper)
    nlp = _SplitDispatchNlp(problem, ObjectiveSpec("cost"), lower, upper, rows)
    m = nlp._eval(xs)
    reference = tuple_row_values(problem, tuple_rows, m.soc_kwh[0], m.slack_kw[0], m.vmag[:, 0, :])
    assert nlp.ineq_constraints(xs).tobytes() == reference.tobytes()
    d_slack = nlp._sensitivities(xs)[1]
    J_in = nlp.derivatives(xs)[2]
    d_vmag = _exact_dense_vmag(nlp, xs)
    assert J_in.tobytes() == tuple_row_jacobian(problem, tuple_rows, d_slack, d_vmag, xs.size).tobytes()


def _exact_dense_vmag(nlp, xs):
    """d(vmag)/dx (n_bus, T, ns) at every bus and hour: the exact voltage
    derivatives of a subproblem that carries every voltage cell."""
    p, ns = nlp.problem, xs.size
    every = 4 * p.T + np.arange(p.net.n_bus * p.T)
    dense = _SplitDispatchNlp(p, nlp.spec, nlp.lower[:ns], nlp.upper[:ns], every)._sensitivities(xs)[2]
    return dense.reshape(p.net.n_bus, p.T, ns)


@pytest.mark.parametrize("variant", ["benchmark", "dr", "sectioned"])
def test_voltage_row_derivatives_match_dense_differences(benchmark_case, variant):
    # Voltage derivatives at the carried rows only must equal, bit for bit,
    # the same rows gathered from the exact (n_bus, T, ns) derivatives at
    # every cell, and those the dense central differences to their error.
    case = sectioned_case(benchmark_case, 4) if variant == "sectioned" else benchmark_case
    problem = DispatchProblem(case, dr=variant == "dr")
    x = problem.seed_points()[2]
    lower, upper = problem.split_bounds(problem.commitment_mask(x))
    xs = np.clip(problem.split_from_signed(x), lower, upper)
    T, cells = problem.T, problem.net.n_bus * problem.T
    screened = problem.screen_rows(problem.metrics(x).vmag[:, 0, :])
    drawn = 4 * T + np.random.default_rng(11).choice(2 * cells, size=60, replace=False)
    rows = np.concatenate([screened, drawn[~np.isin(drawn, screened)]])
    volt = rows >= 4 * T
    assert volt.sum() >= 60 and (rows[volt] - 4 * T < cells).any() and (rows[volt] - 4 * T >= cells).any()

    nlp = _SplitDispatchNlp(problem, ObjectiveSpec("cost"), lower, upper, rows)
    J_in = nlp.derivatives(xs)[2]
    k = rows[volt] - 4 * T
    d_cells = _exact_dense_vmag(nlp, xs).reshape(cells, xs.size)[k % cells]
    dense = np.where((k < cells)[:, np.newaxis], -d_cells, d_cells)
    assert J_in[volt].tobytes() == dense.tobytes()
    differenced = dense_vmag_differences(nlp, xs).reshape(cells, xs.size)[k % cells]
    assert np.abs(d_cells - differenced).max() <= DIFFERENCE_TOL * np.abs(differenced).max()


def _first_hours(case, hours):
    return replace(
        case,
        horizon=hours,
        prices_ct_per_kwh=case.prices_ct_per_kwh[:hours],
        load_points=tuple(replace(lp, profile_kw=lp.profile_kw[:hours]) for lp in case.load_points),
        availability_kw={name: profile[:hours] for name, profile in case.availability_kw.items()},
    )


@pytest.mark.parametrize("variant", ["benchmark", "dr", "no-battery", "horizon-12"])
def test_hessian_blocks_partition_by_hour(benchmark_case, variant):
    case = {
        "no-battery": replace(benchmark_case, battery=None),
        "horizon-12": _first_hours(benchmark_case, 12),
    }.get(variant, benchmark_case)
    problem = DispatchProblem(case, dr=variant == "dr")
    x = problem.seed_points()[2]
    lower, upper = problem.split_bounds(problem.commitment_mask(x))
    blocks = _SplitDispatchNlp(problem, ObjectiveSpec("cost"), lower, upper, []).hessian_blocks()
    T = case.horizon
    assert blocks.shape == (T, problem.n_units + 2 + int(problem.dr))
    assert np.array_equal(np.sort(blocks, axis=None), np.arange(lower.size))
    assert (blocks % T == np.arange(T)[:, np.newaxis]).all()


def test_lagrangian_curvature_is_block_diagonal_by_hour(problem):
    # Differentiate the cost, loss and vdev gradients and the grid and
    # voltage rows' Jacobians once more, one free variable at a time, on the
    # benchmark's price-driven seed.  Entries that pair different hours must
    # sit at difference-noise level against those within one hour.
    T = problem.T
    x = problem.seed_points()[2]
    lower, upper = problem.split_bounds(problem.commitment_mask(x))
    xs = np.clip(problem.split_from_signed(x), lower, upper)
    rows = 4 * T + np.arange(problem.net.n_bus * T)
    nlp = _SplitDispatchNlp(problem, ObjectiveSpec("cost"), lower, upper, rows)

    def first_derivatives(z):
        # The rows are every bus-major voltage cell, so d_volt is all of d(vmag).
        grads, d_slack, d_volt = nlp._sensitivities(z)
        return np.vstack([grads["cost"], grads["loss"], grads["vdev"], d_slack, d_volt])

    hour = np.arange(xs.size) % T
    kinds = np.repeat(np.arange(5), [1, 1, 1, T, problem.net.n_bus * T])
    cross = np.zeros(5)
    within = np.zeros(5)
    for j in np.flatnonzero(~pinned_mask(lower, upper)):
        step = np.zeros(xs.size)
        step[j] = 1e-3 * max(1.0, abs(xs[j]))
        column = (first_derivatives(xs + step) - first_derivatives(xs - step)) / (2.0 * step[j])
        other = hour != hour[j]
        for kind in range(5):
            cross[kind] = max(cross[kind], np.abs(column[kinds == kind][:, other]).max())
            within[kind] = max(within[kind], np.abs(column[kinds == kind][:, ~other]).max())
    assert (within > 0).all()
    assert (cross <= 1e-6 * within).all(), (cross, within)


def test_violated_rows_flags_breaches(problem):
    T = problem.T
    n_bus = problem.net.n_bus
    vmag = np.ones((n_bus, T))
    slack = np.zeros(T)
    assert problem.violated_rows(vmag, slack).size == 0
    vmag[3, 7] = problem.vmin - 0.01
    slack[2] = problem.import_limit + 5.0
    rows = problem.violated_rows(vmag, slack)
    # Layout positions of v_lo at bus 3, hour 7 and of imp at hour 2.
    assert 4 * T + 3 * T + 7 in rows
    assert 2 * T + 2 in rows


def test_dr_requires_program(benchmark_case):
    from dataclasses import replace

    bare = replace(benchmark_case, dr=None)
    with pytest.raises(ValueError, match="demand response"):
        DispatchProblem(bare, dr=True)


# ---------------------------------------------------------------------------
# evaluations that share a compiled network


def _metrics_bytes(m):
    arrays = [m.values[key] for key in sorted(m.values)]
    arrays += [getattr(m, f.name) for f in fields(m) if f.name != "values"]
    return [(a.shape, a.dtype.str, a.tobytes()) for a in arrays]


def test_results_keep_their_bytes_through_later_calls(benchmark_case):
    # What a call hands out owns its memory, and later calls leave it
    # alone.  A sweep over the problem's injection rows is the all-bus
    # sweep, bit for bit.
    prob = DispatchProblem(benchmark_case)
    rng = np.random.default_rng(31)
    first = prob.metrics(prob.repair(_random_plans(prob, rng, 58)))
    kept = _metrics_bytes(first)
    p_units, p_batt, shift = prob.unpack(prob.repair(_random_plans(prob, rng, 3)))
    cons = prob._consumption(p_units, p_batt, shift, _plain_day(p_batt))
    rows = cons.reshape(cons.shape[0], -1).copy()
    s = np.zeros((prob.net.n_bus, rows.shape[1]), dtype=complex)
    s[prob.injections.inj] = rows
    owned = sweep(prob.net, s)
    fields_read = ("voltage", "branch_current", "slack_current", "injection_magnitude", "loss_pu",
                   "iterations", "converged", "collapsed")
    owned_bytes = [getattr(owned, name).tobytes() for name in fields_read]
    shared = sweep(prob.net, rows, injections=prob.injections)
    assert [getattr(shared, name).tobytes() for name in fields_read] == owned_bytes
    prob.metrics(prob.repair(_random_plans(prob, rng, 58)))
    prob.split_eval(np.vstack([prob.split_from_signed(x) for x in prob.repair(_random_plans(prob, rng, 14))]))
    sweep(prob.net, 2.0 * s)
    sweep(prob.net, 3.0 * rows, injections=prob.injections)
    assert _metrics_bytes(first) == kept
    assert [getattr(owned, name).tobytes() for name in fields_read] == owned_bytes


def test_problems_sharing_a_network_match_fresh_problems(benchmark_case):
    net = compile_network(benchmark_case)
    shared = (DispatchProblem(benchmark_case, net=net), DispatchProblem(benchmark_case, dr=True, net=net))
    rng = np.random.default_rng(32)
    calls = [(dr, shared[dr].repair(_random_plans(shared[dr], rng, count)))
             for dr, count in ((0, 58), (1, 14), (0, 1), (1, 58), (0, 4), (1, 2))]
    got = [_metrics_bytes(shared[dr].metrics(X)) for dr, X in calls]
    want = [_metrics_bytes(DispatchProblem(benchmark_case, dr=bool(dr)).metrics(X)) for dr, X in calls]
    assert got == want


def test_evaluations_on_one_network_are_reentrant(benchmark_case):
    # Every sweep and kernel call owns its arrays, so two threads may
    # evaluate the plain and the DR problem of one network at once.
    net = compile_network(benchmark_case)
    shared = (DispatchProblem(benchmark_case, net=net), DispatchProblem(benchmark_case, dr=True, net=net))
    rng = np.random.default_rng(35)
    calls = [(k % 2, shared[k % 2].repair(_random_plans(shared[k % 2], rng, 1 + k % 39))) for k in range(40)]
    want = [_metrics_bytes(shared[dr].metrics(X)) for dr, X in calls]
    mismatches = 0
    with ThreadPoolExecutor(2) as pool:
        for _ in range(5):
            got = pool.map(lambda call: _metrics_bytes(shared[call[0]].metrics(call[1])), calls)
            mismatches += sum(g != w for g, w in zip(got, want))
    assert mismatches == 0


@pytest.mark.parametrize("dr", [False, True])
def test_a_ga_evaluation_keeps_no_buses_by_columns_array(benchmark_case, dr, monkeypatch):
    # The GA reads values, violation and ok only, so its evaluation reads no
    # voltage at every bus and no branch current.  Consumption, iterates and
    # terms are all over the injection buses, 12 of the long feeder's 53;
    # the empty buses enter by bound.
    prob = DispatchProblem(sectioned_case(benchmark_case, 4), dr=dr)
    evaluate, _ = prob.ga_functions(ObjectiveSpec("cost"))
    plans = prob.repair(_random_plans(prob, np.random.default_rng(34), 58))

    def refuse(result):
        raise AssertionError("a lean evaluation read an array over every bus or branch")

    monkeypatch.setattr(SweepResult, "voltage", property(refuse))
    monkeypatch.setattr(SweepResult, "branch_current", property(refuse))
    iterate, rows = powerflow._iterate, []

    def spy(injections, s_inj, *args, **kwargs):
        rows.append(s_inj.shape[0])
        return iterate(injections, s_inj, *args, **kwargs)

    monkeypatch.setattr(powerflow, "_iterate", spy)
    evaluate(plans)
    assert 4 * prob.injections.inj.size < prob.net.n_bus
    assert rows and set(rows) == {prob.injections.inj.size}


def _kernel_problem(benchmark_case, variant):
    case = benchmark_case
    if variant.startswith("sectioned"):
        case = sectioned_case(case, 4)
    if variant == "sectioned-tight":
        case = replace(case, voltage_limits=(0.975, 1.02))
    if variant == "zero-load":
        # f1-4 carries a load and nothing else.
        case = replace(case, load_points=tuple(
            replace(lp, profile_kw=(0.0,) * case.horizon) if lp.bus == "f1-4" else lp for lp in case.load_points))
    if variant == "unit-only-bus":
        # f2-1 carries no load; MT moves there and the plans keep it off.
        case = replace(case, units=tuple(replace(u, bus="f2-1") if u.name == "MT" else u for u in case.units))
    return DispatchProblem(case, dr=variant == "dr")


# The bus of each variant that is in the problem's injection set but draws nothing.
IDLE_BUS = {"zero-load": "f1-4", "unit-only-bus": "f2-1"}


@pytest.mark.parametrize("variant", ["benchmark", "dr", "sectioned", "sectioned-tight", "zero-load", "unit-only-bus"])
def test_kernel_matches_the_all_bus_reference(benchmark_case, variant, monkeypatch):
    prob = _kernel_problem(benchmark_case, variant)
    exact = []
    rest_magnitude = SweepResult.rest_magnitude
    monkeypatch.setattr(SweepResult, "rest_magnitude",
                        lambda self, columns: exact.append(columns.size) or rest_magnitude(self, columns))
    plans = prob.repair(_random_plans(prob, np.random.default_rng(41), 58))
    if variant == "unit-only-bus":
        prob.blocks(plans)[:, [u.name for u in prob.case.units].index("MT")] = 0.0
    m = prob.metrics(plans)
    split = prob.split_eval(np.vstack([prob.split_from_signed(x) for x in plans]))
    values, violation, ok, vmag = all_bus_kernel(prob, plans)
    for key in OBJECTIVE_KEYS:
        np.testing.assert_allclose(m.values[key], values[key], rtol=1e-12, atol=0, err_msg=key)
    np.testing.assert_allclose(m.violation, violation, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(m.ok, ok)
    np.testing.assert_allclose(m.vmag, vmag, rtol=0, atol=1e-12)
    # split_eval, the kernel's other exact caller, runs the same rule on the
    # split form of the plans, bit for bit.
    for key in OBJECTIVE_KEYS:
        assert split.values[key].tobytes() == m.values[key].tobytes(), key
    assert split.violation.tobytes() == m.violation.tobytes() and split.ok.tobytes() == m.ok.tobytes()
    assert split.vmag.tobytes() == m.vmag.tobytes()

    section = np.array(["." in bus for bus in prob.net.bus_ids])
    if variant == "sectioned":
        assert not exact, "the transfer gain clears every column inside the default limits"
    if variant == "sectioned-tight":
        outside = (vmag[section] < 0.975) | (vmag[section] > 1.02)
        assert outside.any() and sum(exact) > 0
    if variant in IDLE_BUS:
        p_units, chg, dis, shift = prob._signed(plans)
        cons = prob._consumption(p_units, chg - dis, shift, _plain_day(chg))
        row = prob.injections.inj.tolist().index(prob.net.bus_index[IDLE_BUS[variant]])
        assert not cons[row].any()


def _at_median_limits(prob, plans):
    """The problem with its lower voltage limit at the median of the plans'
    lowest voltages and its import limit at the median of their peak
    imports, so that about half of them violate each."""
    m = prob.metrics(plans)
    low = float(np.median(m.vmag.min(axis=(0, 2))))
    case = replace(prob.case, voltage_limits=(low, prob.case.voltage_limits[1]),
                   grid_limit_kw=float(np.median(m.slack_kw.max(axis=1))))
    return DispatchProblem(case, dr=prob.dr)


@pytest.mark.parametrize("variant", ["benchmark", "dr", "sectioned", "sectioned-tight", "zero-load", "unit-only-bus"])
def test_ga_tolerance_keeps_the_exact_decisions(benchmark_case, variant):
    # The lean mode (the GA, the stage table) sweeps to GA_TOLERANCE and keeps
    # no per-bus array; metrics sweeps to the default 1e-10.  The two must
    # agree on which plans the sweep solves and which violate nothing, and
    # their values differ far below ga.PROGRESS (1e-3).
    prob = _kernel_problem(benchmark_case, variant)
    plans = np.vstack([prob.repair(_random_plans(prob, np.random.default_rng(42), 58)), prob.seed_points()])
    split = 0
    for p in (prob, _at_median_limits(prob, plans)):
        exact = p.metrics(plans)
        loose = p._evaluate(*p._signed(plans), lean=True)
        assert loose.vmag is None and loose.injection_voltage is None
        np.testing.assert_array_equal(loose.ok, exact.ok)
        np.testing.assert_array_equal(loose.violation == 0, exact.violation == 0)
        for key in OBJECTIVE_KEYS:
            np.testing.assert_allclose(loose.values[key], exact.values[key], rtol=1e-4, atol=0, err_msg=key)
        split += 0 < (exact.violation == 0).sum() < plans.shape[0]
    assert split, "the median limits leave some plans feasible and others not"


def test_ga_batches_sweep_to_the_ga_tolerance(benchmark_case, monkeypatch):
    # The GA's evaluate is the one caller of the looser tolerance; metrics
    # sweeps the same plans to the default.
    prob = DispatchProblem(benchmark_case)
    iterations, original = [], problem_mod.sweep

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        iterations.append(int(result.iterations.max()))
        return result

    monkeypatch.setattr(problem_mod, "sweep", recorded)
    evaluate, _ = prob.ga_functions(ObjectiveSpec("cost"))
    plans = prob.repair(_random_plans(prob, np.random.default_rng(43), 58))
    evaluate(plans)
    prob.metrics(plans)
    assert iterations[0] <= 3 and iterations[1] == 7


def _kink_nlp(problem, spec, plan=2):
    """A seed plan's subproblem with its screened rows and kinks; plan 2 is
    the price-driven seed."""
    x = problem.seed_points()[plan]
    vmag = problem.metrics(x).vmag[:, 0, :]
    lower, upper = problem.split_bounds(problem.commitment_mask(x))
    xs = np.clip(problem.split_from_signed(x), lower, upper)
    kinks = problem.load_cells(np.abs(1.0 - vmag) < KINK_MARGIN)
    assert kinks.size >= 20
    return _SplitDispatchNlp(problem, spec, lower, upper, problem.screen_rows(vmag), kinks), xs


def _vdev_specs():
    bounds = {"cost": (2.0e4, 3.5e4), "loss": (20.0, 40.0), "ens": (250.0, 400.0), "vdev": (2.3, 3.5)}
    weights = {"cost": 0.4, "loss": 0.2, "ens": 0.1, "vdev": 0.3}
    return [ObjectiveSpec("vdev"), ObjectiveSpec("weighted", weights=weights, bounds=bounds)]


@pytest.mark.parametrize("dr", [False, True])
def test_epigraph_objective_at_the_envelope_is_the_plans_score(benchmark_case, dr):
    problem = DispatchProblem(benchmark_case, dr=dr)
    for spec in _vdev_specs():
        nlp, xs = _kink_nlp(problem, spec)
        z = nlp.settle(xs)
        score = spec.score(problem.split_eval(xs[np.newaxis, :]))
        assert nlp.objective(z) == pytest.approx(score, rel=1e-13, abs=0)
        assert epigraph_objective(nlp, z) == pytest.approx(score, rel=1e-13, abs=0)
        # Off the envelope the objective reads e, not |1 - V|.
        lifted = z + np.concatenate([np.zeros(xs.size), np.linspace(0.0, 1e-3, z.size - xs.size)])
        assert nlp.objective(lifted) == pytest.approx(epigraph_objective(nlp, lifted), rel=1e-13, abs=0)
        assert nlp.objective(lifted) > nlp.objective(z)


@pytest.mark.parametrize("dr", [False, True])
def test_epigraph_rows_jacobian_matches_dense_differences(benchmark_case, dr):
    problem = DispatchProblem(benchmark_case, dr=dr)
    nlp, xs = _kink_nlp(problem, ObjectiveSpec("vdev"))
    z = nlp.settle(xs)
    ns, ne, m = xs.size, z.size - xs.size, nlp.rows.size
    _, J_eq, J_in = nlp.derivatives(z)
    assert J_in.shape == (m + 2 * ne, z.size) and J_eq.shape == (int(dr), z.size)

    # The (1 - V) - e rows, then the (V - 1) - e rows, over the split plan:
    # the kink cells of the exact voltage derivatives at every cell, bit for
    # bit, and of the dense central differences to their error.
    cells = problem.net.n_bus * problem.T
    kinks = nlp._kink_bus * problem.T + nlp._kink_hour
    d_kink = _exact_dense_vmag(nlp, xs).reshape(cells, ns)[kinks]
    assert J_in[m : m + ne, :ns].tobytes() == (-d_kink).tobytes()
    assert J_in[m + ne :, :ns].tobytes() == d_kink.tobytes()
    differenced = dense_vmag_differences(nlp, xs).reshape(cells, ns)[kinks]
    assert np.abs(d_kink - differenced).max() <= DIFFERENCE_TOL * np.abs(differenced).max()
    assert np.array_equal(J_in[m:, ns:], -np.vstack([np.eye(ne), np.eye(ne)]))
    assert not J_in[:m, ns:].any()

    # Every row against plain central differences of the rows themselves.
    naive = jacobian(nlp.ineq_constraints, z, m=m + 2 * ne)
    free = np.concatenate([~pinned_mask(nlp.lower[:ns], nlp.upper[:ns]), np.ones(ne, dtype=bool)])
    assert np.abs((J_in - naive)[:, free]).max() < 1e-4 * max(1.0, np.abs(naive).max())


def test_epigraph_gradient_matches_naive_fd(problem):
    nlp, xs = _kink_nlp(problem, ObjectiveSpec("vdev"))
    z = nlp.settle(xs)
    grad = nlp.derivatives(z)[0]
    assert np.array_equal(grad[xs.size :], np.ones(z.size - xs.size))
    # The kinks sit in e, and every other load-bus-hour is at least
    # KINK_MARGIN from 1.0 pu, so the objective is smooth around z.
    naive = gradient(nlp.objective, z)
    free = ~pinned_mask(nlp.lower, nlp.upper)
    assert np.abs((grad - naive)[free]).max() < 1e-4 * max(1.0, np.abs(naive[free]).max())


def _recorded_qps(monkeypatch):
    """The Hessian (a copy) and keyword arguments of every QP the SQP poses."""
    calls = []
    solve_qp = sqp.qp_subproblem

    def recording(H, g, **kwargs):
        calls.append({"H": H.copy(), **kwargs})
        return solve_qp(H, g, **kwargs)

    monkeypatch.setattr(sqp, "qp_subproblem", recording)
    return calls


@pytest.mark.parametrize("dr", [False, True])
def test_first_qp_warm_start_holds_the_envelope_rows(benchmark_case, dr, monkeypatch):
    # The SQP derives the warm start the subproblem once declared itself
    # (oracles.active_guess); any tag beyond it is a row exactly at 0.
    problem = DispatchProblem(benchmark_case, dr=dr)
    calls = _recorded_qps(monkeypatch)
    for plan in range(len(problem.seed_points())):
        nlp, xs = _kink_nlp(problem, ObjectiveSpec("vdev"), plan)
        z = nlp.settle(xs)
        calls.clear()
        sqp_solve(nlp, z, SqpConfig(max_iterations=1))
        warm = set(calls[0]["warm_start"])
        # The QP fixes a pinned variable and gives its bounds no tag.
        pinned = pinned_mask(nlp.lower, nlp.upper)
        guess = {tag for tag in active_guess(nlp, z) if tag[0] == "in" or not pinned[tag[1]]}
        assert guess <= warm
        cin = nlp.ineq_constraints(z)
        assert all(tag[0] == "in" and cin[tag[1]] == 0.0 for tag in warm - guess)


def test_first_qp_without_kinks_starts_from_the_free_bounds_it_sits_on(problem, monkeypatch):
    x = problem.seed_points()[2]
    lower, upper = problem.split_bounds(problem.commitment_mask(x))
    xs = np.clip(problem.split_from_signed(x), lower, upper)
    nlp = _SplitDispatchNlp(problem, ObjectiveSpec("cost"), lower, upper, [])
    calls = _recorded_qps(monkeypatch)
    sqp_solve(nlp, xs, SqpConfig(max_iterations=1))
    free = ~pinned_mask(lower, upper)
    on_bounds = [("hi", j) for j in np.flatnonzero(free & (xs >= upper))]
    on_bounds += [("lo", j) for j in np.flatnonzero(free & (xs <= lower))]
    assert on_bounds and sorted(calls[0]["warm_start"]) == sorted(on_bounds)


def test_epigraph_variables_keep_a_unit_diagonal(problem, monkeypatch):
    nlp, xs = _kink_nlp(problem, ObjectiveSpec("vdev"))
    blocks = nlp.hessian_blocks()
    assert blocks.shape == (problem.T, problem.n_units + 2)
    assert np.array_equal(np.sort(blocks, axis=None), np.arange(xs.size))
    calls = _recorded_qps(monkeypatch)
    sqp_solve(nlp, nlp.settle(xs), SqpConfig(max_iterations=10))
    e = np.arange(xs.size, nlp.n)
    assert len(calls) == 10 and e.size
    for call in calls:
        assert np.array_equal(call["H"][e], np.eye(nlp.n)[e])


def test_vdev_subproblem_measures_stationarity_against_its_plan_gradient(problem):
    # The vdev gradient is about 1e-3 pu per kW: against the default floor
    # of 1 a KKT tolerance would read as an absolute one.
    nlp, xs = _kink_nlp(problem, ObjectiveSpec("vdev"))
    grad = nlp.derivatives(nlp.settle(xs))[0]
    plan = float(np.abs(grad[: xs.size]).max())
    assert 0.0 < plan < 1e-2
    assert nlp.stationarity_scale(grad) == plan
    weighted = _kink_nlp(problem, _vdev_specs()[1])[0]
    assert weighted.stationarity_scale(grad) == 1.0


def test_vdev_solve_on_a_stiff_feeder_moves_off_its_seed(benchmark_case):
    # With every branch's impedance at 3 %, the vdev gradient at the DP plan
    # is so small that the default floor of 1 reads it as stationary at once:
    # without its own scale the solve stops `kkt` after one iteration at the
    # seed's value (0.0690449 pu); with it, it takes 34 to 0.0686868 pu.
    case = replace(benchmark_case, branches=tuple(
        replace(br, resistance_ohm=0.03 * br.resistance_ohm, reactance_ohm=0.03 * br.reactance_ohm)
        for br in benchmark_case.branches))
    stiff = DispatchProblem(case)
    spec = ObjectiveSpec("vdev")
    seed = dp_mod.plan(stiff, dp_mod.stage_table(stiff), spec)
    result = stiff.refine(seed, spec, SqpConfig())
    assert result.sqp.iterations > 1
    assert result.value < result.seed_value


def test_refine_carries_the_kinks_of_every_spec_that_weighs_vdev(problem, monkeypatch):
    # A weighted spec prices vdev, so its subproblem carries the seed's
    # load-bus-hours within KINK_MARGIN of 1.0 pu as epigraph cells, as the
    # vdev spec's does; a spec without a vdev slope carries none.
    carried = []
    nlp_class = problem_mod._SplitDispatchNlp

    def recording(*args, **kwargs):
        nlp = nlp_class(*args, **kwargs)
        carried.append(nlp._kink_bus * problem.T + nlp._kink_hour)
        return nlp

    monkeypatch.setattr(problem_mod, "_SplitDispatchNlp", recording)
    x = problem.repair(problem.seed_points()[2])[0]
    vmag = problem.metrics(x).vmag[:, 0, :]
    kinks = problem.load_cells(np.abs(1.0 - vmag) < KINK_MARGIN)
    assert kinks.size >= 20
    for spec, expected in [*((s, kinks) for s in _vdev_specs()), (ObjectiveSpec("loss"), kinks[:0])]:
        carried.clear()
        problem.refine(x, spec, SqpConfig(max_iterations=1), max_rounds=1)
        assert np.array_equal(carried[0], expected), spec.key
