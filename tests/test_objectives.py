import numpy as np
import pytest

from mgopt.devices import zero_schedule
from mgopt.objectives import (
    OBJECTIVE_KEYS,
    ObjectiveValues,
    degenerate_bracket,
    normalize_objective,
    weights_from_sequence,
)
from mgopt.optimizer import ObjectiveSpec, evaluate_objectives
from mgopt.powerflow import PowerFlowSolution, solve_horizon

from oracles import (
    expected_outage_cost,
    network_loss_energy,
    operation_cost,
    outage_cost_loop,
    voltage_deviation,
)


def _flat_solution(bus_ids, horizon=24, slack_kw=100.0, voltage=1.0):
    n = len(bus_ids)
    return PowerFlowSolution(
        bus_ids=tuple(bus_ids),
        branch_ids=(),
        voltage=np.full((horizon, n), voltage, dtype=complex),
        branch_current=np.zeros((horizon, 0), dtype=complex),
        loss_kw=np.zeros(horizon),
        slack_kw=np.full(horizon, slack_kw),
        slack_kvar=np.zeros(horizon),
        iterations=np.ones(horizon, dtype=int),
        converged=np.ones(horizon, dtype=bool),
        collapsed=np.zeros(horizon, dtype=bool),
    )


def test_flat_import_cost(benchmark_case):
    """100 kW imported for 24 h at a flat 10 ct/kWh prices out at 24000 ct."""
    from dataclasses import replace

    case = replace(benchmark_case, prices_ct_per_kwh=(10.0,) * 24)
    schedule = zero_schedule(len(case.units), case.horizon)
    solution = _flat_solution(case.bus_ids(), slack_kw=100.0)
    cost = operation_cost(case, schedule, solution)
    assert cost == 24000.0


def test_cost_includes_units_battery_and_incentive(benchmark_case):
    from dataclasses import replace

    case = replace(
        benchmark_case,
        prices_ct_per_kwh=(0.0,) * 24,
        dr=replace(benchmark_case.dr, incentive_ct_per_kwh=2.0),
    )
    schedule = zero_schedule(len(case.units), case.horizon, dr=True)
    fc = [u.name for u in case.units].index("FC")
    schedule.dg_setpoints[fc, 0] = 30.0
    schedule.battery_power[0] = 10.0
    schedule.battery_power[1] = -10.0
    schedule.dr_shift[2] = 5.0
    schedule.dr_shift[3] = -5.0
    solution = _flat_solution(case.bus_ids(), slack_kw=0.0)
    cost = operation_cost(case, schedule, solution)
    # FC half load + battery throughput both ways + incentive on moved-in energy
    assert cost == pytest.approx(341.6 + 0.38 * 20.0 + 2.0 * 5.0, abs=1e-12)


def test_export_earns_price(benchmark_case):
    schedule = zero_schedule(len(benchmark_case.units), benchmark_case.horizon)
    solution = _flat_solution(benchmark_case.bus_ids(), slack_kw=-10.0)
    cost = operation_cost(benchmark_case, schedule, solution)
    assert cost == pytest.approx(-10.0 * sum(benchmark_case.prices_ct_per_kwh), abs=1e-9)


def test_loss_energy_scales_with_period(benchmark_case):
    from dataclasses import replace

    solution = solve_horizon(benchmark_case)
    assert network_loss_energy(benchmark_case, solution) == pytest.approx(
        solution.loss_kw.sum(), abs=1e-12
    )
    half = replace(benchmark_case, period_hours=0.5)
    assert network_loss_energy(half, solution) == pytest.approx(
        0.5 * solution.loss_kw.sum(), abs=1e-12
    )


def test_voltage_deviation_hand_value(benchmark_case):
    solution = _flat_solution(benchmark_case.bus_ids(), voltage=0.95)
    load_buses = {lp.bus for lp in benchmark_case.load_points}
    expected = 0.05 * 24 * len(load_buses)
    assert voltage_deviation(benchmark_case, solution) == pytest.approx(expected, abs=1e-12)


def test_voltage_deviation_single_bus_example():
    """One load bus at 0.95 pu all day deviates by 1.2 pu-hours."""
    from mgopt.netmodel import Bus, LoadPoint, MicrogridCase, OutageCostTable

    case = MicrogridCase(
        name="one-bus",
        buses=(Bus("mv", "slack"), Bus("b1")),
        branches=(),
        load_points=(LoadPoint("b1", "domestic", (5.0,) * 24),),
        units=(),
        battery=None,
        grid_limit_kw=100.0,
        prices_ct_per_kwh=(5.0,) * 24,
        availability_kw={},
        contingencies=(),
        outage_costs=OutageCostTable.from_mapping({"domestic": 50.0}),
    )
    solution = _flat_solution(("mv", "b1"), voltage=1.0)
    solution.voltage[:, 1] = 0.95
    assert voltage_deviation(case, solution) == pytest.approx(1.2, abs=1e-12)


def test_expected_outage_cost_delegates(benchmark_case):
    schedule = zero_schedule(len(benchmark_case.units), benchmark_case.horizon)
    from mgopt.devices import soc_trajectory

    soc = soc_trajectory(benchmark_case.battery, schedule.battery_power)
    assert expected_outage_cost(benchmark_case, schedule) == pytest.approx(
        outage_cost_loop(benchmark_case, soc), abs=1e-9
    )


def test_evaluate_objectives_bundle(benchmark_case):
    schedule = zero_schedule(len(benchmark_case.units), benchmark_case.horizon)
    values = evaluate_objectives(benchmark_case, schedule)
    assert values.cost > 0 and values.loss > 0 and values.ens > 0 and values.vdev > 0
    assert values["cost"] == values.cost
    assert values.as_dict() == {
        "cost": values.cost,
        "loss": values.loss,
        "ens": values.ens,
        "vdev": values.vdev,
    }
    assert np.array_equal(values.as_array(), [values.cost, values.loss, values.ens, values.vdev])


def test_evaluate_objectives_matches_oracle_and_checks_setpoints(benchmark_case):
    from mgopt.optimizer import DispatchProblem

    import oracles

    problem = DispatchProblem(benchmark_case, dr=True)
    rng = np.random.default_rng(5)
    plan = problem.repair(problem.lower + rng.random(problem.n) * (problem.upper - problem.lower))
    schedule = problem.schedule(plan)
    assert schedule.dr_shift is not None and np.abs(schedule.dr_shift).max() > 0
    kernel = evaluate_objectives(benchmark_case, schedule)
    oracle = oracles.evaluate_objectives(benchmark_case, schedule)
    for key in OBJECTIVE_KEYS:
        assert kernel[key] == pytest.approx(oracle[key], rel=1e-9, abs=0.0), key

    fc = [u.name for u in benchmark_case.units].index("FC")
    p_max = benchmark_case.units[fc].p_max_kw
    within = schedule.copy()
    within.dg_setpoints[fc, 0] = p_max * (1.0 + 1e-10)
    evaluate_objectives(benchmark_case, within)
    for bad in (p_max * (1.0 + 1e-6), -1e-6):
        outside = schedule.copy()
        outside.dg_setpoints[fc, 3] = bad
        with pytest.raises(ValueError, match="outside"):
            evaluate_objectives(benchmark_case, outside)
        with pytest.raises(ValueError, match="outside"):
            oracles.evaluate_objectives(benchmark_case, outside)


def test_normalize_and_bounds():
    assert normalize_objective(5.0, (0.0, 10.0)) == 0.5
    assert normalize_objective(-3.0, (0.0, 10.0)) == 0.0
    assert normalize_objective(42.0, (0.0, 10.0)) == 1.0
    with pytest.warns(UserWarning, match="degenerate"):
        assert normalize_objective(5.0, (7.0, 7.0), "loss") == 0.0


def test_degenerate_bracket_contributes_nothing_everywhere():
    """The CLI table and both optimiser paths drop a degenerate key alike."""
    weights = weights_from_sequence([0.25, 0.25, 0.25, 0.25])
    for low in (7.0, 0.0, -3e5, 1e9):
        high = low + 1e-13 * max(1.0, abs(low))
        assert degenerate_bracket(low, high)
        assert not degenerate_bracket(low, low + 1e-9 * max(1.0, abs(low)))
        bounds = {key: (0.0, 10.0) for key in OBJECTIVE_KEYS}
        bounds["loss"] = (low, high)
        for clamp in (False, True):
            spec = ObjectiveSpec("weighted", weights=weights, bounds=bounds, clamp_upper=clamp)
            for loss in (low - 1.0, low, high, low + 5.0):
                values = {"cost": 5.0, "loss": loss, "ens": 2.0, "vdev": 1.0}
                with pytest.warns(UserWarning, match="degenerate"):
                    assert normalize_objective(loss, bounds["loss"], "loss") == 0.0
                assert spec.scalar(values) == pytest.approx(0.25 * 0.5 + 0.25 * 0.2 + 0.25 * 0.1, abs=1e-15)
                array = spec.scalar_array({k: np.array([v, v + 1.0]) for k, v in values.items()})
                assert array[1] - array[0] == pytest.approx(0.25 * (0.1 + 0.1 + 0.1), abs=1e-15)
                assert "loss" not in spec.chain(values)
                assert set(spec.chain(values)) == {"cost", "ens", "vdev"}


def test_weighted_total_hand_value():
    values = ObjectiveValues(cost=5.0, loss=10.0, ens=0.0, vdev=1.0)
    bounds = {"cost": (0.0, 10.0), "loss": (0.0, 10.0), "ens": (0.0, 10.0), "vdev": (0.0, 2.0)}
    weights = weights_from_sequence([0.25, 0.25, 0.25, 0.25])
    spec = ObjectiveSpec("weighted", weights=weights, bounds=bounds, clamp_upper=True)
    assert spec.scalar(values.as_dict()) == pytest.approx(
        0.25 * 0.5 + 0.25 * 1.0 + 0.25 * 0.0 + 0.25 * 0.5, abs=1e-12
    )


def test_weights_from_sequence_validates():
    with pytest.raises(ValueError, match="4 weights"):
        weights_from_sequence([0.5, 0.5])
    for bad in ([-1, 2, np.nan, 0], [-0.1, 0.4, 0.4, 0.3], [np.inf, 0, 0, 0], [0.25, np.nan, 0.5, 0.25]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            weights_from_sequence(bad)
    mapping = weights_from_sequence([0.1, 0.2, 0.3, 0.4])
    assert list(mapping) == list(OBJECTIVE_KEYS)
