import numpy as np
import pytest

from mgopt.devices import DispatchSchedule, soc_trajectory, zero_schedule
from mgopt.netmodel import Battery, DgUnit

from oracles import (
    battery_feasibility,
    dg_cost,
    grid_feasibility,
    repair_battery_powers,
    soc_loop,
    threshold_commitment,
    unit_feasibility,
)


def _battery(eta_c=0.9, eta_d=0.9, delta=0.002, soc0=20.0, p_max=15.0):
    return Battery(
        bus="b",
        soc_min_kwh=0.0,
        soc_max_kwh=200.0,
        soc_initial_kwh=soc0,
        p_max_kw=p_max,
        eta_charge=eta_c,
        eta_discharge=eta_d,
        self_discharge_per_h=delta,
    )


def test_soc_single_charge_step():
    battery = _battery(eta_c=1.0, eta_d=1.0, delta=0.0)
    soc = soc_trajectory(battery, [4.0])
    assert soc[0] == 24.0


def test_soc_single_discharge_step():
    battery = _battery(eta_c=1.0, eta_d=0.9, delta=0.0)
    soc = soc_trajectory(battery, [-4.0])
    assert soc[0] == 20.0 - 4.0 / 0.9


def test_soc_self_discharge_decay():
    battery = _battery(delta=0.01, soc0=40.0)
    soc = soc_trajectory(battery, np.zeros(24))
    state = 40.0
    for t in range(24):
        state = state * 0.99
        assert soc[t] == state
    assert np.allclose(soc, 40.0 * 0.99 ** np.arange(1, 25), rtol=1e-14)


def test_soc_energy_conservation_at_unit_efficiency():
    rng = np.random.default_rng(3)
    battery = _battery(eta_c=1.0, eta_d=1.0, delta=0.0, soc0=50.0)
    for _ in range(50):
        p = rng.uniform(-10, 10, 24)
        soc = soc_trajectory(battery, p)
        total = 50.0
        for value in p:
            total += value
        assert soc[-1] == total


def test_soc_round_trip_efficiency():
    rng = np.random.default_rng(4)
    for _ in range(50):
        eta_c = rng.uniform(0.7, 1.0)
        eta_d = rng.uniform(0.7, 1.0)
        p = rng.uniform(0.5, 15.0)
        battery = _battery(eta_c=eta_c, eta_d=eta_d, delta=0.0, soc0=30.0)
        stored = soc_trajectory(battery, [p])[0] - 30.0
        discharge = -stored * eta_d
        back = soc_trajectory(battery, [p, discharge])
        recovered = -discharge
        assert abs(back[1] - 30.0) < 1e-12
        assert abs(recovered - p * eta_c * eta_d) < 1e-12


def test_soc_matches_literal_loop():
    rng = np.random.default_rng(5)
    for _ in range(20):
        eta_c = rng.uniform(0.7, 1.0)
        eta_d = rng.uniform(0.7, 1.0)
        delta = rng.uniform(0.0, 0.01)
        p = rng.uniform(-12, 12, 24)
        battery = _battery(eta_c=eta_c, eta_d=eta_d, delta=delta, soc0=25.0)
        expected = soc_loop(25.0, p, eta_c, eta_d, delta)
        assert np.allclose(soc_trajectory(battery, p), expected, rtol=0, atol=1e-12)


def test_soc_batch_rows_match_single():
    battery = _battery()
    rng = np.random.default_rng(6)
    block = rng.uniform(-10, 10, (5, 24))
    batch = soc_trajectory(battery, block)
    for i in range(5):
        assert np.array_equal(batch[i], soc_trajectory(battery, block[i]))


def test_soc_initial_override():
    battery = _battery(eta_c=1.0, eta_d=1.0, delta=0.0)
    assert soc_trajectory(battery, [2.0], soc_initial_kwh=5.0)[0] == 7.0


def test_dg_cost_values():
    fc = DgUnit("FC", "b", 5.0, 40.0, 10.72, 20.0)
    mt = DgUnit("MT", "b", 6.0, 30.0, 17.38, 7.0)
    assert dg_cost(fc, 30.0) == 341.6
    assert dg_cost(mt, 6.0) == 111.28
    assert dg_cost(fc, 0.0) == 0.0
    assert dg_cost(fc, 10.0, committed=False) == 0.0
    assert dg_cost(fc, 0.0, committed=True) == 20.0
    with pytest.raises(ValueError):
        dg_cost(fc, 41.0)
    with pytest.raises(ValueError):
        dg_cost(fc, -1.0)


def test_threshold_commitment():
    unit = DgUnit("MT", "b", 6.0, 30.0, 17.38, 7.0)
    assert threshold_commitment(unit, 1.0) == 0.0
    assert threshold_commitment(unit, 2.9) == 0.0
    assert threshold_commitment(unit, 3.1) == 6.0
    assert threshold_commitment(unit, 6.0) == 6.0
    assert threshold_commitment(unit, 17.0) == 17.0
    assert threshold_commitment(unit, 35.0) == 30.0
    assert threshold_commitment(unit, -2.0) == 0.0
    pv = DgUnit("PV", "b", 0.0, 25.0, 1.2, 0.0, renewable=True)
    assert threshold_commitment(pv, 0.5) == 0.5


def test_repair_battery_respects_soc_box():
    battery = Battery("b", 8.0, 48.0, 20.0, 15.0, 0.9, 0.9, 0.002)
    rng = np.random.default_rng(7)
    for _ in range(30):
        p = rng.uniform(-15, 15, 24)
        fixed = repair_battery_powers(battery, p)
        soc = soc_trajectory(battery, fixed)
        assert soc.min() >= battery.soc_min_kwh - 1e-9
        assert soc.max() <= battery.soc_max_kwh + 1e-9
        assert np.abs(fixed).max() <= battery.p_max_kw + 1e-12
        again = repair_battery_powers(battery, fixed)
        assert np.allclose(again, fixed, atol=1e-12)


def test_repair_keeps_feasible_plans():
    battery = Battery("b", 8.0, 48.0, 20.0, 15.0, 0.9, 0.9, 0.002)
    p = np.full(24, 1.0)
    assert np.array_equal(repair_battery_powers(battery, p), p)


def test_battery_feasibility_reports_violations():
    battery = Battery("b", 8.0, 48.0, 20.0, 15.0, 0.9, 0.9, 0.0)
    ok = battery_feasibility(battery, np.zeros(24))
    assert ok == []
    over = np.zeros(24)
    over[0] = 20.0
    violations = battery_feasibility(battery, over)
    assert any(v.kind == "battery_power" and v.hour == 0 for v in violations)
    drain = np.full(24, -15.0)
    violations = battery_feasibility(battery, drain)
    assert any(v.kind == "soc_min" for v in violations)
    stuff = np.full(24, 15.0)
    violations = battery_feasibility(battery, stuff)
    assert any(v.kind == "soc_max" for v in violations)


def _caps(case):
    caps = np.zeros((len(case.units), case.horizon))
    for i, unit in enumerate(case.units):
        for t in range(case.horizon):
            caps[i, t] = case.unit_cap_kw(unit, t)
    return caps


def test_grid_and_unit_feasibility(benchmark_case):
    case = benchmark_case
    schedule = zero_schedule(len(case.units), case.horizon)
    from mgopt.powerflow import solve_horizon

    solution = solve_horizon(case, schedule)
    assert grid_feasibility(case.grid_limit_kw, solution.slack_kw, case.export_limit_kw) == []
    caps = _caps(case)
    assert unit_feasibility(case.units, schedule.dg_setpoints, caps) == []

    mt = [u.name for u in case.units].index("MT")
    schedule.dg_setpoints[mt, :] = 2.0
    bad = unit_feasibility(case.units, schedule.dg_setpoints, caps)
    assert any(v.kind == "MT_commit" for v in bad)
    schedule.dg_setpoints[mt, :] = 0.0
    schedule.dg_setpoints[0, 0] = 30.0
    bad = unit_feasibility(case.units, schedule.dg_setpoints, caps)
    assert any(v.kind == "PV1_max" and v.hour == 0 for v in bad)
    schedule.dg_setpoints[0, 0] = -1.0
    bad = unit_feasibility(case.units, schedule.dg_setpoints, caps)
    assert any(v.kind == "PV1_min" for v in bad)

    too_much = np.full(case.horizon, 400.0)
    assert any(v.kind == "grid_import" for v in grid_feasibility(case.grid_limit_kw, too_much, case.export_limit_kw))
    assert any(v.kind == "grid_export" for v in grid_feasibility(case.grid_limit_kw, -too_much, case.export_limit_kw))
    assert grid_feasibility(150.0, np.array([-140.0])) == []
    assert any(v.kind == "grid_export" for v in grid_feasibility(150.0, np.array([-160.0])))


def test_schedule_shape_validation():
    with pytest.raises(ValueError, match="2-D"):
        DispatchSchedule(np.zeros(24), np.zeros(24))
    with pytest.raises(ValueError, match="horizon"):
        DispatchSchedule(np.zeros((2, 24)), np.zeros(23))
    with pytest.raises(ValueError, match="horizon"):
        DispatchSchedule(np.zeros((2, 24)), np.zeros(24), np.zeros(4))
    schedule = zero_schedule(2, 24, dr=True)
    copied = schedule.copy()
    copied.dg_setpoints[0, 0] = 1.0
    assert schedule.dg_setpoints[0, 0] == 0.0
    assert schedule.horizon == 24
