from dataclasses import replace

import numpy as np
import pytest

from mgopt.devices import soc_trajectory, zero_schedule
from mgopt.netmodel import (
    Battery,
    Branch,
    Bus,
    Contingency,
    LoadPoint,
    MicrogridCase,
    OutageCostTable,
    validate_case,
)
from mgopt.reliability import ContingencyEvaluator, island_partition

from oracles import (
    contingency_cost,
    contingency_rows,
    island_of,
    sectioned_case,
    outage_cost_loop,
    restoration,
    unsupplied_energy_cost,
)


def _mini_case(soc_initial=8.0, p_max=5.0, rate=0.01, repair=4.0):
    return validate_case(
        MicrogridCase(
            name="mini",
            buses=(Bus("mv", "slack"), Bus("b1")),
            branches=(Branch("l1", "mv", "b1", 0.01, 0.01),),
            load_points=(LoadPoint("b1", "domestic", (10.0,) * 24, 0.95),),
            units=(),
            battery=Battery("b1", 0.0, 50.0, soc_initial, p_max, 1.0, 1.0, 0.0),
            grid_limit_kw=100.0,
            prices_ct_per_kwh=(5.0,) * 24,
            availability_kw={},
            contingencies=(Contingency("c1", "l1", rate, repair),),
            outage_costs=OutageCostTable.from_mapping({"domestic": 50.0}),
        )
    )


def test_island_partition_benchmark(benchmark_case):
    all_buses = {b.id for b in benchmark_case.buses} - {"mv"}
    assert island_partition(benchmark_case, "transformer") == frozenset(all_buses)
    assert island_partition(benchmark_case, "l-f1") == frozenset({"f1-1", "f1-2", "f1-3", "f1-4"})
    assert island_partition(benchmark_case, "l-f3-4") == frozenset({"f3-4", "f3-5"})
    with pytest.raises(KeyError):
        island_partition(benchmark_case, "no-such-line")
    for case in (benchmark_case, sectioned_case(benchmark_case, 4)):
        for element in ["transformer"] + [br.id for br in case.branches]:
            assert island_partition(case, element) == island_of(case, element)


def test_headroom_uses_the_unit_dispatch_cap(benchmark_case):
    # Validation lets availability exceed the nameplate by 1e-9; the cap
    # clips it, so the island headroom and the dispatch bound agree.  At hour
    # 12 both islands holding PV1 have demand left over its headroom, and with
    # the battery at its floor each unclipped 5e-10 kW would lower the cost.
    pv = benchmark_case.unit("PV1")
    profile = list(benchmark_case.availability_kw["PV1"])
    profile[12] = pv.p_max_kw + 5e-10
    case = validate_case(replace(benchmark_case, availability_kw={**benchmark_case.availability_kw, "PV1": tuple(profile)}))
    assert case.unit_cap_kw(pv, 12) == pv.p_max_kw
    floor = np.full((1, case.horizon), case.battery.soc_min_kwh)
    assert ContingencyEvaluator(case).cost_batch(floor) == ContingencyEvaluator(benchmark_case).cost_batch(floor)


def test_restoration_battery_energy_limited():
    case = _mini_case()
    islanded = island_partition(case, "l1")
    s_out, s_rdg, s_rst = restoration(case, None, 0, islanded, 4.0)
    assert s_out == 10.0
    assert s_rdg == 0.0
    assert s_rst == 2.0  # 8 kWh above the floor spread over 4 repair hours


def test_restoration_power_limited():
    case = _mini_case(soc_initial=50.0, p_max=5.0)
    islanded = island_partition(case, "l1")
    _, _, s_rst = restoration(case, None, 0, islanded, 4.0)
    assert s_rst == 5.0


def test_restoration_demand_limited():
    case = _mini_case(soc_initial=50.0, p_max=30.0, repair=1.0)
    islanded = island_partition(case, "l1")
    s_out, s_rdg, s_rst = restoration(case, None, 0, islanded, 1.0)
    assert s_rst == s_out - s_rdg == 10.0


def test_restoration_soc_override():
    case = _mini_case()
    islanded = island_partition(case, "l1")
    _, _, s_rst = restoration(case, None, 0, islanded, 4.0, soc_kwh=0.0)
    assert s_rst == 0.0


def test_mini_case_expected_cost_by_hand():
    case = _mini_case()
    # rate * dt * repair * price * shortfall = 0.01 * 1 * 4 * 50 * 8 per hour
    assert unsupplied_energy_cost(case) == pytest.approx(24 * 16.0, abs=1e-9)


def test_evaluator_matches_literal_loop(benchmark_case):
    evaluator = ContingencyEvaluator(benchmark_case)
    rng = np.random.default_rng(11)
    battery = benchmark_case.battery
    for _ in range(10):
        soc = rng.uniform(battery.soc_min_kwh, battery.soc_max_kwh, benchmark_case.horizon)
        expected = outage_cost_loop(benchmark_case, soc)
        assert contingency_cost(evaluator, soc) == pytest.approx(expected, abs=1e-9)
    assert contingency_cost(evaluator, None) == pytest.approx(outage_cost_loop(benchmark_case, None), abs=1e-9)


def _soc_block(case, rows, seed):
    """SOC trajectories below, inside and above the battery's window."""
    battery = case.battery
    return np.random.default_rng(seed).uniform(battery.soc_min_kwh - 5.0, battery.soc_max_kwh + 5.0, (rows, case.horizon))


def test_cost_batch_matches_rows(benchmark_case):
    # A row's cost does not depend on what it is batched with, to the bit.
    for case in (benchmark_case, sectioned_case(benchmark_case, 4)):
        evaluator = ContingencyEvaluator(case)
        block = _soc_block(case, 7, 12)
        batch = evaluator.cost_batch(block)
        for i in range(block.shape[0]):
            assert batch[i] == evaluator.cost_batch(block[i : i + 1])[0]


def test_cost_does_not_depend_on_record_order(benchmark_case):
    block = _soc_block(benchmark_case, 5, 13)
    base = ContingencyEvaluator(benchmark_case).cost_batch(block)
    for field in ("contingencies", "load_points"):
        case = validate_case(replace(benchmark_case, **{field: getattr(benchmark_case, field)[::-1]}))
        np.testing.assert_allclose(ContingencyEvaluator(case).cost_batch(block), base, rtol=1e-12, atol=0.0)


def test_cost_scales_with_the_outage_costs(benchmark_case):
    steps = {category: tuple((d, 3.0 * c) for d, c in rows) for category, rows in benchmark_case.outage_costs.steps.items()}
    tripled = validate_case(replace(benchmark_case, outage_costs=OutageCostTable(steps)))
    block = _soc_block(benchmark_case, 5, 14)
    np.testing.assert_allclose(
        ContingencyEvaluator(tripled).cost_batch(block),
        3.0 * ContingencyEvaluator(benchmark_case).cost_batch(block),
        rtol=1e-12,
        atol=0.0,
    )


def test_contingencies_away_from_the_battery_ignore_its_soc(benchmark_case):
    away = tuple(c for c in benchmark_case.contingencies if benchmark_case.battery.bus not in island_of(benchmark_case, c.element))
    assert 0 < len(away) < len(benchmark_case.contingencies)
    case = validate_case(replace(benchmark_case, contingencies=away))
    costs = ContingencyEvaluator(case).cost_batch(_soc_block(case, 9, 15))
    assert costs[0] > 0.0
    assert (costs == costs[0]).all()


def test_cost_monotone_in_soc(benchmark_case):
    evaluator = ContingencyEvaluator(benchmark_case)
    battery = benchmark_case.battery
    levels = np.linspace(battery.soc_min_kwh, battery.soc_max_kwh, 8)
    costs = [contingency_cost(evaluator, np.full(benchmark_case.horizon, level)) for level in levels]
    assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))
    assert costs[0] > costs[-1]


def test_charging_reduces_outage_cost(benchmark_case):
    schedule = zero_schedule(len(benchmark_case.units), benchmark_case.horizon)
    idle = unsupplied_energy_cost(benchmark_case, schedule)
    charged = schedule.copy()
    charged.battery_power[:8] = 10.0
    assert unsupplied_energy_cost(benchmark_case, charged) < idle


def test_contingency_rows_sum_to_expected_cost(benchmark_case):
    schedule = zero_schedule(len(benchmark_case.units), benchmark_case.horizon)
    schedule.battery_power[:4] = 5.0
    rows = contingency_rows(benchmark_case, schedule)
    assert len(rows) == len(benchmark_case.contingencies) * benchmark_case.horizon
    total = sum(r["expected_cost_ct"] for r in rows)
    assert total == pytest.approx(unsupplied_energy_cost(benchmark_case, schedule), abs=1e-9)
    for r in rows:
        assert r["shortfall_kw"] >= 0.0
        assert r["islanded_kw"] >= r["dg_restored_kw"] + r["battery_restored_kw"] - 1e-12


def test_soc_consistency_between_paths(benchmark_case):
    schedule = zero_schedule(len(benchmark_case.units), benchmark_case.horizon)
    schedule.battery_power[:] = np.linspace(-5, 5, benchmark_case.horizon)
    soc = soc_trajectory(benchmark_case.battery, schedule.battery_power)
    direct = unsupplied_energy_cost(benchmark_case, schedule)
    via_soc = unsupplied_energy_cost(benchmark_case, soc_kwh=soc)
    assert direct == pytest.approx(via_soc, abs=1e-12)
