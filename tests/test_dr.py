import re
from dataclasses import replace

import numpy as np
import pytest

from mgopt.devices import DispatchSchedule
from mgopt.dr import apply_shift, participating_demand_kw, shift_bounds_kw
from mgopt.netmodel import DrProgram
from mgopt.optimizer import evaluate_objectives, run_scenario
from mgopt.powerflow import solve_horizon


def _total_load(case):
    total = np.zeros(case.horizon)
    for lp in case.load_points:
        total += np.asarray(lp.profile_kw, dtype=float)
    return total


def test_participating_demand_sums_enrolled_categories(benchmark_case):
    total = participating_demand_kw(benchmark_case)
    manual = np.zeros(benchmark_case.horizon)
    for lp in benchmark_case.load_points:
        if lp.category in ("domestic", "commercial"):
            manual += np.asarray(lp.profile_kw, dtype=float)
    assert np.array_equal(total, manual)
    assert np.array_equal(
        shift_bounds_kw(benchmark_case),
        benchmark_case.dr.shiftable_fraction * manual,
    )


def test_zero_shift_is_identity(benchmark_case):
    shifted = apply_shift(benchmark_case, np.zeros(24))
    for before, after in zip(benchmark_case.load_points, shifted.load_points):
        assert before.profile_kw == after.profile_kw


def test_shift_moves_energy_between_hours(benchmark_case):
    shift = np.zeros(24)
    shift[19] = -5.0
    shift[3] = 5.0
    shifted = apply_shift(benchmark_case, shift)
    before = _total_load(benchmark_case)
    after = _total_load(shifted)
    assert after[19] == pytest.approx(before[19] - 5.0, abs=1e-9)
    assert after[3] == pytest.approx(before[3] + 5.0, abs=1e-9)
    assert after.sum() == pytest.approx(before.sum(), abs=1e-6)
    untouched = [t for t in range(24) if t not in (3, 19)]
    assert np.abs(after[untouched] - before[untouched]).max() < 1e-12


def test_shift_distributes_proportionally(benchmark_case):
    shift = np.zeros(24)
    shift[19] = -4.0
    shift[3] = 4.0
    shifted = apply_shift(benchmark_case, shift)
    total = participating_demand_kw(benchmark_case)
    for before, after in zip(benchmark_case.load_points, shifted.load_points):
        if before.category not in benchmark_case.dr.participating:
            assert before.profile_kw == after.profile_kw
            continue
        for t in (3, 19):
            share = before.profile_kw[t] / total[t]
            expected = before.profile_kw[t] + share * shift[t]
            assert after.profile_kw[t] == pytest.approx(expected, abs=1e-9)


def test_non_neutral_shift_rejected(benchmark_case):
    shift = np.zeros(24)
    shift[0] = 1.0
    with pytest.raises(ValueError, match="energy neutral"):
        apply_shift(benchmark_case, shift)


def test_removal_beyond_cap_rejected(benchmark_case):
    bound = shift_bounds_kw(benchmark_case)
    shift = np.zeros(24)
    shift[19] = -(bound[19] + 1.0)
    shift[3] = bound[19] + 1.0
    with pytest.raises(ValueError, match="cap is"):
        apply_shift(benchmark_case, shift)


def test_shift_shape_and_finiteness_checked(benchmark_case):
    with pytest.raises(ValueError, match="shape"):
        apply_shift(benchmark_case, np.zeros(23))
    bad = np.zeros(24)
    bad[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        apply_shift(benchmark_case, bad)


def test_case_without_program_rejected(benchmark_case):
    bare = replace(benchmark_case, dr=None)
    with pytest.raises(ValueError, match="no demand response"):
        apply_shift(bare, np.zeros(24))
    with pytest.raises(ValueError, match="no demand response"):
        participating_demand_kw(bare)
    with pytest.raises(ValueError, match="no demand response"):
        run_scenario(bare, 5, dr=True)


def test_adding_load_without_recipients_rejected(benchmark_case):
    # Participating demand is zero at hour 0 only, so a positive shift there
    # has nothing to distribute onto while the matching removal stays within
    # its cap.
    lp = benchmark_case.load_points[0]
    profile = (0.0,) + (10.0,) * 23
    case = replace(
        benchmark_case,
        load_points=(replace(lp, category="domestic", profile_kw=profile),),
        dr=DrProgram(shiftable_fraction=0.5, participating=("domestic",)),
    )
    shift = np.zeros(24)
    shift[0] = 1.0
    shift[5] = -1.0
    with pytest.raises(ValueError, match="no participating demand"):
        apply_shift(case, shift)


def test_applied_shift_matches_schedule_shift(benchmark_case):
    """Folding the shift into profiles equals carrying it on the schedule."""
    shift = np.zeros(24)
    shift[19] = -6.0
    shift[7] = 2.0
    shift[3] = 4.0
    folded = solve_horizon(apply_shift(benchmark_case, shift))

    from mgopt.devices import DispatchSchedule

    n_units = len(benchmark_case.units)
    schedule = DispatchSchedule(np.zeros((n_units, 24)), np.zeros(24), shift.copy())
    carried = solve_horizon(benchmark_case, schedule)
    assert np.abs(np.abs(folded.voltage) - np.abs(carried.voltage)).max() < 1e-9
    assert np.abs(folded.slack_kw - carried.slack_kw).max() < 1e-6


def test_zero_fraction_degenerates_to_weighted(benchmark_case, fast_config):
    from mgopt.optimizer import run_suite

    frozen = replace(
        benchmark_case,
        dr=replace(benchmark_case.dr, shiftable_fraction=0.0),
    )
    result = run_scenario(frozen, 5, config=fast_config, dr=True)
    schedule, objectives = result.schedule, result.objectives
    assert schedule.dr_shift is not None
    assert not schedule.dr_shift.any()
    assert result.ga_generations is None  # the shortcut runs no GA
    plain = run_suite(benchmark_case, config=fast_config).results["weighted"]
    assert np.array_equal(schedule.dg_setpoints, plain.schedule.dg_setpoints)
    assert np.array_equal(schedule.battery_power, plain.schedule.battery_power)
    for key in ("cost", "loss", "ens", "vdev"):
        assert objectives[key] == pytest.approx(plain.objectives[key], rel=1e-9)


def refused_shifts(case):
    """(shift, what the refusal says) for a lone 5 kW addition at hour 3 and
    a neutral shift that removes ten times hour 3's cap."""
    lone = np.zeros(case.horizon)
    lone[3] = 5.0
    over = np.zeros(case.horizon)
    cap = shift_bounds_kw(case)[3]
    over[3], over[4] = -10.0 * cap, 10.0 * cap
    return [(lone, "not energy neutral"), (over, "at hour 3, cap is")]


def test_evaluate_objectives_refuses_what_apply_shift_refuses(benchmark_case):
    units = np.zeros((len(benchmark_case.units), benchmark_case.horizon))
    for shift, message in refused_shifts(benchmark_case):
        with pytest.raises(ValueError, match=message):
            apply_shift(benchmark_case, shift)
        with pytest.raises(ValueError, match=message):
            evaluate_objectives(benchmark_case, DispatchSchedule(units, np.zeros(benchmark_case.horizon), shift))


def grid_only(case):
    return DispatchSchedule(np.zeros((len(case.units), case.horizon)), np.zeros(case.horizon))


def refused_setpoints(case):
    """(schedule, what the refusal says) for setpoints no optimiser plan
    holds: 900 kW of charge at hour 4, a 500 kW MT setpoint at hour 4, a
    nan unit setpoint at hour 2, full discharge from hour 0, which empties
    the battery below its window at hour 0 within the power limit, 25 kW of
    PV1 at hour 0, where none is available, and 3 kW of MT at hour 0,
    under its 6 kW minimum."""
    mt = [u.name for u in case.units].index("MT")
    charge, unit, nan, drain, dark, low = (grid_only(case) for _ in range(6))
    charge.battery_power[4] = 900.0
    unit.dg_setpoints[mt, 4] = 500.0
    nan.dg_setpoints[0, 2] = np.nan
    drain.battery_power[:] = -case.battery.p_max_kw
    dark.dg_setpoints[0, 0] = 25.0
    low.dg_setpoints[mt, 0] = 3.0
    return [
        (charge, "battery_kw at hour 4: 900 kW outside [-15, 15] kW"),
        (unit, "MT at hour 4: 500 kW outside [0, 30] kW"),
        (nan, "PV1 at hour 2: nan kW"),
        (drain, "battery_kw at hour 0: SOC 3.29333 kWh outside [8, 48] kWh"),
        (dark, "PV1 at hour 0: 25 kW outside [0, 0] kW"),
        (low, "MT at hour 0: 3 kW outside 0 or [6, 30] kW"),
    ]


@pytest.mark.parametrize("index", [*range(6), "committable PV"])
def test_evaluate_objectives_refuses_setpoints_out_of_limits(benchmark_case, index):
    # 900 kW of charge was priced (36,103 ct on the grid-only plan), a nan
    # setpoint surfaced as a voltage collapse, and 25 kW of PV1 in the dark,
    # 3 kW of MT and a unit running where its cap is under its minimum were
    # priced as given.
    if index == "committable PV":
        case, schedule, message = committable_pv_case(benchmark_case)
    else:
        case, (schedule, message) = benchmark_case, refused_setpoints(benchmark_case)[index]
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_objectives(case, schedule)


def committable_pv_case(case):
    """The case with PV1 committable at a 5 kW minimum, above its 1.25 kW
    of availability at hour 6; a plan that runs it at 1 kW there; and what
    the refusal says."""
    units = tuple(replace(u, p_min_kw=5.0) if u.name == "PV1" else u for u in case.units)
    variant = replace(case, units=units)
    schedule = grid_only(variant)
    schedule.dg_setpoints[0, 6] = 1.0
    return variant, schedule, "PV1 at hour 6: 1 kW outside 0 or [5, 1.25] kW"


