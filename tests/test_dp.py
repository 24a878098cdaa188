"""The stage table and the dynamic programme over the state of charge that
seed every row, against independent references, and the GA fallback where
the programme finds no plan."""

from dataclasses import replace

import numpy as np
import pytest

import mgopt.optimizer.dp as dp_mod
import mgopt.optimizer.problem as problem_mod
from mgopt.netmodel import DgUnit
from mgopt.objectives import OBJECTIVE_KEYS, weights_from_sequence
from mgopt.optimizer import DispatchProblem, GaConfig, ObjectiveSpec, OptimizerConfig, SqpConfig, run_suite
from mgopt.optimizer.dp import STAGE_BATCH_COLUMNS
from mgopt.powerflow import sweep
from mgopt.reliability import ContingencyEvaluator

from oracles import (
    all_bus_kernel,
    grid_minimum,
    grid_plan_score,
    grid_unit_options,
    outage_cost_loop,
    sectioned_case,
    stage_batches,
    streamed_stage_minima,
    truncated_case,
)

WEIGHTS = {"cost": 0.157, "loss": 0.483, "ens": 0.272, "vdev": 0.088}

SMALL = OptimizerConfig(ga=GaConfig(population=12, generations=5), sqp=SqpConfig(max_iterations=8),
                        seed=0, refine_rounds=1)


def _specs(problem, weights=WEIGHTS):
    """The four single specs and a weighted spec bracketed 20 % below the grid-only plan."""
    idle = problem.metrics(np.zeros(problem.n)).values
    bounds = {key: (0.8 * float(idle[key][0]), float(idle[key][0])) for key in OBJECTIVE_KEYS}
    return [ObjectiveSpec(key) for key in OBJECTIVE_KEYS] + [ObjectiveSpec("weighted", weights=weights, bounds=bounds)]


@pytest.mark.parametrize("horizon, start", [(1, 12), (1, 19), (2, 7), (2, 18)])
def test_dp_plan_is_the_grid_minimum(benchmark_case, horizon, start):
    # On one- and two-hour cuts of the packaged case every battery path of
    # the grid can be enumerated.  The DP plan is a grid point, so it can be
    # no better than the best one, and its table at GA_TOLERANCE and its
    # interpolated SOC grid must still find it: scored at 1e-10 both agree
    # to the sweep's last bits.
    problem = DispatchProblem(truncated_case(benchmark_case, horizon, start=start))
    table = dp_mod.stage_table(problem)
    for spec in _specs(problem):
        slopes = spec.slopes()
        best, _ = grid_minimum(problem, slopes)
        score = grid_plan_score(problem, slopes, dp_mod.plan(problem, table, spec))
        assert abs(score - best) <= 1e-9 * abs(best), (spec.key, score, best)


def test_streamed_minima_equal_a_whole_table_argmin(benchmark_case):
    # The whole (combination, level, hour) table in one batch, then its
    # argmin over combinations; the stored table is scored hour by hour in
    # batches of at most STAGE_BATCH_COLUMNS columns, several to an hour
    # here.  The tight voltage band rules out part of the grid.
    problem = DispatchProblem(truncated_case(replace(benchmark_case, voltage_limits=(0.97, 1.03)), 2, start=17))
    specs = _specs(problem)
    levels = problem.case.battery.p_max_kw * np.arange(-10, 11) / 10.0
    options = grid_unit_options(problem)
    grid = np.array([[options[i][k] for i, k in enumerate(row)] for row in np.ndindex(*map(len, options))])
    L, T = levels.size, problem.T
    assert len(grid) * L > 5 * STAGE_BATCH_COLUMNS
    p_batt = np.tile(np.repeat(levels[:, np.newaxis], T, axis=1), (len(grid), 1))
    m = problem._evaluate(np.repeat(grid, L, axis=0), np.maximum(p_batt, 0.0), np.maximum(-p_batt, 0.0), None,
                          lean=True)
    feasible = (m.converged & (m.hourly_violation == 0.0)).reshape(len(grid), L, T)
    assert feasible.any() and not feasible.all()
    hourly = {"cost": m.hourly_cost, "loss": m.hourly_loss_kw * problem.dt, "vdev": m.hourly_vdev}
    table = dp_mod.stage_table(problem)
    np.testing.assert_array_equal(table.battery_kw, levels)
    for spec in specs:
        low, units = dp_mod._minima(table, spec)
        value = np.zeros((len(grid) * L, T))
        for key, coeff in spec.slopes().items():
            if key != "ens":
                value = value + coeff * hourly[key]
        value = np.where(feasible, value.reshape(len(grid), L, T), np.inf)
        pick = value.argmin(axis=0)
        np.testing.assert_allclose(low, value.min(axis=0), rtol=1e-12, atol=0, err_msg=spec.key)
        expected = grid[pick[:, np.newaxis, :], np.arange(problem.n_units)[:, np.newaxis], np.arange(T)]
        np.testing.assert_array_equal(units, expected, err_msg=spec.key)


@pytest.mark.parametrize("cut", ["two-hour-tight-band", "sectioned", "unplannable-hour"])
def test_stored_table_minima_equal_the_streamed_minima_bytewise(benchmark_case, cut):
    # The front's minima against the running minima over every distinct
    # column in the table's scoring batches (oracles.streamed_stage_minima),
    # byte for byte: the single specs, a weighted spec, one with a zero
    # weight, and seeded random nonnegative weights, three of them with a
    # zero entry.  On the tight band part of the grid is infeasible; the
    # sectioned day's night hours repeat every renewable column (cap 0 and
    # cap/2), and a repeated point is never stored, where the streamed
    # minima score it and keep its first occurrence on the tie; an hour with
    # no feasible point holds inf and no setpoints.  The front holds
    # counting points alone, with the terms the batches scored, and every
    # counting distinct point it drops is weakly dominated by an earlier
    # kept point of its (level, hour) cell.
    if cut == "sectioned":
        case = sectioned_case(benchmark_case, 4)
    elif cut == "unplannable-hour":
        case = _unplannable_hour(benchmark_case)
    else:
        case = truncated_case(replace(benchmark_case, voltage_limits=(0.97, 1.03)), 2, start=17)
    problem = DispatchProblem(case)
    weights = np.random.default_rng(45).random((4, 4))
    weights[[0, 1, 2], [1, 3, 0]] = 0.0
    specs = _specs(problem) + [_specs(problem, weights_from_sequence(w))[-1] for w in ([2, 1, 1, 0], *weights)]
    assert specs[5].weights["vdev"] == 0.0
    table = dp_mod.stage_table(problem)
    T = problem.T
    if cut == "sectioned":
        repeats = 0
        for t in range(T):
            first = {}
            for c, row in enumerate(map(tuple, table.units[:, :, t])):
                repeats += row in first
                first.setdefault(row, c)
            stored = table.combination[table.cell % T == t]
            assert all(first[tuple(table.units[c, :, t])] == c for c in stored), t
        assert repeats == 2_160
    batches = stage_batches(problem)
    terms = np.stack([table.hourly[key] for key in ("cost", "loss", "vdev")])
    kept = {}
    for i, (cell, c) in enumerate(zip(table.cell.tolist(), table.combination.tolist())):
        kept.setdefault(cell, {})[c] = i
    found = dropped = 0
    for t, combos, levels, counts, hourly in batches:
        batch_terms = np.stack([hourly[key] for key in ("cost", "loss", "vdev")])
        for j, (c, level) in enumerate(zip(combos.tolist(), levels.tolist())):
            cell = kept.get(level * T + t, {})
            if c in cell:
                found += 1
                assert counts[j] and terms[:, cell[c]].tobytes() == batch_terms[:, j].tobytes(), (c, level, t)
            elif counts[j]:
                dropped += 1
                earlier = [i for other, i in cell.items() if other < c]
                assert (terms[:, earlier] <= batch_terms[:, j, np.newaxis]).all(axis=0).any(), (c, level, t)
    assert found == table.cell.size > 0 and dropped > 0
    for spec, (value, units) in zip(specs, streamed_stage_minima(problem, specs, batches)):
        low, picked = dp_mod._minima(table, spec)
        assert low.tobytes() == value.tobytes(), spec
        assert picked.tobytes() == units.tobytes(), spec


def test_the_stage_table_sweeps_each_distinct_column_once(benchmark_case, monkeypatch):
    # The packaged grid is 288 combinations x 21 battery levels x 24 hours,
    # 145,152 points.  Within an hour, points with equal unit setpoints (a
    # renewable at a zero cap sits at 0 at both shares) are one column,
    # which leaves 99,792.  Each is swept once, hour by hour in batches of
    # at most STAGE_BATCH_COLUMNS (1,008), the table prices no outage cost,
    # and it stores only the front, every point of it distinct.
    problem = DispatchProblem(benchmark_case)
    swept = []

    def counting(net, consumption, **kwargs):
        swept.append(consumption.shape[1])
        return sweep(net, consumption, **kwargs)

    def refused(*args):
        raise AssertionError("the stage table priced an outage cost")

    monkeypatch.setattr(problem_mod, "sweep", counting)
    monkeypatch.setattr(ContingencyEvaluator, "cost_batch", refused)
    table = dp_mod.stage_table(problem)
    L, T = table.battery_kw.size, problem.T
    distinct = L * sum(len({tuple(row) for row in table.units[:, :, t]}) for t in range(T))
    assert len(table.units) * L * T == 145_152
    assert sum(swept) == distinct == 99_792
    assert max(swept) == STAGE_BATCH_COLUMNS == 1_008
    assert len(set(zip(table.cell.tolist(), table.combination.tolist()))) == table.cell.size < distinct


def test_hourly_terms_sum_to_the_per_plan_values(benchmark_case):
    # The outage cost per hour sums to cost_batch and to the loop reference;
    # priced one hour at a time it is that hour's column.  The violation per
    # plan and hour sums to the all-bus reference's per-plan violation.
    case = replace(benchmark_case, voltage_limits=(0.975, 1.02))
    problem = DispatchProblem(case)
    rng = np.random.default_rng(29)
    plans = problem.repair(problem.lower + rng.random((24, problem.n)) * (problem.upper - problem.lower))
    m = problem.metrics(plans)
    evaluator = ContingencyEvaluator(case)
    hourly = evaluator.hourly(m.soc_kwh)
    assert hourly.shape == (24, case.horizon)
    assert np.array_equal(hourly.sum(axis=1), evaluator.cost_batch(m.soc_kwh))
    for row, soc in zip(hourly, m.soc_kwh):
        assert abs(row.sum() - outage_cost_loop(case, soc)) <= 1e-12 * outage_cost_loop(case, soc)
    for t in (0, 11, 23):
        assert np.array_equal(evaluator.hourly(m.soc_kwh[:, t : t + 1], slice(t, t + 1))[:, 0], hourly[:, t])

    _, violation, ok, _ = all_bus_kernel(problem, plans)
    assert ok.all() and (violation > 0).sum() > 12
    assert np.array_equal(m.violation, m.hourly_violation.sum(axis=1))
    np.testing.assert_allclose(m.hourly_violation.sum(axis=1), violation, rtol=1e-12, atol=1e-15)


def _with_units(case, count):
    """The case with ``count`` more microturbines, each a copy of MT at its bus."""
    mt = next(u for u in case.units if u.name == "MT")
    extra = tuple(replace(mt, name=f"MT{k}") for k in range(2, 2 + count))
    return replace(case, units=case.units + extra)


def _check_rows(suite, dp):
    """Every optimised row is feasible, refined no worse than its seed, and
    ran the GA's generations exactly where the DP found no plan."""
    for key, result in suite.results.items():
        assert result.feasible, key
        if result.ga_generations is None:
            continue
        assert result.value <= result.ga_value + 1e-9 * max(1.0, abs(result.ga_value)), key
        assert (result.ga_generations == 0) == dp, (key, result.ga_generations)


def test_nine_committable_units_exceed_the_column_cap(benchmark_case):
    case = truncated_case(_with_units(benchmark_case, 7), 4, start=10)
    assert sum(u.committable for u in case.units) == 9
    assert dp_mod.stage_table(DispatchProblem(case)) is None
    _check_rows(run_suite(case, SMALL), dp=False)


def _unplannable_hour(case):
    """A three-hour cut with a 300 kW array at f3-5 whose half output
    overruns the zero export limit at hour 1, where only curtailing it
    below half can hold."""
    sun = DgUnit(name="PV3", bus="f3-5", p_min_kw=0.0, p_max_kw=300.0, cost_slope_ct_per_kwh=0.0, renewable=True)
    case = truncated_case(case, 3, start=11)
    return replace(case, units=case.units + (sun,), export_limit_kw=0.0,
                   availability_kw=dict(case.availability_kw, PV3=(0.0, 300.0, 0.0)))


def test_an_hour_without_a_feasible_grid_point_leaves_the_row_to_the_ga(benchmark_case):
    case = _unplannable_hour(benchmark_case)
    problem = DispatchProblem(case)
    table = dp_mod.stage_table(problem)
    value, _ = dp_mod._minima(table, ObjectiveSpec("cost"))
    assert np.isinf(value[:, 1]).all() and np.isfinite(value[:, [0, 2]]).any(axis=0).all()
    assert dp_mod.plan(problem, table, ObjectiveSpec("cost")) is None
    _check_rows(run_suite(case, SMALL), dp=False)


@pytest.mark.parametrize("variant", ["no-battery", "no-contingencies", "horizon-1", "horizon-48", "half-hour", "no-dr"])
def test_edge_cases_are_seeded_by_the_dp(benchmark_case, variant):
    case = benchmark_case
    if variant == "no-battery":
        case = replace(case, battery=None)
    if variant == "no-contingencies":
        case = replace(case, contingencies=())
    if variant == "horizon-1":
        case = truncated_case(case, 1, start=18)
    if variant == "horizon-48":
        case = replace(
            case, horizon=48, prices_ct_per_kwh=case.prices_ct_per_kwh * 2,
            availability_kw={name: series * 2 for name, series in case.availability_kw.items()},
            load_points=tuple(replace(lp, profile_kw=lp.profile_kw * 2) for lp in case.load_points),
        )
    if variant == "half-hour":
        case = replace(case, period_hours=0.5)
    if variant == "no-dr":
        case = replace(case, dr=None)
    suite = run_suite(case, SMALL)
    assert ("dr" in suite.results) == (case.dr is not None)
    _check_rows(suite, dp=True)


def test_the_dp_path_is_seed_independent(benchmark_case, suite):
    # At the default configuration every row starts from its DP plan and the
    # GA runs no generation, so seeds 0 and 1 publish the same schedules.
    other = run_suite(benchmark_case, OptimizerConfig(seed=1))
    assert suite.seed == 0
    for key, result in suite.results.items():
        schedule, rival = result.schedule, other.results[key].schedule
        assert schedule.dg_setpoints.tobytes() == rival.dg_setpoints.tobytes(), key
        assert schedule.battery_power.tobytes() == rival.battery_power.tobytes(), key
        assert (schedule.dr_shift is None) == (rival.dr_shift is None), key
        if schedule.dr_shift is not None:
            assert schedule.dr_shift.tobytes() == rival.dr_shift.tobytes(), key
    assert suite.totals == other.totals
