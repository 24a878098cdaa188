import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mgopt.netmodel import load_benchmark_case
from mgopt.objectives import OBJECTIVE_KEYS
import mgopt.optimizer.dp as dp_mod
from mgopt.optimizer import (
    SCENARIO_KEYS,
    SCENARIO_LABELS,
    DispatchProblem,
    GaConfig,
    OptimizerConfig,
    SqpConfig,
    evaluate_objectives,
    grid_only_schedule,
    resolve_weights,
    run_scenario,
    run_suite,
    scenario_key,
)
from mgopt.optimizer.sqp import CONVERGED
from mgopt.powerflow import PowerFlowError, VoltageCollapseError, solve_horizon

from oracles import truncated_case


@pytest.fixture(scope="module")
def fast_suite(benchmark_case):
    from mgopt.optimizer import GaConfig

    config = OptimizerConfig(ga=GaConfig(population=16, generations=12), seed=7)
    return run_suite(benchmark_case, config=config)


def test_scenario_keys_and_labels():
    assert SCENARIO_KEYS == ("baseline", "cost", "loss", "ens", "vdev", "weighted")
    assert scenario_key(0) == "baseline"
    assert scenario_key(5) == "weighted"
    with pytest.raises(ValueError, match="scenario id"):
        scenario_key(6)
    assert SCENARIO_LABELS["weighted"] == "Fifth scenario without DR"
    assert SCENARIO_LABELS["dr"] == "Fifth scenario with DR"


def test_grid_only_schedule_is_idle(benchmark_case):
    schedule = grid_only_schedule(benchmark_case)
    assert not schedule.dg_setpoints.any()
    assert not schedule.battery_power.any()
    assert schedule.dr_shift is None
    assert grid_only_schedule(benchmark_case, dr=True).dr_shift is not None


def test_resolve_weights_precedence(benchmark_case):
    from dataclasses import replace

    explicit, ratio = resolve_weights(benchmark_case, [0.4, 0.3, 0.2, 0.1])
    assert explicit["cost"] == 0.4 and ratio == 0.0

    with_field = replace(benchmark_case, weights=(0.1, 0.2, 0.3, 0.4))
    from_field, ratio = resolve_weights(with_field)
    assert from_field["vdev"] == 0.4 and ratio == 0.0

    from_matrix, ratio = resolve_weights(benchmark_case)
    assert ratio > 0.0
    assert sum(from_matrix.values()) == pytest.approx(1.0, abs=1e-9)

    bare = replace(benchmark_case, weights=None, judgment_matrix=None)
    from_default, _ = resolve_weights(bare)
    assert from_default["loss"] == pytest.approx(0.483, abs=5e-3)

    # The API refuses what validate_case and the CLI refuse.
    with pytest.raises(ValueError, match="finite and nonnegative"):
        run_suite(benchmark_case, weights=[-1, 1, 1, 1])


def test_suite_covers_all_scenarios(fast_suite):
    assert set(fast_suite.results) == set(SCENARIO_KEYS) | {"dr"}
    for key, result in fast_suite.results.items():
        assert result.key == key
        assert result.label == SCENARIO_LABELS[key]
        assert result.feasible, key
        assert result.violation <= 1e-6


def test_each_optimised_scenario_reports_its_ga_generations(fast_suite, benchmark_case, fast_config, monkeypatch):
    # Every row of the packaged case starts from a DP plan, so its GA scores
    # one population and runs no generation.  Where the DP finds no plan the
    # GA runs its budget, and reports at least one generation of it.
    assert fast_suite.results["baseline"].ga_generations is None
    for key in OBJECTIVE_KEYS + ("weighted", "dr"):
        assert fast_suite.results[key].ga_generations == 0, key
    monkeypatch.setattr(dp_mod, "stage_table", lambda problem: None)
    fallback = run_suite(benchmark_case, config=fast_config)
    assert fallback.results["baseline"].ga_generations is None
    for key in OBJECTIVE_KEYS + ("weighted", "dr"):
        assert 1 <= fallback.results[key].ga_generations <= 12, key


def test_a_suite_scores_the_stage_table_at_most_once(benchmark_case, monkeypatch):
    # On the DP path the four single rows and the weighted row share one
    # scoring, and the DR row reads none; past STAGE_COLUMN_CAP the one
    # call finds no table and the GA seeds every row.
    calls = []
    stage_table = dp_mod.stage_table

    def counting(problem):
        table = stage_table(problem)
        calls.append(table is not None)
        return table

    monkeypatch.setattr(dp_mod, "stage_table", counting)
    config = OptimizerConfig(ga=GaConfig(population=12, generations=5), sqp=SqpConfig(max_iterations=8),
                             refine_rounds=1)
    suite = run_suite(truncated_case(benchmark_case, 6, start=9), config)
    assert calls == [True] and "dr" in suite.results
    assert all(suite.results[key].ga_generations == 0 for key in OBJECTIVE_KEYS + ("weighted", "dr"))
    calls.clear()
    mt = benchmark_case.unit("MT")
    extra = tuple(replace(mt, name=f"MT{k}") for k in range(2, 4))
    suite = run_suite(truncated_case(replace(benchmark_case, units=benchmark_case.units + extra), 3, start=9), config)
    assert len(calls) <= 1 and not any(calls)
    assert all(suite.results[key].ga_generations >= 1 for key in OBJECTIVE_KEYS + ("weighted", "dr"))


_NO_RANDOM = """
import sys
from mgopt import load_benchmark_case, run_suite
suite = run_suite(load_benchmark_case())
assert all(r.ga_generations in (None, 0) for r in suite.results.values())
print("numpy.random" in sys.modules)
"""


def test_a_default_suite_never_imports_numpy_random():
    # Every row of the packaged case starts from its DP plan, whose GA draws
    # no random plan, so no generator is made and numpy.random (about 6 MB
    # of resident memory) is never imported.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, MGOPT_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _NO_RANDOM], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_every_optimised_row_of_the_default_suite_converges(suite):
    # The shared suite fixture: default config, seed 0, DR included.  The vdev
    # solve's |1 - V| kink no longer stalls it short of a first-order point.
    assert suite.results["baseline"].sqp_status is None
    for key in OBJECTIVE_KEYS + ("weighted", "dr"):
        result = suite.results[key]
        assert result.sqp_status in CONVERGED, (key, result.sqp_status, result.sqp_iterations, result.sqp_kkt)
        assert result.sqp_iterations == len(result.trace) >= 1


def test_dr_lowers_cost_and_loss_but_not_ens_at_seed_0(suite):
    # README's statement of the paper's DR claim, at the shared suite's seed:
    # against the weighted row, the DR row pays less and loses less, and its
    # expected outage cost is higher.  vdev moves either way across seeds.
    weighted = suite.results["weighted"].objectives.as_dict()
    dr = suite.results["dr"].objectives.as_dict()
    assert dr["cost"] < weighted["cost"]
    assert dr["loss"] < weighted["loss"]
    assert dr["ens"] > weighted["ens"]


def test_baseline_anchors_normalisation(fast_suite):
    # The initial state sits at the top of every normalisation bracket, so
    # its weighted total is the weight sum.
    assert fast_suite.totals["baseline"] == pytest.approx(sum(fast_suite.weights.values()), abs=1e-9)
    for key in OBJECTIVE_KEYS:
        low, high = fast_suite.bounds[key]
        assert low <= high
        assert high == pytest.approx(fast_suite.results["baseline"].objectives[key], rel=1e-6)


def test_each_scenario_minimises_its_own_column(fast_suite):
    for key in OBJECTIVE_KEYS:
        own = fast_suite.results[key].objectives[key]
        for other in fast_suite.results.values():
            rel = 1e-6 * max(1.0, abs(own))
            assert own <= other.objectives[key] + rel, (key, other.key)


def test_weighted_totals_ordering(fast_suite):
    weighted = fast_suite.totals["weighted"]
    for key in SCENARIO_KEYS:
        assert weighted <= fast_suite.totals[key] + 1e-9, key
    assert fast_suite.totals["dr"] <= weighted + 1e-9


def test_table_is_the_kernel_evaluation(benchmark_case, fast_suite):
    # The table, the totals and the dominance checks read the same numbers,
    # so the guarantees hold with no tolerance.
    from mgopt.optimizer import DispatchProblem

    problems = {False: DispatchProblem(benchmark_case), True: DispatchProblem(benchmark_case, dr=True)}
    for key, result in fast_suite.results.items():
        problem = problems[key == "dr"]
        values = problem.metrics(problem.pack(result.schedule)).values
        assert result.objectives.as_dict() == {k: float(values[k][0]) for k in OBJECTIVE_KEYS}, key
    for key in OBJECTIVE_KEYS:
        for other in SCENARIO_KEYS:
            assert fast_suite.results[key].objectives[key] <= fast_suite.results[other].objectives[key], (key, other)
    for key in SCENARIO_KEYS:
        assert fast_suite.totals["weighted"] <= fast_suite.totals[key], key


def test_refinement_not_worse_than_ga(fast_suite):
    for key, result in fast_suite.results.items():
        if result.ga_value is None:
            continue
        assert result.value <= result.ga_value + 1e-9 * max(1.0, abs(result.ga_value)), key


def test_suite_is_deterministic(benchmark_case, fast_config):
    a = run_suite(benchmark_case, config=fast_config)
    b = run_suite(benchmark_case, config=fast_config)
    for key in a.results:
        ra, rb = a.results[key], b.results[key]
        assert np.array_equal(ra.schedule.dg_setpoints, rb.schedule.dg_setpoints), key
        assert np.array_equal(ra.schedule.battery_power, rb.schedule.battery_power), key
        assert ra.objectives.as_dict() == rb.objectives.as_dict(), key
    assert a.totals == b.totals
    assert a.bounds == b.bounds


def _row_bytes(result):
    s = result.schedule
    series = (s.dg_setpoints, s.battery_power, s.dr_shift)
    return [repr((result.objectives.as_dict(), result.value, result.ga_generations))] + [
        None if a is None else a.tobytes() for a in series]


@pytest.mark.parametrize("units", ["packaged", "unit-free"])
def test_a_dp_row_does_not_depend_on_the_ga_population(benchmark_case, units):
    # Where the DP finds a plan the GA runs no generation and scores every
    # seed once: the DP plan, the published rows, the structured starts.  So
    # GaConfig.population, which sizes the fallback search, moves no row.
    # A pick cut to the population would drop the seeds' tail: at 8 the
    # unit-free copy's DR row would lose seed_points()[2], its winning start.
    case = benchmark_case if units == "packaged" else replace(benchmark_case, units=())
    suites = [run_suite(case, OptimizerConfig(ga=GaConfig(population, 3), sqp=SqpConfig(max_iterations=5),
                                              refine_rounds=1))
              for population in (2, 8, 60)]
    assert {r.ga_generations for r in suites[0].results.values()} == {None, 0}
    for suite in suites[1:]:
        assert suite.totals == suites[0].totals
        for key, result in suite.results.items():
            assert _row_bytes(result) == _row_bytes(suites[0].results[key]), key


# Two suites at a small budget in one process, one digest of each suite's outputs.
_BACK_TO_BACK = """
import hashlib
from mgopt import GaConfig, OptimizerConfig, SqpConfig, load_benchmark_case, run_suite
config = OptimizerConfig(ga=GaConfig(population=8, generations=3), sqp=SqpConfig(max_iterations=5),
                         seed=3, refine_rounds=1)
case = load_benchmark_case()
for _ in range(2):
    suite = run_suite(case, config)
    digest = hashlib.sha256(repr((suite.totals, suite.bounds)).encode())
    for key, r in suite.results.items():
        digest.update(repr((key, r.objectives.as_dict(), r.value, r.trace)).encode())
        for series in (r.schedule.dg_setpoints, r.schedule.battery_power, r.schedule.dr_shift):
            digest.update(b"-" if series is None else series.tobytes())
    print(digest.hexdigest())
"""


def test_back_to_back_suites_match_a_fresh_process():
    # The first suite runs in a fresh process, the second after it, with the
    # allocator and every lazily built array warm.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, MGOPT_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _BACK_TO_BACK], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    first, second = done.stdout.split()
    assert first == second


def test_run_scenario_extracts_from_suite(benchmark_case, fast_config):
    result = run_scenario(benchmark_case, 2, config=fast_config)
    suite = run_suite(benchmark_case, config=fast_config)
    assert result.key == "loss"
    assert result.objectives.as_dict() == suite.results["loss"].objectives.as_dict()
    dr_result = run_scenario(benchmark_case, 5, config=fast_config, dr=True)
    assert dr_result.key == "dr"


def test_suite_without_dr_program():
    from dataclasses import replace

    case = replace(load_benchmark_case(), dr=None)
    from mgopt.optimizer import GaConfig

    config = OptimizerConfig(ga=GaConfig(population=12, generations=8), seed=3)
    suite = run_suite(case, config=config)
    assert "dr" not in suite.results
    with pytest.raises(ValueError, match="demand response"):
        run_suite(case, config=config, include_dr=True)


def collapsing_case(case):
    """The case with every load eight times as large: the grid-only plan's
    voltages collapse at hours 9, 10 and 14 and hold elsewhere."""
    return replace(case, load_points=tuple(
        replace(lp, profile_kw=tuple(8.0 * p for p in lp.profile_kw)) for lp in case.load_points
    ))


def test_power_flow_failures_are_typed_from_the_kernel(benchmark_case, fast_config):
    case = collapsing_case(benchmark_case)
    flags = solve_horizon(case, raise_on_failure=False)
    assert 0 < (~flags.converged).sum() < case.horizon
    with pytest.raises(PowerFlowError) as direct:
        solve_horizon(case)
    with pytest.raises(PowerFlowError) as kernel:
        evaluate_objectives(case, grid_only_schedule(case))
    with pytest.raises(PowerFlowError) as suite:
        run_suite(case, config=fast_config)
    assert type(direct.value) is VoltageCollapseError and direct.value.hour == 9
    for raised in (kernel, suite):
        assert type(raised.value) is type(direct.value) and raised.value.hour == direct.value.hour
        assert str(raised.value) == str(direct.value)


def import_squeezed_case(case):
    """The case with its import limit 5e-5 kW under the grid-only plan's
    peak import: the baseline violates it by 5e-7 pu, which is above the
    1e-7 that ``refine`` keeps plans by, while the optimised plans meet it."""
    peak = float(solve_horizon(case).slack_kw.max())
    return replace(case, grid_limit_kw=peak - 5e-5)


def test_published_feasibility_is_the_refiners_test(benchmark_case, fast_config):
    suite = run_suite(import_squeezed_case(benchmark_case), config=fast_config, include_dr=False)
    baseline = suite.results["baseline"]
    assert baseline.violation == pytest.approx(5e-7, rel=1e-6)
    assert not baseline.feasible
    for key, result in suite.results.items():
        assert result.feasible == (result.violation <= 1e-7), key
    assert suite.results["cost"].feasible and suite.results["weighted"].feasible


def _starved_config():
    # One SQP iteration a refine: at seed 1 loss and vdev still trade the
    # lowest loss through every polish sweep (with two they stop trading
    # once the first model is scaled).
    from mgopt.optimizer import GaConfig, SqpConfig

    return OptimizerConfig(
        ga=GaConfig(population=4, generations=1),
        sqp=SqpConfig(max_iterations=1),
        refine_rounds=1,
        seed=1,
    )


def test_cross_polish_holds_on_a_starved_budget(benchmark_case):
    # With this budget loss and vdev keep trading the lowest loss; the
    # closing adoption must settle it.
    suite = run_suite(benchmark_case, config=_starved_config())
    for key in OBJECTIVE_KEYS:
        own = suite.results[key].objectives[key]
        for other in SCENARIO_KEYS:
            assert own <= suite.results[other].objectives[key] + 1e-9 * max(1.0, abs(own)), (key, other)
    for key in SCENARIO_KEYS:
        assert suite.totals["weighted"] <= suite.totals[key] + 1e-9, key
    for key, result in suite.results.items():
        assert result.feasible, key
    assert suite.totals["dr"] <= suite.totals["weighted"]


def test_cross_polish_spends_no_refine_in_vain(benchmark_case, monkeypatch):
    # On this budget loss and vdev re-refine from each other's plans until the
    # sweeps run out.  Each call records (target, DR, start plan, value).  No
    # target is refined twice from one plan, and every polish re-refine lowers
    # its target's value: refine is never worse than its seed, so a re-refine
    # from a plan that beats the target always pays, and skipping one would
    # leave the target with that plan's value at the closing adoption instead.
    # The DP finds no plan here, so every row keeps the GA path this test
    # was written for.
    monkeypatch.setattr(dp_mod, "stage_table", lambda problem: None)
    calls = []
    refine = DispatchProblem.refine

    def recording(self, x, spec, *args, **kwargs):
        result = refine(self, x, spec, *args, **kwargs)
        calls.append((spec.key, self.dr, x.tobytes(), result.value))
        return result

    monkeypatch.setattr(DispatchProblem, "refine", recording)
    suite = run_suite(benchmark_case, config=_starved_config())
    starts = [(key, dr, start) for key, dr, start, _ in calls]
    assert len(set(starts)) == len(starts)
    keys = [key for key, *_ in calls]
    assert keys[:4] == list(OBJECTIVE_KEYS) and keys[-2:] == ["weighted", "weighted"]
    assert len(keys) == 11 and set(keys[4:-2]) == {"loss", "vdev"}
    for key in ("loss", "vdev"):
        values = [value for k, dr, _, value in calls if k == key and not dr]
        assert all(b < a for a, b in zip(values, values[1:])), (key, values)
        assert suite.results[key].objectives[key] <= values[-1]


def test_cross_polish_never_repeats_a_refine():
    # A stub problem whose refine looks its answer up by (target, start plan).
    # The cost row's re-refine from the baseline never helps; the loss row's
    # does, which forces a second sweep.  Refining is deterministic, so the
    # second sweep must not run either re-refine again.
    from types import SimpleNamespace

    from mgopt.optimizer import ObjectiveSpec, RefineResult
    from mgopt.optimizer.scenarios import _cross_polish, _Row

    def plan(name, cost, loss):
        values = {"cost": np.array([cost]), "loss": np.array([loss])}
        return RefineResult(np.array([float(name)]), SimpleNamespace(values=values))

    answers = {("cost", 0.0): plan(4, 11.0, 30.0), ("loss", 0.0): plan(3, 30.0, 6.0)}
    calls = []

    class Stub:
        def refine(self, x, spec, config=None, max_rounds=3):
            calls.append((spec.key, float(x[0])))
            answer = answers[spec.key, float(x[0])]
            return replace(answer, value=spec.score(answer.metrics))

    rows = {"baseline": _Row(plan(0, 5.0, 5.0)), "cost": _Row(plan(1, 10.0, 30.0)), "loss": _Row(plan(2, 30.0, 10.0))}
    targets = [(key, ObjectiveSpec(key)) for key in ("cost", "loss")]
    _cross_polish(Stub(), rows, targets, ("baseline", "cost", "loss"), OptimizerConfig())
    assert calls == [("cost", 0.0), ("loss", 0.0)]
    assert rows["cost"].plan.x[0] == 0.0 and rows["loss"].plan.x[0] == 0.0
