"""Self-tests of the benchmark's own code: the long-feeder generator and the
tracer.  Run with ``python3 -m pytest bench/tests``."""

import numpy as np
import pytest

import mgopt.optimizer.problem as problem_mod
from mgopt import DispatchProblem, compile_network, load_benchmark_case, powerflow, solve_horizon
from mgopt.reliability import island_partition

from layers import TARGETS, Tracer, layer_metrics
from workloads import LONG_FEEDER_SECTIONS, long_feeder_case, sectioned_case


@pytest.fixture(scope="module")
def cases():
    return load_benchmark_case(), long_feeder_case()


def test_long_feeder_validates_with_deeper_tree(cases):
    base, long = cases
    net, long_net = compile_network(base), compile_network(long)
    assert long_net.n_branch == LONG_FEEDER_SECTIONS * net.n_branch
    assert long_net.n_bus == net.n_bus + (LONG_FEEDER_SECTIONS - 1) * net.n_branch
    assert sectioned_case(base, 1).branches == base.branches


def test_long_feeder_flows_match_packaged_case(cases):
    base, long = cases
    problem = DispatchProblem(base)
    greedy = problem.schedule(problem.seed_points()[2])
    for schedule in (None, greedy):
        a = solve_horizon(base, schedule)
        b = solve_horizon(long, schedule)
        cols = [b.bus_ids.index(bus) for bus in a.bus_ids]
        np.testing.assert_allclose(b.voltage[:, cols], a.voltage, rtol=0, atol=1e-9)
        np.testing.assert_allclose(b.loss_kw, a.loss_kw, rtol=0, atol=1e-9)
        np.testing.assert_allclose(b.slack_kw, a.slack_kw, rtol=0, atol=1e-9)


def test_long_feeder_contingencies_island_the_same_loads(cases):
    base, long = cases
    assert [c.id for c in long.contingencies] == [c.id for c in base.contingencies]
    load_buses = {lp.bus for lp in base.load_points}
    for c in base.contingencies:
        assert island_partition(long, c.element) & load_buses == island_partition(base, c.element) & load_buses


def test_tracer_records_spans_and_restores_names(cases):
    base, _ = cases
    problem = DispatchProblem(base)
    with Tracer() as tracer:
        problem.metrics(problem.seed_points())
    assert problem_mod.sweep is powerflow.sweep
    for _, owner, attr, _ in TARGETS:
        assert not hasattr(getattr(owner, attr), "__wrapped__")
    totals = tracer.layer_totals()
    assert totals["problem.metrics"]["calls"] == 1
    assert totals["powerflow.sweep"]["columns"] == 4 * base.horizon
    metrics_span = totals["problem.metrics"]
    assert 0 < metrics_span["self_s"] < metrics_span["total_s"]
    assert layer_metrics(tracer)["problem.metrics.rows"] == (4, "count")
