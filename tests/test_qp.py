import time

import numpy as np
import pytest

from mgopt.optimizer import QpError, QpInfeasibleError, qp_subproblem

from oracles import (
    bounds_as_rows, dense_qp, qp_enumerate, random_dispatch_qp, random_epigraph_qp, random_kinked_epigraph_qp,
    random_qp,
)


def test_unconstrained_matches_linear_solve():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        M = rng.normal(size=(n, n))
        H = M @ M.T + n * np.eye(n)
        g = rng.normal(size=n)
        result = qp_subproblem(H, g)
        assert np.abs(result.d - np.linalg.solve(H, -g)).max() < 1e-8
        assert not result.elastic


def test_equality_only_kkt():
    H = np.eye(2) * 2.0
    g = np.zeros(2)
    A = np.array([[1.0, 1.0]])
    b = np.array([2.0])
    result = qp_subproblem(H, g, A=A, b=b)
    assert result.d == pytest.approx([1.0, 1.0], abs=1e-10)
    # Stationarity: H d + g + A' lam = 0, so lam = -2.
    assert result.eq_multipliers == pytest.approx([-2.0], abs=1e-10)


def test_active_bound_reported():
    result = qp_subproblem(
        np.eye(1), np.array([-10.0]), lower=np.array([0.0]), upper=np.array([3.0])
    )
    assert result.d == pytest.approx([3.0], abs=1e-12)
    assert ("hi", 0) in result.active_set
    assert result.upper_multipliers[0] > 0


def test_pinned_variable_becomes_equality():
    result = qp_subproblem(
        np.eye(2), np.array([1.0, 1.0]), lower=np.array([0.5, -5.0]), upper=np.array([0.5, 5.0])
    )
    assert result.d == pytest.approx([0.5, -1.0], abs=1e-10)


def test_random_qps_match_enumeration():
    """200 random convex QPs agree with exhaustive active-set enumeration."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    solved = 0
    for _ in range(200):
        H, g, A, b, G, h, lower, upper = random_qp(rng)
        G_all, h_all = bounds_as_rows(G, h, lower, upper)
        expected = qp_enumerate(H, g, A, b, G_all, h_all)
        assert expected is not None
        result = qp_subproblem(H, g, A=A, b=b, G=G if G.size else None,
                               h=h if h.size else None, lower=lower, upper=upper)
        # Feasible problems may still route through the elastic retry when
        # the cheap starting point violates a general row; the slack must
        # then vanish at the optimum.
        if result.elastic:
            assert result.max_slack < 1e-7
        assert np.abs(result.d - expected).max() < 1e-6
        solved += 1
    elapsed = time.perf_counter() - start
    assert solved == 200
    assert elapsed < 10.0


def test_multipliers_satisfy_kkt():
    rng = np.random.default_rng(5)
    for _ in range(50):
        H, g, A, b, G, h, lower, upper = random_qp(rng)
        result = qp_subproblem(H, g, A=A, b=b, G=G if G.size else None,
                               h=h if h.size else None, lower=lower, upper=upper)
        d = result.d
        grad = H @ d + g
        if A is not None:
            grad += A.T @ result.eq_multipliers
        if G.size:
            grad += G.T @ result.ineq_multipliers
        grad += result.upper_multipliers - result.lower_multipliers
        scale = 1.0 + np.abs(g).max()
        assert np.abs(grad).max() < 1e-6 * scale
        assert (result.ineq_multipliers >= -1e-8).all()
        assert (result.lower_multipliers >= -1e-8).all()
        assert (result.upper_multipliers >= -1e-8).all()
        # Complementary slackness on the general rows.
        if G.size:
            gap = result.ineq_multipliers * (h - G @ d)
            assert np.abs(gap).max() < 1e-5 * scale


def test_warm_start_replays_active_set():
    H = np.eye(2)
    g = np.array([-4.0, -4.0])
    G = np.array([[1.0, 0.0], [0.0, 1.0]])
    h = np.array([1.0, 1.0])
    cold = qp_subproblem(H, g, G=G, h=h)
    warm = qp_subproblem(H, g, G=G, h=h, warm_start=cold.active_set)
    assert np.abs(warm.d - cold.d).max() < 1e-12
    assert warm.pivots <= cold.pivots


def test_elastic_relaxation_on_contradictory_rows():
    # x <= -1 and -x <= -1 cannot hold together; the elastic retry must
    # surface a solution with a flagged residual instead of cycling.
    G = np.array([[1.0], [-1.0]])
    h = np.array([-1.0, -1.0])
    result = qp_subproblem(np.eye(1), np.zeros(1), G=G, h=h)
    assert result.elastic
    assert result.max_slack > 0.5


def test_crossed_bounds_raise():
    with pytest.raises(QpInfeasibleError):
        qp_subproblem(np.eye(1), np.zeros(1), lower=np.array([1.0]), upper=np.array([-1.0]))


def test_equalities_against_bounds_raise():
    A = np.array([[1.0, 1.0]])
    b = np.array([10.0])
    with pytest.raises(QpInfeasibleError):
        qp_subproblem(
            np.eye(2), np.zeros(2), A=A, b=b,
            lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0]),
        )


def test_error_hierarchy():
    assert issubclass(QpInfeasibleError, QpError)


def _assert_close(reduced, dense, rtol):
    for name in ("d", "eq_multipliers", "ineq_multipliers", "lower_multipliers", "upper_multipliers"):
        got, want = getattr(reduced, name), getattr(dense, name)
        assert got.shape == want.shape
        scale = 1.0 + np.abs(want).max(initial=0.0)
        assert np.abs(got - want).max(initial=0.0) <= rtol * scale, name


def _assert_same_solve(reduced, dense, rtol=1e-9):
    """Same pivots and active set; vectors within rtol of their scale."""
    assert reduced.pivots == dense.pivots
    assert reduced.active_set == dense.active_set
    assert reduced.elastic == dense.elastic
    _assert_close(reduced, dense, rtol)


def _both(*args, **kwargs):
    return qp_subproblem(*args, **kwargs), dense_qp(*args, **kwargs)


def test_reduced_matches_dense_on_small_random_qps():
    """Pivot for pivot on the small cases, cold and warm-started.

    About a third of these start infeasible and run elastic.  There the
    dense solver's KKT system mixes unit bound rows with slack prices of 1e6
    and slack curvature of 1e-8, and its slacks stop a few 1e-10 off their
    bound, which moves d by up to about 1e-9 and can cost an extra pivot;
    the reduced solver holds a slack on its bound exactly.  Elastic solves
    are therefore checked against the enumerated optimum at 1e-12, and
    against the dense solver at 1e-8.
    """
    rng = np.random.default_rng(2024)
    elastic = 0
    for _ in range(200):
        H, g, A, b, G, h, lower, upper = random_qp(rng)
        kwargs = dict(A=A, b=b, G=G if G.size else None, h=h if h.size else None,
                      lower=lower, upper=upper)
        g_next = g + rng.normal(size=g.size) * 0.1
        cold = _both(H, g, **kwargs)
        warm = _both(H, g_next, warm_start=cold[1].active_set, **kwargs)
        for grad, (reduced, dense) in ((g, cold), (g_next, warm)):
            if not dense.elastic:
                _assert_same_solve(reduced, dense)
                continue
            elastic += 1
            assert reduced.elastic and reduced.active_set == dense.active_set
            expected = qp_enumerate(H, grad, A, b, *bounds_as_rows(G, h, lower, upper))
            assert np.abs(reduced.d - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())
            _assert_close(reduced, dense, 1e-8)
    assert 50 < elastic < 350


def test_reduced_matches_dense_at_dispatch_size():
    """Cold and warm-started solves of SQP-sized steps, pivot for pivot."""
    rng = np.random.default_rng(7)
    for _ in range(4):
        H, g, A, b, G, h, lower, upper = random_dispatch_qp(rng)
        kwargs = dict(A=A, b=b, G=G, h=h, lower=lower, upper=upper)
        reduced, dense = _both(H, g, **kwargs)
        assert not dense.elastic
        assert sum(tag[0] != "in" for tag in dense.active_set) >= 20
        _assert_same_solve(reduced, dense)
        g_next = g + rng.normal(size=g.size) * 0.05
        warm = _both(H, g_next, warm_start=dense.active_set, **kwargs)
        assert warm[1].pivots < dense.pivots
        _assert_same_solve(*warm)


def test_epigraph_variables_leave_the_kkt_system_with_their_row(monkeypatch):
    """Each unbounded, uncoupled e_i in one working row is eliminated with
    it; the solve still matches the dense solver pivot for pivot."""
    import mgopt.optimizer.qp as qp_module

    eliminated = []
    pairs = qp_module._separable_pairs

    def recording(*args):
        found = pairs(*args)
        eliminated.append(found[0].size)
        return found

    monkeypatch.setattr(qp_module, "_separable_pairs", recording)
    rng = np.random.default_rng(5)
    H, g, A, b, G, h, lower, upper = random_epigraph_qp(rng)
    kwargs = dict(A=A, b=b, G=G, h=h, lower=lower, upper=upper)
    reduced, dense = _both(H, g, **kwargs)
    assert not dense.elastic
    _assert_same_solve(reduced, dense)
    warm = _both(H, g + rng.normal(size=g.size) * 0.05, warm_start=dense.active_set, **kwargs)
    _assert_same_solve(*warm)
    assert max(eliminated) >= 30


def test_epigraph_variables_at_their_kink_leave_with_one_of_two_rows(monkeypatch):
    """Where both envelope rows of an e_i are working, e_i leaves with the
    first and the second stays as their difference, a row on x alone: each
    pair then costs the KKT system one row, and the solve still matches the
    dense solver pivot for pivot."""
    import mgopt.optimizer.qp as qp_module

    pairs, sizes = [], []
    separable, kkt_solve = qp_module._separable_pairs, qp_module._kkt_solve

    def recording(*args):
        found = separable(*args)
        pairs.append(int((found[2] >= 0).sum()))
        return found

    def sized(H, rows, *args):
        sizes.append(H.shape[0] + rows.shape[0])
        return kkt_solve(H, rows, *args)

    monkeypatch.setattr(qp_module, "_separable_pairs", recording)
    monkeypatch.setattr(qp_module, "_kkt_solve", sized)
    rng = np.random.default_rng(3)
    for _ in range(3):
        H, g, G, h, lower, upper = random_kinked_epigraph_qp(rng)
        warm = [("in", i) for i in range(G.shape[0])]
        pairs.clear()
        sizes.clear()
        reduced, dense = _both(H, g, G=G, h=h, lower=lower, upper=upper, warm_start=warm)
        assert not dense.elastic
        _assert_same_solve(reduced, dense)
        # The first pivot holds all 30 pairs: 60 free x plus one row each.
        assert pairs[0] == 30 and sizes[0] == 60 + 30
        assert any(tag[0] == "in" for tag in dense.active_set)


def test_reduced_matches_dense_in_elastic_mode():
    """A contradictory pair at dispatch size: the slacks stay positive.

    Their rows' multipliers then sit at the slack price, 1e6 times the
    problem scale, and either solver meets the equality rows only to about
    5e-9, so the two agree to 1e-7 of each vector's scale rather than 1e-9.
    No bound passes through the start here: the first elastic step is about
    1e-14 long (slack price over slack curvature is 1e14), which leaves
    every degenerate ratio on the ratio test's 1e-14 tie margin, where
    rounding alone picks the blocking row.
    """
    rng = np.random.default_rng(11)
    H, g, A, b, G, h, lower, upper = random_dispatch_qp(rng, contradictory=True, on_bound=0.0)
    reduced, dense = _both(H, g, A=A, b=b, G=G, h=h, lower=lower, upper=upper)
    assert dense.elastic and dense.max_slack > 0.5
    _assert_same_solve(reduced, dense, rtol=1e-7)
    assert reduced.max_slack == pytest.approx(dense.max_slack, rel=1e-7)


def test_warm_bound_within_tolerance_is_met_exactly():
    # The start sits 5e-10 above the bound, within the warm-start tolerance,
    # so the bound joins the working set and the step must close the gap.
    H, g = np.eye(2), np.array([1.0, 0.0])
    kwargs = dict(A=np.array([[1.0, 1.0]]), b=np.array([1e-9]),
                  lower=np.array([0.0, -np.inf]), warm_start=[("lo", 0)])
    reduced, dense = _both(H, g, **kwargs)
    assert reduced.active_set == (("lo", 0),)
    assert abs(reduced.d[0]) <= 1e-18
    assert reduced.d[1] == pytest.approx(1e-9, rel=1e-12)
    _assert_same_solve(reduced, dense)
