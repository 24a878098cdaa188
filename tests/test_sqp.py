import numpy as np
import pytest

import mgopt.optimizer.sqp as sqp
from mgopt.optimizer import NlpProblem, SqpConfig, sqp_solve

from oracles import FunctionNlp


def _box(n, lo=-10.0, hi=10.0):
    return np.full(n, lo), np.full(n, hi)


def test_quadratic_converges_in_two_iterations():
    """On f = 1/2 x'x - b'x the first QP step is exact; one more confirms it."""
    b = np.array([0.3, -1.7, 2.5])
    lo, hi = _box(3)
    problem = FunctionNlp(lambda x: 0.5 * float(x @ x) - float(b @ x), lo, hi)
    result = sqp_solve(problem, np.zeros(3))
    assert result.converged
    assert result.iterations == 2
    assert np.abs(result.x - b).max() == 0.0


def test_linear_objective_on_circle():
    """min x1 + x2 on the unit circle has its optimum at (-r2/2, -r2/2)."""
    lo, hi = _box(2)
    problem = FunctionNlp(
        lambda x: float(x[0] + x[1]),
        lo,
        hi,
        eq=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
    )
    result = sqp_solve(problem, np.array([1.0, 0.0]), SqpConfig(tol_kkt=1e-8))
    root_half = np.sqrt(2.0) / 2.0
    assert result.converged
    assert result.iterations <= 30
    assert np.abs(result.x - [-root_half, -root_half]).max() < 1e-6
    assert result.constraint_violation < 1e-8


def test_rosenbrock_unconstrained():
    lo, hi = _box(2)
    problem = FunctionNlp(
        lambda x: (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2, lo, hi
    )
    result = sqp_solve(problem, np.array([-1.2, 1.0]), SqpConfig(tol_kkt=1e-6))
    assert result.converged
    assert np.abs(result.x - 1.0).max() < 1e-4


def test_inequality_activates():
    # Unconstrained optimum (2, 2) sits outside x1 + x2 <= 2.
    lo, hi = _box(2)
    problem = FunctionNlp(
        lambda x: float((x[0] - 2.0) ** 2 + (x[1] - 2.0) ** 2),
        lo,
        hi,
        ineq=lambda x: np.array([x[0] + x[1] - 2.0]),
    )
    result = sqp_solve(problem, np.zeros(2), SqpConfig(tol_kkt=1e-8))
    assert result.converged
    assert np.abs(result.x - 1.0).max() < 1e-6
    assert result.ineq_multipliers[0] > 1e-3


def test_bounds_clip_iterates_and_solution():
    lo = np.array([0.5, -1.0])
    hi = np.array([2.0, 1.0])
    problem = FunctionNlp(lambda x: float(x @ x), lo, hi)
    result = sqp_solve(problem, np.array([5.0, 5.0]))
    assert result.converged
    assert result.x == pytest.approx([0.5, 0.0], abs=1e-8)
    assert (result.x >= lo).all() and (result.x <= hi).all()


def test_start_outside_bounds_is_clipped():
    lo, hi = np.zeros(2), np.ones(2)
    problem = FunctionNlp(lambda x: float((x - 0.5) @ (x - 0.5)), lo, hi)
    result = sqp_solve(problem, np.array([100.0, -100.0]))
    assert result.converged
    assert result.x == pytest.approx([0.5, 0.5], abs=1e-8)


def test_infeasible_start_recovers():
    # Start violating the equality by a wide margin; the merit function must
    # pull the iterates back onto the constraint set.
    lo, hi = _box(2)
    problem = FunctionNlp(
        lambda x: float(x @ x),
        lo,
        hi,
        eq=lambda x: np.array([x[0] + x[1] - 2.0]),
    )
    result = sqp_solve(problem, np.array([8.0, -9.0]), SqpConfig(tol_kkt=1e-8))
    assert result.converged
    assert result.x == pytest.approx([1.0, 1.0], abs=1e-7)
    assert result.constraint_violation < 1e-8


def test_contradictory_constraints_flag_elastic():
    # x <= -1 together with x >= 1 admits no point at all.
    lo, hi = _box(1)
    problem = FunctionNlp(
        lambda x: float(x[0] ** 2),
        lo,
        hi,
        ineq=lambda x: np.array([x[0] + 1.0, 1.0 - x[0]]),
    )
    result = sqp_solve(problem, np.array([0.0]))
    assert not result.converged
    assert result.elastic_used
    assert result.constraint_violation > 0.5


def test_a_vanishing_step_ends_small_step():
    # With tol_kkt = 0 the "kkt" test needs an exactly zero residual and
    # step; the iterates reach the optimum of this coupled quadratic to
    # rounding, where the QP step falls below STEP_TOL relative to |x|.
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    c = np.array([0.3, 0.7])
    lo, hi = _box(2)
    problem = FunctionNlp(lambda x: 0.5 * float((x - c) @ A @ (x - c)), lo, hi)
    result = sqp_solve(problem, np.array([3.0, 2.0]), SqpConfig(tol_kkt=0.0))
    assert result.status == "small-step"
    assert result.converged
    assert np.abs(result.x - c).max() <= 1e-8


def test_contradictory_equalities_end_in_qp_failure():
    # x0 = 1 and x0 = -1: the QP's equality rows admit no point, which no
    # elastic retry relaxes, so the first iteration ends the solve at the start.
    lo, hi = _box(2)
    problem = FunctionNlp(lambda x: float(x @ x), lo, hi, eq=lambda x: np.array([x[0] - 1.0, x[0] + 1.0]))
    start = np.array([0.5, 2.0])
    result = sqp_solve(problem, start)
    assert result.status == "qp-failure"
    assert result.iterations == 1
    assert not result.converged
    assert np.array_equal(result.x, start)


def test_trace_records_iterations():
    lo, hi = _box(2)
    problem = FunctionNlp(lambda x: float(x @ x), lo, hi)
    result = sqp_solve(problem, np.array([3.0, -4.0]))
    assert result.trace
    assert [row["iteration"] for row in result.trace] == list(range(1, len(result.trace) + 1))
    for key in ("merit", "kkt", "step", "alpha", "penalty", "elastic"):
        assert key in result.trace[0]
    assert result.objective_evaluations > 0


_SQUARE = {
    "objective": lambda self, x: float(x @ x),
    "derivatives": lambda self, x: (2.0 * x, np.zeros((0, x.size)), np.zeros((0, x.size))),
}


@pytest.mark.parametrize("missing", sorted(_SQUARE))
def test_a_problem_must_supply_its_objective_and_derivatives(missing):
    # The contract has no default for either: a subclass without one fails
    # at construction, not at the first call.
    partial = type("Partial", (NlpProblem,), {k: v for k, v in _SQUARE.items() if k != missing})
    with pytest.raises(TypeError, match=missing):
        partial(*_box(2))
    result = sqp_solve(type("Square", (NlpProblem,), _SQUARE)(*_box(2)), np.array([3.0, -4.0]))
    assert result.converged
    assert np.abs(result.x).max() < 1e-8


def test_exact_derivative_override_matches_fd():
    lo, hi = _box(2)

    class Exact(FunctionNlp):
        def derivatives(self, x):
            grad = np.array([2.0 * x[0] - 1.0, 2.0 * x[1] + 3.0])
            return grad, np.zeros((0, 2)), np.zeros((0, 2))

    objective = lambda x: float(x[0] ** 2 - x[0] + x[1] ** 2 + 3.0 * x[1])
    fd = sqp_solve(FunctionNlp(objective, lo, hi), np.zeros(2))
    exact = sqp_solve(Exact(objective, lo, hi), np.zeros(2))
    assert np.abs(fd.x - exact.x).max() < 1e-6
    assert exact.x == pytest.approx([0.5, -1.5], abs=1e-8)


def _separable_problem(partitioned):
    """24 blocks of 4 variables, hour-fast like the dispatch vector, each a
    quadratic with eigenvalues 1e-2 .. 1e2 plus a quartic term."""
    T, k = 24, 4
    rng = np.random.default_rng(0)
    A = np.empty((T, k, k))
    for t in range(T):
        Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        A[t] = Q @ np.diag(np.logspace(-2, 2, k)) @ Q.T
    b = rng.normal(size=(T, k))
    blocks = np.arange(T * k).reshape(k, T).T

    def objective(x):
        z = x[blocks]
        return float(0.5 * np.einsum("ti,tij,tj->", z, A, z) - (b * z).sum() + 0.05 * (x ** 4).sum())

    class Separable(FunctionNlp):
        def derivatives(self, x):
            grad = np.empty_like(x)
            grad[blocks] = np.einsum("tij,tj->ti", A, x[blocks]) - b
            return grad + 0.2 * x ** 3, np.zeros((0, x.size)), np.zeros((0, x.size))

        def hessian_blocks(self):
            return blocks if partitioned else super().hessian_blocks()

    return Separable(objective, *_box(T * k)), blocks


def test_partitioned_model_learns_separable_blocks_faster(monkeypatch):
    models = []
    update = sqp._update_blocks

    def recording(*args):
        models.append(update(*args))
        return models[-1]

    monkeypatch.setattr(sqp, "_update_blocks", recording)
    dense_problem, _ = _separable_problem(partitioned=False)
    dense = sqp_solve(dense_problem, np.zeros(dense_problem.n))
    models.clear()
    part_problem, blocks = _separable_problem(partitioned=True)
    part = sqp_solve(part_problem, np.zeros(part_problem.n))

    assert dense.converged and part.converged
    assert part.iterations < dense.iterations
    assert np.abs(part.x - dense.x).max() < 1e-3
    assert models and all(B.shape == (24, 4, 4) for B in models)
    for B in models:
        assert np.array_equal(B, B.transpose(0, 2, 1))
        eig = np.linalg.eigvalsh(B)
        assert (eig[:, 0] > 0).all()
        assert (eig[:, 0] >= sqp.COND_FLOOR * eig[:, -1]).all()


def test_block_update_skips_an_update_past_the_conditioning_floor():
    # BFGS from the identity with s = e1 puts y1 on the first eigenvalue:
    # 1e9 keeps the ratio above 1e-10, 1e11 would not.
    B = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
    s = np.array([[1.0, 0.0], [1.0, 0.0]])
    y = np.array([[1e9, 0.0], [1e11, 0.0]])
    out = sqp._update_blocks(B, s, y, tiny=1e-14)
    assert np.array_equal(out[0], np.diag([1e9, 1.0]))
    assert np.array_equal(out[1], np.eye(2))


def test_conditioning_floor_keeps_a_vdev_solve_off_qp_failure(benchmark_case, monkeypatch):
    # Scenario 4's GA seed at suite seed 3 on the benchmark day.  Without
    # the floor the Hessian model's condition number reaches about 1e18, it
    # goes indefinite in rounding, and the QP fails after 110 iterations;
    # with it the condition number stays below 1e10.
    import mgopt.optimizer.problem as problem_module
    from mgopt.optimizer import DispatchProblem, ObjectiveSpec, OptimizerConfig
    from mgopt.optimizer.scenarios import _optimize

    statuses = []
    solve = problem_module.sqp_solve

    def recording(*args, **kwargs):
        result = solve(*args, **kwargs)
        statuses.append(result.status)
        return result

    monkeypatch.setattr(problem_module, "sqp_solve", recording)
    _optimize(DispatchProblem(benchmark_case), ObjectiveSpec("vdev"), OptimizerConfig(seed=3), 4)
    assert statuses and "qp-failure" not in statuses


def _declaring(blocks):
    class Declared(FunctionNlp):
        def hessian_blocks(self):
            return np.array(blocks)

    return Declared(lambda x: float(x @ x), *_box(3))


def test_hessian_blocks_must_hold_each_variable_at_most_once():
    with pytest.raises(ValueError, match="at most once"):
        sqp_solve(_declaring([[0, 1], [1, 2]]), np.ones(3))


@pytest.mark.parametrize("blocks", [[[0, 3]], [[-1, 0]], [0, 1, 2]])
def test_hessian_blocks_must_be_a_2d_array_of_variable_indices(blocks):
    with pytest.raises(ValueError, match=r"\(n_blocks, k\) array"):
        sqp_solve(_declaring(blocks), np.ones(3))


def test_block_update_keeps_a_block_whose_gradient_does_not_change():
    # Damping a zero gradient change would shrink the block to 0.2.
    B = np.ones((2, 1, 1))
    out = sqp._update_blocks(B, np.array([[1.0], [1.0]]), np.array([[0.0], [0.5]]), tiny=1e-14)
    assert out[0, 0, 0] == 1.0
    assert out[1, 0, 0] == 0.5


def test_epigraph_variables_outside_every_block_keep_a_unit_diagonal(monkeypatch):
    # min sum_i |x_i - 1| + 2 (x_i - c_i)^2 as an epigraph: x in two 2-blocks,
    # each e_i in none.  |c_i - 1| <= 1/4 puts x_i on the kink.
    c = np.array([1.5, 3.0, 0.8, 1.0])
    expected = np.where(np.abs(c - 1.0) <= 0.25, 1.0, c - np.sign(c - 1.0) / 4.0)
    I = np.eye(4)

    class Epigraph(FunctionNlp):
        def derivatives(self, z):
            grad = np.concatenate([4.0 * (z[:4] - c), np.ones(4)])
            return grad, np.zeros((0, 8)), np.block([[I, -I], [-I, -I]])

        def settle(self, z):
            return np.concatenate([z[:4], np.abs(z[:4] - 1.0)])

        def hessian_blocks(self):
            return np.array([[0, 1], [2, 3]])

    problem = Epigraph(
        lambda z: float(z[4:].sum() + 2.0 * ((z[:4] - c) ** 2).sum()),
        np.concatenate([np.full(4, -10.0), np.full(4, -np.inf)]),
        np.full(8, np.inf),
        ineq=lambda z: np.concatenate([(z[:4] - 1.0) - z[4:], (1.0 - z[:4]) - z[4:]]),
    )
    models = []
    update = sqp._update_blocks

    def recording(*args):
        models.append(update(*args))
        return models[-1]

    monkeypatch.setattr(sqp, "_update_blocks", recording)
    qps = []
    solve_qp = sqp.qp_subproblem

    def recording_qp(H, g, **kwargs):
        qps.append((H.copy(), kwargs["warm_start"]))
        return solve_qp(H, g, **kwargs)

    monkeypatch.setattr(sqp, "qp_subproblem", recording_qp)
    # Settled at x = 0 < 1, each e sits on its (1 - x) - e row and no bound is active.
    start = problem.settle(np.zeros(8))
    result = sqp_solve(problem, start, SqpConfig(tol_kkt=1e-8))
    assert result.status in sqp.CONVERGED
    assert sorted(qps[0][1]) == [("in", i) for i in range(4, 8)]
    assert np.abs(result.x[:4] - expected).max() < 1e-8
    assert np.abs(result.x[4:] - np.abs(expected - 1.0)).max() < 1e-8
    assert models and {B.shape for B in models} == {(2, 2, 2)}
    assert all(np.array_equal(H[4:], np.eye(8)[4:]) for H, _ in qps)


def _flat_quadratic():
    """f = 1e-4/2 |x - c|^2 over 72 variables in 24 blocks of 3, c in
    [20, 150] against an upper bound of 100: the curvature per kW^2 of the
    dispatch objectives, with a third of the variables ending on the bound."""
    rng = np.random.default_rng(0)
    n = 72
    c = rng.uniform(20.0, 150.0, n)

    class Flat(FunctionNlp):
        def derivatives(self, x):
            return 1e-4 * (x - c), np.zeros((0, n)), np.zeros((0, n))

        def hessian_blocks(self):
            return np.arange(n).reshape(3, 24).T

    return Flat(lambda x: float(0.5e-4 * ((x - c) ** 2).sum()), np.zeros(n), np.full(n, 100.0)), np.minimum(c, 100.0)


def test_scaled_first_model_solves_a_flat_quadratic_in_a_few_iterations(monkeypatch):
    # The first step learns the curvature, 1e-4, so the second QP is exact
    # and the third confirms it.  From the unscaled identity the first step
    # is 1e-4 of the distance and the model learns the rest step by step.
    problem, optimum = _flat_quadratic()
    result = sqp_solve(problem, np.zeros(problem.n))
    assert result.status == "kkt" and result.iterations <= 4
    assert np.abs(result.x - optimum).max() < 1e-6
    monkeypatch.setattr(sqp, "_first_model", lambda s, y, tiny: np.tile(np.eye(s.shape[1]), (len(s), 1, 1)))
    identity = sqp_solve(problem, np.zeros(problem.n))
    assert identity.iterations >= 15


def test_first_model_keeps_the_identity_where_the_step_saw_no_curvature():
    # y'y / s'y = 0.25 on the first block; the others have no step, no
    # gradient change and negative curvature along the step.
    s = np.array([[2.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
    y = np.array([[0.5, 0.0], [1e-4, 0.0], [0.0, 0.0], [-1.0, 0.0]])
    B = sqp._first_model(s, y, tiny=1e-14)
    assert np.array_equal(B[0], 0.25 * np.eye(2))
    assert all(np.array_equal(b, np.eye(2)) for b in B[1:])


def test_kkt_needs_a_small_step_as_well_as_a_small_residual(monkeypatch):
    # x2 has curvature 1e-6 and its optimum 50 away.  After the first step
    # its block's model is exact, so the second QP's step of 50 leaves a
    # residual |B d| of 5e-5, under tol_kkt; only the step test goes on to
    # the optimum.
    class Trap(FunctionNlp):
        def derivatives(self, x):
            return np.array([x[0] - 3.0, 1e-6 * (x[1] - 50.0)]), np.zeros((0, 2)), np.zeros((0, 2))

        def hessian_blocks(self):
            return np.array([[0], [1]])

    lo, hi = _box(2, -100.0, 100.0)
    problem = Trap(lambda x: float(0.5 * (x[0] - 3.0) ** 2 + 0.5e-6 * (x[1] - 50.0) ** 2), lo, hi)
    steps = []
    solve_qp = sqp.qp_subproblem

    def recording(*args, **kwargs):
        qp = solve_qp(*args, **kwargs)
        steps.append(float(np.abs(qp.d).max()))
        return qp

    monkeypatch.setattr(sqp, "qp_subproblem", recording)
    tol = SqpConfig().tol_kkt
    result = sqp_solve(problem, np.zeros(2))
    assert result.status == "kkt"
    assert np.abs(result.x - [3.0, 50.0]).max() < 1e-6
    assert steps[-1] <= tol * (1.0 + np.abs(result.x).max())
    assert any(row["kkt"] <= tol and row["step"] > tol * (1.0 + 100.0) for row in result.trace[:-1])
