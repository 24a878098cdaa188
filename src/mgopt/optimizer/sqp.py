"""Sequential quadratic programming with a partitioned damped BFGS Hessian.

Each iteration linearises the constraints, builds a convex QP from the
current Hessian model and solves it with the active-set solver; a
backtracking line search on the l1 exact-penalty merit function accepts the
step.  The first QP starts from the inequality rows exactly at 0 and the
free bounds the start sits on, every later one from the last active set.

The Hessian model is block diagonal over the blocks of variables that the
problem declares (``NlpProblem.hessian_blocks``): one small quasi-Newton
model per block, each updated from its own part of every step's ``(s, y)``
pair (partitioned updates, Griewank & Toint 1982; Nocedal & Wright §7.4).
A problem whose Lagrangian curvature is block diagonal, such as the
dispatch problem's hours, learns every block from every step instead of one
direction of one dense model.  The default is one block holding every
variable, the plain dense model; a variable in no block keeps a unit
diagonal.  Each block starts from the identity, which the first accepted
step rescales by y'y / s'y, that block's curvature along it (Shanno & Phua
1978; Nocedal & Wright eq. 6.20): the dispatch objectives curve about 1e-4
per kW^2, so an unscaled identity's step covers about 1e-4 of the way to
the optimum.  Each block is kept positive definite by Powell's damping
rule.  An update that would leave a block's smallest
eigenvalue below COND_FLOOR times its largest is skipped, and so is the
update of a block whose gradient change is exactly zero (the Lagrangian is
linear along the step), so every QP subproblem is well posed and well
conditioned.  Every row enters the Lagrangian gradient; an affine one adds
the same term at both ends of a step.

Problems are posed as  min f(x)  s.t.  c_eq(x) = 0, c_in(x) <= 0,
lo <= x <= hi.  ``NlpProblem`` is the contract a problem meets: it states
its bounds and supplies the objective and its derivatives (the gradient and
the constraint Jacobians, exact or differenced as the problem sees fit), and
its constraint rows where it has any.

``SqpConfig`` holds the KKT tolerance and the iteration cap; the feasibility
and step tolerances, the line search, the merit penalty and the damping
threshold are the module constants below.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .qp import QpError, QpInfeasibleError, QpResult, pinned_mask, qp_subproblem

# Smallest eigenvalue ratio (smallest over largest) a Hessian block may reach
# through an update; an update that would go below it is skipped.
COND_FLOOR = 1e-10
TOL_FEAS = 1e-6  # largest constraint violation a converged point may keep
STEP_TOL = 1e-10  # a step below this, relative to |x|, ends the solve as "small-step"
ALPHA_MIN = 2.0 ** -20  # the line search gives up below this step length
ARMIJO = 1e-4  # sufficient-decrease share of the predicted merit descent
PENALTY_INIT = 1.0  # l1 merit penalty at the start
PENALTY_MARGIN = 2.0  # the penalty is raised to this multiple of the largest multiplier, plus one
DAMPING = 0.2  # Powell's damping threshold on s'y against s'Bs
CONVERGED = ("kkt", "small-step")  # the statuses of a solve that reached a first-order point


@dataclass
class SqpConfig:
    tol_kkt: float = 1e-4
    max_iterations: int = 200


class NlpProblem(abc.ABC):
    """The SQP's contract: a smooth constrained problem on the box
    ``lower <= x <= upper``.

    A subclass supplies ``objective`` and ``derivatives``, the gradient and
    the constraint Jacobians at x; one that leaves either out cannot be
    constructed.  ``eq_constraints`` and ``ineq_constraints`` default to no
    rows.  ``hessian_blocks`` declares the blocks the model is kept in, and
    ``settle`` and ``stationarity_scale`` may be overridden where the
    problem knows better than the defaults.
    """

    def __init__(self, lower: Sequence[float], upper: Sequence[float]):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)

    @property
    def n(self) -> int:
        return self.lower.size

    @abc.abstractmethod
    def objective(self, x: np.ndarray) -> float:
        """f(x)."""

    def eq_constraints(self, x: np.ndarray) -> np.ndarray:
        """c_eq(x), whose rows are held at 0."""
        return np.zeros(0)

    def ineq_constraints(self, x: np.ndarray) -> np.ndarray:
        """c_in(x), whose rows are held at or below 0."""
        return np.zeros(0)

    @abc.abstractmethod
    def derivatives(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gradient, eq Jacobian, ineq Jacobian) at x; a Jacobian has one
        row per constraint row and one column per variable."""

    def stationarity_scale(self, grad: np.ndarray) -> float:
        """What the KKT residual is measured against: the larger of 1 and
        the gradient's largest entry, which makes the test absolute for an
        objective whose gradient is small."""
        return max(1.0, float(np.abs(grad).max(initial=0.0)))

    def settle(self, x: np.ndarray) -> np.ndarray:
        """A point whose merit is no higher than x's, for every penalty at
        least as large as the objective's slope in the moved variables; the
        line search takes it in place of each trial point, and a row it
        puts exactly on 0 warm-starts the first QP.  The default is x
        itself."""
        return x

    def hessian_blocks(self) -> np.ndarray:
        """Variable indices per Hessian block, an (n_blocks, k) array.

        No variable may sit in two blocks, and the Lagrangian's curvature
        should vanish between blocks and in a variable left out of every
        block, whose model stays a unit diagonal.  The default is one block
        holding every variable.
        """
        return np.arange(self.n)[np.newaxis, :]


@dataclass
class SqpResult:
    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    status: str
    kkt_residual: float
    constraint_violation: float
    trace: List[Dict]
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    elastic_used: bool
    objective_evaluations: int


def _violation(ceq: np.ndarray, cin: np.ndarray) -> float:
    v = 0.0
    if ceq.size:
        v += float(np.abs(ceq).sum())
    if cin.size:
        v += float(np.maximum(cin, 0.0).sum())
    return v


def _violation_inf(ceq: np.ndarray, cin: np.ndarray) -> float:
    v = 0.0
    if ceq.size:
        v = max(v, float(np.abs(ceq).max()))
    if cin.size:
        v = max(v, float(np.maximum(cin, 0.0).max()))
    return v


def _update_blocks(B: np.ndarray, s: np.ndarray, y: np.ndarray, tiny: float) -> np.ndarray:
    """Powell-damped BFGS update of every block at once.

    ``B`` is (n_blocks, k, k); ``s`` and ``y`` are the blocks' step and
    gradient-change parts, (n_blocks, k).  A block whose step is below
    ``tiny``, whose gradient change is exactly zero, whose damped curvature
    is not positive, or whose update would push its eigenvalue ratio below
    COND_FLOOR keeps its model.  Damping a zero gradient change would shrink
    the model fivefold along the step at every iteration.
    """
    curved = y.any(axis=1)
    Bs = np.einsum("bij,bj->bi", B, s)
    sBs = np.einsum("bi,bi->b", s, Bs)
    sy = np.einsum("bi,bi->b", s, y)
    damp = sy < DAMPING * sBs
    theta = np.where(damp, (1.0 - DAMPING) * sBs / np.where(damp, sBs - sy, 1.0), 1.0)[:, np.newaxis]
    y = theta * y + (1.0 - theta) * Bs
    sy = np.einsum("bi,bi->b", s, y)
    take = np.flatnonzero(curved & (np.abs(s).max(axis=1) > tiny) & (sBs > 0) & (sy > 1e-12 * sBs))
    Bs, y = Bs[take], y[take]
    trial = (
        B[take]
        - np.einsum("bi,bj->bij", Bs, Bs) / sBs[take, np.newaxis, np.newaxis]
        + np.einsum("bi,bj->bij", y, y) / sy[take, np.newaxis, np.newaxis]
    )
    trial = 0.5 * (trial + trial.transpose(0, 2, 1))
    eig = np.linalg.eigvalsh(trial)
    keep = eig[:, 0] >= COND_FLOOR * eig[:, -1]
    B = B.copy()
    B[take[keep]] = trial[keep]
    return B


def _first_model(s: np.ndarray, y: np.ndarray, tiny: float) -> np.ndarray:
    """Every block's model before its first update: the identity scaled by
    y'y / s'y, the curvature the first step saw (Shanno & Phua 1978; Nocedal
    & Wright eq. 6.20).  A block whose step is below ``tiny``, whose
    gradient change is exactly zero or whose s'y is not above 1e-12 s's
    keeps the identity."""
    sy = np.einsum("bi,bi->b", s, y)
    ok = y.any(axis=1) & (np.abs(s).max(axis=1) > tiny) & (sy > 1e-12 * np.einsum("bi,bi->b", s, s))
    gamma = np.where(ok, np.einsum("bi,bi->b", y, y) / np.where(ok, sy, 1.0), 1.0)
    return gamma[:, np.newaxis, np.newaxis] * np.eye(s.shape[1])


def _checked_blocks(blocks: np.ndarray, n: int) -> np.ndarray:
    """The Hessian blocks as an (n_blocks, k) index array; raises unless
    every index is a variable and none repeats."""
    blocks = np.asarray(blocks, dtype=np.intp)
    every = np.sort(blocks, axis=None)
    if blocks.ndim != 2 or (every.size and (every[0] < 0 or every[-1] >= n)) or (every[1:] == every[:-1]).any():
        raise ValueError("hessian_blocks must be an (n_blocks, k) array holding each variable at most once")
    return blocks


def _lagrangian_gradient(grad: np.ndarray, J_eq: np.ndarray, J_in: np.ndarray,
                         lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """grad + J_eq'lam + J_in'mu, over every row."""
    return grad + J_eq.T @ lam + J_in.T @ mu


def sqp_solve(problem: NlpProblem, x0: Sequence[float], config: Optional[SqpConfig] = None) -> SqpResult:
    """Minimise a smooth constrained problem from x0.

    The returned iterate carries the best merit value seen; ``status`` is one
    of "kkt" (first-order point), "small-step", "line-search" (no further
    progress along the QP direction), "qp-failure" or "max-iterations".
    "kkt" needs the QP step as well as the stationarity residual within
    ``tol_kkt`` (the step relative to 1 + |x|): the residual is |B d|, which
    a model of small curvature keeps small along a long step.
    """
    cfg = config or SqpConfig()
    lo, hi = problem.lower, problem.upper
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n = x.size
    free = ~pinned_mask(lo, hi)

    evals = 0

    def f_of(z: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return problem.objective(z)

    f = f_of(x)
    ceq = problem.eq_constraints(x)
    cin = problem.ineq_constraints(x)
    grad, J_eq, J_in = problem.derivatives(x)

    blocks = _checked_blocks(problem.hessian_blocks(), n)
    B_blocks = np.tile(np.eye(blocks.shape[1]), (blocks.shape[0], 1, 1))
    B = np.eye(n)
    penalty = PENALTY_INIT
    # The first QP starts from the rows exactly at 0 and the free bounds x sits on.
    warm = [("in", i) for i in np.flatnonzero(cin == 0.0).tolist()]
    warm += [("hi", j) for j in np.flatnonzero(free & (x >= hi)).tolist()]
    warm += [("lo", j) for j in np.flatnonzero(free & (x <= lo)).tolist()]
    trace: List[Dict] = []
    status = "max-iterations"
    converged = False
    kkt = np.inf
    elastic_any = False
    lam = np.zeros(ceq.size)
    mu = np.zeros(cin.size)
    iterations = 0

    def record(merit: float, step: float, alpha: float) -> None:
        trace.append({"iteration": k, "merit": merit, "kkt": kkt, "step": step, "alpha": alpha,
                      "penalty": penalty, "elastic": qp.elastic})

    for k in range(1, cfg.max_iterations + 1):
        iterations = k
        B[blocks[:, :, np.newaxis], blocks[:, np.newaxis, :]] = B_blocks
        try:
            qp = qp_subproblem(
                B, grad,
                A=J_eq if ceq.size else None,
                b=-ceq if ceq.size else None,
                G=J_in if cin.size else None,
                h=-cin if cin.size else None,
                lower=lo - x,
                upper=hi - x,
                warm_start=warm,
            )
        except (QpInfeasibleError, QpError):
            status = "qp-failure"
            break
        warm = qp.active_set
        elastic_any = elastic_any or qp.elastic
        d = qp.d
        lam, mu = qp.eq_multipliers, qp.ineq_multipliers

        dL = _lagrangian_gradient(grad, J_eq, J_in, lam, mu)
        stat = dL + (qp.upper_multipliers - qp.lower_multipliers)
        scale = problem.stationarity_scale(grad)
        viol = _violation_inf(ceq, cin)
        kkt = float(np.abs(stat[free]).max(initial=0.0)) / scale
        step_size = float(np.abs(d).max(initial=0.0))

        x_scale = 1.0 + float(np.abs(x).max(initial=0.0))
        if kkt <= cfg.tol_kkt and step_size <= cfg.tol_kkt * x_scale and viol <= TOL_FEAS and not qp.elastic:
            status, converged = "kkt", True
            record(f + penalty * _violation(ceq, cin), 0.0, 0.0)
            break
        if step_size <= STEP_TOL * x_scale and viol <= TOL_FEAS:
            status, converged = "small-step", True
            record(f + penalty * _violation(ceq, cin), step_size, 0.0)
            break

        needed = max(
            float(np.abs(lam).max(initial=0.0)),
            float(np.abs(mu).max(initial=0.0)),
            float(qp.lower_multipliers.max(initial=0.0)),
            float(qp.upper_multipliers.max(initial=0.0)),
        )
        penalty = max(penalty, PENALTY_MARGIN * needed + 1.0)

        merit0 = f + penalty * _violation(ceq, cin)
        descent = float(grad @ d) - penalty * _violation(ceq, cin)

        alpha = 1.0
        accepted = False
        while alpha >= ALPHA_MIN:
            x_try = problem.settle(np.clip(x + alpha * d, lo, hi))
            f_try = f_of(x_try)
            ceq_try = problem.eq_constraints(x_try)
            cin_try = problem.ineq_constraints(x_try)
            merit_try = f_try + penalty * _violation(ceq_try, cin_try)
            if merit_try <= merit0 + ARMIJO * alpha * min(descent, 0.0) and np.isfinite(merit_try):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            status = "line-search"
            record(merit0, step_size, 0.0)
            break

        # Powell-damped BFGS on the Lagrangian, block by block.
        grad, J_eq, J_in = problem.derivatives(x_try)
        s = x_try - x
        y = _lagrangian_gradient(grad, J_eq, J_in, lam, mu) - dL
        tiny = 1e-14 * x_scale
        if k == 1:
            B_blocks = _first_model(s[blocks], y[blocks], tiny)
        B_blocks = _update_blocks(B_blocks, s[blocks], y[blocks], tiny)

        x, f, ceq, cin = x_try, f_try, ceq_try, cin_try
        record(f + penalty * _violation(ceq, cin), float(np.abs(alpha * d).max(initial=0.0)), alpha)

    return SqpResult(
        x=x,
        objective=f,
        iterations=iterations,
        converged=converged,
        status=status,
        kkt_residual=kkt,
        constraint_violation=_violation_inf(ceq, cin),
        trace=trace,
        eq_multipliers=lam,
        ineq_multipliers=mu,
        elastic_used=elastic_any,
        objective_evaluations=evals,
    )
