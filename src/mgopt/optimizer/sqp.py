"""Sequential quadratic programming with a damped BFGS Hessian.

Each iteration linearises the constraints, builds a convex QP from the
current Hessian model and solves it with the active-set solver; a
backtracking line search on the l1 exact-penalty merit function accepts the
step.  The Hessian model starts from the identity and is kept positive
definite by Powell's damping rule, so every QP subproblem is well posed.

Problems are posed as  min f(x)  s.t.  c_eq(x) = 0, c_in(x) <= 0,
lo <= x <= hi.  Derivatives default to central finite differences; callers
with structure (exact rows for affine constraints, batched evaluations)
override ``derivatives``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .derivatives import gradient, jacobian
from .qp import QpError, QpInfeasibleError, QpResult, pinned_mask, qp_subproblem


@dataclass
class SqpConfig:
    tol_kkt: float = 1e-4
    tol_feas: float = 1e-6
    max_iterations: int = 200
    alpha_min: float = 2.0 ** -20
    armijo: float = 1e-4
    penalty_init: float = 1.0
    penalty_margin: float = 2.0
    damping: float = 0.2
    step_tol: float = 1e-10


class NlpProblem:
    """Smooth constrained problem with finite-difference derivatives.

    Subclasses may override ``derivatives`` to supply exact or batched rows;
    ``nonlinear_ineq`` / ``nonlinear_eq`` mark the rows whose curvature should
    enter the Lagrangian the BFGS model tracks (affine rows contribute none).
    """

    def __init__(
        self,
        objective: Callable[[np.ndarray], float],
        lower: Sequence[float],
        upper: Sequence[float],
        eq: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        ineq: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        self._objective = objective
        self._eq = eq
        self._ineq = ineq
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)

    @property
    def n(self) -> int:
        return self.lower.size

    def objective(self, x: np.ndarray) -> float:
        return float(self._objective(x))

    def eq_constraints(self, x: np.ndarray) -> np.ndarray:
        if self._eq is None:
            return np.zeros(0)
        return np.atleast_1d(np.asarray(self._eq(x), dtype=float))

    def ineq_constraints(self, x: np.ndarray) -> np.ndarray:
        if self._ineq is None:
            return np.zeros(0)
        return np.atleast_1d(np.asarray(self._ineq(x), dtype=float))

    def derivatives(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gradient, eq Jacobian, ineq Jacobian) at x."""
        grad = gradient(self.objective, x)
        n_eq = self.eq_constraints(x).size
        n_in = self.ineq_constraints(x).size
        J_eq = jacobian(self.eq_constraints, x, m=n_eq) if n_eq else np.zeros((0, x.size))
        J_in = jacobian(self.ineq_constraints, x, m=n_in) if n_in else np.zeros((0, x.size))
        return grad, J_eq, J_in

    def nonlinear_eq(self, n_eq: int) -> np.ndarray:
        return np.ones(n_eq, dtype=bool)

    def nonlinear_ineq(self, n_in: int) -> np.ndarray:
        return np.ones(n_in, dtype=bool)


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


def sqp_solve(problem: NlpProblem, x0: Sequence[float], config: Optional[SqpConfig] = None) -> SqpResult:
    """Minimise a smooth constrained problem from x0.

    The returned iterate carries the best merit value seen; ``status`` is one
    of "kkt" (first-order point), "small-step", "line-search" (no further
    progress along the QP direction), "qp-failure" or "max-iterations".
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
    nl_eq = problem.nonlinear_eq(ceq.size)
    nl_in = problem.nonlinear_ineq(cin.size)

    B = np.eye(n)
    penalty = cfg.penalty_init
    warm: Optional[Tuple] = None
    trace: List[Dict] = []
    status = "max-iterations"
    converged = False
    kkt = np.inf
    elastic_any = False
    lam = np.zeros(ceq.size)
    mu = np.zeros(cin.size)
    iterations = 0

    for k in range(1, cfg.max_iterations + 1):
        iterations = k
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

        stat = grad.copy()
        if ceq.size:
            stat += J_eq.T @ lam
        if cin.size:
            stat += J_in.T @ mu
        stat += qp.upper_multipliers - qp.lower_multipliers
        scale = max(1.0, float(np.abs(grad).max(initial=0.0)))
        viol = _violation_inf(ceq, cin)
        kkt = float(np.abs(stat[free]).max(initial=0.0)) / scale
        step_size = float(np.abs(d).max(initial=0.0))

        if kkt <= cfg.tol_kkt and viol <= cfg.tol_feas and not qp.elastic:
            status, converged = "kkt", True
            trace.append({"iteration": k, "merit": f + penalty * _violation(ceq, cin), "kkt": kkt,
                          "step": 0.0, "alpha": 0.0, "penalty": penalty, "elastic": qp.elastic})
            break
        if step_size <= cfg.step_tol * (1.0 + float(np.abs(x).max(initial=0.0))) and viol <= cfg.tol_feas:
            status, converged = "small-step", True
            trace.append({"iteration": k, "merit": f + penalty * _violation(ceq, cin), "kkt": kkt,
                          "step": step_size, "alpha": 0.0, "penalty": penalty, "elastic": qp.elastic})
            break

        needed = max(
            float(np.abs(lam).max(initial=0.0)),
            float(np.abs(mu).max(initial=0.0)),
            float(qp.lower_multipliers.max(initial=0.0)),
            float(qp.upper_multipliers.max(initial=0.0)),
        )
        penalty = max(penalty, cfg.penalty_margin * needed + 1.0)

        merit0 = f + penalty * _violation(ceq, cin)
        descent = float(grad @ d) - penalty * _violation(ceq, cin)

        alpha = 1.0
        accepted = False
        while alpha >= cfg.alpha_min:
            x_try = np.clip(x + alpha * d, lo, hi)
            f_try = f_of(x_try)
            ceq_try = problem.eq_constraints(x_try)
            cin_try = problem.ineq_constraints(x_try)
            merit_try = f_try + penalty * _violation(ceq_try, cin_try)
            if merit_try <= merit0 + cfg.armijo * alpha * min(descent, 0.0) and np.isfinite(merit_try):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            status = "line-search"
            trace.append({"iteration": k, "merit": merit0, "kkt": kkt, "step": step_size,
                          "alpha": 0.0, "penalty": penalty, "elastic": qp.elastic})
            break

        grad_try, J_eq_try, J_in_try = problem.derivatives(x_try)

        # Powell-damped BFGS on the Lagrangian; affine rows carry no curvature.
        s = x_try - x
        dL_old = grad.copy()
        dL_new = grad_try.copy()
        if ceq.size and nl_eq.any():
            dL_old += J_eq[nl_eq].T @ lam[nl_eq]
            dL_new += J_eq_try[nl_eq].T @ lam[nl_eq]
        if cin.size and nl_in.any():
            dL_old += J_in[nl_in].T @ mu[nl_in]
            dL_new += J_in_try[nl_in].T @ mu[nl_in]
        y = dL_new - dL_old
        s_norm = float(np.abs(s).max(initial=0.0))
        if s_norm > 1e-14 * (1.0 + float(np.abs(x).max(initial=0.0))):
            Bs = B @ s
            sBs = float(s @ Bs)
            sy = float(s @ y)
            if sBs > 0:
                if sy < cfg.damping * sBs:
                    theta = (1.0 - cfg.damping) * sBs / (sBs - sy)
                    y = theta * y + (1.0 - theta) * Bs
                    sy = float(s @ y)
                if sy > 1e-12 * sBs:
                    B = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
                    B = 0.5 * (B + B.T)

        x, f, ceq, cin = x_try, f_try, ceq_try, cin_try
        grad, J_eq, J_in = grad_try, J_eq_try, J_in_try
        trace.append({"iteration": k, "merit": f + penalty * _violation(ceq, cin), "kkt": kkt,
                      "step": float(np.abs(alpha * d).max(initial=0.0)), "alpha": alpha,
                      "penalty": penalty, "elastic": qp.elastic})

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
