"""Convex quadratic programming by a primal active-set method in reduced space.

Solves  min 0.5 d'Hd + g'd  subject to  A d = b,  G d <= h,  lo <= d <= hi
with H symmetric positive definite.  The working set holds general rows and
variable bounds.  Pinned variables (lo == hi) and variables whose bound is in
the working set are held fixed at that bound, so each pivot solves the KKT
system of the equality rows and the working general rows over the free
variables only; the bound multipliers follow from the stationarity residual
at the fixed variables.  See Nocedal & Wright, *Numerical Optimization*,
2nd ed., §16.5, and Gill, Murray & Wright, *Practical Optimization*, §5.5.
A separable variable (no bounds, no equality row, no curvature shared with
another variable: an epigraph variable) that sits in one or two working
rows leaves that system together with one of them, as a rank-one term on
the variables that row also holds; the other row stays as their
combination, which no longer holds the variable.  An epigraph's envelope
rows then cost the solve one row, and none while only one is working.

Constraints are tagged ``("in", i)`` for general row i and ``("hi", j)`` /
``("lo", j)`` for the bounds of variable j.  Tag order (general rows, then
per variable ``hi`` before ``lo``) breaks every tie in the ratio test and the
drop rule, which keeps the iteration deterministic.

When no feasible starting point is apparent the solver retries in elastic
mode: each violated general row gets a slack variable with lower bound 0 and
a steep linear price, which restores feasibility of the start and flags the
relaxation to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

# Step and multiplier threshold of the active-set loop: a step below it
# (relative to |x|) counts as zero, a multiplier above -TOL as nonnegative.
TOL = 1e-10
# Price of an elastic slack, per unit of the problem's largest entry in g or H.
ELASTIC_PRICE = 1e6


class QpError(RuntimeError):
    pass


class QpInfeasibleError(QpError):
    """Equality rows and bounds admit no common point."""


@dataclass
class QpResult:
    d: np.ndarray
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    lower_multipliers: np.ndarray
    upper_multipliers: np.ndarray
    active_set: Tuple[Tuple[str, int], ...]
    pivots: int
    elastic: bool = False
    max_slack: float = 0.0


def pinned_mask(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Variables whose bounds coincide up to rounding; solvers fix them at ``lower``."""
    return np.isfinite(lower) & np.isfinite(upper) & (upper - lower <= 1e-14 * np.maximum(1.0, np.abs(lower)))


class _Qp:
    """One problem in the solver's internal form.

    The finite bounds of the variables that are not pinned are listed in tag
    order as (variable, sign, value): sign +1 for ``hi`` (d_j <= value) and -1
    for ``lo`` (-d_j <= -value).  Working-set entry k < m is general row k;
    k >= m is bound entry k - m.
    """

    def __init__(self, H, g, A, b, G, h, lo, hi):
        n = g.size
        self.H, self.g, self.A, self.b, self.G, self.h, self.lo = H, g, A, b, G, h, lo
        self.pinned = pinned_mask(lo, hi)
        has = np.column_stack((np.isfinite(hi), np.isfinite(lo))) & ~self.pinned[:, np.newaxis]
        self.bvar = np.repeat(np.arange(n), 2).reshape(n, 2)[has]
        self.bsign = np.tile([1.0, -1.0], (n, 1))[has]
        self.bval = np.column_stack((hi, lo))[has]
        # Unbounded variables outside the equality rows whose curvature
        # couples to no other variable (an epigraph variable's shape), and
        # the general rows that hold each.
        coupled = (H != 0.0) & ~np.eye(n, dtype=bool)
        self.separable = np.flatnonzero(~np.isfinite(lo) & ~np.isfinite(hi) & ~coupled.any(axis=0) & ~A.any(axis=0))
        self.held_row, self.held_var = np.nonzero(G[:, self.separable])

    def residuals(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row value minus right-hand side of every inequality, with those right-hand sides."""
        rhs = np.concatenate([self.h, self.bsign * self.bval])
        return np.concatenate([self.G @ x, self.bsign * x[self.bvar]]) - rhs, rhs


def _kkt_solve(H: np.ndarray, rows: np.ndarray, rhs_top: np.ndarray, rhs_bottom: np.ndarray):
    """Solve the equality-constrained KKT system; None when singular."""
    n, k = H.shape[0], rows.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = H
    if k:
        kkt[n:, :n] = rows
        kkt[:n, n:] = rows.T
    rhs = np.concatenate([rhs_top, rhs_bottom])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(sol).all():
        return None
    return sol[:n], sol[n:]


def _equality_step(qp: _Qp, x: np.ndarray, working: np.ndarray):
    """Step to the minimiser over the working set, with its multipliers.

    Returns (p, eq multipliers, working-set multipliers) or None when the
    working set is degenerate.
    """
    m = qp.G.shape[0]
    rows_in = working[working < m]
    bound = working[working >= m] - m
    fixed_vars = qp.bvar[bound]
    fixed = qp.pinned.copy()
    fixed[fixed_vars] = True
    if np.count_nonzero(fixed) < np.count_nonzero(qp.pinned) + bound.size:
        return None  # one variable held at two bounds
    p = np.zeros_like(x)
    p[qp.pinned] = qp.lo[qp.pinned] - x[qp.pinned]
    p[fixed_vars] = qp.bval[bound] - x[fixed_vars]
    C = np.vstack([qp.A, qp.G[rows_in]])
    y = x + p
    top = -(qp.H @ y + qp.g)
    bottom = np.concatenate([qp.b, qp.h[rows_in]]) - C @ y
    sep, pivot, partner = _separable_pairs(qp, rows_in)
    fixed[sep] = True
    free = np.flatnonzero(~fixed)
    kept = np.ones(C.shape[0], dtype=bool)
    kept[pivot] = False
    kept = np.flatnonzero(kept)
    # Each separable variable j leaves with its first working row r: the
    # row gives p_j = (bottom_r - C_r p) / c, and j's stationarity gives
    # lam_r = (top_j - H_jj p_j - c' lam_r') / c, where r' is the second
    # working row holding j, if any, with coefficient c' on it.
    # Substituting both leaves a rank-one term per variable on the rest of
    # the system and turns r' into r' - (c'/c) r, a row without j.
    two = partner >= 0
    rows, rhs = C[:, free], bottom.copy()
    c, h, c2 = C[pivot, sep], qp.H[sep, sep], C[partner[two], sep[two]]
    ratio = c2 / c[two]
    rows[partner[two]] -= ratio[:, np.newaxis] * rows[pivot[two]]
    rhs[partner[two]] -= ratio * bottom[pivot[two]]
    Cs = rows[pivot]
    sol = _kkt_solve(
        qp.H[np.ix_(free, free)] + (Cs.T * (h / c**2)) @ Cs,
        rows[kept],
        top[free] - Cs.T @ (top[sep] / c - h * bottom[pivot] / c**2),
        rhs[kept],
    )
    if sol is None:
        return None
    lam = np.empty(C.shape[0])
    p[free], lam[kept] = sol
    p[sep] = (bottom[pivot] - Cs @ p[free]) / c
    second = np.zeros(sep.size)
    second[two] = c2 * lam[partner[two]]
    lam[pivot] = (top[sep] - h * p[sep] - second) / c
    resid = -(qp.H @ (x + p) + qp.g) - C.T @ lam
    n_eq = qp.A.shape[0]
    mu = np.empty(working.size)
    mu[working < m] = lam[n_eq:]
    mu[working >= m] = qp.bsign[bound] * resid[fixed_vars]
    return p, lam[:n_eq], mu


def _separable_pairs(qp: _Qp, rows_in: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The separable variables that sit in one or two working general rows
    and share neither with another such variable, each with the position of
    its first row in the working system (equality rows first) and of its
    second, -1 where it has only one."""
    sep, m, n_eq = qp.separable, qp.G.shape[0], qp.A.shape[0]
    if not sep.size or not rows_in.size:
        return sep[:0], sep[:0], sep[:0]
    position = np.full(m, -1)
    position[rows_in] = np.arange(rows_in.size) + n_eq
    working = position[qp.held_row] >= 0
    row, var = position[qp.held_row[working]], qp.held_var[working]
    count = np.bincount(var, minlength=sep.size)
    candidate = count[var] <= 2
    alone = candidate & (np.bincount(row[candidate], minlength=n_eq + rows_in.size)[row] == 1)
    # A variable goes when every row it sits in holds no other candidate.
    goes = np.bincount(var[alone], minlength=sep.size) == count
    entry = np.flatnonzero(alone & goes[var])
    order = entry[np.lexsort((row[entry], var[entry]))]
    var, row = var[order], row[order]
    first = np.ones(var.size, dtype=bool)
    first[1:] = var[1:] != var[:-1]
    partner = np.full(np.count_nonzero(first), -1)
    partner[np.cumsum(first)[~first] - 1] = row[~first]
    return sep[var[first]], row[first], partner


def _worst(working: List[int], mu: np.ndarray) -> Optional[int]:
    """Position in ``working`` of the most negative multiplier below -TOL, if any."""
    neg = np.flatnonzero(mu < -TOL)
    if not neg.size:
        return None
    return int(neg[np.lexsort((np.asarray(working)[neg], mu[neg]))[0]])


def _active_set_loop(
    qp: _Qp, x: np.ndarray, working: List[int], max_pivots: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int], int]:
    """Classic primal active-set iteration from a feasible point.

    Returns (x, eq multipliers, working-set multipliers, working set, pivots).
    Ties in the ratio test and the drop rule break toward the earliest tag,
    which keeps the loop deterministic and cycle-free in practice.
    """
    pivots = 0
    while True:
        if pivots > max_pivots:
            raise QpError("active-set iteration limit exceeded")
        w = np.asarray(working, dtype=np.intp)
        step = _equality_step(qp, x, w)
        if step is None:
            # Degenerate working set: drop its most recent member and retry.
            if not working:
                raise QpError("singular KKT system with empty working set")
            working.pop()
            pivots += 1
            continue
        p, lam, mu = step
        if np.abs(p).max(initial=0.0) <= TOL * (1.0 + np.abs(x).max(initial=0.0)):
            worst = _worst(working, mu)
            if worst is None:
                return x, lam, mu, working, pivots
            del working[worst]
            pivots += 1
            continue
        resid, _ = qp.residuals(x)
        direction = np.concatenate([qp.G @ p, qp.bsign * p[qp.bvar]])
        direction[w] = 0.0
        blockers = np.flatnonzero(direction > TOL)
        ratios = -resid[blockers] / direction[blockers]
        near = ratios < 1.0 - 1e-14
        alpha = 1.0
        blocking = None
        # Sequential scan in tag order over the rows that can block at all.
        for i, ratio in zip(blockers[near].tolist(), ratios[near].tolist()):
            if ratio < alpha - 1e-14:
                alpha = max(ratio, 0.0)
                blocking = i
        x = x + alpha * p
        pivots += 1
        if blocking is not None:
            working.append(blocking)
            continue
        # An unblocked full step lands exactly on the subproblem optimum and
        # the multipliers just solved belong to that point, so testing them
        # here avoids re-solving a system whose residual noise can exceed the
        # stationarity threshold.
        worst = _worst(working, mu)
        if worst is None:
            return x, lam, mu, working, pivots
        del working[worst]


def qp_subproblem(
    H: np.ndarray,
    g: np.ndarray,
    A: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    G: Optional[np.ndarray] = None,
    h: Optional[np.ndarray] = None,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
    warm_start: Optional[Sequence[Tuple[str, int]]] = None,
) -> QpResult:
    """Solve one convex QP; see the module docstring for the problem form.

    ``warm_start`` takes a previous result's active set.  Infeasible starts
    trigger elastic relaxation automatically; the result carries the flag and
    the largest residual slack.  Raises QpInfeasibleError when the equality
    rows and bounds admit no point at all, and QpError on breakdown.
    """
    g = np.asarray(g, dtype=float)
    n = g.size
    H = np.asarray(H, dtype=float).reshape(n, n)
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float).reshape(-1)
    G = np.zeros((0, n)) if G is None else np.asarray(G, dtype=float).reshape(-1, n)
    h = np.zeros(0) if h is None else np.asarray(h, dtype=float).reshape(-1)
    lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if (lo > hi + 1e-12).any():
        raise QpInfeasibleError("crossed bounds")

    qp = _Qp(H, g, A, b, G, h, lo, hi)
    x0 = _feasible_start(
        np.vstack([A, np.eye(n)[qp.pinned]]), np.concatenate([b, lo[qp.pinned]]), lo, hi
    )
    resid, rhs = qp.residuals(x0)
    feas_tol = 1e-9 * (1.0 + np.abs(rhs).max(initial=0.0))
    # The clipped start satisfies every bound, so only general rows can fail.
    bad = np.flatnonzero(resid[: G.shape[0]] > feas_tol)
    if not bad.size:
        return _run(qp, x0, n, warm_start, False)

    # Elastic retry: one slack variable per violated general row, bounded
    # below by 0 and priced at rho, restores a feasible start.
    scale = max(1.0, float(np.abs(g).max(initial=0.0)), float(np.abs(H).max(initial=0.0)))
    rho = ELASTIC_PRICE * scale
    ns = bad.size
    He = np.zeros((n + ns, n + ns))
    He[:n, :n] = H
    He[n:, n:] = np.eye(ns) * 1e-8 * scale
    Ge = np.hstack([G, np.zeros((G.shape[0], ns))])
    Ge[bad, n + np.arange(ns)] = -1.0
    elastic = _Qp(
        He,
        np.concatenate([g, np.full(ns, rho)]),
        np.hstack([A, np.zeros((A.shape[0], ns))]),
        b,
        Ge,
        h,
        np.concatenate([lo, np.zeros(ns)]),
        np.concatenate([hi, np.full(ns, np.inf)]),
    )
    return _run(elastic, np.concatenate([x0, resid[bad] + 1.0]), n, warm_start, True)


def _feasible_start(eq_rows: np.ndarray, eq_rhs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    n = lo.size
    x0 = np.clip(np.zeros(n), lo, hi)
    if not eq_rows.shape[0]:
        return x0
    tol = 1e-8 * (1.0 + np.abs(eq_rhs).max(initial=0.0))
    sol, *_ = np.linalg.lstsq(eq_rows, eq_rhs, rcond=None)
    x0 = np.clip(sol, lo, hi)
    if np.abs(eq_rows @ x0 - eq_rhs).max(initial=0.0) <= tol:
        return x0
    # Clipping broke the equalities.  Alternate projections between the
    # affine set and the box converge whenever the intersection is nonempty,
    # but the tail can be slow, so periodically pin the variables sitting on
    # a bound and re-solve the equalities over the free ones exactly.
    pinv = np.linalg.pinv(eq_rows)
    for k in range(1000):
        x0 = np.clip(x0 - pinv @ (eq_rows @ x0 - eq_rhs), lo, hi)
        if np.abs(eq_rows @ x0 - eq_rhs).max(initial=0.0) <= tol:
            return x0
        if k % 20 == 19:
            polished = _pinned_resolve(eq_rows, eq_rhs, lo, hi, x0, tol)
            if polished is not None:
                return polished
    raise QpInfeasibleError("equality rows conflict with the variable bounds")


def _pinned_resolve(
    eq_rows: np.ndarray,
    eq_rhs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    x: np.ndarray,
    tol: float,
) -> Optional[np.ndarray]:
    """Fix bound-active variables and solve the equalities over the rest."""
    span = np.where(np.isfinite(hi - lo), hi - lo, 1.0)
    edge = 1e-9 * np.maximum(1.0, np.abs(span))
    free = (x > lo + edge) & (x < hi - edge)
    if not free.any():
        return None
    candidate = x.copy()
    rhs = eq_rhs - eq_rows[:, ~free] @ x[~free]
    sol, *_ = np.linalg.lstsq(eq_rows[:, free], rhs, rcond=None)
    candidate[free] = sol
    inside = (candidate >= lo - edge) & (candidate <= hi + edge)
    if not inside.all():
        return None
    candidate = np.clip(candidate, lo, hi)
    if np.abs(eq_rows @ candidate - eq_rhs).max(initial=0.0) > tol:
        return None
    return candidate


def _run(qp: _Qp, x0: np.ndarray, n: int, warm_start, elastic: bool) -> QpResult:
    """Solve from the feasible point x0 and report on the first n variables.

    Variables n and beyond are elastic slacks; their bounds take no part in
    warm starts or in the reported active set.
    """
    m = qp.G.shape[0]
    tags = [("in", i) for i in range(m)]
    tags += [("hi" if s > 0 else "lo", j) for s, j in zip(qp.bsign.tolist(), qp.bvar.tolist())]
    working: List[int] = []
    if warm_start:
        wanted = {tag for tag in warm_start if tag[0] == "in" or tag[1] < n}
        resid, rhs = qp.residuals(x0)
        near = np.abs(resid) <= 1e-9 * (1.0 + np.abs(rhs))
        working = [k for k, tag in enumerate(tags) if tag in wanted and near[k]]
    max_pivots = 50 * (x0.size + len(tags) + 10)
    x, lam, mu, working, pivots = _active_set_loop(qp, x0, working, max_pivots)

    w = np.asarray(working, dtype=np.intp)
    general = w < m
    ineq_mult = np.zeros(m)
    ineq_mult[w[general]] = mu[general]
    bound = w[~general] - m
    var, up = qp.bvar[bound], qp.bsign[bound] > 0
    real = var < n
    upper_mult = np.zeros(n)
    lower_mult = np.zeros(n)
    upper_mult[var[real & up]] = mu[~general][real & up]
    lower_mult[var[real & ~up]] = mu[~general][real & ~up]
    return QpResult(
        d=x[:n].copy(),
        eq_multipliers=lam.copy(),
        ineq_multipliers=ineq_mult,
        lower_multipliers=lower_mult,
        upper_multipliers=upper_mult,
        active_set=tuple(tags[k] for k in working if tags[k][0] == "in" or tags[k][1] < n),
        pivots=pivots,
        elastic=elastic,
        max_slack=float(np.abs(x[n:]).max(initial=0.0)),
    )
