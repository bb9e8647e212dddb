"""Dense-tableau two-phase simplex with Bland's rule.

Problems here are small (at most a few thousand variables), so a
self-contained dense implementation keeps the solve deterministic and
dependency-free.  Variables are nonnegative; general bounds are expressed
as constraint rows by the caller.

    minimize    c @ x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                x >= 0
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    #: for infeasible problems, indices of rows (in [a_ub; a_eq] order)
    #: whose artificial variables could not be driven to zero
    infeasible_rows: list[int] = field(default_factory=list)


class SimplexError(RuntimeError):
    pass


def _iterate(tableau: np.ndarray, basis: np.ndarray, allowed: int) -> str:
    """Run simplex pivots on a tableau whose last row is the reduced-cost
    row (rhs cell holds -objective).  Bland's rule: lowest-index entering
    column with negative reduced cost, lowest-index basic variable on
    ratio ties.  Returns OPTIMAL or UNBOUNDED."""
    m = tableau.shape[0] - 1
    max_iter = 50 * (tableau.shape[1] + m) + 10_000
    for _ in range(max_iter):
        cost = tableau[-1, :allowed]
        candidates = np.flatnonzero(cost < -_COST_TOL)
        if candidates.size == 0:
            return OPTIMAL
        col = int(candidates[0])
        ratios = np.full(m, np.inf)
        column = tableau[:m, col]
        positive = column > _PIVOT_TOL
        ratios[positive] = tableau[:m, -1][positive] / column[positive]
        best = ratios.min()
        if not np.isfinite(best):
            return UNBOUNDED
        ties = np.flatnonzero(np.abs(ratios - best) <= 1e-12 * max(1.0, abs(best)))
        row = int(ties[np.argmin(basis[ties])])
        _pivot(tableau, basis, row, col)
    raise SimplexError("pivot limit exceeded")


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
) -> LPResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    blocks = []
    rhs = []
    n_ub = 0
    if a_ub is not None and len(a_ub):
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        blocks.append(a_ub)
        rhs.append(np.asarray(b_ub, dtype=float))
        n_ub = a_ub.shape[0]
    if a_eq is not None and len(a_eq):
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        blocks.append(a_eq)
        rhs.append(np.asarray(b_eq, dtype=float))
    if not blocks:
        return LPResult(OPTIMAL, np.zeros(n), 0.0)
    a = np.vstack(blocks)
    b = np.concatenate(rhs)
    m = a.shape[0]

    # slack columns for inequality rows
    slack = np.zeros((m, n_ub))
    for r in range(n_ub):
        slack[r, r] = 1.0
    body = np.hstack([a, slack])

    # normalize rhs >= 0
    b = b.copy()
    for r in range(m):
        if b[r] < 0:
            body[r] *= -1.0
            b[r] *= -1.0

    # artificials wherever a row lacks a usable identity column
    basis = np.full(m, -1, dtype=int)
    art_cols: list[int] = []
    art_rows: list[int] = []
    for r in range(n_ub):
        if body[r, n + r] > 0:
            basis[r] = n + r
    width = n + n_ub
    for r in range(m):
        if basis[r] == -1:
            art_rows.append(r)
            art_cols.append(width)
            basis[r] = width
            width += 1
    art = np.zeros((m, len(art_cols)))
    for k, r in enumerate(art_rows):
        art[r, k] = 1.0
    tableau = np.zeros((m + 1, width + 1))
    tableau[:m, : n + n_ub] = body
    tableau[:m, n + n_ub : width] = art
    tableau[:m, -1] = b

    # phase 1: minimize the artificial sum
    tableau[-1, n + n_ub : width] = 1.0
    for r in art_rows:
        tableau[-1] -= tableau[r]
    status = _iterate(tableau, basis, allowed=width)
    if status != OPTIMAL:
        raise SimplexError("phase 1 cannot be unbounded")
    feas_tol = 1e-9 * max(1.0, float(np.abs(b).max()))
    if -tableau[-1, -1] > feas_tol:
        bad = []
        basis_list = list(basis)
        for k, col in enumerate(art_cols):
            if col in basis_list and tableau[basis_list.index(col), -1] > feas_tol:
                bad.append(art_rows[k])
        return LPResult(INFEASIBLE, infeasible_rows=bad)

    # drive leftover artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n + n_ub:
            cols = np.flatnonzero(np.abs(tableau[r, : n + n_ub]) > _PIVOT_TOL)
            if cols.size:
                _pivot(tableau, basis, r, int(cols[0]))

    # phase 2 with the real costs
    cost = np.zeros(width + 1)
    cost[:n] = c
    for r in range(m):
        if basis[r] < n:
            cost -= c[basis[r]] * tableau[r]
    tableau[-1] = cost
    # artificial columns sit beyond `allowed`, so they never re-enter
    status = _iterate(tableau, basis, allowed=n + n_ub)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = np.zeros(width)
    for r in range(m):
        if basis[r] < width:
            x[basis[r]] = tableau[r, -1]
    x_real = np.maximum(x[:n], 0.0)
    if n:
        # pivoting leaves round-off (about 1e-13) on variables that are zero
        # at the optimum; callers judge which ones carry flow
        x_real[x_real < 1e-9 * x_real.max()] = 0.0
    return LPResult(OPTIMAL, x_real, float(c @ x_real))
