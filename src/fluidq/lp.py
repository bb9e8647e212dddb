"""Dense-tableau two-phase simplex with Bland's rule and variable upper bounds.

Problems here are small (at most a few thousand variables), so a
self-contained dense implementation keeps the solve deterministic and
dependency-free.

    minimize    c @ x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                0 <= x <= upper

Upper bounds are not constraint rows: they use Dantzig's upper-bounding
technique.  A nonbasic variable sits at 0 or at its bound, and one at its
bound is carried complemented (x = u - x'), so that every nonbasic
variable of the tableau is at 0.  The ratio test also stops a basic
variable at its bound (it leaves complemented), and when the entering
variable's own bound is the tightest limit it is flipped to that bound
without a pivot.  A variable whose bound is 0 is fixed and never enters.
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
    #: for infeasible problems, variables held at their upper bound where
    #: raising the bound would reduce the infeasibility
    infeasible_bounds: list[int] = field(default_factory=list)
    #: basis exchanges over both phases, and bound flips made without one
    pivots: int = 0
    flips: int = 0


class SimplexError(RuntimeError):
    pass


def _iterate(
    tableau: np.ndarray,
    basis: np.ndarray,
    allowed: int,
    upper: np.ndarray,
    flipped: np.ndarray,
) -> tuple[str, int, int]:
    """Run simplex pivots on a tableau whose last row is the reduced-cost
    row (rhs cell holds minus the objective, up to a constant).  Bland's
    rule: lowest-index entering column with negative reduced cost,
    lowest-index basic variable on ratio ties.  ``upper`` holds one bound
    per column (``inf`` for none) for the bounded-variable ratio test;
    columns complemented to their bound are marked in ``flipped``.
    Returns OPTIMAL or UNBOUNDED with the pivots and bound flips made."""
    m = tableau.shape[0] - 1
    max_iter = 50 * (tableau.shape[1] + m) + 10_000
    movable = upper[:allowed] > 0.0
    rhs = tableau[:m, -1]
    pivots = flips = 0
    for _ in range(max_iter):
        entering = (tableau[-1, :allowed] < -_COST_TOL) & movable
        col = int(entering.argmax())
        if not entering[col]:
            return OPTIMAL, pivots, flips
        column = tableau[:m, col]
        ratios = np.divide(rhs, column, out=np.full(m, np.inf), where=column > _PIVOT_TOL)
        # a basic variable rising towards its own bound
        bound = upper[basis]
        rising = column < -_PIVOT_TOL
        rising &= bound < np.inf
        np.divide(bound - rhs, -column, out=ratios, where=rising)
        best = ratios.min()
        if upper[col] <= best and upper[col] < np.inf:
            _flip(tableau, col, upper[col])
            flipped[col] = not flipped[col]
            flips += 1
            continue
        if not best < np.inf:
            return UNBOUNDED, pivots, flips
        ties = np.flatnonzero(ratios - best <= 1e-12 * max(1.0, abs(best)))
        row = int(ties[0] if ties.size == 1 else ties[np.argmin(basis[ties])])
        if column[row] < 0.0:
            # the leaving variable stops at its bound: complement it first,
            # so that it leaves at 0 of its new orientation
            leaving = basis[row]
            tableau[row] *= -1.0
            tableau[row, leaving] = 1.0
            tableau[row, -1] += upper[leaving]
            flipped[leaving] = not flipped[leaving]
        _pivot(tableau, basis, row, col)
        pivots += 1
    raise SimplexError("pivot limit exceeded")


def _flip(tableau: np.ndarray, col: int, bound: float) -> None:
    """Complement nonbasic column ``col`` (x = bound - x'): the variable
    moves to the other end of [0, bound] and the basic values follow."""
    tableau[:, -1] -= bound * tableau[:, col]
    tableau[:, col] *= -1.0


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def clip_to_bounds(x: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``x`` clipped into ``[0, upper]``, with round-off snapped to zero.

    Pivoting (or a max-flow's cancelling pushes) leaves about 1e-13 on
    variables that are zero at the optimum; entries below 1e-9 of the
    largest become exactly 0, so callers can judge which ones carry flow.
    """
    x = np.clip(x, 0.0, upper)
    if x.size:
        x[x < 1e-9 * x.max()] = 0.0
    return x


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return values


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    *,
    upper=None,
) -> LPResult:
    """Minimize ``c @ x`` over the rows given and ``0 <= x <= upper``.

    ``upper`` holds one bound per variable, ``inf`` meaning none; omitted,
    every variable is only nonnegative.
    """
    c = _finite("c", np.asarray(c, dtype=float))
    n = c.size
    bounds = np.full(n, np.inf)
    if upper is not None:
        bounds = np.asarray(upper, dtype=float)
        if bounds.shape != (n,) or not np.all(bounds >= 0.0):
            raise ValueError("upper must hold one nonnegative bound (or inf) per variable")
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
        # no rows: every variable goes to whichever end of its range is cheaper
        if np.any((c < 0.0) & (bounds == np.inf)):
            return LPResult(UNBOUNDED)
        x = np.where(c < 0.0, bounds, 0.0)
        return LPResult(OPTIMAL, x, float(c @ x))
    a = _finite("constraint matrix", np.vstack(blocks))
    b = _finite("right-hand side", np.concatenate(rhs))
    m = a.shape[0]

    # a slack column per inequality row, usable as its basic variable
    # unless the row is negated for rhs >= 0; artificials for all others
    negative = b < 0
    basis = np.full(m, -1, dtype=int)
    usable = np.flatnonzero(~negative[:n_ub])
    basis[usable] = n + usable
    art_rows = np.flatnonzero(basis < 0)
    base = n + n_ub
    width = base + art_rows.size
    basis[art_rows] = np.arange(base, width)
    tableau = np.zeros((m + 1, width + 1))
    tableau[:m, :n] = a
    tableau[np.arange(n_ub), np.arange(n, base)] = 1.0
    tableau[:m, -1] = b
    tableau[:m][negative] *= -1.0
    tableau[art_rows, basis[art_rows]] = 1.0

    upper_all = np.full(width, np.inf)
    upper_all[:n] = bounds
    flipped = np.zeros(width, dtype=bool)

    # phase 1: minimize the artificial sum
    tableau[-1, base:width] = 1.0
    tableau[-1] -= tableau[art_rows].sum(axis=0)
    status, pivots, flips = _iterate(tableau, basis, width, upper_all, flipped)
    if status != OPTIMAL:
        raise SimplexError("phase 1 cannot be unbounded")
    feas_tol = 1e-9 * max(1.0, float(np.abs(b).max()))
    if not (-tableau[-1, -1] <= feas_tol):
        stuck = np.flatnonzero((basis >= base) & (tableau[:m, -1] > feas_tol))
        bad = sorted(int(art_rows[basis[r] - base]) for r in stuck)
        # in the variable's own orientation: at its bound (complemented, or
        # fixed at 0) with a reduced cost that rewards raising it
        d = np.where(flipped[:n], -tableau[-1, :n], tableau[-1, :n])
        held = flipped[:n] | (bounds == 0.0)
        return LPResult(
            INFEASIBLE,
            infeasible_rows=bad,
            infeasible_bounds=np.flatnonzero(held & (d < -_COST_TOL)).tolist(),
            pivots=pivots,
            flips=flips,
        )

    # drive leftover artificials out of the basis where possible
    for r in np.flatnonzero(basis >= base):
        cols = np.flatnonzero(np.abs(tableau[r, :base]) > _PIVOT_TOL)
        if cols.size:
            _pivot(tableau, basis, r, int(cols[0]))
            pivots += 1

    # phase 2 with the real costs, in each variable's current orientation
    # (x = u - x' costs -c per unit of x'); the objective is computed from
    # x at the end, so the cost row's rhs cell need not track it
    cost = np.zeros(width + 1)
    cost[:n] = np.where(flipped[:n], -c, c)
    real = basis < n
    cost -= cost[basis[real]] @ tableau[:m][real]
    tableau[-1] = cost
    # artificial columns sit beyond `allowed`, so they never re-enter
    status, more_pivots, more_flips = _iterate(tableau, basis, base, upper_all, flipped)
    pivots += more_pivots
    flips += more_flips
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, pivots=pivots, flips=flips)
    x = np.zeros(width)
    x[basis] = tableau[:m, -1]
    x_real = clip_to_bounds(np.where(flipped[:n], bounds - x[:n], x[:n]), bounds)
    return LPResult(OPTIMAL, x_real, float(c @ x_real), pivots=pivots, flips=flips)
