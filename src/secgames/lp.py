"""Dense linear-program solver (two-phase tableau simplex).

Problem sizes in this package stay below a few dozen variables, so a
robust dense tableau beats anything clever.  The floating-point run's
verdicts are checked against the original data instead of trusted from
a tableau that pivoting has filled with round-off: "infeasible" needs a
Farkas certificate on the original rows, and an optimum must satisfy
them.  A run whose verdict fails its check, or that ends "unbounded",
is repeated in exact rational arithmetic with Bland's rule, whose
verdict is exact and which cannot cycle.  So is a floating-point run
that reaches its pivot cap: its lowest-row ratio ties are not Bland's
rule and can cycle on degenerate tableaus.

Problems are stated as

    maximize    c . z
    subject to  A_ub . z <= b_ub
                A_eq . z == b_eq
                lower <= z <= upper   (entries may be -inf / +inf)

Free variables are split into positive parts; finite bounds are shifted
or reflected away before the tableau is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MalformedInputError

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-8
# A floating-point run gives up after this many pivots per tableau row
# and column; a cycling run never ends, a sound one ends within a few.
_PIVOT_CAP = 10
# Margin of the conditional-dominance screen, per unit of 1 + max|C|.
# In a support system the right-hand sides are 0 or 1, so an optimum the
# floating-point run accepts breaks each row and each bound by at most
# check_tol = _FEAS_TOL * (1 + 1).  Take such a point, with own actions
# a (in the support) and b (feasible), n_y opponent-row variables and G
# opponent rows.  Its rows give (C[b] - C[a]) . y <= 3 check_tol.  Its
# bounds (y >= -check_tol) and row sums (within check_tol of 1) give
# (C[b] - C[a]) . y >= L(b, a) - (4 n_y + 2 G) max|C| check_tol.  So no
# point is accepted, and none exists in exact arithmetic, once
# L(b, a) > (4 n_y + 2 G + 3) (1 + max|C|) 2 _FEAS_TOL.  The margin
# below covers that for 4 n_y + 2 G + 3 up to _SCREEN_MAX_TERMS; larger
# systems are not screened.
_DOMINANCE_MARGIN = 1e4 * _FEAS_TOL
_SCREEN_MAX_TERMS = int(_DOMINANCE_MARGIN / (2 * _FEAS_TOL))


class DominanceScreen:
    """Conditional-dominance screen of one agent's support systems.

    ``coef[own_action, opp_agent, opp_action]`` is the agent's payoff,
    linear in the opponent rows.  A support system fixes an own support
    and, for each opponent row ``g``, a support ``S_g`` to which the row
    is a distribution; it asks for rows under which every own-support
    action earns the most among ``own_feasible``.  For a feasible ``b``
    and a supported ``a``,

        L(b, a) = sum over g of min over o in S_g of
                  (coef[b, g, o] - coef[a, g, o])

    bounds b's gain over a from below on all such rows (Porter, Nudelman
    & Shoham 2008, conditional dominance).  The per-row minima are kept
    for each (g, S_g), so a screen costs a few small sums.
    """

    def __init__(self, coef: np.ndarray, own_feasible):
        self.coef = np.asarray(coef, dtype=float)
        self.own_feasible = list(own_feasible)
        self._threshold = _DOMINANCE_MARGIN * (1.0 + np.abs(self.coef).max())
        self._minima: dict[tuple, np.ndarray] = {}

    def _row_minima(self, g: int, support) -> np.ndarray:
        key = (g, tuple(support))
        minima = self._minima.get(key)
        if minima is None:
            block = self.coef[:, g, list(support)]
            minima = (block[self.own_feasible][:, None] - block[None]).min(axis=2)
            self._minima[key] = minima
        return minima

    def rejects(self, own_support, opp_supports) -> bool:
        """True when some L(b, a) exceeds the margin: the system has no
        solution, and no LP of it can report one.  False decides nothing."""
        if 4 * sum(map(len, opp_supports)) + 2 * len(opp_supports) + 3 > _SCREEN_MAX_TERMS:
            return False
        bound = sum(self._row_minima(g, sup) for g, sup in enumerate(opp_supports))
        return bool((bound[:, list(own_support)] > self._threshold).any())


@dataclass(frozen=True)
class LinearProgram:
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def build(cls, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
              lower=None, upper=None) -> "LinearProgram":
        c = np.atleast_1d(np.asarray(c, dtype=float))
        n = c.size
        a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
        a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
        lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
        upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
        return cls(c, a_ub, b_ub, a_eq, b_eq, lower, upper)

    def check(self) -> None:
        n = self.c.size
        if self.a_ub.shape[1] != n or self.a_eq.shape[1] != n:
            raise MalformedInputError("constraint column count does not match variable count")
        if self.a_ub.shape[0] != self.b_ub.size or self.a_eq.shape[0] != self.b_eq.size:
            raise MalformedInputError("constraint row count does not match rhs length")
        if self.lower.size != n or self.upper.size != n:
            raise MalformedInputError("bound vectors do not match variable count")
        if not (np.isfinite(self.c).all() and np.isfinite(self.a_ub).all()
                and np.isfinite(self.b_ub).all() and np.isfinite(self.a_eq).all()
                and np.isfinite(self.b_eq).all()):
            raise MalformedInputError("coefficients must be finite")


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    z: np.ndarray | None
    value: float | None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0        # an int keeps rational tableaus exact
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _simplex(tableau: np.ndarray, basis: np.ndarray, n_cols: int,
             exact: bool = False) -> str:
    """Maximize the objective in the last tableau row.

    Reduced costs are kept in the last row as (c_B B^-1 A - c); a column
    with a negative entry improves the objective, and the lowest-index
    one enters.  In floating point, entries within ``_PIVOT_TOL`` of zero
    count as zero and ratio ties go to the lowest row.  In exact
    arithmetic nothing is rounded and ties go to the lowest basic index:
    that is Bland's rule, which cannot cycle.  Returns "optimal",
    "unbounded" or, in floating point only, "stalled" once
    ``_PIVOT_CAP`` times the tableau's rows plus columns pivots have
    not reached a verdict.
    """
    tol = 0 if exact else _PIVOT_TOL
    m = tableau.shape[0] - 1
    pivots_left = None if exact else _PIVOT_CAP * (m + n_cols)
    while True:
        obj = tableau[-1, :n_cols]
        if not exact:   # Python floats compare and divide as float64 does, faster
            obj = obj.tolist()
        entering = next((j for j, v in enumerate(obj) if v < -tol), -1)
        if entering < 0:
            return "optimal"
        col, rhs = tableau[:m, entering], tableau[:m, -1]
        if not exact:
            col, rhs = col.tolist(), rhs.tolist()
        best, leaving = None, -1
        for r in range(m):
            if col[r] > tol:
                ratio = rhs[r] / col[r]
                if exact:
                    better = (leaving < 0 or ratio < best
                              or (ratio == best and basis[r] < basis[leaving]))
                else:   # a later row must improve by more than 1e-12
                    better = leaving < 0 or ratio < best - 1e-12
                if better:
                    best, leaving = ratio, r
        if leaving < 0:
            return "unbounded"
        if pivots_left is not None:
            if pivots_left == 0:
                return "stalled"
            pivots_left -= 1
        _pivot(tableau, basis, leaving, entering)


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Solve a dense LP; infeasible/unbounded are statuses, never exceptions."""
    problem.check()
    c, lower, upper = problem.c, problem.lower, problem.upper
    n = c.size

    # Rewrite every variable as one or two non-negative columns.
    # columns[j] -> list of (original index, sign); offset restores shifts.
    col_map: list[tuple[int, float]] = []
    offset = np.zeros(n)
    extra_ub_rows: list[np.ndarray] = []
    extra_ub_rhs: list[float] = []
    for j, (lo, hi) in enumerate(zip(lower.tolist(), upper.tolist())):
        if math.isfinite(lo):
            offset[j] = lo
            col_map.append((j, 1.0))
            if math.isfinite(hi):
                if hi < lo - _FEAS_TOL:
                    return LpSolution("infeasible", None, None)
                row = np.zeros(n)
                row[j] = 1.0
                extra_ub_rows.append(row)
                extra_ub_rhs.append(hi)
        elif math.isfinite(hi):
            offset[j] = hi
            col_map.append((j, -1.0))
        else:
            col_map.append((j, 1.0))
            col_map.append((j, -1.0))

    a_ub = problem.a_ub
    b_ub = problem.b_ub
    if extra_ub_rows:
        a_ub = np.vstack([a_ub, np.array(extra_ub_rows)])
        b_ub = np.concatenate([b_ub, np.array(extra_ub_rhs)])

    n_std = len(col_map)

    cols = np.array([j for j, _ in col_map], dtype=int)
    signs = np.array([sign for _, sign in col_map])

    def to_std(mat: np.ndarray) -> np.ndarray:
        return mat[:, cols] * signs

    c_std = c[cols] * signs
    a_ub_std = to_std(a_ub)
    b_ub_std = b_ub - a_ub @ offset
    a_eq_std = to_std(problem.a_eq)
    b_eq_std = problem.b_eq - problem.a_eq @ offset

    n_ub = a_ub_std.shape[0]
    n_eq = a_eq_std.shape[0]
    m = n_ub + n_eq

    # Equalities first, then inequalities with slack columns appended.
    body = np.zeros((m, n_std + n_ub))
    rhs = np.zeros(m)
    body[:n_eq, :n_std] = a_eq_std
    rhs[:n_eq] = b_eq_std
    body[n_eq:, :n_std] = a_ub_std
    body[n_eq:, n_std + np.arange(n_ub)] = np.eye(n_ub)
    rhs[n_eq:] = b_ub_std

    neg = rhs < 0
    body[neg] *= -1.0
    rhs[neg] *= -1.0

    # Untouched slacks of inequality rows start basic; every other row
    # gets an artificial column.
    ready = np.full(m, -1, dtype=int)
    for r in range(n_eq, m):
        if not neg[r]:
            ready[r] = n_std + (r - n_eq)
    # A floating-point run whose verdict fails its check against the
    # original rows is repeated in exact rational arithmetic.
    status, x_std = (_two_phase(body, rhs, ready, c_std, exact=False)
                     or _two_phase(body, rhs, ready, c_std, exact=True))
    if status != "optimal":
        return LpSolution(status, None, None)
    z = offset.copy()
    np.add.at(z, cols, signs * x_std[:n_std])   # in column order, as a loop adds
    return LpSolution("optimal", z, float(problem.c @ z))


def _two_phase(body: np.ndarray, rhs: np.ndarray, ready: np.ndarray,
               c_std: np.ndarray, exact: bool):
    """Two-phase simplex on ``body . x == rhs, x >= 0`` (rhs >= 0).

    ``ready[r]`` is a column that can start basic in row ``r``, or -1.
    Returns (status, x).  With ``exact`` the float data are converted to
    fractions (exactly) and the verdict is exact.  Otherwise None is
    returned whenever a verdict does not hold up on the original rows:
    "infeasible" needs a Farkas certificate, an optimum must satisfy the
    rows, and "unbounded" and a stalled run are left to the exact run.
    """
    m, n_work = body.shape
    n_std = c_std.size
    if exact:
        # imported here: the exact run is rare, and ``fractions`` (with
        # ``decimal``) adds about 4 ms to every start of the program
        from fractions import Fraction
        rational = np.vectorize(Fraction, otypes=[object])
        body, rhs, c_std = rational(body), rational(rhs), rational(c_std)
        pivot_tol = feas_tol = check_tol = 0
    else:
        pivot_tol, feas_tol = _PIVOT_TOL, _FEAS_TOL
        check_tol = _FEAS_TOL * (1.0 + np.abs(rhs).max(initial=0.0))
    basis = ready.copy()
    needs_artificial = [r for r in range(m) if ready[r] < 0]
    n_art = len(needs_artificial)
    tableau = np.zeros((m + 1, n_work + n_art + 1), dtype=body.dtype)
    tableau[:m, :n_work] = body
    tableau[:m, -1] = rhs
    for idx, r in enumerate(needs_artificial):
        tableau[r, n_work + idx] = 1
        basis[r] = n_work + idx

    if n_art:
        # Objective row: minimize sum of artificials == maximize -(sum).
        tableau[-1, :] = 0
        for r in needs_artificial:
            tableau[-1, : n_work + n_art] -= tableau[r, : n_work + n_art]
            tableau[-1, -1] -= tableau[r, -1]
        tableau[-1, n_work:n_work + n_art] = 0
        # Artificials are excluded from entering candidates (columns >=
        # n_work).  The phase-1 objective is bounded by 0, so the run's
        # status says nothing; the artificial sum decides.
        start_cols = basis.copy()
        if _simplex(tableau, basis, n_work, exact) == "stalled":
            return None
        if tableau[-1, -1] < -feas_tol:
            if exact:
                return "infeasible", None
            # A Farkas certificate on the original rows: y . body <= 0 and
            # y . rhs > 0.  The final objective row is -y . [body | rhs];
            # y is read off the columns that started basic (unit columns
            # of zero phase-1 cost).
            y = -tableau[-1, start_cols]
            y[needs_artificial] += 1.0
            if ((body.T @ y).max() <= _PIVOT_TOL * (1.0 + np.abs(y).max())
                    and rhs @ y > _FEAS_TOL):
                return "infeasible", None
            return None
        if tableau[-1, -1] > check_tol or tableau[:m, -1].min() < -check_tol:
            return None     # round-off broke the basis
        # Pivot any zero-level artificial out of the basis, or drop its row.
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] >= n_work:
                pivot_col = -1
                for j in range(n_work):
                    if abs(tableau[r, j]) > pivot_tol:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(tableau, basis, r, pivot_col)
                else:
                    keep[r] = False
        if not np.all(keep):
            tableau = tableau[np.concatenate([np.flatnonzero(keep), [m]])]
            basis = basis[keep]
            m = basis.size
            body, rhs = body[keep], rhs[keep]

    # Phase 2: restore the real objective.
    tableau = np.hstack([tableau[:, :n_work], tableau[:, -1:]])
    tableau[-1, :] = 0
    tableau[-1, :n_std] = -c_std
    for r in range(m):
        if tableau[-1, basis[r]] != 0:
            tableau[-1] -= tableau[-1, basis[r]] * tableau[r]
    status = _simplex(tableau, basis, n_work, exact)
    if status != "optimal":
        return (status, None) if exact else None

    x_std = np.zeros(n_work)
    x_std[basis] = tableau[:m, -1].astype(float)
    if not exact and (x_std.min(initial=0.0) < -check_tol
                      or np.abs(body @ x_std - rhs).max(initial=0.0) > check_tol):
        return None
    return "optimal", x_std
