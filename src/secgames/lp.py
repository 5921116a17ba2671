"""Dense feasibility solver (phase 1 of the tableau simplex method).

:func:`solve_lp` finds a point of a system in standard form,

    A_ub . z <= b_ub,    A_eq . z == b_eq,    z >= 0,

or proves that none exists; a free variable is written by the caller
as the difference of two columns.  Problem sizes in this package stay
below a few dozen variables, so a robust dense tableau beats anything
clever.  The floating-point run's verdicts are checked against the
original data instead of trusted from a tableau that pivoting has
filled with round-off: "infeasible" needs a Farkas certificate on the
original rows, and a point must satisfy them.  A run whose verdict
fails its check is repeated in exact rational arithmetic with Bland's
rule, whose verdict is exact and which cannot cycle.  So is a
floating-point run that reaches its pivot cap: its lowest-row ratio
ties are not Bland's rule and can cycle on degenerate tableaus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MalformedInputError

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-8
# A floating-point run gives up after this many pivots per tableau row
# and column; a cycling run never ends, a sound one ends within a few.
_PIVOT_CAP = 10
# Margin of the conditional-dominance screen, per unit of 1 + max|C|.
# In a support system the right-hand sides are 0 or 1, so a point the
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
    & Shoham 2008, conditional dominance).
    """

    def __init__(self, coef: np.ndarray, own_feasible):
        self.coef = np.asarray(coef, dtype=float)
        self.own_feasible = list(own_feasible)
        self._threshold = _DOMINANCE_MARGIN * (1.0 + np.abs(self.coef).max())

    def table(self, own_supports, opp_choices) -> np.ndarray:
        """Verdicts on a whole grid of support systems, as one bool array.

        Entry ``[i, k]`` is the system of own support ``own_supports[i]``
        (a subset of ``own_feasible``) against the k-th opponent profile
        of ``itertools.product(*opp_choices)``, where ``opp_choices[g]``
        lists the supports ``S_g`` of opponent row g.  It is True when
        some L(b, a) exceeds the margin: the system has no solution, and
        no LP of it can report one.  False decides nothing, and a profile
        whose system has more than ``_SCREEN_MAX_TERMS`` terms is never
        rejected.  The bounds are summed over g = 0, 1, ... in that order
        for every profile, so each verdict is the one a single-system
        ``sum`` over g gives, bit for bit.

        The float temporary holds ``n_profiles * F**2`` doubles for the F
        own-feasible actions.  When the own supports are all nonempty
        subsets of ``own_feasible`` and ``(2**F - 1) * n_profiles`` is
        within the 10**6 profiles of ``static.solve_bne``'s default
        budget, that is at most about 11 MB (at F = 2).
        """
        feasible = self.own_feasible
        n_own = len(feasible)
        bound = np.zeros((n_own, n_own))
        n_y = np.zeros((), dtype=int)
        for g, choices in enumerate(opp_choices):
            block = self.coef[feasible, g, :]
            gains = block[:, None, :] - block[None, :, :]   # [b, a, o]
            minima = np.stack([gains[:, :, list(sup)].min(axis=2) for sup in choices])
            bound = bound[..., None, :, :] + minima
            n_y = n_y[..., None] + np.array([len(sup) for sup in choices])
        screened = 4 * n_y.ravel() + 2 * len(opp_choices) + 3 <= _SCREEN_MAX_TERMS
        beaten = (bound.reshape(-1, n_own, n_own) > self._threshold).any(axis=1)
        beaten &= screened[:, None]                         # [profile, a]
        column = {a: i for i, a in enumerate(feasible)}
        members = np.zeros((len(own_supports), n_own), dtype=bool)
        for i, sup in enumerate(own_supports):
            members[i, [column[a] for a in sup]] = True
        return members @ beaten.T       # boolean: some supported a is beaten


@dataclass(frozen=True)
class LinearProgram:
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    @classmethod
    def build(cls, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> "LinearProgram":
        rows = a_eq if a_eq is not None else a_ub   # gives the column count
        if rows is None:
            raise MalformedInputError("a system needs at least one constraint row")
        n = np.atleast_2d(np.asarray(rows, dtype=float)).shape[1]
        a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
        a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
        return cls(a_ub, b_ub, a_eq, b_eq)

    def check(self) -> None:
        if self.a_ub.shape[1] != self.a_eq.shape[1]:
            raise MalformedInputError("constraint column counts differ")
        if self.a_ub.shape[0] != self.b_ub.size or self.a_eq.shape[0] != self.b_eq.size:
            raise MalformedInputError("constraint row count does not match rhs length")
        if not (np.isfinite(self.a_ub).all() and np.isfinite(self.b_ub).all()
                and np.isfinite(self.a_eq).all() and np.isfinite(self.b_eq).all()):
            raise MalformedInputError("coefficients must be finite")


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" (a point was found) | "infeasible"
    z: np.ndarray | None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0        # an int keeps rational tableaus exact
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _simplex(tableau: np.ndarray, basis: np.ndarray, n_cols: int,
             exact: bool = False) -> str:
    """Drive the artificial sum in the last tableau row towards zero.

    Reduced costs are kept in the last row; a column among the first
    ``n_cols`` with a negative entry lowers the sum, and the lowest-index
    one enters.  In floating point, entries within ``_PIVOT_TOL`` of zero
    count as zero and ratio ties go to the lowest row.  In exact
    arithmetic nothing is rounded and ties go to the lowest basic index:
    that is Bland's rule, which cannot cycle.  Returns "done" when no
    column enters or, as only round-off can cause, none leaves; in
    floating point also "stalled" once ``_PIVOT_CAP`` times the
    tableau's rows plus columns pivots have not reached a verdict.
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
            return "done"
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
            return "done"
        if pivots_left is not None:
            if pivots_left == 0:
                return "stalled"
            pivots_left -= 1
        _pivot(tableau, basis, leaving, entering)


def solve_lp(problem: LinearProgram) -> LpSolution:
    """A point of the system, or "infeasible"; never an exception for
    a well-formed system."""
    problem.check()
    n = problem.a_eq.shape[1]
    n_ub = problem.a_ub.shape[0]
    n_eq = problem.a_eq.shape[0]
    m = n_ub + n_eq

    # Equalities first, then inequalities with slack columns appended.
    body = np.zeros((m, n + n_ub))
    rhs = np.zeros(m)
    body[:n_eq, :n] = problem.a_eq
    rhs[:n_eq] = problem.b_eq
    body[n_eq:, :n] = problem.a_ub
    body[n_eq:, n + np.arange(n_ub)] = np.eye(n_ub)
    rhs[n_eq:] = problem.b_ub

    neg = rhs < 0
    body[neg] *= -1.0
    rhs[neg] *= -1.0

    # Untouched slacks of inequality rows start basic; every other row
    # gets an artificial column.
    ready = np.full(m, -1, dtype=int)
    for r in range(n_eq, m):
        if not neg[r]:
            ready[r] = n + (r - n_eq)
    # A floating-point run whose verdict fails its check against the
    # original rows is repeated in exact rational arithmetic.
    status, x = (_phase_one(body, rhs, ready, exact=False)
                 or _phase_one(body, rhs, ready, exact=True))
    return LpSolution(status, None if x is None else x[:n])


def _phase_one(body: np.ndarray, rhs: np.ndarray, ready: np.ndarray, exact: bool):
    """Phase 1 of the simplex method on ``body . x == rhs, x >= 0``
    (rhs >= 0).

    ``ready[r]`` is a column that can start basic in row ``r``, or -1.
    Returns ("optimal", x) or ("infeasible", None).  With ``exact`` the
    float data are converted to fractions (exactly) and the verdict is
    exact.  Otherwise None is returned whenever a verdict does not hold
    up on the original rows: "infeasible" needs a Farkas certificate, a
    point must satisfy the rows, and a stalled run is left to the exact
    run.
    """
    m, n_work = body.shape
    if exact:
        # imported here: the exact run is rare, and ``fractions`` (with
        # ``decimal``) adds about 4 ms to every start of the program
        from fractions import Fraction
        rational = np.vectorize(Fraction, otypes=[object])
        body, rhs = rational(body), rational(rhs)
        check_tol = 0
    else:
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
        # Last row: the reduced costs of the sum of artificials.
        for r in needs_artificial:
            tableau[-1, : n_work + n_art] -= tableau[r, : n_work + n_art]
            tableau[-1, -1] -= tableau[r, -1]
        tableau[-1, n_work:n_work + n_art] = 0
        # Artificials are excluded from entering candidates (columns >=
        # n_work).  The artificial sum, not how the run stopped, decides.
        start_cols = basis.copy()
        if _simplex(tableau, basis, n_work, exact) == "stalled":
            return None
        if tableau[-1, -1] < (0 if exact else -_FEAS_TOL):
            if exact:
                return "infeasible", None
            # A Farkas certificate on the original rows: y . body <= 0 and
            # y . rhs > 0.  The run leaves -y . [body | rhs] in the last row;
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

    # The point sits in the basis; artificials left basic at level zero
    # are skipped.
    x = np.zeros(n_work)
    real = basis < n_work
    x[basis[real]] = tableau[:m, -1][real].astype(float)
    if not exact and (x.min(initial=0.0) < -check_tol
                      or np.abs(body @ x - rhs).max(initial=0.0) > check_tol):
        return None
    return "optimal", x


# ---------------------------------------------------------------------------
# Linear complementarity (Lemke).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LcpSolution:
    status: str             # "solution" | "ray"
    z: np.ndarray | None
    pivots: int             # pivots of the run that returned, start pivots excluded
    exact: bool             # True when the rational run returned


def lemke(m, q, d, start, entering: int, free=()) -> LcpSolution:
    """Lemke's complementary pivoting with a lexicographic ratio test.

    Solves ``w = q + M z`` where, for every index ``i`` not in ``free``,
    ``w_i >= 0``, ``z_i >= 0`` and ``w_i z_i = 0``; for ``i`` in ``free``
    ``z_i`` is unrestricted and ``w_i = 0``.  The path runs through the
    augmented system ``w = q + M z + d z0`` and ends when ``z0`` leaves
    the basis (Lemke 1965).

    Columns are numbered ``w_0 .. w_{n-1}, z_0 .. z_{n-1}, z0``.
    ``start`` lists the n columns of a feasible basis that holds ``z0``
    and every free ``z_i`` and, of every other complementary pair but
    one, exactly one column; ``entering`` is a column of that missing
    pair.  Free ``z_i`` never leave the basis.  Ratio ties are broken
    lexicographically on the columns of ``start`` in the order given,
    which perturbs ``q`` by ``B0 (eps, eps^2, ...)`` and cannot cycle.

    As :func:`solve_lp` does with its point, a floating-point run's
    answer is checked on the original data (signs and complementarity within a tolerance, and
    ``w_i = 0`` for free ``i``); an answer that fails, a ray, or a run
    that reaches the pivot cap is repeated in exact rational arithmetic.
    A ray of the exact run is returned as status "ray".
    """
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    n = q.size
    if m.shape != (n, n) or d.shape != (n,) or len(start) != n:
        raise MalformedInputError("LCP data do not match its size")
    if not (np.isfinite(m).all() and np.isfinite(q).all() and np.isfinite(d).all()):
        raise MalformedInputError("coefficients must be finite")
    # w - M z - d z0 = q
    tableau = np.hstack([np.eye(n), -m, -d[:, None], q[:, None]])
    free = frozenset(int(i) for i in free)
    out = _lemke_run(tableau, list(start), entering, free, exact=False)
    if out is not None:
        z, pivots = out
        check_tol = _FEAS_TOL * (1.0 + np.abs(q).max(initial=0.0)
                                 + np.abs(m).max(initial=0.0))
        w = q + m @ z
        bound = np.array([i not in free for i in range(n)])
        if (np.abs(w[~bound]).max(initial=0.0) <= check_tol
                and min(w[bound].min(initial=0.0), z[bound].min(initial=0.0)) >= -check_tol
                and np.minimum(w[bound], z[bound]).max(initial=0.0) <= check_tol):
            return LcpSolution("solution", z, pivots, False)
    from fractions import Fraction      # see _phase_one
    out = _lemke_run(np.vectorize(Fraction, otypes=[object])(tableau),
                     list(start), entering, free, exact=True)
    if out is None:
        return LcpSolution("ray", None, 0, True)
    return LcpSolution("solution", out[0], out[1], True)


def _lemke_run(tableau: np.ndarray, start: list[int], entering: int,
               free: frozenset, exact: bool):
    """Pivot ``start`` in, then trace; (z, pivots) or None.

    None is a ray, or in floating point also a stalled run or a start
    basis that round-off left infeasible; the caller decides.
    """
    n = tableau.shape[0]
    z0 = 2 * n
    tol = 0 if exact else _PIVOT_TOL
    fixed = {n + i for i in free}           # basic columns that never leave
    basis = list(range(n))                  # the identity: every w basic
    keep = set(start)
    open_rows = [r for r in range(n) if r not in keep]
    for col in start:
        if col < n:
            continue                        # w_col stays basic in its own row
        column = tableau[open_rows, col].tolist()
        if exact:
            k = next((i for i, v in enumerate(column) if v != 0), -1)
        else:
            k = int(np.argmax(np.abs(column))) if column else -1
        if k < 0 or abs(column[k]) <= tol:
            raise MalformedInputError("LCP start basis is singular")
        _pivot(tableau, basis, open_rows.pop(k), col)
    if not exact:
        # round-off below the check tolerance is zeroed; more is a start
        # that is not feasible in floating point
        check = _FEAS_TOL * (1.0 + np.abs(tableau[:, -1]).max())
        for r in range(n):
            if basis[r] not in fixed and tableau[r, -1] < 0.0:
                if tableau[r, -1] < -check:
                    return None
                tableau[r, -1] = 0.0
    lex_cols = [-1] + list(start)           # right-hand side first
    pivots = 0
    cap = None if exact else _PIVOT_CAP * 2 * n
    col = entering
    while True:
        column = tableau[:, col].tolist()
        rows = [r for r in range(n) if basis[r] not in fixed and column[r] > tol]
        if not rows:
            return None
        for key in lex_cols:
            values = tableau[rows, key].tolist()
            ratios = [v / column[r] for v, r in zip(values, rows)]
            best = min(ratios)
            limit = best if exact else best + _PIVOT_TOL * (1.0 + abs(best))
            rows = [r for r, v in zip(rows, ratios) if v <= limit]
            if key == -1 and any(basis[r] == z0 for r in rows):
                rows = [r for r in rows if basis[r] == z0]    # z0 leaves on a tie
            if len(rows) == 1:
                break
        row = rows[0]
        if pivots == cap:
            return None
        leaving = basis[row]
        _pivot(tableau, basis, row, col)
        pivots += 1
        if leaving == z0:
            break
        col = leaving + n if leaving < n else leaving - n   # its complement
    z = np.zeros(n)
    for r, b in enumerate(basis):
        if n <= b < 2 * n:
            z[b - n] = float(tableau[r, -1])
    return z, pivots
