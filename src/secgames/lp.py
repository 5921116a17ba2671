"""Dense feasibility solver (phase 1 of the tableau simplex method).

:func:`solve_stack` finds a point of each system of a stack in
standard form, ``body . x == rhs, x >= 0``, or proves that none exists,
one numpy step per pivot for all members still pivoting; a member that
stops leaves the stack in that step.  Problem sizes in this package
stay below a few dozen variables, so a robust dense tableau beats
anything clever.  The floating-point run's verdicts are checked against
the original data instead of trusted from a tableau that pivoting has
filled with round-off: "infeasible" needs a Farkas certificate on the
original rows, and a point must satisfy them.  A member whose verdict
fails its check is repeated alone in exact rational arithmetic with
Bland's rule (:func:`_phase_one`), whose verdict is exact and which
cannot cycle.  So is a member that reaches its pivot cap: its lowest-row
ratio ties are not Bland's rule and can cycle on degenerate tableaus.

Every support system of the solvers is a stack member.  :func:`solve_lp`
is the one-system entry for a system written as

    A_ub . z <= b_ub,    A_eq . z == b_eq,    z >= 0,

a free variable written by the caller as the difference of two columns;
it runs the system as a one-member stack.
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
        within ``static.BNE_BUDGET`` (10**6 profiles), that is at most
        about 11 MB (at F = 2).
        """
        feasible = self.own_feasible
        n_own = len(feasible)
        bound = np.zeros((n_own, n_own))
        n_y = np.zeros((), dtype=int)
        for g, choices in enumerate(opp_choices):
            block = self.coef[feasible, g, :]
            gains = block[:, None, :] - block[None, :, :]   # [b, a, o]
            sizes = [len(sup) for sup in choices]
            in_sup = np.zeros((len(choices), block.shape[1]), dtype=bool)
            in_sup[np.repeat(np.arange(len(choices)), sizes),
                   [o for sup in choices for o in sup]] = True
            minima = np.where(in_sup[:, None, None, :], gains, np.inf).min(axis=3)
            bound = bound[..., None, :, :] + minima
            n_y = n_y[..., None] + np.array(sizes)
        screened = 4 * n_y.ravel() + 2 * len(opp_choices) + 3 <= _SCREEN_MAX_TERMS
        beaten = (bound.reshape(-1, n_own, n_own) > self._threshold).any(axis=1)
        beaten &= screened[:, None]                         # [profile, a]
        column = {a: i for i, a in enumerate(feasible)}
        members = np.zeros((len(own_supports), n_own), dtype=bool)
        members[np.repeat(np.arange(len(own_supports)), [len(sup) for sup in own_supports]),
                [column[a] for sup in own_supports for a in sup]] = True
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


def _simplex(tableau: np.ndarray, basis: np.ndarray, n_cols: int) -> None:
    """Drive the artificial sum in the last row of an exact (rational)
    tableau to its least value.

    Reduced costs are kept in the last row; a column among the first
    ``n_cols`` with a negative entry lowers the sum, and the lowest-index
    one enters.  Ratio ties go to the lowest basic index: that is Bland's
    rule, which cannot cycle.  Stops when no column enters or none leaves.
    """
    m = tableau.shape[0] - 1
    while True:
        entering = next((j for j, v in enumerate(tableau[-1, :n_cols]) if v < 0), -1)
        if entering < 0:
            return
        best, leaving = None, -1
        for r in range(m):
            if tableau[r, entering] > 0:
                ratio = tableau[r, -1] / tableau[r, entering]
                if (leaving < 0 or ratio < best
                        or (ratio == best and basis[r] < basis[leaving])):
                    best, leaving = ratio, r
        if leaving < 0:
            return
        _pivot(tableau, basis, leaving, entering)


def _standard_form(problem: LinearProgram):
    """``(body, rhs, ready)`` of a checked system, one member of
    :func:`solve_stack`.

    Equalities come first, then inequalities with slack columns
    appended; rows with a negative right-hand side are negated.
    Untouched slacks of inequality rows start basic (``ready``); every
    other row gets -1, for an artificial column.
    """
    n = problem.a_eq.shape[1]
    n_ub = problem.a_ub.shape[0]
    n_eq = problem.a_eq.shape[0]
    m = n_ub + n_eq
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

    ready = np.full(m, -1, dtype=int)
    for r in range(n_eq, m):
        if not neg[r]:
            ready[r] = n + (r - n_eq)
    return body, rhs, ready


def solve_lp(problem: LinearProgram) -> LpSolution:
    """A point of the system, or "infeasible"; never an exception for
    a well-formed system.  The system runs as a one-member
    :func:`solve_stack`."""
    problem.check()
    body, rhs, ready = _standard_form(problem)
    # A zero padding row and column keep the stack's arrays nonempty for
    # a system without rows or columns; padding changes no member.
    feasible, x = solve_stack(np.pad(body, ((0, 1), (0, 1)))[None], np.append(rhs, 0.0)[None],
                              np.append(ready, -1)[None], np.array([body.shape[0]]),
                              np.array([body.shape[1]]))
    if not feasible[0]:
        return LpSolution("infeasible", None)
    return LpSolution("optimal", x[0, :problem.a_eq.shape[1]])


def _phase_one(body: np.ndarray, rhs: np.ndarray, ready: np.ndarray) -> np.ndarray | None:
    """Phase 1 of the simplex method on ``body . x == rhs, x >= 0``
    (rhs >= 0), in exact rational arithmetic with Bland's rule: a point
    x, or None when the system is infeasible.  Both verdicts are exact.

    ``ready[r]`` is a column that can start basic in row ``r``, or -1.
    :func:`solve_stack` re-runs here a member whose floating-point
    verdict fails its check.
    """
    # imported here: the exact run is rare, and ``fractions`` (with
    # ``decimal``) adds about 4 ms to every start of the program
    from fractions import Fraction
    rational = np.vectorize(Fraction, otypes=[object])
    body, rhs = rational(body), rational(rhs)
    m, n_work = body.shape
    basis = ready.copy()
    needs_artificial = [r for r in range(m) if ready[r] < 0]
    n_art = len(needs_artificial)
    tableau = np.zeros((m + 1, n_work + n_art + 1), dtype=object)
    tableau[:m, :n_work] = body
    tableau[:m, -1] = rhs
    for idx, r in enumerate(needs_artificial):
        tableau[r, n_work + idx] = 1
        basis[r] = n_work + idx
    # Last row: the reduced costs of the sum of artificials, which are
    # excluded from entering (columns >= n_work).
    for r in needs_artificial:
        tableau[-1, : n_work + n_art] -= tableau[r, : n_work + n_art]
        tableau[-1, -1] -= tableau[r, -1]
    tableau[-1, n_work:n_work + n_art] = 0
    _simplex(tableau, basis, n_work)
    if tableau[-1, -1] < 0:
        return None
    # The point sits in the basis; artificials left basic at level zero
    # are skipped.
    x = np.zeros(n_work)
    real = basis < n_work
    x[basis[real]] = tableau[:m, -1][real].astype(float)
    return x


def solve_stack(body: np.ndarray, rhs: np.ndarray, ready: np.ndarray,
                n_rows: np.ndarray, n_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase 1 of a stack of systems in one run, one numpy step per pivot
    for all members.

    Member k is ``body[k] . x == rhs[k], x >= 0`` (rhs >= 0), as
    :func:`_standard_form` writes it: ``ready[k, r]`` is a column that
    can start basic in row r, or -1.  Its ``n_rows[k]`` rows come first;
    padding rows and padding columns are zero.  A zero column never
    enters, so a member's columns may sit anywhere in ``body[k]`` as long
    as their order is kept.  ``n_cols[k]`` is the member's own column
    count, which sets its pivot cap.

    Each step pivots every member that has not finished, by one member's
    rules: the lowest-index column whose reduced cost is below
    -``_PIVOT_TOL`` enters; the leaving row comes from a scan of the rows
    in order that takes a later row only for a ratio lower by more than
    1e-12; and a member stalls after ``_PIVOT_CAP`` times its rows plus
    columns pivots.  So a member's verdict and point do not depend on the
    other members or on padding.  A verdict is checked on the member's
    original rows: "infeasible" needs a Farkas certificate, and a point
    must satisfy the rows.  A member that fails its check or stalls (its
    lowest-row ratio ties are not Bland's rule and can cycle) is re-run
    alone by :func:`_phase_one` in exact arithmetic.  Returns
    ``feasible[k]`` and the points ``x[k]`` over ``body``'s columns (zero
    for an infeasible member).
    """
    n_sys, m, n_work = body.shape
    rows = np.arange(m) < n_rows[:, None]
    artificial = rows & (ready < 0)
    # columns: body | one artificial per row (n_work + r) | rhs
    tab = np.zeros((n_sys, m + 1, n_work + m + 1))
    tab[:, :m, :n_work] = body
    tab[:, :m, -1] = rhs
    start = np.where(artificial | ~rows, n_work + np.arange(m), ready)
    k_art, r_art = np.nonzero(artificial)
    tab[k_art, r_art, n_work + r_art] = 1.0
    for r in range(m):      # the artificial sum's reduced costs, row by row
        tab[:, m] -= np.where(artificial[:, r, None], tab[:, r], 0.0)
    tab[:, m, n_work:-1] = 0.0

    stalled = np.zeros(n_sys, dtype=bool)
    last = np.empty((n_sys, n_work + m + 1))     # final reduced-cost row
    level = np.empty((n_sys, m))                 # final right-hand side
    basis = np.empty_like(start)                 # final basis
    # The working set: member ids, tableaus, bases and pivots left before
    # the cap.  A member that stops has its final state copied out and
    # leaves the set in the same step.
    ids, bas = np.arange(n_sys), start.copy()
    left = _PIVOT_CAP * (n_rows + n_cols)
    while True:
        live = np.arange(ids.size)
        negative = tab[:, m, :n_work] < -_PIVOT_TOL
        entering = negative.argmax(axis=1)
        col = tab[live, :m, entering]
        positive = col > _PIVOT_TOL
        ratio = np.divide(tab[:, :m, -1], col, out=np.full(col.shape, np.inf),
                          where=positive)
        leaving = ratio.argmin(axis=1)
        least = ratio[live, leaving][:, None]
        # The scan moves to a later row only for a ratio lower by more
        # than 1e-12, so the first least ratio is its choice unless some
        # other ratio lies that close above it; those members replay it.
        close = (ratio > least) & (ratio - 1e-12 <= least)
        if close.any():
            replay = np.flatnonzero(close.any(axis=1))
            leaving[replay] = _ratio_scan(ratio[replay], positive[replay])
        moves = negative[live, entering] & (least[:, 0] < np.inf)
        stop = ~moves | (left == 0)
        if stop.any():
            done = ids[stop]
            stalled[done] = moves[stop]
            last[done] = tab[stop, m]
            level[done] = tab[stop, :m, -1]
            basis[done] = bas[stop]
            if stop.all():
                break
            go = ~stop
            ids, tab, bas, left = ids[go], tab[go], bas[go], left[go]
            entering, leaving = entering[go], leaving[go]
            live = np.arange(ids.size)
        pivot_row = tab[live, leaving] / tab[live, leaving, entering][:, None]
        tab[live, leaving] = pivot_row
        factors = tab[live, :, entering]
        factors[live, leaving] = 0.0
        tab -= factors[:, :, None] * pivot_row[:, None, :]
        bas[live, leaving] = entering
        left -= 1

    check_tol = _FEAS_TOL * (1.0 + np.abs(rhs).max(axis=1, initial=0.0))
    everyone = np.arange(n_sys)[:, None]
    # A Farkas certificate on the original rows, y . body <= 0 and
    # y . rhs > 0: the run leaves -y . [body | rhs] in the last row, and y
    # is read off the columns that started basic (unit columns of zero
    # phase-1 cost).
    y = -last[everyone, start]
    y = np.where(rows, np.where(artificial, y + 1.0, y), 0.0)
    farkas = ((np.einsum("kr,krc->kc", y, body).max(axis=1, initial=0.0)
               <= _PIVOT_TOL * (1.0 + np.abs(y).max(axis=1)))
              & (np.einsum("kr,kr->k", rhs, y) > _FEAS_TOL))
    infeasible = ~stalled & (last[:, -1] < -_FEAS_TOL)
    x = np.zeros((n_sys, n_work))
    k_real, r_real = np.nonzero(rows & (basis < n_work))
    x[k_real, basis[k_real, r_real]] = level[k_real, r_real]
    residual = np.abs(np.einsum("krc,kc->kr", body, x) - rhs).max(axis=1, initial=0.0)
    point_fails = ((last[:, -1] > check_tol) | (level.min(axis=1, initial=0.0) < -check_tol)
                   | (x.min(axis=1, initial=0.0) < -check_tol) | (residual > check_tol))
    feasible = ~stalled & ~infeasible & ~point_fails
    for k in np.flatnonzero(stalled | (infeasible & ~farkas) | (~infeasible & point_fails)):
        real = slice(0, n_rows[k])
        point = _phase_one(body[k, real], rhs[k, real], ready[k, real])
        feasible[k] = point is not None
        if feasible[k]:
            x[k] = point
    x[~feasible] = 0.0
    return feasible, x


def _ratio_scan(ratio: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """The leaving rows of :func:`solve_stack`'s ratio scan: rows in
    order, a later row taken only when its ratio is lower by more than
    1e-12."""
    best = np.zeros(len(ratio))
    leaving = np.full(len(ratio), -1)
    for r in range(ratio.shape[1]):
        better = positive[:, r] & ((leaving < 0) | (ratio[:, r] < best - 1e-12))
        best = np.where(better, ratio[:, r], best)
        leaving = np.where(better, r, leaving)
    return leaving


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
