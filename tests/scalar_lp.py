"""Reference oracles for the stacked LP path: the scalar floating-point
phase 1 and the one-system support-LP builder.

``solve_lp`` here runs one system by the floating-point rules that
``lp.solve_stack`` applies to every member: the lowest-index entering
column, a sequential lowest-row ratio scan in which a later row must
improve by more than 1e-12, a pivot cap of ``lp._PIVOT_CAP`` times rows
plus columns, and the Farkas and point checks on the original rows.  A
run that stalls or fails its check is repeated by the library's exact
``lp._phase_one``.  Tests hold ``lp.solve_stack``, ``lp.solve_lp`` and
the solvers' stacks to it bit for bit.

``support_problem`` writes one side's support system as a
``LinearProgram``, row by row; ``support_lp`` solves it here and returns
the opponent rows as ``static.solve_supports`` returns them.
"""

import numpy as np

from secgames import lp
from secgames.lp import LinearProgram, LpSolution


def _simplex(tableau, basis, n_cols) -> str:
    """Drive the artificial sum in the last tableau row towards zero.

    Entries within ``_PIVOT_TOL`` of zero count as zero.  Returns "done"
    when no column enters or, as only round-off can cause, none leaves,
    and "stalled" once the pivot cap is reached.
    """
    m = tableau.shape[0] - 1
    pivots_left = lp._PIVOT_CAP * (m + n_cols)
    while True:
        # Python floats compare and divide as float64 does
        obj = tableau[-1, :n_cols].tolist()
        entering = next((j for j, v in enumerate(obj) if v < -lp._PIVOT_TOL), -1)
        if entering < 0:
            return "done"
        col, rhs = tableau[:m, entering].tolist(), tableau[:m, -1].tolist()
        best, leaving = None, -1
        for r in range(m):
            if col[r] > lp._PIVOT_TOL:
                ratio = rhs[r] / col[r]
                if leaving < 0 or ratio < best - 1e-12:
                    best, leaving = ratio, r
        if leaving < 0:
            return "done"
        if pivots_left == 0:
            return "stalled"
        pivots_left -= 1
        lp._pivot(tableau, basis, leaving, entering)


def _phase_one(body, rhs, ready):
    """The floating-point phase 1 of ``body . x == rhs, x >= 0``:
    ("optimal", x), ("infeasible", None), or None whenever the verdict
    does not hold up on the original rows or the run stalls."""
    m, n_work = body.shape
    check_tol = lp._FEAS_TOL * (1.0 + np.abs(rhs).max(initial=0.0))
    basis = ready.copy()
    needs_artificial = [r for r in range(m) if ready[r] < 0]
    n_art = len(needs_artificial)
    tableau = np.zeros((m + 1, n_work + n_art + 1))
    tableau[:m, :n_work] = body
    tableau[:m, -1] = rhs
    for idx, r in enumerate(needs_artificial):
        tableau[r, n_work + idx] = 1
        basis[r] = n_work + idx

    if n_art:
        for r in needs_artificial:
            tableau[-1, : n_work + n_art] -= tableau[r, : n_work + n_art]
            tableau[-1, -1] -= tableau[r, -1]
        tableau[-1, n_work:n_work + n_art] = 0
        start_cols = basis.copy()
        if _simplex(tableau, basis, n_work) == "stalled":
            return None
        if tableau[-1, -1] < -lp._FEAS_TOL:
            # A Farkas certificate on the original rows: y . body <= 0 and
            # y . rhs > 0, read off the columns that started basic.
            y = -tableau[-1, start_cols]
            y[needs_artificial] += 1.0
            if ((body.T @ y).max(initial=0.0) <= lp._PIVOT_TOL * (1.0 + np.abs(y).max())
                    and rhs @ y > lp._FEAS_TOL):
                return "infeasible", None
            return None
        if tableau[-1, -1] > check_tol or tableau[:m, -1].min() < -check_tol:
            return None     # round-off broke the basis

    x = np.zeros(n_work)
    real = basis < n_work
    x[basis[real]] = tableau[:m, -1][real]
    if (x.min(initial=0.0) < -check_tol
            or np.abs(body @ x - rhs).max(initial=0.0) > check_tol):
        return None
    return "optimal", x


def solve_lp(problem: LinearProgram) -> LpSolution:
    """The scalar reference of ``lp.solve_lp``."""
    problem.check()
    body, rhs, ready = lp._standard_form(problem)
    out = _phase_one(body, rhs, ready)
    if out is None:
        x = lp._phase_one(body, rhs, ready)
        out = ("infeasible", None) if x is None else ("optimal", x)
    status, x = out
    return LpSolution(status, None if x is None else x[:problem.a_eq.shape[1]])


def support_problem(coeffs, own_supports, own_feasible, opp_supports) -> LinearProgram:
    """One side's support system, as ``static._SupportStack`` states it.

    ``coeffs[i][own_action, opp_agent, opp_action]`` is own agent i's
    payoff.  Unknowns are the opponent rows on ``opp_supports``, then one
    free value per own agent as two columns v+ - v-.  Rows: the opponent
    rows' sums and the own-support actions' ties at the value are
    equalities; the other ``own_feasible`` actions must not beat it.
    """
    var = [(g, a) for g, sup in enumerate(opp_supports) for a in sup]
    n_v = len(own_supports)
    a_eq = [[float(vg == g) for vg, _ in var] + [0.0] * (2 * n_v)
            for g in range(len(opp_supports))]
    a_ub = []
    for i, (sup, feas, coef) in enumerate(zip(own_supports, own_feasible, coeffs)):
        value = [0.0] * (2 * n_v)
        value[2 * i:2 * i + 2] = -1.0, 1.0
        for b in feas:
            (a_eq if b in sup else a_ub).append([coef[b, g, a] for g, a in var] + value)
    b_eq = [1.0] * len(opp_supports) + [0.0] * (len(a_eq) - len(opp_supports))
    return LinearProgram.build(a_ub or None, [0.0] * len(a_ub) or None, a_eq, b_eq)


def support_lp(coeffs, own_supports, own_feasible, opp_supports,
               opp_action_count: int) -> np.ndarray | None:
    """The point of :func:`support_problem` that :func:`solve_lp` finds,
    as one ``(opp_agents, opp_action_count)`` array of opponent rows, or
    None when the system is infeasible."""
    sol = solve_lp(support_problem(coeffs, own_supports, own_feasible, opp_supports))
    if sol.status != "optimal":
        return None
    var = [(g, a) for g, sup in enumerate(opp_supports) for a in sup]
    out = np.zeros((len(opp_supports), opp_action_count))
    for (g, a), z in zip(var, sol.z):
        out[g, a] = max(0.0, z)
    totals = out.sum(axis=1, keepdims=True)
    if (totals <= 0.0).any():
        return None
    return out / totals
