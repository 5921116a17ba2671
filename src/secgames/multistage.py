"""Equilibria of finite-horizon games with two-sided private types.

The solver alternates two passes until a joint fixed point:

* backward: for fixed node beliefs, solve one bilinear program per
  belief class from the last stage down.  A class is a set of
  histories of one stage that end in the same state, hold the same
  (rounded) beliefs and lead to children with the same continuation
  values, so every history plays a strategy that is sequentially
  rational for its own belief (Fudenberg & Tirole 1991).  A strategy
  pair solves the stage if and only if the program's optimum is zero
  (the scalar functions s and w absorb each side's best-response
  value).  Each program is solved by one Lemke run on its
  sequence-form LCP, traced from the previous sweep's rows (Koller,
  Megiddo & von Stengel 1996; von Stengel, van den Elzen & Talman
  2002), and the result is certified by exact deviation gaps.
* forward: for a fixed strategy profile, walk the action tree from the
  root and update both players' type beliefs by Bayes' rule at every
  observed action.  The programs read these node beliefs.

Between sweeps the node beliefs move halfway towards the new forward
pass.  A converged result's beliefs are the forward pass of its
profile, its values are each (player, type)'s utility-to-go at the root
under those beliefs, and its ε-certificate is computed over the full
history tree.

Every walk of the history tree (node values, forward pass, residuals,
the averaging step, class keys) runs one stage at a time over
``build_tree`` order, with whole-array operations per stage.
Profiles and beliefs are stored in that layout too: per-stage arrays
with one entry per history (see :func:`build_tree`).

Non-convergence of the loop is a first-class result (reported as
evidence that no equilibrium of this form exists), never an exception.

A notational caution: the per-stage program weighs the incentive
constraints of player i's types by the *opponent's* belief about
player i.  Types the opponent has ruled out contribute nothing to the
program's objective, so after each stage solve such zero-weight types
are handed an exact pure best response; their incentives are then
certified too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BeliefSystem, FiniteDistribution, MalformedInputError,
                   MultiStageGame, SolverError, StageGame, StrategyProfile,
                   build_tree, is_integer, stage_states, validate_game)
# ``solve_lp`` is not called here.  Tools that count LP calls wrap this
# module's ``solve_lp``, so the name stays importable.
from .lp import lemke, solve_lp  # noqa: F401

STAGE_GAP_TOL = 1e-6
_OBJ_TOL = 1e-6
_ZERO_BELIEF = 1e-12
# Stage-row entries below this are round-off and are zeroed.
ROW_ZERO_TOL = 1e-9
# Node beliefs are rounded to this many decimals to form class keys.
CLASS_DECIMALS = 9


@dataclass(frozen=True)
class BilinearStageSolution:
    """One (stage, state) equilibrium candidate with its certificates."""

    sigma1: np.ndarray      # (n1, m1)
    sigma2: np.ndarray      # (n2, m2)
    s: np.ndarray           # scalar function over defender types
    w: np.ndarray           # scalar function over user types
    objective: float
    gaps1: np.ndarray
    gaps2: np.ndarray
    converged: bool
    start_index: int        # -1 warm profile, 0 Lemke, -2 Lemke's exact re-run
    alternations: int       # Lemke pivots


@dataclass(frozen=True)
class EpsilonReport:
    """Per-player, per-type distance from the best-response value."""

    eps1: np.ndarray
    eps2: np.ndarray
    belief_violation: float
    consistent: bool


@dataclass(frozen=True)
class PbneSolution:
    """The last sweep of :func:`solve_pbne`, whichever way the search ended.

    ``beliefs`` are the forward pass of ``profile``.  ``values`` holds
    each player's utility-to-go at the root per own type, (defender,
    user): the :func:`root_values` of ``profile`` and ``beliefs``.
    ``values``, ``epsilon`` and ``stage_gap`` are None unless
    ``converged``.
    """

    profile: StrategyProfile
    beliefs: BeliefSystem
    iterations: int
    residual_trace: tuple[tuple[float, float], ...]
    class_counts: tuple[int, ...]           # stage programs solved per sweep
    converged: bool
    values: tuple[np.ndarray, np.ndarray] | None = None
    epsilon: EpsilonReport | None = None
    stage_gap: float | None = None


def belief_update(prior, opponent_strategy, observed: int
                  ) -> tuple[FiniteDistribution, bool]:
    """One Bayes step on the opponent's type after seeing one action.

    ``opponent_strategy[t, a]`` is the probability the opponent of type
    ``t`` plays ``a``.  When the observed action has zero probability
    under every type (off path), the prior is kept and flagged.
    """
    p = np.asarray(getattr(prior, "weights", prior), dtype=float)
    sig = np.asarray(opponent_strategy, dtype=float)
    if sig.shape[0] != p.size:
        raise MalformedInputError("opponent strategy rows must match type count")
    joint = p * sig[:, observed]
    total = joint.sum()
    if total <= 0.0:
        return FiniteDistribution.unchecked(p.copy()), False
    return FiniteDistribution(joint / total), True


# ---------------------------------------------------------------------------
# Per-stage bilinear program.
# ---------------------------------------------------------------------------

def _stage_tensors(stage: StageGame, x: int, cont1, cont2):
    """Stage payoff plus continuation, per (a1, a2, t1, t2).

    ``cont1[a1, a2, t1]`` is the defender's utility-to-go after the
    action pair, ``cont2[a1, a2, t2]`` the user's.
    """
    t1 = stage.payoff1.values[x] + np.asarray(cont1)[:, :, :, None]
    t2 = stage.payoff2.values[x] + np.asarray(cont2)[:, :, None, :]
    return t1, t2, stage.payoff1.feasible[x], stage.payoff2.feasible[x]


def _deviations(t1, t2, feas1, feas2, b1, b2, sigma1, sigma2):
    """Per-type best-response values and exact best-response gaps at a
    stage profile: ``(best1, best2, gaps1, gaps2)``."""
    pure1 = np.einsum("abst,t,tb->sa", t1, b2, sigma2)      # (t1, a1)
    pure2 = np.einsum("abst,s,sa->tb", t2, b1, sigma1)      # (t2, a2)
    ach1 = np.einsum("sa,sa->s", pure1, sigma1)
    ach2 = np.einsum("tb,tb->t", pure2, sigma2)
    best1 = np.where(feas1, pure1, -np.inf).max(axis=1)
    best2 = np.where(feas2, pure2, -np.inf).max(axis=1)
    return best1, best2, np.maximum(best1 - ach1, 0.0), np.maximum(best2 - ach2, 0.0)


def _stage_objective(t1, t2, b1, b2, sigma1, sigma2, s, w) -> float:
    total = np.einsum("abst,s,t,sa,tb->", t1 + t2, b1, b2, sigma1, sigma2)
    return float(total + b2 @ w + b1 @ s)


def _evaluate_candidate(t1, t2, feas1, feas2, b1, b2, sigma1, sigma2,
                        start_index, alternations):
    """Repair zero-weight types, compute certificates, assemble a solution."""
    pure1 = np.einsum("abst,t,tb->sa", t1, b2, sigma2)
    sigma1 = sigma1.copy()
    sigma2 = sigma2.copy()
    for t in np.flatnonzero(np.asarray(b1) <= _ZERO_BELIEF):
        best = np.where(feas1[t], pure1[t], -np.inf).argmax()
        sigma1[t] = 0.0
        sigma1[t, best] = 1.0
    for t in np.flatnonzero(np.asarray(b2) <= _ZERO_BELIEF):
        pure2_t = np.einsum("abs,s,sa->b", t2[:, :, :, t], b1, sigma1)
        best = np.where(feas2[t], pure2_t, -np.inf).argmax()
        sigma2[t] = 0.0
        sigma2[t, best] = 1.0
    best1, best2, gaps1, gaps2 = _deviations(t1, t2, feas1, feas2, b1, b2, sigma1, sigma2)
    # tight scalar functions: the negated best-response values
    s, w = -best1, -best2
    obj = _stage_objective(t1, t2, b1, b2, sigma1, sigma2, s, w)
    converged = bool(gaps1.max(initial=0.0) <= STAGE_GAP_TOL
                     and gaps2.max(initial=0.0) <= STAGE_GAP_TOL
                     and abs(obj) <= _OBJ_TOL)
    return BilinearStageSolution(sigma1, sigma2, s, w, obj, gaps1, gaps2,
                                 converged, start_index, alternations)


def _uniform_rows(feas) -> np.ndarray:
    rows = feas.astype(float)
    return rows / rows.sum(axis=1, keepdims=True)


def _stage_lcp(t1, t2, feas1, feas2, b1, b2, start1, start2):
    """The stage program as an LCP over feasible (type, action) pairs.

    Unknowns ``z = (x, y, u, v)``: ``x[(s, a)]`` for the defender's
    feasible pairs, ``y[(t, b)]`` for the user's, and free per-type
    values ``u``, ``v``.  With ``A[(s, a), (t, b)] = b2[t] t1[a, b, s, t]``,
    ``B[(s, a), (t, b)] = b1[s] t2[a, b, s, t]`` and per-type sums ``E``,
    ``F``, the augmented system is

        E'u - A (y + z0 ybar) >= 0   complementary to  x >= 0
        F'v - B'(x + z0 xbar) >= 0   complementary to  y >= 0
        E x + z0 = 1,   F y + z0 = 1.

    At ``z0 = 1`` (``x = y = 0``) every type best-responds to the start
    profile ``(xbar, ybar)``; at ``z0 = 0`` ``(x, y)`` is an equilibrium
    of the stage, zero-weight types included, since no type's own
    conditions carry its own weight (the tracing procedure of von
    Stengel, van den Elzen & Talman 2002).  The start basis holds each
    type's best response to the start profile, ``z0``, ``u``, ``v`` and
    every other slack; the defender's type 0 leaves its pair out.
    Returns the :func:`lemke` arguments and the feasible pairs' flat
    indices.
    """
    n1, m1 = feas1.shape
    n2, m2 = feas2.shape
    idx1 = np.flatnonzero(feas1.ravel())
    idx2 = np.flatnonzero(feas2.ravel())
    type1, type2 = idx1 // m1, idx2 // m2
    a = np.einsum("abst,t->satb", t1, b2).reshape(n1 * m1, n2 * m2)[np.ix_(idx1, idx2)]
    b = np.einsum("abst,s->satb", t2, b1).reshape(n1 * m1, n2 * m2)[np.ix_(idx1, idx2)]
    e = (type1 == np.arange(n1)[:, None]).astype(float)
    f = (type2 == np.arange(n2)[:, None]).astype(float)
    k1, k2 = idx1.size, idx2.size
    n = k1 + k2 + n1 + n2
    ix, iy, iu, iv = (slice(0, k1), slice(k1, k1 + k2),
                      slice(k1 + k2, k1 + k2 + n1), slice(k1 + k2 + n1, n))
    m = np.zeros((n, n))
    m[ix, iy], m[ix, iu] = -a, e.T
    m[iy, ix], m[iy, iv] = -b.T, f.T
    m[iu, ix], m[iv, iy] = e, f
    q = np.concatenate([np.zeros(k1 + k2), -np.ones(n1 + n2)])
    pay1 = a @ np.asarray(start2).ravel()[idx2]
    pay2 = b.T @ np.asarray(start1).ravel()[idx1]
    d = np.concatenate([-pay1, -pay2, np.ones(n1 + n2)])
    best1 = [int(np.argmax(np.where(type1 == s, pay1, -np.inf))) for s in range(n1)]
    best2 = [k1 + int(np.argmax(np.where(type2 == t, pay2, -np.inf))) for t in range(n2)]
    # descending: z0, the multipliers, the basic strategy columns, the
    # slacks; the order sets the lexicographic tie-breaking
    start = sorted([i for i in range(k1 + k2) if i not in best1 + best2]
                   + [n + i for i in best1[1:] + best2]
                   + [n + i for i in range(k1 + k2, n)] + [2 * n], reverse=True)
    return (m, q, d, start, n + best1[0], range(k1 + k2, n)), idx1, idx2


def solve_stage_tensors(t1, t2, feas1, feas2, b1, b2, warm=None
                        ) -> BilinearStageSolution:
    """Solve one stage program by one Lemke run.

    A warm profile that already certifies is returned as it is
    (``start_index`` -1).  Otherwise the program's LCP (see
    :func:`_stage_lcp`) is traced from the warm profile, or from uniform
    rows without one, and the result is certified by exact deviation
    gaps.  ``alternations`` counts the pivots; ``start_index`` is 0, or
    -2 when the floating-point run failed its check and the exact run
    answered.
    """
    b1 = np.asarray(getattr(b1, "weights", b1), dtype=float)
    b2 = np.asarray(getattr(b2, "weights", b2), dtype=float)
    if warm is not None:
        start1, start2 = (np.asarray(r) for r in warm)
        direct = _evaluate_candidate(t1, t2, feas1, feas2, b1, b2, start1, start2, -1, 0)
        if direct.converged:
            return direct
    else:
        start1, start2 = _uniform_rows(feas1), _uniform_rows(feas2)
    args, idx1, idx2 = _stage_lcp(t1, t2, feas1, feas2, b1, b2, start1, start2)
    sol = lemke(*args)
    if sol.status != "solution":
        raise SolverError("stage LCP ended on a ray")
    sigma = []
    for feas, idx, z in ((feas1, idx1, sol.z[:idx1.size]),
                         (feas2, idx2, sol.z[idx1.size:idx1.size + idx2.size])):
        rows = np.zeros(feas.size)
        rows[idx] = np.maximum(z, 0.0)
        rows = rows.reshape(feas.shape)
        sigma.append(rows / rows.sum(axis=1, keepdims=True))
    return _evaluate_candidate(t1, t2, feas1, feas2, b1, b2, *sigma,
                               -2 if sol.exact else 0, sol.pivots)


# ---------------------------------------------------------------------------
# History tree, forward pass, backward pass.  Rows, beliefs and values
# below are per-stage arrays in ``build_tree`` order.
# ---------------------------------------------------------------------------

def _stages(game: MultiStageGame) -> list[np.ndarray]:
    """The end state of every history, per stage in ``build_tree`` order."""
    return stage_states(game, build_tree(game))


def _prior_stage_beliefs(game: MultiStageGame, tree) -> tuple[tuple, tuple]:
    """Both players' node beliefs per stage when every node keeps the prior."""
    return tuple(tuple(np.tile(prior.weights, (len(x), n_own, 1)) for x in tree)
                 for prior, n_own in ((game.prior_about_2, game.n1),
                                      (game.prior_about_1, game.n2)))


def _bayes(bel: np.ndarray, opp_rows: np.ndarray):
    """Posteriors after each opponent action, per history and own type.

    ``bel[h, t, u]`` is own type ``t``'s belief in opponent type ``u`` at
    history ``h``; ``opp_rows[h, u, a]`` the opponent's strategy there.
    Returns posteriors ``(h, m, n_own, n_opp)`` and, per (history,
    action), whether the action has positive probability for every own
    type.  An action of zero probability keeps the prior, as
    :func:`belief_update` does.
    """
    joint = bel[:, :, :, None] * opp_rows[:, None, :, :]
    total = joint.sum(axis=2)
    on = total > 0.0
    post = np.where(on[:, :, None, :], joint / np.where(on, total, 1.0)[:, :, None, :],
                    bel[:, :, :, None])
    return post.transpose(0, 3, 1, 2), on.all(axis=1)


def forward_pass(game: MultiStageGame, profile: StrategyProfile) -> BeliefSystem:
    """Bayes-update both players' beliefs along every history.

    Each history follows the profile's own rows for it.  The result holds
    the node beliefs and off-path flags per stage: what the stage
    programs and the ε-certificate read.
    """
    rows1, rows2 = profile.history_rows()
    n1, n2 = game.n1, game.n2
    bel1 = [np.tile(game.prior_about_2.weights, (1, n1, 1))]
    bel2 = [np.tile(game.prior_about_1.weights, (1, n2, 1))]
    off1, off2 = [np.zeros(1, dtype=bool)], [np.zeros(1, dtype=bool)]
    for k, st in enumerate(game.stages[:-1]):
        shape = (len(off1[k]), st.m1, st.m2)
        post1, seen2 = _bayes(bel1[k], rows2[k])
        post2, seen1 = _bayes(bel2[k], rows1[k])
        bel1.append(np.broadcast_to(post1[:, None], shape + (n1, n2)).reshape(-1, n1, n2))
        bel2.append(np.broadcast_to(post2[:, :, None], shape + (n2, n1)).reshape(-1, n2, n1))
        off1.append(np.broadcast_to(off1[k][:, None, None] | ~seen2[:, None, :], shape).ravel())
        off2.append(np.broadcast_to(off2[k][:, None, None] | ~seen1[:, :, None], shape).ravel())
    return BeliefSystem(tuple(bel1), tuple(bel2), tuple(off1), tuple(off2))


def _clean_rows(rows: np.ndarray) -> np.ndarray:
    """Zero round-off mass below ``ROW_ZERO_TOL`` and renormalise.

    Stage solutions can leave entries such as 1e-16 on actions they do
    not play; kept, they would put those actions on path and give the
    histories behind them a certain posterior instead of the flagged
    prior.
    """
    rows = np.where(rows < ROW_ZERO_TOL, 0.0, rows)
    return rows / rows.sum(axis=1, keepdims=True)


def backward_pass(game: MultiStageGame, beliefs: BeliefSystem,
                  warm_profile: StrategyProfile | None = None
                  ) -> tuple[StrategyProfile, dict]:
    """Solve one stage program per belief class, from the horizon down.

    A class holds the stage-k histories that share a state, both
    players' node beliefs rounded to ``CLASS_DECIMALS`` and the
    continuation values of their children (which come from the classes
    of stage k + 1, so equal beliefs alone do not make a class).  Its
    program is solved once, against the rounded beliefs, and every
    history of the class plays the solution.  Classes are numbered in
    history order, so the result is deterministic.  Node belief rows
    are the same for every own type (priors and updates ignore the
    holder's type), so the first row stands for all.

    The programs read the node beliefs of ``beliefs``; each is traced
    from the rows that ``warm_profile`` (or None) gives its first
    history.  Returns the class profile, whose ``classes`` are the class
    numbers, and the stage solutions keyed by (stage, class).
    """
    tree = _stages(game)
    bel1, bel2 = beliefs.belief_p1, beliefs.belief_p2
    warm = None if warm_profile is None else warm_profile.history_rows()
    K = game.horizon
    n1, n2 = game.n1, game.n2
    cls, sig1, sig2, cv1, cv2 = ([None] * (K + 1) for _ in range(5))
    stage_solutions: dict[tuple[int, int], BilinearStageSolution] = {}

    for k in range(K, -1, -1):
        st = game.stages[k]
        states = tree[k]
        n = len(states)
        b1 = np.round(bel2[k][:, 0], CLASS_DECIMALS)
        b2 = np.round(bel1[k][:, 0], CLASS_DECIMALS)
        if k < K:
            cont1 = cv1[k + 1][cls[k + 1]].reshape(n, st.m1, st.m2, n1)
            cont2 = cv2[k + 1][cls[k + 1]].reshape(n, st.m1, st.m2, n2)
        else:
            cont1 = np.zeros((n, st.m1, st.m2, n1))
            cont2 = np.zeros((n, st.m1, st.m2, n2))
        # the class key of each history, as one row
        keys = np.concatenate([states[:, None], b1, b2, cont1.reshape(n, -1),
                               cont2.reshape(n, -1)], axis=1)
        ids: dict[bytes, int] = {}
        cls[k] = np.array([ids.setdefault(key.tobytes(), len(ids)) for key in keys])
        # a class's first history is where its number exceeds all before it
        heads = np.flatnonzero(cls[k] > np.maximum.accumulate(np.r_[-1, cls[k][:-1]]))

        sig1[k] = np.zeros((len(heads), n1, st.m1))
        sig2[k] = np.zeros((len(heads), n2, st.m2))
        cv1[k] = np.zeros((len(heads), n1))
        cv2[k] = np.zeros((len(heads), n2))
        for c, i in enumerate(heads):
            x = int(states[i])
            t1, t2, feas1, feas2 = _stage_tensors(st, x, cont1[i], cont2[i])
            start = None if warm is None else (warm[0][k][i], warm[1][k][i])
            try:
                sol = solve_stage_tensors(t1, t2, feas1, feas2, b1[i], b2[i], warm=start)
            except SolverError as err:
                raise SolverError(
                    f"stage {k}, state {st.states[x]!r}: {err}") from err
            stage_solutions[(k, c)] = sol
            sig1[k][c] = s1 = _clean_rows(sol.sigma1)
            sig2[k][c] = s2 = _clean_rows(sol.sigma2)
            cv1[k][c] = np.einsum("abst,sa,tb,t->s", t1, s1, s2, b2[i])
            cv2[k][c] = np.einsum("abst,sa,tb,s->t", t2, s1, s2, b1[i])
    return StrategyProfile(tuple(sig1), tuple(sig2), tuple(cls)), stage_solutions


# ---------------------------------------------------------------------------
# Exact evaluation over the history tree.
# ---------------------------------------------------------------------------

def _node_values(game: MultiStageGame, tree, rows, bel: list, player: int,
                 best_response: bool) -> list[np.ndarray]:
    """Utility-to-go at every history, ``(histories, n_own)`` per stage.

    ``rows`` are both players' stage rows and ``bel`` the player's node
    beliefs per stage.  The own-stage payoff at each node takes the joint
    expectation of the opponent's type and action under the node belief;
    deviations, when requested, may condition on the full history.
    """
    K = game.horizon
    n_own = game.n1 if player == 1 else game.n2
    values: list = [None] * (K + 1)
    for k in range(K, -1, -1):
        st = game.stages[k]
        x = tree[k]
        cont = (values[k + 1].reshape(len(x), st.m1, st.m2, n_own) if k < K
                else np.zeros((len(x), st.m1, st.m2, n_own)))
        if player == 1:
            # w[h, own, opp type, opp action]: belief times opponent strategy
            w = bel[k][:, :, :, None] * rows[1][k][:, None, :, :]
            q = (np.einsum("hsj,hijs->hsi", w.sum(axis=2), cont)
                 + np.einsum("hsuj,hijsu->hsi", w, st.payoff1.values[x]))
            own_rows, own_feas = rows[0][k], st.payoff1.feasible[x]
        else:
            w = bel[k][:, :, :, None] * rows[0][k][:, None, :, :]
            q = (np.einsum("hui,hiju->huj", w.sum(axis=2), cont)
                 + np.einsum("husi,hijsu->huj", w, st.payoff2.values[x]))
            own_rows, own_feas = rows[1][k], st.payoff2.feasible[x]
        if best_response:
            values[k] = np.where(own_feas, q, -np.inf).max(axis=2)
        else:
            values[k] = (own_rows * q).sum(axis=2)
    return values


def root_values(game: MultiStageGame, profile: StrategyProfile,
                beliefs: BeliefSystem) -> tuple[np.ndarray, np.ndarray]:
    """Exact expected sums of all stage payoffs, per own type:
    (defender values, user values).

    Each side's expectation runs over the opponent's type under the
    supplied beliefs and over both players' action draws, by full tree
    traversal.
    """
    tree = _stages(game)
    rows = profile.history_rows()
    return tuple(_node_values(game, tree, rows, b, player, False)[0][0]
                 for player, b in ((1, beliefs.belief_p1), (2, beliefs.belief_p2)))


def cumulative_utility(game: MultiStageGame, profile: StrategyProfile,
                       beliefs: BeliefSystem, type1, type2) -> tuple[float, float]:
    """The :func:`root_values` pair at the given types: (defender value
    at ``type1``, user value at ``type2``)."""
    t1 = game.type_index(1, type1)
    t2 = game.type_index(2, type2)
    u1, u2 = root_values(game, profile, beliefs)
    return float(u1[t1]), float(u2[t2])


def _certify(game: MultiStageGame, tree, rows, beliefs: BeliefSystem,
             forward: BeliefSystem):
    """The :class:`EpsilonReport` of stage rows under the node beliefs
    of ``beliefs``, given the rows' own forward pass; and each player's
    achieved value at the root, per own type."""
    bel = (beliefs.belief_p1, beliefs.belief_p2)
    violation = max(float(np.abs(f - s).max(axis=(1, 2))[~o].max(initial=0.0))
                    for fwd, supplied, off in zip((forward.belief_p1, forward.belief_p2), bel,
                                                  (forward.off_path_p1, forward.off_path_p2))
                    for f, s, o in zip(fwd, supplied, off))
    eps, achieved = [], []
    for player, b in zip((1, 2), bel):
        ach = _node_values(game, tree, rows, b, player, False)
        best = _node_values(game, tree, rows, b, player, True)
        gap = np.maximum(best[0][0] - ach[0][0], 0.0)
        gap[gap < 1e-12] = 0.0
        eps.append(gap)
        achieved.append(ach[0][0])
    return EpsilonReport(eps[0], eps[1], violation, violation <= 1e-9), achieved


def verify_epsilon(game: MultiStageGame, profile: StrategyProfile,
                   beliefs: BeliefSystem) -> EpsilonReport:
    """Certify how far each (player, type) is from its best response.

    Best responses are computed over history-dependent deviations with
    the opponent's profile and the supplied beliefs held fixed.  Belief
    consistency is checked, not assumed: the forward pass is recomputed
    from the profile and compared on path.
    """
    return _certify(game, _stages(game), profile.history_rows(), beliefs,
                    forward_pass(game, profile))[0]


def _largest_change(a: tuple, b: tuple) -> float:
    """Largest entry change between two pairs of per-stage arrays."""
    return max(float(np.abs(x - y).max()) for xs, ys in zip(a, b) for x, y in zip(xs, ys))


def solve_pbne(game: MultiStageGame, tol: float = 1e-6, max_iter: int = 100
               ) -> PbneSolution:
    """Forward-backward iteration to a consistent profile/belief pair.

    Each sweep solves the class programs against the current node
    beliefs and runs the forward pass of the new profile.  The sweep
    converges when both the strategies (at every history) and the node
    beliefs moved by at most ``tol`` in sup-norm.  Otherwise the next
    sweep's beliefs are the midpoint of the current beliefs and the
    forward pass: without that fixed averaging step, histories whose
    strategies depend on their beliefs can flip between pooling and
    separating every sweep.  The class count of every sweep is kept, so
    such flips stay visible.

    The first sweep traces every class program from uniform rows, and
    each later sweep from the previous profile, so the iteration is
    deterministic.  ``max_iter`` must be an integer >= 1 and ``tol`` a
    finite number >= 0 (not a bool).

    Returns a :class:`PbneSolution` built from the last sweep: its
    profile, that profile's forward pass as beliefs, the residual trace
    and the class counts.  If the sweep converged, it also carries each
    (player, type)'s utility-to-go at the root under those beliefs, its
    ε-certificate and the worst stage gap.  If ``max_iter`` sweeps pass
    without converging, ``converged`` is False: the residual trace is
    evidence that no equilibrium of this form was found, not an error.
    """
    if not is_integer(max_iter) or max_iter < 1:
        raise MalformedInputError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if isinstance(tol, bool) or not (math.isfinite(tol) and tol >= 0.0):
        raise MalformedInputError(f"tol must be a finite number >= 0, got {tol!r}")
    problems = validate_game(game)
    if problems:
        raise MalformedInputError("; ".join(problems))

    tree = _stages(game)
    off = tuple(np.zeros(len(x), dtype=bool) for x in tree)
    beliefs = BeliefSystem(*_prior_stage_beliefs(game, tree), off, off)
    profile = rows = None
    trace: list[tuple[float, float]] = []
    counts: list[int] = []
    for it in range(1, max_iter + 1):
        profile, stage_solutions = backward_pass(game, beliefs, profile)
        new_rows = profile.history_rows()
        forward = forward_pass(game, profile)
        bel = (beliefs.belief_p1, beliefs.belief_p2)
        fwd = (forward.belief_p1, forward.belief_p2)
        res_p = np.inf if rows is None else _largest_change(new_rows, rows)
        res_b = _largest_change(fwd, bel)
        trace.append((res_p, res_b))
        counts.append(len(stage_solutions))
        rows = new_rows
        converged = res_b <= tol and (it == 1 or res_p <= tol)
        if converged:
            break
        beliefs = BeliefSystem(*(tuple(0.5 * (v + new) for v, new in zip(old, f))
                                 for old, f in zip(bel, fwd)),
                               forward.off_path_p1, forward.off_path_p2)
    certificate = {}
    if converged:
        eps, achieved = _certify(game, tree, rows, forward, forward)
        # under the returned beliefs, not the averaged ones the class
        # programs were solved against (they differ by up to tol)
        certificate = dict(
            values=tuple(achieved), epsilon=eps,
            stage_gap=max((max(s.gaps1.max(initial=0.0), s.gaps2.max(initial=0.0))
                           for s in stage_solutions.values()), default=0.0))
    return PbneSolution(profile, forward, it, tuple(trace),
                        tuple(counts), converged, **certificate)
