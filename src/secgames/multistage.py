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
  observed action.  The programs read these node beliefs;
  per-(stage, state) aggregates of them are a diagnostic, computed for
  the returned beliefs only.

Between sweeps the node beliefs move halfway towards the new forward
pass.  A converged result's beliefs are the forward pass of its
profile, its values are its profile's utility-to-go under those
beliefs, and its ε-certificate is computed over the full history tree.

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
                   MultiStageGame, NodeKey, SolverError, StageGame,
                   StrategyProfile, build_tree, check_seed, validate_game,
                   _readonly)
# ``solve_lp`` is no longer called here; it stays importable by this name
# for tools that wrap ``multistage.solve_lp`` to count LP calls.
from .lp import lemke, solve_lp  # noqa: F401

STAGE_GAP_TOL = 1e-6
_OBJ_TOL = 1e-6
_ZERO_BELIEF = 1e-12
# Stage-row entries below this are round-off and are zeroed.
ROW_ZERO_TOL = 1e-9
# Node beliefs are rounded to this many decimals to form class keys.
CLASS_DECIMALS = 9


@dataclass(frozen=True)
class ValueFunction:
    """Utility-to-go per (player, stage, state, own type); zero past the end.

    Strategies may differ between histories that end in one state, and
    so may their utility-to-go.  ``v1[k][x, t]`` is then the defender's
    expected utility-to-go given own type ``t`` and that play reaches
    state ``x`` at stage ``k``: the histories of that state averaged,
    each weighted by its chance of being reached given type ``t``.  A
    state that type never reaches averages its histories with equal
    weights, and a state no history ends in gets 0.  At the root, where
    there is one history, it is that history's value: the profile's
    utility-to-go under the node beliefs that come with the values.
    """

    v1: tuple[np.ndarray, ...]
    v2: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "v1", tuple(_readonly(a) for a in self.v1))
        object.__setattr__(self, "v2", tuple(_readonly(a) for a in self.v2))


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
    profile: StrategyProfile
    beliefs: BeliefSystem
    values: ValueFunction
    epsilon: EpsilonReport
    iterations: int
    residual_trace: tuple[tuple[float, float], ...]
    stage_gap: float
    class_counts: tuple[int, ...] = ()     # stage programs solved per sweep
    converged: bool = True


@dataclass(frozen=True)
class NonConvergenceReport:
    iterations: int
    residual_trace: tuple[tuple[float, float], ...]
    last_profile: StrategyProfile
    last_beliefs: BeliefSystem
    final_residuals: tuple[float, float]
    class_counts: tuple[int, ...] = ()
    converged: bool = False


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


def stage_deviation_gaps(t1, t2, feas1, feas2, b1, b2, sigma1, sigma2):
    """Exact per-type best-response gaps at a stage profile."""
    pure1 = np.einsum("abst,t,tb->sa", t1, b2, sigma2)      # (t1, a1)
    pure2 = np.einsum("abst,s,sa->tb", t2, b1, sigma1)      # (t2, a2)
    ach1 = np.einsum("sa,sa->s", pure1, sigma1)
    ach2 = np.einsum("tb,tb->t", pure2, sigma2)
    best1 = np.where(feas1, pure1, -np.inf).max(axis=1)
    best2 = np.where(feas2, pure2, -np.inf).max(axis=1)
    return np.maximum(best1 - ach1, 0.0), np.maximum(best2 - ach2, 0.0)


def _stage_objective(t1, t2, b1, b2, sigma1, sigma2, s, w) -> float:
    total = np.einsum("abst,s,t,sa,tb->", t1 + t2, b1, b2, sigma1, sigma2)
    return float(total + b2 @ w + b1 @ s)


def _evaluate_candidate(t1, t2, feas1, feas2, b1, b2, sigma1, sigma2,
                        start_index, alternations):
    """Repair zero-weight types, compute certificates, assemble a solution."""
    pure1 = np.einsum("abst,t,tb->sa", t1, b2, sigma2)
    pure2 = np.einsum("abst,s,sa->tb", t2, b1, sigma1)
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
    gaps1, gaps2 = stage_deviation_gaps(t1, t2, feas1, feas2, b1, b2, sigma1, sigma2)
    # tight scalar functions: the negated best-response values
    pure1 = np.einsum("abst,t,tb->sa", t1, b2, sigma2)
    pure2 = np.einsum("abst,s,sa->tb", t2, b1, sigma1)
    s = -np.where(feas1, pure1, -np.inf).max(axis=1)
    w = -np.where(feas2, pure2, -np.inf).max(axis=1)
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
# History tree, forward pass, backward pass.
# ---------------------------------------------------------------------------

def _children(path: NodeKey, st: StageGame) -> list[NodeKey]:
    """Child histories of ``path`` in (a1, a2) row-major order."""
    return [path + ((a1, a2),) for a1 in range(st.m1) for a2 in range(st.m2)]


def prior_beliefs(game: MultiStageGame) -> BeliefSystem:
    """The uninformative start: priors carried forward at every node."""
    nodes = build_tree(game)
    n1, n2 = game.n1, game.n2
    p_about_2 = np.asarray(game.prior_about_2.weights)
    p_about_1 = np.asarray(game.prior_about_1.weights)
    bel1 = {path: np.tile(p_about_2, (n1, 1)) for path in nodes}
    bel2 = {path: np.tile(p_about_1, (n2, 1)) for path in nodes}
    off1 = {path: False for path in nodes}
    off2 = {path: False for path in nodes}
    agg1, agg2, agg_off = [], [], []
    for k, st in enumerate(game.stages):
        agg1.append(np.tile(p_about_1, (st.n_states, 1)))
        agg2.append(np.tile(p_about_2, (st.n_states, 1)))
        agg_off.append(np.zeros(st.n_states, dtype=bool))
    return BeliefSystem(bel1, bel2, off1, off2,
                        tuple(agg1), tuple(agg2), tuple(agg_off), 0.0)


def _bayes(bel: np.ndarray, opp_rows: np.ndarray):
    """Posteriors after each opponent action, one row per own type.

    ``bel[t, u]`` is own type ``t``'s belief in opponent type ``u``;
    ``opp_rows[u, a]`` the opponent's strategy.  Returns posteriors
    ``(m, n_own, n_opp)`` and, per action, whether it has positive
    probability for every own type.  An action of zero probability keeps
    the prior, as :func:`belief_update` does.
    """
    joint = bel[:, :, None] * opp_rows[None, :, :]
    total = joint.sum(axis=1)
    on = total > 0.0
    post = np.where(on[:, None, :], joint / np.where(on, total, 1.0)[:, None, :],
                    bel[:, :, None])
    return post.transpose(2, 0, 1), on.all(axis=0)


def _reach(game: MultiStageGame, nodes, profile: StrategyProfile) -> dict:
    """Probability of every history per type pair, ``(n1, n2)``."""
    reach = {(): np.ones((game.n1, game.n2))}
    for path, (k, _) in nodes.items():
        if k == game.horizon:
            continue
        st = game.stages[k]
        r1 = profile.rows(1, path)
        r2 = profile.rows(2, path)
        for child in _children(path, st):
            a1, a2 = child[-1]
            reach[child] = reach[path] * np.outer(r1[:, a1], r2[:, a2])
    return reach


def _node_beliefs(game: MultiStageGame, nodes, profile: StrategyProfile):
    """Bayes-updated node beliefs and off-path flags along every history.

    Returns the dicts ``(belief_p1, belief_p2, off_path_p1, off_path_p2)``
    of a :class:`BeliefSystem`; each history follows the profile's own
    rows for it.
    """
    n1, n2 = game.n1, game.n2
    p1w = np.asarray(game.prior_about_1.weights)   # world prior over defender types
    p2w = np.asarray(game.prior_about_2.weights)
    bel1 = {(): np.tile(p2w, (n1, 1))}
    bel2 = {(): np.tile(p1w, (n2, 1))}
    off1 = {(): False}
    off2 = {(): False}
    for path, (k, _) in nodes.items():
        if k == game.horizon:
            continue
        st = game.stages[k]
        post1, seen2 = _bayes(bel1[path], profile.rows(2, path))
        post2, seen1 = _bayes(bel2[path], profile.rows(1, path))
        for child in _children(path, st):
            a1, a2 = child[-1]
            bel1[child] = post1[a2]
            bel2[child] = post2[a1]
            off1[child] = off1[path] or not seen2[a2]
            off2[child] = off2[path] or not seen1[a1]
    return bel1, bel2, off1, off2


def _with_aggregates(game: MultiStageGame, nodes, profile: StrategyProfile,
                     bel1, bel2, off1, off2) -> BeliefSystem:
    """Node beliefs plus their per-(stage, state) aggregate diagnostics."""
    n1, n2 = game.n1, game.n2
    p1w = np.asarray(game.prior_about_1.weights)
    p2w = np.asarray(game.prior_about_2.weights)
    reach = _reach(game, nodes, profile)
    prior = p1w[:, None] * p2w[None, :]
    agg1, agg2, agg_off = [], [], []
    discrepancy = 0.0
    by_state = _by_state(nodes)
    for k, st in enumerate(game.stages):
        a1k = np.tile(p1w, (st.n_states, 1))
        a2k = np.tile(p2w, (st.n_states, 1))
        offk = np.ones(st.n_states, dtype=bool)
        for x in range(st.n_states):
            paths = by_state.get((k, x), [])
            joint = [prior * reach[p] for p in paths]
            mass = sum(joint, np.zeros((n1, n2)))
            if mass.sum() <= 1e-15:
                continue
            a1k[x] = mass.sum(axis=1) / mass.sum()
            a2k[x] = mass.sum(axis=0) / mass.sum()
            offk[x] = False
            for p, j in zip(paths, joint):
                if j.sum() > 1e-15:
                    discrepancy = max(
                        discrepancy,
                        float(np.abs(bel1[p] - a2k[x][None, :]).max()),
                        float(np.abs(bel2[p] - a1k[x][None, :]).max()))
        agg1.append(a1k)
        agg2.append(a2k)
        agg_off.append(offk)
    return BeliefSystem(bel1, bel2, off1, off2,
                        tuple(agg1), tuple(agg2), tuple(agg_off), discrepancy)


def forward_pass(game: MultiStageGame, profile: StrategyProfile) -> BeliefSystem:
    """Bayes-update beliefs along every history and aggregate per state.

    Each history follows the profile's own rows for it.  Per-(stage,
    state) aggregates and the largest on-path disagreement between a
    node belief and its aggregate are diagnostics: the solver's stage
    programs read node beliefs.
    """
    nodes = build_tree(game)
    return _with_aggregates(game, nodes, profile,
                            *_node_beliefs(game, nodes, profile))


def _clean_rows(rows: np.ndarray) -> np.ndarray:
    """Zero round-off mass below ``ROW_ZERO_TOL`` and renormalise.

    Stage solutions can leave entries such as 1e-16 on actions they do
    not play; kept, they would put those actions on path and give the
    histories behind them a certain posterior instead of the flagged
    prior.
    """
    rows = np.where(rows < ROW_ZERO_TOL, 0.0, rows)
    return rows / rows.sum(axis=1, keepdims=True)


def _backward(game: MultiStageGame, nodes, bel1: dict, bel2: dict,
              warm_profile: StrategyProfile | None):
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

    ``bel1``/``bel2`` are the node beliefs of each player; each program
    is traced from the rows ``warm_profile`` gives its first history.
    Returns the class profile and the stage solutions keyed by
    (stage, class).
    """
    K = game.horizon
    n1, n2 = game.n1, game.n2
    by_stage: list[list[NodeKey]] = [[] for _ in game.stages]
    for path, (k, _) in nodes.items():
        by_stage[k].append(path)
    classes: dict[NodeKey, int] = {}
    sig1: list[np.ndarray | None] = [None] * (K + 1)
    sig2: list[np.ndarray | None] = [None] * (K + 1)
    cv1: list[np.ndarray | None] = [None] * (K + 1)
    cv2: list[np.ndarray | None] = [None] * (K + 1)
    stage_solutions: dict[tuple[int, int], BilinearStageSolution] = {}

    for k in range(K, -1, -1):
        st = game.stages[k]
        keys: dict[tuple, int] = {}
        programs = []
        for path in by_stage[k]:
            x = nodes[path][1]
            b1 = np.round(bel2[path][0], CLASS_DECIMALS)
            b2 = np.round(bel1[path][0], CLASS_DECIMALS)
            if k < K:
                kids = [classes[c] for c in _children(path, st)]
                cont1 = cv1[k + 1][kids].reshape(st.m1, st.m2, n1)
                cont2 = cv2[k + 1][kids].reshape(st.m1, st.m2, n2)
            else:
                cont1 = np.zeros((st.m1, st.m2, n1))
                cont2 = np.zeros((st.m1, st.m2, n2))
            key = (x, b1.tobytes(), b2.tobytes(), cont1.tobytes(), cont2.tobytes())
            if key not in keys:
                keys[key] = len(programs)
                programs.append((path, x, b1, b2, cont1, cont2))
            classes[path] = keys[key]

        sig1[k] = np.zeros((len(programs), n1, st.m1))
        sig2[k] = np.zeros((len(programs), n2, st.m2))
        cv1[k] = np.zeros((len(programs), n1))
        cv2[k] = np.zeros((len(programs), n2))
        for c, (path, x, b1, b2, cont1, cont2) in enumerate(programs):
            t1, t2, feas1, feas2 = _stage_tensors(st, x, cont1, cont2)
            warm = None
            if warm_profile is not None:
                warm = (warm_profile.rows(1, path), warm_profile.rows(2, path))
            try:
                sol = solve_stage_tensors(t1, t2, feas1, feas2, b1, b2, warm=warm)
            except SolverError as err:
                raise SolverError(
                    f"stage {k}, state {st.states[x]!r}: {err}") from err
            stage_solutions[(k, c)] = sol
            s1, s2 = _clean_rows(sol.sigma1), _clean_rows(sol.sigma2)
            sig1[k][c] = s1
            sig2[k][c] = s2
            cv1[k][c] = np.einsum("abst,sa,tb,t->s", t1, s1, s2, b2)
            cv2[k][c] = np.einsum("abst,sa,tb,s->t", t2, s1, s2, b1)
    return StrategyProfile(tuple(sig1), tuple(sig2), classes), stage_solutions


def backward_pass(game: MultiStageGame, beliefs: BeliefSystem,
                  warm_profile: StrategyProfile | None = None
                  ) -> tuple[StrategyProfile, ValueFunction, dict]:
    """Solve the belief-class stage programs of ``beliefs`` (see
    :func:`_backward`).

    Returns the class profile, its values under ``beliefs`` per (stage,
    state) (see :class:`ValueFunction`) and the stage solutions keyed
    by (stage, class).
    """
    nodes = build_tree(game)
    profile, stage_solutions = _backward(
        game, nodes, beliefs.belief_p1, beliefs.belief_p2, warm_profile)
    return profile, _state_values(game, nodes, profile, beliefs), stage_solutions


def _by_state(nodes) -> dict[tuple[int, int], list[NodeKey]]:
    """Histories grouped by the (stage, state) they end in."""
    groups: dict[tuple[int, int], list[NodeKey]] = {}
    for path, kx in nodes.items():
        groups.setdefault(kx, []).append(path)
    return groups


def _state_values(game: MultiStageGame, nodes, profile: StrategyProfile,
                  beliefs: BeliefSystem) -> ValueFunction:
    """Average per-history values under ``beliefs`` into per-(stage,
    state) values.

    Each history of a state is weighted, per own type, by the chance
    that play reaches it given that type; a state no history reaches
    averages its histories with equal weights, and a state without
    histories (not reachable from the initial state) gets 0.
    """
    p1w = np.asarray(game.prior_about_1.weights)
    p2w = np.asarray(game.prior_about_2.weights)
    reach = _reach(game, nodes, profile)
    node_v1, node_v2 = (_node_values(game, nodes, profile, beliefs, player, False)
                        for player in (1, 2))
    out1 = [np.zeros((st.n_states, game.n1)) for st in game.stages]
    out2 = [np.zeros((st.n_states, game.n2)) for st in game.stages]
    for (k, x), paths in _by_state(nodes).items():
        for out, node_v, own_reach in (
                (out1, node_v1, lambda r: r @ p2w),
                (out2, node_v2, lambda r: p1w @ r)):
            v = np.array([node_v[p] for p in paths])
            w = np.array([own_reach(reach[p]) for p in paths])
            total = w.sum(axis=0)
            out[k][x] = np.where(total > 0.0,
                                 (w * v).sum(axis=0) / np.where(total > 0.0, total, 1.0),
                                 v.mean(axis=0))
    return ValueFunction(tuple(out1), tuple(out2))


# ---------------------------------------------------------------------------
# Exact evaluation over the history tree.
# ---------------------------------------------------------------------------

def _node_values(game: MultiStageGame, nodes, profile: StrategyProfile,
                 beliefs: BeliefSystem, player: int, best_response: bool,
                 from_stage: int = 0) -> dict:
    """Utility-to-go at every history, one entry per own type.

    The own-stage payoff at each node takes the joint expectation of
    the opponent's type and action under the node belief; deviations,
    when requested, may condition on the full history.  Stages before
    ``from_stage`` are neither counted nor deviated at.
    """
    value: dict[NodeKey, np.ndarray] = {}
    n_own = game.n1 if player == 1 else game.n2
    for path in reversed(list(nodes)):
        k, x = nodes[path]
        st = game.stages[k]
        r1 = profile.rows(1, path)
        r2 = profile.rows(2, path)
        if k < game.horizon:
            cont = np.array([value[c] for c in _children(path, st)]).reshape(
                st.m1, st.m2, n_own)
        else:
            cont = np.zeros((st.m1, st.m2, n_own))
        if player == 1:
            # w[own, opp type, opp action]: belief times opponent strategy
            w = beliefs.belief_p1[path][:, :, None] * r2[None, :, :]
            q = np.einsum("sj,ijs->si", w.sum(axis=1), cont)
            if k >= from_stage:
                q = q + np.einsum("suj,ijsu->si", w, st.payoff1.values[x])
            own_rows, own_feas = r1, st.payoff1.feasible[x]
        else:
            w = beliefs.belief_p2[path][:, :, None] * r1[None, :, :]
            q = np.einsum("ui,iju->uj", w.sum(axis=1), cont)
            if k >= from_stage:
                q = q + np.einsum("usi,ijsu->uj", w, st.payoff2.values[x])
            own_rows, own_feas = r2, st.payoff2.feasible[x]
        if best_response and k >= from_stage:
            value[path] = np.where(own_feas, q, -np.inf).max(axis=1)
        else:
            value[path] = (own_rows * q).sum(axis=1)
    return value


def root_values(game: MultiStageGame, profile: StrategyProfile,
                beliefs: BeliefSystem, from_stage: int = 0
                ) -> tuple[np.ndarray, np.ndarray]:
    """Exact expected sums of stage payoffs from ``from_stage`` on, per
    own type: (defender values, user values).

    Each side's expectation runs over the opponent's type under the
    supplied beliefs and over both players' action draws, by full tree
    traversal.
    """
    nodes = build_tree(game)
    return tuple(_node_values(game, nodes, profile, beliefs, player, False, from_stage)[()]
                 for player in (1, 2))


def cumulative_utility(game: MultiStageGame, profile: StrategyProfile,
                       beliefs: BeliefSystem, type1, type2,
                       from_stage: int = 0) -> tuple[float, float]:
    """The :func:`root_values` pair at the given types: (defender value
    at ``type1``, user value at ``type2``)."""
    t1 = game.type_index(1, type1)
    t2 = game.type_index(2, type2)
    u1, u2 = root_values(game, profile, beliefs, from_stage)
    return float(u1[t1]), float(u2[t2])


def verify_epsilon(game: MultiStageGame, profile: StrategyProfile,
                   beliefs: BeliefSystem) -> EpsilonReport:
    """Certify how far each (player, type) is from its best response.

    Best responses are computed over history-dependent deviations with
    the opponent's profile and the supplied beliefs held fixed.  Belief
    consistency is checked, not assumed: the forward pass is recomputed
    from the profile and compared on path.
    """
    nodes = build_tree(game)
    bel1, bel2, off1, off2 = _node_beliefs(game, nodes, profile)
    violation = 0.0
    for path, arr in bel1.items():
        if not off1[path]:
            violation = max(violation, float(np.abs(arr - beliefs.belief_p1[path]).max()))
    for path, arr in bel2.items():
        if not off2[path]:
            violation = max(violation, float(np.abs(arr - beliefs.belief_p2[path]).max()))

    eps = []
    for player in (1, 2):
        ach = _node_values(game, nodes, profile, beliefs, player, False)[()]
        best = _node_values(game, nodes, profile, beliefs, player, True)[()]
        gap = np.maximum(best - ach, 0.0)
        gap[gap < 1e-12] = 0.0
        eps.append(gap)
    return EpsilonReport(eps[0], eps[1], violation, violation <= 1e-9)


def _profile_residual(game: MultiStageGame, a: StrategyProfile,
                      b: StrategyProfile) -> float:
    """Largest change of any history's rows between two profiles."""
    res = 0.0
    for path in build_tree(game):
        for player in (1, 2):
            res = max(res, float(np.abs(a.rows(player, path)
                                        - b.rows(player, path)).max()))
    return res


def _belief_residual(a: tuple[dict, dict], b: tuple[dict, dict]) -> float:
    """Largest change of any node belief between two (p1, p2) pairs."""
    return max(float(np.abs(arr - y[path]).max())
               for x, y in zip(a, b) for path, arr in x.items())


def solve_pbne(game: MultiStageGame, tol: float = 1e-6, max_iter: int = 100,
               seed: int = 0):
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
    deterministic: ``seed`` is checked (a non-negative integer) but no
    longer changes the result.  ``max_iter`` must be an integer >= 1 and
    ``tol`` a finite number >= 0.

    Returns a :class:`PbneSolution` whose beliefs are the forward pass of
    its profile and whose values are the profile's utility-to-go under
    those beliefs, or a :class:`NonConvergenceReport` carrying the residual
    trace, which is evidence that no equilibrium of this form was found,
    not an error.  State aggregates are computed for the returned beliefs
    only.
    """
    check_seed(seed)
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) \
            or max_iter < 1:
        raise MalformedInputError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise MalformedInputError(f"tol must be a finite number >= 0, got {tol!r}")
    problems = validate_game(game)
    if problems:
        raise MalformedInputError("; ".join(problems))

    nodes = build_tree(game)
    start = prior_beliefs(game)
    bel = (start.belief_p1, start.belief_p2)
    profile: StrategyProfile | None = None
    trace: list[tuple[float, float]] = []
    counts: list[int] = []
    for it in range(1, max_iter + 1):
        new_profile, stage_solutions = _backward(game, nodes, *bel, profile)
        forward = _node_beliefs(game, nodes, new_profile)
        res_p = (np.inf if profile is None
                 else _profile_residual(game, new_profile, profile))
        res_b = _belief_residual(forward[:2], bel)
        trace.append((res_p, res_b))
        counts.append(len(stage_solutions))
        profile = new_profile
        if res_b <= tol and (it == 1 or res_p <= tol):
            beliefs = _with_aggregates(game, nodes, profile, *forward)
            eps = verify_epsilon(game, profile, beliefs)
            # under the returned beliefs, not the averaged ones the class
            # programs were solved against (they differ by up to tol)
            values = _state_values(game, nodes, profile, beliefs)
            worst_stage = max((max(s.gaps1.max(initial=0.0), s.gaps2.max(initial=0.0))
                               for s in stage_solutions.values()), default=0.0)
            return PbneSolution(profile, beliefs, values, eps, it,
                                tuple(trace), worst_stage, tuple(counts))
        bel = tuple({p: 0.5 * (v + new[p]) for p, v in old.items()}
                    for old, new in zip(bel, forward[:2]))
    return NonConvergenceReport(max_iter, tuple(trace), profile,
                                _with_aggregates(game, nodes, profile, *forward),
                                trace[-1], tuple(counts))
