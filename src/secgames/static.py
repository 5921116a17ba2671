"""Equilibria of one-shot games.

Three solvers live here:

* :func:`pure_ne` — exhaustive pure-profile check of a bimatrix game.
* :func:`mixed_ne` — all mixed equilibria of a bimatrix game by support
  enumeration.
* :func:`solve_bne` — Bayesian equilibria of a static game with private
  types, by agent-form reduction: every (player, type) pair of an
  informed player becomes an agent, an uninformed player is a single
  agent playing ex-ante.

Support enumeration resolves each candidate support profile with a pair
of linear feasibility programs (the two sides decouple once supports
are fixed), so degenerate games with equilibrium continua yield vertex
representatives instead of being skipped.  :func:`support_lp` builds
and solves every such program, the signaling solver's included.  Both
LPs of a candidate are skipped when a conditional-dominance screen
(:class:`lp.DominanceScreen`) finds, on either side, a support action
that another feasible action beats against every opponent mix on the
opponent supports; such an LP could not have reported a solution, so
results do not change.  The screen runs before the enumeration, as one
table per agent over all of its support systems; :func:`screen_grid`
ORs the tables into one grid of rejected profiles.  Every candidate is
re-verified against the exact best-response inequalities before it is
reported; anything returned has deviation gap <= 1e-8.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (EnumerationBudgetError, FiniteDistribution,
                   MalformedInputError, _readonly)
from .lp import DominanceScreen, LinearProgram, solve_lp

GAP_TOL = 1e-8
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class BimatrixGame:
    """Two payoff matrices of equal shape; row player 1, column player 2."""

    j1: np.ndarray
    j2: np.ndarray
    actions1: tuple[str, ...] = ()
    actions2: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "j1", _readonly(self.j1))
        object.__setattr__(self, "j2", _readonly(self.j2))
        if self.j1.shape != self.j2.shape or self.j1.ndim != 2:
            raise MalformedInputError("payoff matrices must share one 2-d shape")
        m1, m2 = self.j1.shape
        object.__setattr__(self, "actions1",
                           tuple(self.actions1) or tuple(str(i) for i in range(m1)))
        object.__setattr__(self, "actions2",
                           tuple(self.actions2) or tuple(str(j) for j in range(m2)))
        if len(self.actions1) != m1 or len(self.actions2) != m2:
            raise MalformedInputError("action labels do not match matrix shape")

    @property
    def shape(self) -> tuple[int, int]:
        return self.j1.shape


@dataclass(frozen=True)
class StaticBayesianGame:
    """One-shot game with finite private types on either or both sides.

    ``payoffs1[a1, a2, t1, t2]`` is the defender payoff; ``informed1``
    says whether player 1 observes its own type before acting (an
    uninformed player picks one ex-ante strategy).  ``prior_about_1``
    is the common prior over player 1's types held by player 2.
    """

    types1: tuple[str, ...]
    types2: tuple[str, ...]
    prior_about_1: FiniteDistribution
    prior_about_2: FiniteDistribution
    payoffs1: np.ndarray
    payoffs2: np.ndarray
    mask1: np.ndarray
    mask2: np.ndarray
    informed1: bool = True
    informed2: bool = True
    actions1: tuple[str, ...] = ()
    actions2: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "types1", tuple(self.types1))
        object.__setattr__(self, "types2", tuple(self.types2))
        object.__setattr__(self, "payoffs1", _readonly(self.payoffs1))
        object.__setattr__(self, "payoffs2", _readonly(self.payoffs2))
        object.__setattr__(self, "mask1", _readonly(self.mask1, dtype=bool))
        object.__setattr__(self, "mask2", _readonly(self.mask2, dtype=bool))
        m1, m2, n1, n2 = self.payoffs1.shape
        if self.payoffs2.shape != (m1, m2, n1, n2):
            raise MalformedInputError("payoff tensors must share one shape")
        if len(self.types1) != n1 or len(self.types2) != n2:
            raise MalformedInputError("type labels do not match tensor shape")
        if len(self.prior_about_1) != n1 or len(self.prior_about_2) != n2:
            raise MalformedInputError("priors do not match type spaces")
        if self.mask1.shape != (n1, m1) or self.mask2.shape != (n2, m2):
            raise MalformedInputError("feasibility masks have wrong shape")
        if not (self.mask1.any(axis=1).all() and self.mask2.any(axis=1).all()):
            raise MalformedInputError("every type needs at least one feasible action")
        object.__setattr__(self, "actions1",
                           tuple(self.actions1) or tuple(str(i) for i in range(m1)))
        object.__setattr__(self, "actions2",
                           tuple(self.actions2) or tuple(str(j) for j in range(m2)))

    @classmethod
    def full_masks(cls, m1: int, m2: int, n1: int, n2: int):
        return np.ones((n1, m1), dtype=bool), np.ones((n2, m2), dtype=bool)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.payoffs1.shape


@dataclass(frozen=True)
class EquilibriumResult:
    """A verified equilibrium: per-type strategies, values, deviation gap."""

    sigma1: np.ndarray          # (n_types1, m1)
    sigma2: np.ndarray          # (n_types2, m2)
    values1: np.ndarray         # expected payoff per defender type
    values2: np.ndarray
    ex_ante1: float
    ex_ante2: float
    gap: float
    support: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigma1", _readonly(self.sigma1))
        object.__setattr__(self, "sigma2", _readonly(self.sigma2))
        object.__setattr__(self, "values1", _readonly(self.values1))
        object.__setattr__(self, "values2", _readonly(self.values2))


def best_response_set(j: np.ndarray, opponent, player: int) -> set[int]:
    """Pure actions of ``player`` maximizing expected payoff against a mix.

    ``j`` is the player's own (m1, m2) payoff matrix; ties within 1e-9
    of the maximum are all reported.
    """
    j = np.asarray(j, dtype=float)
    q = np.asarray(getattr(opponent, "weights", opponent), dtype=float)
    if player == 1:
        if q.size != j.shape[1]:
            raise MalformedInputError("opponent distribution does not match columns")
        payoffs = j @ q
    elif player == 2:
        if q.size != j.shape[0]:
            raise MalformedInputError("opponent distribution does not match rows")
        payoffs = q @ j
    else:
        raise MalformedInputError("player must be 1 or 2")
    top = payoffs.max()
    return {int(i) for i in np.flatnonzero(payoffs >= top - _TIE_TOL)}


def pure_ne(game: BimatrixGame) -> list[tuple[str, str]]:
    """All pure-action pairs from which no unilateral deviation gains."""
    j1, j2 = game.j1, game.j2
    out = []
    m1, m2 = j1.shape
    for i in range(m1):
        for j in range(m2):
            if j1[:, j].max() > j1[i, j] + _TIE_TOL:
                continue
            if j2[i, :].max() > j2[i, j] + _TIE_TOL:
                continue
            out.append((game.actions1[i], game.actions2[j]))
    return out


# ---------------------------------------------------------------------------
# Agent-form machinery shared by mixed_ne and solve_bne.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Agent:
    player: int
    types: tuple[int, ...]       # type indices this agent decides for
    own_weights: np.ndarray      # weight per owned type in the agent's objective
    feasible: tuple[int, ...]    # actions allowed for every owned type


def _make_agents(game: StaticBayesianGame) -> tuple[list[_Agent], list[_Agent]]:
    def side(player: int) -> list[_Agent]:
        informed = game.informed1 if player == 1 else game.informed2
        mask = game.mask1 if player == 1 else game.mask2
        prior = game.prior_about_1 if player == 1 else game.prior_about_2
        n = len(game.types1 if player == 1 else game.types2)
        if informed:
            agents = []
            for t in range(n):
                feas = tuple(int(a) for a in np.flatnonzero(mask[t]))
                agents.append(_Agent(player, (t,), np.ones(1), feas))
            return agents
        feas = tuple(int(a) for a in np.flatnonzero(mask.all(axis=0)))
        if not feas:
            raise MalformedInputError(
                "uninformed player has no action feasible for all types")
        return [_Agent(player, tuple(range(n)), np.asarray(prior.weights), feas)]
    return side(1), side(2)


def _agent_payoff_coeffs(game: StaticBayesianGame, agent: _Agent,
                         opponents: list[_Agent]) -> np.ndarray:
    """Coefficient tensor: agent's payoff per own action, linear in the
    stacked opponent-agent strategy variables.

    Returns ``coef[own_action, opp_agent_index, opp_action]``; the own
    payoff is the opponent-prior-weighted expectation of the payoff
    tensor, with the agent's own types weighted by ``own_weights``.
    """
    if agent.player == 1:
        tensor = game.payoffs1          # (m1, m2, n1, n2)
        opp_prior = np.asarray(game.prior_about_2.weights)
        m_own, m_opp = tensor.shape[0], tensor.shape[1]
        own_axis, opp_axis = 2, 3
    else:
        tensor = game.payoffs2
        opp_prior = np.asarray(game.prior_about_1.weights)
        m_own, m_opp = tensor.shape[1], tensor.shape[0]
        own_axis, opp_axis = 3, 2
    coef = np.zeros((m_own, len(opponents), m_opp))
    for gi, opp in enumerate(opponents):
        for ot, w_own in zip(agent.types, agent.own_weights):
            for tt in opp.types:
                sl = [slice(None)] * 4
                sl[own_axis] = ot
                sl[opp_axis] = tt
                block = tensor[tuple(sl)]          # (m1, m2)
                if agent.player == 2:
                    block = block.T                # (m_own, m_opp)
                coef[:, gi, :] += w_own * opp_prior[tt] * block
    return coef


def sized_subsets(items) -> list[tuple[int, ...]]:
    """Nonempty subsets of ``items``, smallest first, then lexicographic."""
    return sorted((s for r in range(1, len(items) + 1)
                   for s in itertools.combinations(items, r)),
                  key=lambda s: (len(s), s))


def screen_grid(screens, own_choices, opp_choices) -> np.ndarray:
    """``rejected[own_profile, opp_profile]`` over the support profiles
    of both sides, each in ``itertools.product`` order of its choices:
    True where some own agent's :meth:`lp.DominanceScreen.table` proves
    that agent's support system infeasible."""
    own_index = np.indices([len(c) for c in own_choices]).reshape(len(own_choices), -1)
    rejected = np.zeros((own_index.shape[1], math.prod(len(c) for c in opp_choices)),
                        dtype=bool)
    for screen, choices, index in zip(screens, own_choices, own_index):
        rejected |= screen.table(choices, opp_choices)[index]
    return rejected


def support_lp(coeffs, own_supports, own_feasible, opp_supports,
               opp_action_count: int) -> np.ndarray | None:
    """A point of one side's support system, from :func:`lp.solve_lp`.

    ``coeffs[i][own_action, opp_agent, opp_action]`` is own agent i's
    payoff, linear in the opponent rows (the format of
    :class:`lp.DominanceScreen`).  Unknowns are the opponent agents'
    strategies, restricted to ``opp_supports``, plus one free value per
    own agent, written as two columns v+ - v- after the opponent rows
    (the points :func:`lp.solve_lp` finds have z >= 0).  Own-support
    actions must tie at the value; the other ``own_feasible`` actions
    must not beat it.  Returns the point's opponent rows as one
    ``(opp_agents, opp_action_count)`` array, or None when the system is
    infeasible.
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
    # ``solve_lp`` is looked up in this module, where tools that count
    # LP calls wrap it.
    sol = solve_lp(LinearProgram.build(a_ub or None, [0.0] * len(a_ub) or None, a_eq, b_eq))
    if sol.status != "optimal":
        return None
    out = np.zeros((len(opp_supports), opp_action_count))
    for (g, a), z in zip(var, sol.z):
        out[g, a] = max(0.0, z)
    totals = out.sum(axis=1, keepdims=True)
    if (totals <= 0.0).any():
        return None
    return out / totals


def _profile_from_agents(game: StaticBayesianGame, agents: list[_Agent],
                         rows: np.ndarray, player: int) -> np.ndarray:
    n = len(game.types1 if player == 1 else game.types2)
    m = game.payoffs1.shape[0] if player == 1 else game.payoffs1.shape[1]
    sigma = np.zeros((n, m))
    for agent, row in zip(agents, rows):
        for t in agent.types:
            sigma[t] = row
    return sigma


def bayes_gap(game: StaticBayesianGame, sigma1: np.ndarray, sigma2: np.ndarray
              ) -> tuple[float, dict]:
    """Largest gain any agent could get from a unilateral deviation.

    Exact re-verification of the equilibrium inequalities: informed
    agents are checked per type, an uninformed agent on its ex-ante
    (prior-weighted) objective.  Also used to cross-certify profiles
    produced by other solvers.
    """
    agents1, agents2 = _make_agents(game)
    detail = {}
    worst = 0.0
    for player, agents, own_sigma in ((1, agents1, sigma1), (2, agents2, sigma2)):
        opponents = agents2 if player == 1 else agents1
        opp_sigma = sigma2 if player == 1 else sigma1
        for agent in agents:
            coef = _agent_payoff_coeffs(game, agent, opponents)
            y = np.stack([opp_sigma[opp.types[0]] for opp in opponents])
            per_action = np.einsum("agb,gb->a", coef, y)
            row = own_sigma[agent.types[0]]
            achieved = float(per_action @ row)
            best = float(per_action[list(agent.feasible)].max())
            gap = max(0.0, best - achieved)
            detail[(player, agent.types)] = gap
            worst = max(worst, gap)
    return worst, detail


def equilibrium_values(game: StaticBayesianGame, sigma1: np.ndarray,
                       sigma2: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Per-type and ex-ante expected payoffs under a strategy pair."""
    p2 = np.asarray(game.prior_about_2.weights)
    p1 = np.asarray(game.prior_about_1.weights)
    v1 = np.einsum("abst,sa,tb,t->s", game.payoffs1, sigma1, sigma2, p2)
    v2 = np.einsum("abst,sa,tb,s->t", game.payoffs2, sigma1, sigma2, p1)
    return v1, v2, float(p1 @ v1), float(p2 @ v2)


def support_of(strategy: np.ndarray) -> tuple:
    """Per-row supports (entries above 1e-9) of a strategy matrix."""
    return tuple(tuple(int(a) for a in np.flatnonzero(row > 1e-9)) for row in strategy)


def solve_bne(game: StaticBayesianGame, max_results: int | None = None,
              budget: int = 1_000_000) -> list[EquilibriumResult]:
    """Bayesian equilibria by agent-form support enumeration.

    Candidate support profiles are searched smallest-first; results are
    returned in lexicographic support order (unless ``max_results`` cut
    the search short, in which case search order is kept).
    """
    if max_results is not None and max_results < 1:
        raise MalformedInputError(f"max_results must be at least 1, got {max_results}")
    agents1, agents2 = _make_agents(game)
    sized1 = [sized_subsets(a.feasible) for a in agents1]
    sized2 = [sized_subsets(a.feasible) for a in agents2]
    n_combos = int(np.prod([len(s) for s in sized1 + sized2]))
    if n_combos > budget:
        raise EnumerationBudgetError(
            f"{n_combos} support profiles exceed the enumeration budget {budget}")

    coeffs1 = [_agent_payoff_coeffs(game, a, agents2) for a in agents1]
    coeffs2 = [_agent_payoff_coeffs(game, a, agents1) for a in agents2]
    feas1 = [a.feasible for a in agents1]
    feas2 = [a.feasible for a in agents2]
    m1, m2 = game.payoffs1.shape[0], game.payoffs1.shape[1]
    screens1 = [DominanceScreen(c, f) for c, f in zip(coeffs1, feas1)]
    screens2 = [DominanceScreen(c, f) for c, f in zip(coeffs2, feas2)]
    rejected = (screen_grid(screens1, sized1, sized2)
                | screen_grid(screens2, sized2, sized1).T)
    results: list[EquilibriumResult] = []
    seen: set[bytes] = set()
    for sup1, row in zip(itertools.product(*sized1), rejected):
        for sup2, skip in zip(itertools.product(*sized2), row.tolist()):
            if skip:
                continue
            rows2 = support_lp(coeffs1, sup1, feas1, sup2, m2)
            if rows2 is None:
                continue
            rows1 = support_lp(coeffs2, sup2, feas2, sup1, m1)
            if rows1 is None:
                continue
            sigma1 = _profile_from_agents(game, agents1, rows1, 1)
            sigma2 = _profile_from_agents(game, agents2, rows2, 2)
            gap, _ = bayes_gap(game, sigma1, sigma2)
            if gap > GAP_TOL:
                continue
            key = np.round(np.concatenate([sigma1.ravel(), sigma2.ravel()]), 7).tobytes()
            if key in seen:
                continue
            seen.add(key)
            v1, v2, e1, e2 = equilibrium_values(game, sigma1, sigma2)
            results.append(EquilibriumResult(
                sigma1, sigma2, v1, v2, e1, e2, gap,
                (support_of(sigma1), support_of(sigma2))))
            if max_results is not None and len(results) >= max_results:
                return results
    results.sort(key=lambda r: r.support)
    return results


def as_bayesian(game: BimatrixGame) -> StaticBayesianGame:
    """Embed a bimatrix game as a Bayesian game with singleton types."""
    m1, m2 = game.shape
    mask1, mask2 = StaticBayesianGame.full_masks(m1, m2, 1, 1)
    return StaticBayesianGame(
        types1=("*",), types2=("*",),
        prior_about_1=FiniteDistribution([1.0]),
        prior_about_2=FiniteDistribution([1.0]),
        payoffs1=game.j1[:, :, None, None],
        payoffs2=game.j2[:, :, None, None],
        mask1=mask1, mask2=mask2,
        actions1=game.actions1, actions2=game.actions2)


def mixed_ne(game: BimatrixGame, max_results: int | None = None
             ) -> list[EquilibriumResult]:
    """All mixed equilibria of a bimatrix game (supports up to 8 actions)."""
    m1, m2 = game.shape
    if m1 > 8 or m2 > 8:
        raise EnumerationBudgetError(
            f"support enumeration budget is 8 actions per player, got {m1}x{m2}")
    return solve_bne(as_bayesian(game), max_results=max_results)


def prior_averaged_bimatrix(game: StaticBayesianGame) -> BimatrixGame:
    """Collapse types under the priors (the both-uninformed reduction)."""
    p1 = np.asarray(game.prior_about_1.weights)
    p2 = np.asarray(game.prior_about_2.weights)
    j1 = np.einsum("abst,s,t->ab", game.payoffs1, p1, p2)
    j2 = np.einsum("abst,s,t->ab", game.payoffs2, p1, p2)
    return BimatrixGame(j1, j2, game.actions1, game.actions2)


def to_multistage(game: StaticBayesianGame, state: str = "x0"):
    """Embed a one-shot Bayesian game as a single-stage game."""
    from .core import MultiStageGame, PayoffTensor, StageGame
    m1, m2, n1, n2 = game.payoffs1.shape
    tr = np.zeros((1, m1, m2), dtype=int)
    stage = StageGame(
        0, (state,), game.actions1, game.actions2,
        PayoffTensor(game.payoffs1[None, ...], game.mask1[None, ...]),
        PayoffTensor(game.payoffs2[None, ...], game.mask2[None, ...]),
        tr, (state,))
    return MultiStageGame(0, (stage,), game.types1, game.types2,
                          game.prior_about_1, game.prior_about_2, state)


def from_multistage(game) -> StaticBayesianGame:
    """View a single-stage game at its initial state as a one-shot
    Bayesian game with both players informed of their own types."""
    if game.horizon != 0:
        raise MalformedInputError("only single-stage games reduce to a one-shot game")
    st = game.stages[0]
    x = st.state_index(game.initial_state)
    return StaticBayesianGame(
        game.types1, game.types2, game.prior_about_1, game.prior_about_2,
        st.payoff1.values[x], st.payoff2.values[x],
        st.payoff1.feasible[x], st.payoff2.feasible[x],
        informed1=True, informed2=True,
        actions1=st.actions1, actions2=st.actions2)
