"""Equilibria of one-shot games.

Three solvers live here:

* :func:`pure_ne` — exhaustive pure-profile check of a bimatrix game.
* :func:`mixed_ne` — all mixed equilibria of a bimatrix game by support
  enumeration.
* :func:`solve_bne` — Bayesian equilibria of a static game with private
  types, on its type form (:func:`_type_form`): an uninformed player's
  types are merged into one type facing its prior-averaged payoffs, and
  then every (player, type) pair is an agent that decides on its own.

Support enumeration resolves each candidate support profile with a pair
of linear feasibility programs (the two sides decouple once supports
are fixed), so degenerate games with equilibrium continua yield vertex
representatives instead of being skipped.  Every such program is a
member of a stack (:func:`lp.solve_stack`), written by
:class:`_SupportStack` and solved by :func:`solve_supports`, at most
``_STACK_SYSTEMS`` systems per stack; the signaling solver's programs
go the same way.  :func:`solve_bne` takes its candidates one stack's
worth at a time: side 1 of each, then side 2 of those whose side 1 is
feasible.  Both LPs of a candidate are skipped when a
conditional-dominance screen (:class:`lp.DominanceScreen`) finds, on
either side, a support action that another feasible action beats
against every opponent mix on the opponent supports; such an LP could
not have reported a solution, so results do not change.  The screen
runs before the enumeration, as one table per agent over all of its
support systems; :func:`screen_grid` ORs the tables into one grid of
rejected profiles.  Every candidate is re-verified against the exact
best-response inequalities before it is reported; anything returned
has deviation gap <= 1e-8.  A search over more than ``BNE_BUDGET``
support profiles, counted before the screen, is refused
(:func:`check_budget`, which the signaling searches share).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (EnumerationBudgetError, FiniteDistribution,
                   MalformedInputError, _readonly)
# ``solve_lp`` is not called here.  Tools that count LP calls wrap this
# module's ``solve_lp``, so the name stays importable.
from .lp import DominanceScreen, solve_lp, solve_stack  # noqa: F401

GAP_TOL = 1e-8
_TIE_TOL = 1e-9
# Support profiles a search enumerates at most, counted before the screen:
# solve_bne's (and so mixed_ne's) and the signaling searches'.
BNE_BUDGET = 1_000_000
# Support systems in one stacked run at most: enough to spread a run's
# per-pivot cost, few enough to keep its tableaus to a few megabytes.
_STACK_SYSTEMS = 256


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
# Type form shared by mixed_ne and solve_bne.
# ---------------------------------------------------------------------------

def _type_form(game: StaticBayesianGame) -> StaticBayesianGame:
    """The game with each uninformed player's types merged into one type.

    An uninformed player picks one ex-ante strategy, which is the choice
    of a one-type player facing its payoffs averaged under its prior
    (Harsanyi 1967-68).  Both payoff tensors are so averaged, by a plain
    accumulation in type order from 0.0, and the merged type's feasible
    actions are those feasible for every type.  In the result every
    (player, type) is an agent that decides on its own.
    """
    payoffs = [game.payoffs1, game.payoffs2]
    sides = []
    for axis, informed, types, prior, mask in (
            (2, game.informed1, game.types1, game.prior_about_1, game.mask1),
            (3, game.informed2, game.types2, game.prior_about_2, game.mask2)):
        if informed:
            sides.append((types, prior, mask))
            continue
        mask = mask.all(axis=0, keepdims=True)
        if not mask.any():
            raise MalformedInputError(
                "uninformed player has no action feasible for all types")
        for i, tensor in enumerate(payoffs):
            merged = 0.0
            for t, w in enumerate(prior.weights):
                merged = merged + w * tensor.take([t], axis=axis)
            payoffs[i] = merged
        sides.append((("*",), FiniteDistribution([1.0]), mask))
    (types1, prior1, mask1), (types2, prior2, mask2) = sides
    return StaticBayesianGame(types1, types2, prior1, prior2, *payoffs, mask1, mask2,
                              actions1=game.actions1, actions2=game.actions2)


def _payoff_coeffs(form: StaticBayesianGame) -> tuple[np.ndarray, np.ndarray]:
    """Both players' coefficient tensors in a type form: ``coeffs1[s]``
    is ``coef[own_action, opp_type, opp_action]``, type s's payoff,
    linear in the opponent's rows with its prior folded in; likewise
    ``coeffs2[t]``.  Both are C-contiguous."""
    p1 = np.asarray(form.prior_about_1.weights)
    p2 = np.asarray(form.prior_about_2.weights)
    return (np.ascontiguousarray((form.payoffs1 * p2).transpose(2, 0, 3, 1)),
            np.ascontiguousarray((form.payoffs2 * p1[:, None]).transpose(3, 1, 2, 0)))


def sized_subsets(items, largest: int | None = None) -> list[tuple[int, ...]]:
    """Nonempty subsets of ``items`` with at most ``largest`` members
    (any number by default), smallest first, then lexicographic."""
    return sorted((s for r in range(1, (largest or len(items)) + 1)
                   for s in itertools.combinations(items, r)),
                  key=lambda s: (len(s), s))


def check_budget(item_counts, largest: int | None = None) -> None:
    """Refuse a search over more than ``BNE_BUDGET`` support profiles,
    counted before the screen and before any support is listed: one
    :func:`sized_subsets` member (``largest`` as there) per agent, of an
    agent with ``item_counts[i]`` feasible items."""
    n_combos = math.prod(sum(math.comb(k, r) for r in range(1, (largest or k) + 1))
                         for k in item_counts)
    if n_combos > BNE_BUDGET:
        raise EnumerationBudgetError(
            f"{n_combos} support profiles exceed the enumeration budget {BNE_BUDGET}")


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


class _SupportStack:
    """One side's support systems, written as :func:`lp.solve_stack`
    members straight from the coefficient tensors and support masks.

    ``coeffs[i][own_action, opp_agent, opp_action]`` is own agent i's
    payoff, linear in the opponent rows (the format of
    :class:`lp.DominanceScreen`), and ``own_feasible[i]`` its feasible
    actions.  A system fixes an own support per agent and an opponent
    support per opponent row.  Unknowns are the opponent rows on their
    supports, plus one free value per own agent, written as two columns
    v+ - v- (the points :func:`lp.solve_stack` finds have x >= 0).
    Own-support actions must tie at the value; the other feasible
    actions must not beat it.

    Rows: the opponent rows' sums, then one row per own (agent, feasible
    action), supported actions (the equalities) first, each group in
    agent-then-action order.  Columns: one per opponent (agent g, action
    a), at ``g * m_opp + a`` and zero where a is not in g's support; the
    own agents' value pairs (v+, v-); the inequality rows' slacks.  So a
    member, without its zero opponent columns, is the form that
    :func:`lp.solve_lp` gives the same system stated with these
    equality and inequality rows.
    """

    def __init__(self, coeffs, own_feasible):
        pairs = [(i, b) for i, feas in enumerate(own_feasible) for b in feas]
        self.agent, self.action = np.array(pairs).T
        _, n_opp, self.m_opp = coeffs[0].shape
        value = np.zeros((len(pairs), 2 * len(coeffs)))
        value[np.arange(len(pairs)), 2 * self.agent] = -1.0
        value[np.arange(len(pairs)), 2 * self.agent + 1] = 1.0
        self.own_rows = np.hstack([np.stack([coeffs[i][b].ravel() for i, b in pairs]), value])
        self.sum_rows = np.repeat(np.eye(n_opp), self.m_opp, axis=1)

    def shape(self) -> tuple[int, int]:
        """Rows and columns of one system."""
        n_pairs = len(self.agent)
        return len(self.sum_rows) + n_pairs, self.own_rows.shape[1] + n_pairs

    def systems(self, own: np.ndarray, opp: np.ndarray, body: np.ndarray,
                rhs: np.ndarray, ready: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write :func:`lp.solve_stack`'s ``body``, ``rhs`` and ``ready``
        for the systems of own support masks ``own[k, agent, action]``
        against opponent support masks ``opp[k, agent, action]``, and
        return their ``n_rows`` and ``n_cols``.  The arrays come zeroed
        (``ready`` -1), one row per system, with at least :meth:`shape`
        rows and columns per system, of which the systems take the top
        left."""
        n_sys = len(own)
        n_opp, n_y = self.sum_rows.shape
        n_value = self.own_rows.shape[1]
        m, _ = self.shape()
        supported = own[:, self.agent, self.action]
        n_eq = n_opp + supported.sum(axis=1)
        in_support = opp.reshape(n_sys, 1, n_y)
        body[:, :n_opp, :n_y] = np.where(in_support, self.sum_rows, 0.0)
        rows = self.own_rows[np.argsort(~supported, axis=1, kind="stable")]
        rows[..., :n_y] = np.where(in_support, rows[..., :n_y], 0.0)
        body[:, n_opp:m, :n_value] = rows
        slack = np.arange(m) - n_eq[:, None]        # past the value columns
        k, r = np.nonzero(slack >= 0)
        body[k, r, n_value + slack[k, r]] = 1.0
        ready[:, :m] = np.where(slack >= 0, n_value + slack, -1)
        rhs[:, :n_opp] = 1.0
        return np.full(n_sys, m), opp.sum(axis=(1, 2)) + n_value - n_y + m - n_eq


def solve_supports(parts) -> list:
    """Per support system, its point's opponent rows as one
    ``(opp_agents, m_opp)`` array, or None when the system is infeasible.

    ``parts`` lists ``(stack, own, opp)``: a :class:`_SupportStack` and
    the support masks of its systems, as :meth:`_SupportStack.systems`
    takes them.  The points come in the order of ``parts`` and of their
    systems.  Every system is a member of an :func:`lp.solve_stack` run
    of at most ``_STACK_SYSTEMS`` members, and a run's systems are
    written only when it starts, so memory stays bounded.
    """
    points, stack_parts, room = [], [], _STACK_SYSTEMS
    for stack, own, opp in parts:
        while len(own):
            stack_parts.append((stack, own[:room], opp[:room]))
            own, opp, room = own[room:], opp[room:], room - len(stack_parts[-1][1])
            if not room:
                points += _solve_one_stack(stack_parts)
                stack_parts, room = [], _STACK_SYSTEMS
    return points + (_solve_one_stack(stack_parts) if stack_parts else [])


def _solve_one_stack(parts) -> list:
    """:func:`solve_supports` for one :func:`lp.solve_stack` run; the
    systems of all parts are written straight into one array, padded to
    one size with zero rows and columns."""
    n_sys = sum(len(own) for _, own, _ in parts)
    m, width = np.max([stack.shape() for stack, *_ in parts], axis=0)
    body, rhs, ready = np.zeros((n_sys, m, width)), np.zeros((n_sys, m)), np.full((n_sys, m), -1)
    counts, lo = [], 0
    for stack, own, opp in parts:
        view = slice(lo, lo + len(own))
        counts.append(stack.systems(own, opp, body[view], rhs[view], ready[view]))
        lo += len(own)
    n_rows, n_cols = (np.concatenate(c) for c in zip(*counts))
    feasible, x = solve_stack(body, rhs, ready, n_rows, n_cols)
    points = []
    lo = 0
    for stack, own, _ in parts:
        n_sys, (n_opp, n_y) = len(own), stack.sum_rows.shape
        out = np.maximum(x[lo:lo + n_sys, :n_y], 0.0).reshape(n_sys, n_opp, stack.m_opp)
        totals = out.sum(axis=2, keepdims=True)
        keep = feasible[lo:lo + n_sys] & (totals > 0.0).all(axis=(1, 2))
        points += [point / total if k else None for point, total, k in zip(out, totals, keep)]
        lo += n_sys
    return points


def _support_tables(choices, n_actions: int) -> list[np.ndarray]:
    """``tables[i][j]``: agent i's support ``choices[i][j]`` as a row of
    ``n_actions`` bools."""
    tables = []
    for agent_choices in choices:
        table = np.zeros((len(agent_choices), n_actions), dtype=bool)
        table[np.repeat(np.arange(len(agent_choices)), [len(s) for s in agent_choices]),
              [a for sup in agent_choices for a in sup]] = True
        tables.append(table)
    return tables


def _profile_masks(tables, profiles: np.ndarray) -> np.ndarray:
    """Support masks ``[k, agent, action]`` of the support profiles
    numbered in ``itertools.product`` order."""
    index = np.unravel_index(profiles, [len(t) for t in tables])
    return np.stack([t[i] for t, i in zip(tables, index)], axis=1)


def bayes_gap(game: StaticBayesianGame, sigma1: np.ndarray, sigma2: np.ndarray
              ) -> tuple[float, dict]:
    """Largest gain any (player, type) could get from a unilateral
    deviation, and the gain of each, keyed by (player, type).

    Exact re-verification of the equilibrium inequalities on the type
    form: informed players are checked per type, an uninformed player
    on its ex-ante (prior-weighted) objective, as its merged type 0,
    playing its type 0's row.  Also used to cross-certify profiles
    produced by other solvers.
    """
    form = _type_form(game)
    # a merged type plays its player's first row
    return _deviation_gaps(form, _payoff_coeffs(form),
                           np.asarray(sigma1)[:len(form.types1)],
                           np.asarray(sigma2)[:len(form.types2)])


def _deviation_gaps(form, coeffs, rows1, rows2) -> tuple[float, dict]:
    """:func:`bayes_gap` from a type form's coefficient tensors and
    both players' rows in it."""
    detail = {}
    worst = 0.0
    for player, own_coeffs, mask, own_rows, opp_rows in (
            (1, coeffs[0], form.mask1, rows1, rows2),
            (2, coeffs[1], form.mask2, rows2, rows1)):
        opp_rows = np.ascontiguousarray(opp_rows)
        for t, (coef, feasible, row) in enumerate(zip(own_coeffs, mask, own_rows)):
            per_action = np.einsum("agb,gb->a", coef, opp_rows)
            achieved = float(per_action @ row)
            gap = max(0.0, float(per_action[feasible].max()) - achieved)
            detail[(player, t)] = gap
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


def solve_bne(game: StaticBayesianGame, max_results: int | None = None
              ) -> list[EquilibriumResult]:
    """Bayesian equilibria by support enumeration on the type form.

    Candidate support profiles are searched smallest-first; results are
    returned in lexicographic support order (unless ``max_results`` cut
    the search short, in which case search order is kept).
    """
    if max_results is not None and max_results < 1:
        raise MalformedInputError(f"max_results must be at least 1, got {max_results}")
    form = _type_form(game)
    coeffs1, coeffs2 = _payoff_coeffs(form)
    feas1 = [tuple(np.flatnonzero(row).tolist()) for row in form.mask1]
    feas2 = [tuple(np.flatnonzero(row).tolist()) for row in form.mask2]
    check_budget([len(f) for f in feas1 + feas2])
    sized1 = [sized_subsets(f) for f in feas1]
    sized2 = [sized_subsets(f) for f in feas2]
    m1, m2 = game.payoffs1.shape[0], game.payoffs1.shape[1]
    screens1 = [DominanceScreen(c, f) for c, f in zip(coeffs1, feas1)]
    screens2 = [DominanceScreen(c, f) for c, f in zip(coeffs2, feas2)]
    rejected = (screen_grid(screens1, sized1, sized2)
                | screen_grid(screens2, sized2, sized1).T)
    side1, side2 = _SupportStack(coeffs1, feas1), _SupportStack(coeffs2, feas2)
    tables1, tables2 = _support_tables(sized1, m1), _support_tables(sized2, m2)
    candidates = np.flatnonzero(~rejected.ravel())      # in search order
    results: list[EquilibriumResult] = []
    seen: set[bytes] = set()
    # One stack's worth of candidates at a time, so that ``max_results``
    # stops the search after the stack that fills it.
    for lo in range(0, candidates.size, _STACK_SYSTEMS):
        profile1, profile2 = np.divmod(candidates[lo:lo + _STACK_SYSTEMS], rejected.shape[1])
        masks1 = _profile_masks(tables1, profile1)
        masks2 = _profile_masks(tables2, profile2)
        # Side 1 for every candidate, side 2 where side 1 is feasible.
        found2 = solve_supports([(side1, masks1, masks2)])
        live = [k for k, rows2 in enumerate(found2) if rows2 is not None]
        found1 = solve_supports([(side2, masks2[live], masks1[live])])
        for k, rows1 in zip(live, found1):
            if rows1 is None:
                continue
            gap, _ = _deviation_gaps(form, (coeffs1, coeffs2), rows1, found2[k])
            if gap > GAP_TOL:
                continue
            # a merged type's row is played by each of its player's types
            sigma1 = np.broadcast_to(rows1, game.mask1.shape).copy()
            sigma2 = np.broadcast_to(found2[k], game.mask2.shape).copy()
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
    """All mixed equilibria of a bimatrix game, by :func:`solve_bne` and
    within its budget: (2**m1 - 1) * (2**m2 - 1) support profiles."""
    return solve_bne(as_bayesian(game), max_results=max_results)


def prior_averaged_bimatrix(game: StaticBayesianGame) -> BimatrixGame:
    """Collapse types under the priors (the both-uninformed reduction)."""
    p1 = np.asarray(game.prior_about_1.weights)
    p2 = np.asarray(game.prior_about_2.weights)
    j1 = np.einsum("abst,s,t->ab", game.payoffs1, p1, p2)
    j2 = np.einsum("abst,s,t->ab", game.payoffs2, p1, p2)
    return BimatrixGame(j1, j2, game.actions1, game.actions2)


def to_multistage(game: StaticBayesianGame, state: str = "x0"):
    """Embed a one-shot Bayesian game as a single-stage game.

    Players of a multi-stage game observe their own types, so a player
    with more than one type must be informed."""
    from .core import MultiStageGame, PayoffTensor, StageGame
    m1, m2, n1, n2 = game.payoffs1.shape
    for player, informed, n in ((1, game.informed1, n1), (2, game.informed2, n2)):
        if n > 1 and not informed:
            raise MalformedInputError(
                f"player {player} has {n} types but is uninformed; "
                "players of a multi-stage game observe their own types")
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
