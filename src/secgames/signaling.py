"""Perfect Bayesian equilibria of sender-receiver games.

The sender (player 2, the user) learns a private type, then emits a
message; the receiver (player 1, the defender) observes the message,
updates her belief by Bayes' rule wherever the message has positive
marginal probability, and best-responds.  Off the equilibrium path any
belief is admissible, so candidate off-path beliefs are searched over a
uniform simplex grid; everything reported is re-verified against the
exact optimality and consistency conditions, which makes the output
sound even though the grid search is not exhaustive.

Mixed equilibria come from support enumeration with one feasibility LP
per side.  The receiver-side LP (sender optimality per type) runs first
and is skipped when the conditional-dominance screen of
:class:`lp.DominanceScreen` proves it infeasible; the sender-side LP is
not screened, because its posterior weights can be 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (EnumerationBudgetError, FiniteDistribution,
                   MalformedInputError, _readonly)
from .lp import DominanceScreen, LinearProgram, solve_lp

GAP_TOL = 1e-8
_BAYES_TOL = 1e-9
_TIE_TOL = 1e-9
DEFAULT_OFF_PATH_GRID = 11


@dataclass(frozen=True)
class SignalingGame:
    """One-sided incomplete information, sender moves first.

    ``payoffs1[a1, a2, t]`` / ``payoffs2[a1, a2, t]`` give receiver and
    sender utilities; ``message_mask[t, a2]`` marks messages available
    to sender type ``t``.
    """

    types: tuple[str, ...]
    prior: FiniteDistribution
    messages: tuple[str, ...]
    actions: tuple[str, ...]
    payoffs1: np.ndarray
    payoffs2: np.ndarray
    message_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "payoffs1", _readonly(self.payoffs1))
        object.__setattr__(self, "payoffs2", _readonly(self.payoffs2))
        object.__setattr__(self, "message_mask", _readonly(self.message_mask, dtype=bool))
        n, m1, m2 = len(self.types), len(self.actions), len(self.messages)
        if self.payoffs1.shape != (m1, m2, n) or self.payoffs2.shape != (m1, m2, n):
            raise MalformedInputError("signaling payoffs must be (action, message, type)")
        if len(self.prior) != n:
            raise MalformedInputError("prior does not match type count")
        if self.message_mask.shape != (n, m2):
            raise MalformedInputError("message mask must be (type, message)")
        if not self.message_mask.any(axis=1).all():
            raise MalformedInputError("every type needs at least one feasible message")

    @property
    def n_types(self) -> int:
        return len(self.types)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_messages(self) -> int:
        return len(self.messages)


@dataclass(frozen=True)
class SignalingPBNE:
    """Strategies plus a supporting belief, with bookkeeping.

    ``receiver[m]`` is a distribution over actions at message ``m``;
    ``sender[t]`` a distribution over messages for type ``t``;
    ``beliefs[m]`` the stored belief at ``m`` (Bayes posterior on path,
    the canonical supporting belief off path).  ``supporting_beliefs``
    keeps every grid belief found to sustain each off-path response.
    """

    receiver: np.ndarray
    sender: np.ndarray
    beliefs: np.ndarray
    off_path: tuple[int, ...]
    classification: str
    gap: float
    supporting_beliefs: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "receiver", _readonly(self.receiver))
        object.__setattr__(self, "sender", _readonly(self.sender))
        object.__setattr__(self, "beliefs", _readonly(self.beliefs))


def posterior_from_sender(prior: FiniteDistribution, sender, message: int
                          ) -> FiniteDistribution | None:
    """Bayes posterior over types given one observed message.

    Returns None when the message has zero marginal probability (the
    off-path case: consistency places no restriction, the caller picks
    the belief).
    """
    p = np.asarray(prior.weights)
    s = np.asarray(sender, dtype=float)
    if s.shape[0] != p.size:
        raise MalformedInputError("sender strategy rows must match the type count")
    joint = p * s[:, message]
    total = joint.sum()
    if total <= 0.0:
        return None
    return FiniteDistribution(joint / total)


def receiver_best_response(game: SignalingGame, belief, message: int) -> set[int]:
    """Actions maximizing the belief-weighted receiver payoff at a message."""
    b = np.asarray(getattr(belief, "weights", belief), dtype=float)
    if b.size != game.n_types:
        raise MalformedInputError("belief does not match type count")
    payoffs = game.payoffs1[:, message, :] @ b
    top = payoffs.max()
    return {int(a) for a in np.flatnonzero(payoffs >= top - _TIE_TOL)}


def classify(sender) -> str:
    """pooling / separating / semi-separating, per support pattern.

    A pure strategy may be given as a sequence of message indices; a
    stochastic (type, message) matrix is classified on its supports:
    identical distributions pool, pairwise-disjoint supports separate.
    """
    arr = np.asarray(sender, dtype=float)
    if arr.ndim == 1:
        msgs = [int(m) for m in arr]
        if len(set(msgs)) == 1:
            return "pooling"
        if len(set(msgs)) == len(msgs):
            return "separating"
        return "semi-separating"
    rows = [arr[t] for t in range(arr.shape[0])]
    if all(np.allclose(rows[0], r, atol=1e-12) for r in rows[1:]):
        return "pooling"
    supports = [frozenset(np.flatnonzero(r > 1e-12).tolist()) for r in rows]
    disjoint = all(not (supports[i] & supports[j])
                   for i in range(len(rows)) for j in range(i + 1, len(rows)))
    if disjoint:
        return "separating"
    return "semi-separating"


def simplex_grid(n: int, resolution: int) -> list[np.ndarray]:
    """Uniform grid on the (n-1)-simplex with `resolution` levels per axis."""
    if resolution < 2:
        raise MalformedInputError("grid resolution must be at least 2")
    steps = resolution - 1
    out = []
    for combo in itertools.combinations_with_replacement(range(n), steps):
        w = np.zeros(n)
        for idx in combo:
            w[idx] += 1.0 / steps
        out.append(w)
    # dedupe and order deterministically
    uniq = sorted({tuple(np.round(w, 12)) for w in out})
    return [np.array(u) for u in uniq]


def _sender_values(game: SignalingGame, receiver: np.ndarray) -> np.ndarray:
    """Sender payoff table value[t, m] under a (message -> action mix) reply."""
    return np.einsum("amt,ma->tm", game.payoffs2, receiver)


def verify_pbne(game: SignalingGame, receiver: np.ndarray, sender: np.ndarray,
                beliefs: np.ndarray) -> tuple[float, float, list[str]]:
    """Re-check a candidate from scratch.

    Returns (deviation gap, worst Bayes inconsistency, notes).  The gap
    covers receiver optimality under the stored belief at every message
    and sender optimality per type against the full receiver strategy.
    """
    notes: list[str] = []
    prior = np.asarray(game.prior.weights)
    gap = 0.0
    bayes_err = 0.0
    for m in range(game.n_messages):
        marginal = float(prior @ sender[:, m])
        if marginal > 1e-12:
            post = prior * sender[:, m] / marginal
            bayes_err = max(bayes_err, float(np.abs(post - beliefs[m]).max()))
        payoffs = game.payoffs1[:, m, :] @ beliefs[m]
        best = payoffs.max()
        achieved = float(payoffs @ receiver[m])
        gap = max(gap, best - achieved)
    value = _sender_values(game, receiver)
    for t in range(game.n_types):
        feas = np.flatnonzero(game.message_mask[t])
        best = value[t, feas].max()
        achieved = float(value[t] @ sender[t])
        gap = max(gap, best - achieved)
        if sender[t][~game.message_mask[t]].sum() > 1e-12:
            notes.append(f"type {game.types[t]} uses a masked message")
    return max(0.0, gap), bayes_err, notes


def _off_path_support(game: SignalingGame, message: int, response: np.ndarray,
                      grid: list[np.ndarray]) -> list[np.ndarray]:
    """Grid beliefs under which every action in `response`'s support is optimal."""
    sup = np.flatnonzero(response > 1e-12)
    out = []
    for belief in grid:
        payoffs = game.payoffs1[:, message, :] @ belief
        top = payoffs.max()
        if np.all(payoffs[sup] >= top - _TIE_TOL):
            out.append(belief)
    return out


def _canonical_off_belief(game: SignalingGame, message: int, response: np.ndarray,
                          supporting: list[np.ndarray]) -> np.ndarray:
    """Prefer the prior as the stored off-path belief when it works."""
    prior = np.asarray(game.prior.weights)
    payoffs = game.payoffs1[:, message, :] @ prior
    sup = np.flatnonzero(response > 1e-12)
    if np.all(payoffs[sup] >= payoffs.max() - _TIE_TOL):
        return prior.copy()
    return supporting[0]


def solve_pure_pbne(game: SignalingGame, off_path_grid: int = DEFAULT_OFF_PATH_GRID
                    ) -> list[SignalingPBNE]:
    """Enumerate all pure-strategy equilibria.

    Every feasible type-to-message map is tried; receiver replies are
    enumerated over best-response ties on path and over grid-belief
    best responses off path, and kept when no sender type gains by
    deviating to any feasible message.
    """
    n, m2 = game.n_types, game.n_messages
    if m2 ** n > 10_000:
        raise EnumerationBudgetError(
            f"{m2}^{n} pure sender strategies exceed the enumeration budget")
    grid = simplex_grid(n, off_path_grid)
    prior = np.asarray(game.prior.weights)

    results: list[SignalingPBNE] = []
    feasible_msgs = [tuple(int(m) for m in np.flatnonzero(game.message_mask[t]))
                     for t in range(n)]
    for sender_map in itertools.product(*feasible_msgs):
        on_path = sorted(set(sender_map))
        off_path = [m for m in range(m2) if m not in on_path]
        beliefs = np.zeros((m2, n))
        choice_sets: list[list[tuple[int, np.ndarray, list[np.ndarray]]]] = []
        dead = False
        for m in range(m2):
            if m in on_path:
                sender_mat = np.zeros((n, m2))
                for t, mm in enumerate(sender_map):
                    sender_mat[t, mm] = 1.0
                post = posterior_from_sender(game.prior, sender_mat, m)
                beliefs[m] = post.weights
                choice_sets.append([(a, np.asarray(post.weights), [])
                                    for a in sorted(receiver_best_response(game, post, m))])
            else:
                by_action: dict[int, list[np.ndarray]] = {}
                for belief in grid:
                    for a in receiver_best_response(game, belief, m):
                        by_action.setdefault(a, []).append(belief)
                if not by_action:
                    dead = True
                    break
                choice_sets.append([
                    (a, _canonical_off_belief(game, m, _onehot(game.n_actions, a),
                                              by_action[a]), by_action[a])
                    for a in sorted(by_action)])
        if dead:
            continue

        for combo in itertools.product(*choice_sets):
            receiver = np.zeros((m2, game.n_actions))
            stored = beliefs.copy()
            supporting: dict[int, list] = {}
            for m, (a, bel, sup_list) in enumerate(combo):
                receiver[m, a] = 1.0
                stored[m] = bel
                if m not in on_path:
                    supporting[m] = [s.tolist() for s in sup_list]
            value = _sender_values(game, receiver)
            ok = True
            for t, mm in enumerate(sender_map):
                feas = np.flatnonzero(game.message_mask[t])
                if value[t, feas].max() > value[t, mm] + _TIE_TOL:
                    ok = False
                    break
            if not ok:
                continue
            sender = np.zeros((n, m2))
            for t, mm in enumerate(sender_map):
                sender[t, mm] = 1.0
            gap, bayes_err, _ = verify_pbne(game, receiver, sender, stored)
            if gap > GAP_TOL or bayes_err > _BAYES_TOL:
                continue
            results.append(SignalingPBNE(
                receiver, sender, stored, tuple(off_path),
                classify(list(sender_map)), gap, supporting))
    results.sort(key=lambda r: (tuple(np.argmax(r.sender, axis=1)),
                                tuple(np.argmax(r.receiver, axis=1))))
    return results


def _onehot(n: int, i: int) -> np.ndarray:
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _mixed_side_sender(game: SignalingGame, receiver_supports, sender_supports
                       ) -> np.ndarray | None:
    """LP for the sender strategy given both support profiles.

    Receiver optimality at potentially-on-path messages is written with
    unnormalized posterior weights prior(t) * sender(t, m), which keeps
    the conditions linear in the sender variables.
    """
    n, m2 = game.n_types, game.n_messages
    prior = np.asarray(game.prior.weights)
    var = {}
    for t in range(n):
        for m in sender_supports[t]:
            var[(t, m)] = len(var)
    n_y = len(var)
    potential = sorted({m for t in range(n) for m in sender_supports[t]})
    w_index = {m: n_y + i for i, m in enumerate(potential)}
    n_vars = n_y + len(potential)

    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for t in range(n):
        row = np.zeros(n_vars)
        for m in sender_supports[t]:
            row[var[(t, m)]] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
    for m in potential:
        sup = receiver_supports[m]
        for a in range(game.n_actions):
            row = np.zeros(n_vars)
            for t in range(n):
                if (t, m) in var:
                    row[var[(t, m)]] = prior[t] * game.payoffs1[a, m, t]
            row[w_index[m]] = -1.0
            if a in sup:
                a_eq.append(row)
                b_eq.append(0.0)
            else:
                a_ub.append(row)
                b_ub.append(0.0)
    lower = np.concatenate([np.zeros(n_y), np.full(len(potential), -np.inf)])
    sol = solve_lp(LinearProgram.build(np.zeros(n_vars), a_ub or None, b_ub or None,
                                       a_eq, b_eq, lower=lower))
    if sol.status != "optimal":
        return None
    sender = np.zeros((n, m2))
    for (t, m), col in var.items():
        sender[t, m] = max(0.0, sol.z[col])
    totals = sender.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        return None
    return sender / totals


def _mixed_side_receiver(game: SignalingGame, receiver_supports, sender_supports
                         ) -> np.ndarray | None:
    """LP for the receiver strategy: sender optimality per type."""
    m2, m1, n = game.n_messages, game.n_actions, game.n_types
    var = {}
    for m in range(m2):
        for a in receiver_supports[m]:
            var[(m, a)] = len(var)
    n_x = len(var)
    n_vars = n_x + n
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for m in range(m2):
        row = np.zeros(n_vars)
        for a in receiver_supports[m]:
            row[var[(m, a)]] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
    for t in range(n):
        feas = np.flatnonzero(game.message_mask[t])
        for m in feas:
            row = np.zeros(n_vars)
            for a in receiver_supports[m]:
                row[var[(m, a)]] = game.payoffs2[a, m, t]
            row[n_x + t] = -1.0
            if m in sender_supports[t]:
                a_eq.append(row)
                b_eq.append(0.0)
            else:
                a_ub.append(row)
                b_ub.append(0.0)
    lower = np.concatenate([np.zeros(n_x), np.full(n, -np.inf)])
    sol = solve_lp(LinearProgram.build(np.zeros(n_vars), a_ub or None, b_ub or None,
                                       a_eq, b_eq, lower=lower))
    if sol.status != "optimal":
        return None
    receiver = np.zeros((m2, m1))
    for (m, a), col in var.items():
        receiver[m, a] = max(0.0, sol.z[col])
    totals = receiver.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        return None
    return receiver / totals


def solve_mixed_pbne(game: SignalingGame, off_path_grid: int = DEFAULT_OFF_PATH_GRID
                     ) -> list[SignalingPBNE]:
    """Mixed equilibria by agent-form support enumeration.

    Agents are sender types and receiver information sets (messages);
    candidate supports are resolved by two decoupled feasibility LPs and
    every solution is re-verified, with off-path responses required to
    be optimal under some grid belief.
    """
    n, m1, m2 = game.n_types, game.n_actions, game.n_messages
    if n > 3 or m1 > 3 or m2 > 3:
        raise EnumerationBudgetError(
            "mixed-equilibrium enumeration is limited to 3 types/messages/actions")
    grid = simplex_grid(n, off_path_grid)
    prior = np.asarray(game.prior.weights)

    sender_subsets = []
    for t in range(n):
        feas = tuple(int(m) for m in np.flatnonzero(game.message_mask[t]))
        sender_subsets.append(_sized_subsets(feas))
    receiver_subsets = [_sized_subsets(tuple(range(m1))) for _ in range(m2)]
    # Type t's payoff from message m reads only the reply row at m:
    # coef[t, m, m, a] = payoffs2[a, m, t], zero off the diagonal.
    coef = np.zeros((n, m2, m2, m1))
    coef[:, np.arange(m2), np.arange(m2), :] = game.payoffs2.transpose(2, 1, 0)
    screens = [DominanceScreen(coef[t], np.flatnonzero(game.message_mask[t]))
               for t in range(n)]

    results: list[SignalingPBNE] = []
    seen: set[bytes] = set()
    for sender_sup in itertools.product(*sender_subsets):
        for receiver_sup in itertools.product(*receiver_subsets):
            # Both sides must be solvable, so the screened receiver side
            # goes first; the sender side's posterior weights can be 0
            # and are not screened.
            if any(s.rejects(own, receiver_sup) for s, own in zip(screens, sender_sup)):
                continue
            receiver = _mixed_side_receiver(game, receiver_sup, sender_sup)
            if receiver is None:
                continue
            sender = _mixed_side_sender(game, receiver_sup, sender_sup)
            if sender is None:
                continue
            marginals = prior @ sender
            beliefs = np.zeros((m2, n))
            off_path = []
            supporting: dict[int, list] = {}
            ok = True
            for m in range(m2):
                if marginals[m] > 1e-12:
                    beliefs[m] = prior * sender[:, m] / marginals[m]
                else:
                    off_path.append(m)
                    found = _off_path_support(game, m, receiver[m], grid)
                    if not found:
                        ok = False
                        break
                    beliefs[m] = _canonical_off_belief(game, m, receiver[m], found)
                    supporting[m] = [b.tolist() for b in found]
            if not ok:
                continue
            gap, bayes_err, notes = verify_pbne(game, receiver, sender, beliefs)
            if gap > GAP_TOL or bayes_err > _BAYES_TOL or notes:
                continue
            key = np.round(np.concatenate([receiver.ravel(), sender.ravel()]), 7).tobytes()
            if key in seen:
                continue
            seen.add(key)
            results.append(SignalingPBNE(
                receiver, sender, beliefs, tuple(off_path),
                classify(sender), gap, supporting))
    results.sort(key=lambda r: (_support_of(r.sender), _support_of(r.receiver)))
    return results


def _sized_subsets(items: tuple[int, ...]) -> list[tuple[int, ...]]:
    subs = []
    for r in range(1, len(items) + 1):
        subs.extend(itertools.combinations(items, r))
    return sorted(subs, key=lambda s: (len(s), s))


def _support_of(mat: np.ndarray) -> tuple:
    return tuple(tuple(int(i) for i in np.flatnonzero(row > 1e-9)) for row in mat)


def as_signaling_game(game) -> SignalingGame:
    """Lift a one-sided static Bayesian game to its signaling version:
    the typed user moves first and the defender replies after seeing
    the action."""
    if len(game.types1) != 1:
        raise MalformedInputError(
            "signaling lift needs a single defender type (one-sided information)")
    return SignalingGame(
        types=game.types2, prior=game.prior_about_2,
        messages=game.actions2, actions=game.actions1,
        payoffs1=game.payoffs1[:, :, 0, :], payoffs2=game.payoffs2[:, :, 0, :],
        message_mask=game.mask2)
