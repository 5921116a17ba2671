"""Perfect Bayesian equilibria of sender-receiver games.

The sender (player 2, the user) learns a private type, then emits a
message; the receiver (player 1, the defender) observes the message,
updates her belief by Bayes' rule wherever the message has positive
marginal probability, and best-responds.  Off the equilibrium path any
belief is admissible.  The beliefs under which every action of a reply
support S is a best reply at message m form a polytope, {mu in the
simplex : mu . (U[a] - U[b]) >= 0 for a in S and every b, with ties
inside S}; :func:`_off_path_belief` decides whether it is empty with one
support-system LP and stores the prior when the prior lies in it, else
the LP's point.  Everything reported is re-verified against the exact
optimality and consistency conditions.

Mixed equilibria come from support enumeration with one feasibility LP
per side.  These LPs and the off-path ones come one at a time, and
:func:`static.support_lp` builds and solves each of them.  A
candidate is skipped without an LP when the conditional-dominance
screen of :class:`lp.DominanceScreen` proves its receiver-side LP
(sender optimality per type) infeasible.  The screen runs once before
the enumeration, as one table per sender type over all of the
receiver's support profiles (:func:`static.screen_grid`).  The
sender-side LP (receiver optimality in posterior weights) runs next.
It is not screened, because its posterior weights can be 0, but it
reads only the reply supports at the messages some type may send, so
it is solved once per (sender support profile, on-path reply supports)
pair.  The receiver-side LP runs last, only where the sender side is
feasible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (EnumerationBudgetError, FiniteDistribution,
                   MalformedInputError, _readonly)
# ``solve_lp`` is no longer called here; it stays importable by this name
# for tools that wrap ``signaling.solve_lp`` to count LP calls.
from .lp import DominanceScreen, solve_lp  # noqa: F401
from .static import screen_grid, sized_subsets, support_lp, support_of

GAP_TOL = 1e-8
_BAYES_TOL = 1e-9
_TIE_TOL = 1e-9


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
    ``beliefs[m]`` the stored belief at ``m``: the Bayes posterior on
    path; off path the prior when it sustains the reply, else a point of
    the exact region of beliefs that do (see :func:`_off_path_belief`).
    """

    receiver: np.ndarray
    sender: np.ndarray
    beliefs: np.ndarray
    off_path: tuple[int, ...]
    classification: str
    gap: float

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

    A stochastic (type, message) matrix is classified on its supports:
    identical distributions pool, pairwise-disjoint supports separate.
    A pure strategy may be given as a sequence of message indices; it is
    classified as one-hot rows over its distinct messages.
    """
    arr = np.asarray(sender, dtype=float)
    if arr.ndim == 1:
        msgs, inverse = np.unique([int(m) for m in arr], return_inverse=True)
        arr = np.eye(len(msgs))[inverse]
    rows = [arr[t] for t in range(arr.shape[0])]
    if all(np.allclose(rows[0], r, atol=1e-12) for r in rows[1:]):
        return "pooling"
    supports = [frozenset(np.flatnonzero(r > 1e-12).tolist()) for r in rows]
    disjoint = all(not (supports[i] & supports[j])
                   for i in range(len(rows)) for j in range(i + 1, len(rows)))
    if disjoint:
        return "separating"
    return "semi-separating"


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


def _off_path_belief(game: SignalingGame, message: int, support
                     ) -> np.ndarray | None:
    """A belief at ``message`` under which every action in ``support``
    is a best reply: the prior when it is one, else the point that
    :func:`support_lp` finds in the region of such beliefs (one own
    agent, the receiver at ``message``, against one opponent row, the
    type distribution), or None when that region is empty."""
    if set(support) <= receiver_best_response(game, game.prior, message):
        return np.array(game.prior.weights)
    n = game.n_types
    rows = support_lp([game.payoffs1[:, message, None, :]], [support],
                      [range(game.n_actions)], [range(n)], n)
    return None if rows is None else rows[0]


def solve_pure_pbne(game: SignalingGame) -> list[SignalingPBNE]:
    """Enumerate all pure-strategy equilibria.

    Every feasible type-to-message map is tried; receiver replies are
    enumerated over best-response ties on path and, off path, over every
    action that some belief makes a best reply, and kept when no sender
    type gains by deviating to any feasible message.
    """
    n, m2 = game.n_types, game.n_messages
    if m2 ** n > 10_000:
        raise EnumerationBudgetError(
            f"{m2}^{n} pure sender strategies exceed the enumeration budget")
    # (action, belief) pairs per message for when it is off path; they do
    # not depend on the sender map.  The prior always sustains some action.
    off_choices = [[(a, belief) for a in range(game.n_actions)
                    for belief in [_off_path_belief(game, m, (a,))] if belief is not None]
                   for m in range(m2)]

    results: list[SignalingPBNE] = []
    feasible_msgs = [tuple(int(m) for m in np.flatnonzero(game.message_mask[t]))
                     for t in range(n)]
    for sender_map in itertools.product(*feasible_msgs):
        sender = np.zeros((n, m2))
        sender[np.arange(n), sender_map] = 1.0
        # A message sent only by zero-prior types is off path too.
        posts = [posterior_from_sender(game.prior, sender, m) for m in range(m2)]
        off_path = tuple(m for m in range(m2) if posts[m] is None)
        choice_sets = [
            off_choices[m] if post is None else
            [(a, post.weights) for a in sorted(receiver_best_response(game, post, m))]
            for m, post in enumerate(posts)]

        for combo in itertools.product(*choice_sets):
            receiver = np.zeros((m2, game.n_actions))
            receiver[np.arange(m2), [a for a, _ in combo]] = 1.0
            stored = np.array([belief for _, belief in combo])
            value = _sender_values(game, receiver)
            ok = True
            for t, mm in enumerate(sender_map):
                feas = np.flatnonzero(game.message_mask[t])
                if value[t, feas].max() > value[t, mm] + _TIE_TOL:
                    ok = False
                    break
            if not ok:
                continue
            gap, bayes_err, _ = verify_pbne(game, receiver, sender, stored)
            if gap > GAP_TOL or bayes_err > _BAYES_TOL:
                continue
            results.append(SignalingPBNE(
                receiver, sender, stored, off_path, classify(list(sender_map)), gap))
    results.sort(key=lambda r: (tuple(np.argmax(r.sender, axis=1)),
                                tuple(np.argmax(r.receiver, axis=1))))
    return results


def _support_coefficients(game: SignalingGame) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' support systems in the format of :func:`support_lp`,
    one ``[own_action, opp_agent, opp_action]`` tensor per own agent.

    Receiver side (own agents: types; unknowns: replies): type t's
    payoff from message m reads only the reply row at m,
    ``coef[t, m, m, a] = payoffs2[a, m, t]``.  Sender side (own agents:
    messages; unknowns: sender rows): the receiver's payoff from action
    a at m, in unnormalized posterior weights prior(t) * sender(t, m)
    so that the conditions stay linear,
    ``coef1[m, a, t, m] = prior[t] * payoffs1[a, m, t]``.  Both tensors
    are zero off the diagonal.
    """
    n, m1, m2 = game.n_types, game.n_actions, game.n_messages
    diag = np.arange(m2)
    coef = np.zeros((n, m2, m2, m1))
    coef[:, diag, diag, :] = game.payoffs2.transpose(2, 1, 0)
    coef1 = np.zeros((m2, m1, n, m2))
    coef1[diag, :, :, diag] = (np.asarray(game.prior.weights) * game.payoffs1
                               ).transpose(1, 0, 2)
    return coef, coef1


def solve_mixed_pbne(game: SignalingGame) -> list[SignalingPBNE]:
    """Mixed equilibria by agent-form support enumeration.

    Agents are sender types and receiver information sets (messages);
    candidate supports are resolved by two decoupled feasibility LPs,
    the sender side (memoised per on-path reply supports) before the
    receiver side, and every solution is re-verified, with off-path
    responses required to be optimal under some belief.
    """
    n, m1, m2 = game.n_types, game.n_actions, game.n_messages
    if n > 3 or m1 > 3 or m2 > 3:
        raise EnumerationBudgetError(
            "mixed-equilibrium enumeration is limited to 3 types/messages/actions")
    prior = np.asarray(game.prior.weights)

    feasible = [np.flatnonzero(game.message_mask[t]).tolist() for t in range(n)]
    sender_subsets = [sized_subsets(f) for f in feasible]
    receiver_subsets = [sized_subsets(range(m1))] * m2
    coef, coef1 = _support_coefficients(game)
    screens = [DominanceScreen(coef[t], feasible[t]) for t in range(n)]

    rejected = screen_grid(screens, sender_subsets, receiver_subsets)

    results: list[SignalingPBNE] = []
    seen: set[bytes] = set()
    off_beliefs: dict[tuple, np.ndarray | None] = {}   # per (message, reply support)
    for sender_sup, row in zip(itertools.product(*sender_subsets), rejected):
        potential = sorted({m for sup in sender_sup for m in sup})
        # The sender side reads the reply supports only at messages in
        # ``potential``, so reply profiles that differ off path share it.
        senders: dict[tuple, np.ndarray | None] = {}
        for receiver_sup, skip in zip(itertools.product(*receiver_subsets), row.tolist()):
            # Both sides must be solvable.  The screen costs no LP; then
            # the memoised sender side, which is infeasible more often
            # than the screened receiver side.
            if skip:
                continue
            on_path = tuple(receiver_sup[m] for m in potential)
            if on_path not in senders:
                senders[on_path] = support_lp(coef1[potential], on_path,
                                              [range(m1)] * len(potential), sender_sup, m2)
            sender = senders[on_path]
            if sender is None:
                continue
            receiver = support_lp(coef, sender_sup, feasible, receiver_sup, m1)
            if receiver is None:
                continue
            marginals = prior @ sender
            beliefs = np.zeros((m2, n))
            off_path = []
            ok = True
            for m in range(m2):
                if marginals[m] > 1e-12:
                    beliefs[m] = prior * sender[:, m] / marginals[m]
                    continue
                off_path.append(m)
                key = (m, tuple(np.flatnonzero(receiver[m] > 1e-12).tolist()))
                if key not in off_beliefs:
                    off_beliefs[key] = _off_path_belief(game, *key)
                if off_beliefs[key] is None:
                    ok = False
                    break
                beliefs[m] = off_beliefs[key]
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
                receiver, sender, beliefs, tuple(off_path), classify(sender), gap))
    results.sort(key=lambda r: (support_of(r.sender), support_of(r.receiver)))
    return results


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
