"""Perfect Bayesian equilibria of sender-receiver games.

The sender (player 2, the user) learns a private type, then emits a
message; the receiver (player 1, the defender) observes the message,
updates her belief by Bayes' rule wherever the message has positive
marginal probability, and best-responds.  Off the equilibrium path any
belief is admissible.  The beliefs under which every action of a reply
support S is a best reply at message m form a polytope, {mu in the
simplex : mu . (U[a] - U[b]) >= 0 for a in S and every b, with ties
inside S}; :func:`_off_path_beliefs` decides whether it is empty with one
support system and stores the prior when the prior lies in it, else the
system's point.  Everything reported is re-verified against the exact
optimality and consistency conditions.

Pure and mixed equilibria come from one agent-form support search
(:func:`_support_search`) with one feasibility system per side: the
mixed solver tries every nonempty support of every agent, the pure
solver only the singletons, and :func:`solve_pure_and_mixed_pbne` takes
both lists from one mixed search, whose singleton slice is the pure
search.  A search is refused when it would enumerate more than
``static.BNE_BUDGET`` support profiles (:func:`static.check_budget`).
As in :func:`static.solve_bne`, every support system, off-path ones
included, is a member of a stack (:class:`static._SupportStack`,
:func:`static.solve_supports`).  The
search walks the candidates in blocks of sender support profiles, at
most ``_BLOCK_PROFILES`` support profiles each unless one sender profile
has more, and runs each block in phases, one batch of systems each.  A
candidate is skipped without a system when the conditional-dominance
screen of :class:`lp.DominanceScreen` proves its receiver side (sender
optimality per type) infeasible.  The screen runs once before the
enumeration, as one table per sender type over all of the receiver's
support profiles (:func:`static.screen_grid`).  The sender side
(receiver optimality in posterior weights) is solved next.  It is not
screened, because its posterior weights can be 0, but it reads only the
reply supports at the messages some type may send, so it is solved once
per (sender support profile, on-path reply supports) pair.  The receiver
side is solved only where the sender side is feasible, and, after the
last block, the off-path belief systems only where both are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteDistribution, MalformedInputError, _readonly
# ``solve_lp`` is not called here.  Tools that count LP calls wrap this
# module's ``solve_lp``, so the name stays importable.
from .lp import DominanceScreen, solve_lp  # noqa: F401
from .static import (_profile_masks, _support_tables, _SupportStack, check_budget,
                     screen_grid, sized_subsets, solve_supports, support_of)

GAP_TOL = 1e-8
_BAYES_TOL = 1e-9
_TIE_TOL = 1e-9
# Support profiles in one block of the support search at most (unless one
# sender profile has more): a block's masks and keys take a few megabytes.
_BLOCK_PROFILES = 1 << 16


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
    the exact region of beliefs that do (see :func:`_off_path_beliefs`).
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


def _off_path_beliefs(game: SignalingGame, keys) -> dict:
    """Per ``(message, support)`` key, a belief at the message under
    which every action in the support is a best reply: the prior when it
    is one, else the point of the region of such beliefs that its
    support system gives (one own agent, the receiver at the message,
    against one opponent row, the type distribution), or None when that
    region is empty.  The systems of all keys are solved as one batch."""
    n, m1 = game.n_types, game.n_actions
    prior = np.array(game.prior.weights)
    out, open_keys = {}, {}
    for m, support in keys:
        if set(support) <= receiver_best_response(game, game.prior, m):
            out[m, support] = prior
        else:
            open_keys.setdefault(m, []).append(support)
    parts = [(_SupportStack([game.payoffs1[:, m, None, :]], [range(m1)]),
              _support_tables([supports], m1)[0][:, None, :],
              np.ones((len(supports), 1, n), dtype=bool))
             for m, supports in open_keys.items()]
    points = solve_supports(parts)
    for key, rows in zip([(m, s) for m, supports in open_keys.items() for s in supports],
                         points):
        out[key] = None if rows is None else rows[0]
    return out


def _support_coefficients(game: SignalingGame) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' support systems in the format of
    :class:`static._SupportStack`, one ``[own_action, opp_agent,
    opp_action]`` tensor per own agent.

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


def solve_pure_pbne(game: SignalingGame) -> list[SignalingPBNE]:
    """All pure-strategy equilibria: the singleton slice of
    :func:`_support_search`, one message per sender type and one action
    per message.

    Ties are those of the support systems: a reply is kept at an on-path
    message when it is a best reply in posterior weights, at an
    off-path message when some belief makes it one, and a sender map
    when no type gains by deviating to a feasible message, each within
    the feasibility tolerance of :func:`lp.solve_stack`.  Every result
    is then re-verified to ``GAP_TOL``.  Results come in (sender map,
    reply map) order.
    """
    return _support_search(game, largest=1)[0]


def solve_mixed_pbne(game: SignalingGame) -> list[SignalingPBNE]:
    """Mixed equilibria: :func:`_support_search` over every nonempty
    support of every agent, smallest first."""
    return _support_search(game, largest=None)[1]


def solve_pure_and_mixed_pbne(game: SignalingGame
                              ) -> tuple[list[SignalingPBNE], list[SignalingPBNE]]:
    """``(solve_pure_pbne(game), solve_mixed_pbne(game))`` from one
    search: the pure equilibria are those found from the mixed search's
    singleton support profiles, which are the pure search's candidates
    in the same order, resolved by the same systems."""
    return _support_search(game, largest=None)


def _support_search(game: SignalingGame, largest: int | None
                    ) -> tuple[list[SignalingPBNE], list[SignalingPBNE]]:
    """Equilibria by agent-form support enumeration.

    Agents are sender types and receiver information sets (messages).
    An agent's candidate supports are the nonempty subsets of its
    feasible choices with at most ``largest`` members.  Candidate
    supports are resolved by two decoupled feasibility systems, the
    sender side (one per sender support profile and on-path reply
    supports) before the receiver side, and every solution is
    re-verified, with off-path responses required to be optimal under
    some belief.  Returns the equilibria found from candidates whose
    supports are all singletons, then all equilibria, each list
    deduplicated on its own and in support order.
    """
    n, m1, m2 = game.n_types, game.n_actions, game.n_messages
    prior = np.asarray(game.prior.weights)

    feasible = [np.flatnonzero(game.message_mask[t]).tolist() for t in range(n)]
    check_budget([len(f) for f in feasible] + [m1] * m2, largest)
    sender_subsets = [sized_subsets(f, largest) for f in feasible]
    receiver_subsets = [sized_subsets(range(m1), largest)] * m2
    coef, coef1 = _support_coefficients(game)
    screens = [DominanceScreen(coef[t], feasible[t]) for t in range(n)]

    rejected = screen_grid(screens, sender_subsets, receiver_subsets)
    sender_tables = _support_tables(sender_subsets, m2)
    reply_tables = _support_tables(receiver_subsets, m1)
    n_replies, shape = rejected.shape[1], [len(t) for t in reply_tables]
    # The unscreened candidates in search order, as support masks, one
    # block of sender profiles at a time, so that memory is bounded by a
    # block and not by the search.
    step = max(1, _BLOCK_PROFILES // n_replies)
    survivors = []
    for block in np.split(np.arange(len(rejected)), range(step, len(rejected), step)):
        local, reply_profile = np.divmod(np.flatnonzero(~rejected[block].ravel()), n_replies)
        senders = _profile_masks(sender_tables, block[local])
        replies = _profile_masks(reply_tables, reply_profile)
        single = (senders.sum(axis=2) == 1).all(axis=1) & (replies.sum(axis=2) == 1).all(axis=1)

        # The sender side reads the reply supports only at the messages
        # some type may send, a set that the sender profile fixes, so
        # candidates that differ off path share a system: one per sender
        # profile and reply profile with the off-path supports numbered 0.
        # Keys stay below the block's count of support profiles.
        sets, set_of = np.unique(_profile_masks(sender_tables, block).any(axis=1), axis=0,
                                 return_inverse=True)
        on_path = np.ravel_multi_index(
            np.multiply(np.unravel_index(reply_profile, shape), sets[set_of[local]].T), shape)
        _, first, system = np.unique(local * n_replies + on_path,
                                     return_index=True, return_inverse=True)
        # The side's own agents are those messages: one builder per set.
        group = set_of[local[first]]
        parts = []
        for g, messages in enumerate(map(np.flatnonzero, sets)):
            rep = first[group == g]
            parts.append((_SupportStack(coef1[messages], [range(m1)] * len(messages)),
                          replies[rep][:, messages], senders[rep]))
        sender_rows = dict(zip(np.argsort(group, kind="stable").tolist(), solve_supports(parts)))

        # The receiver side where the sender side is feasible.
        live = [k for k, u in enumerate(system) if sender_rows[u] is not None]
        receiver_rows = solve_supports([(_SupportStack(coef, feasible),
                                         senders[live], replies[live])])
        for k, receiver in zip(live, receiver_rows):
            if receiver is None:
                continue
            sender = sender_rows[system[k]]
            marginals = prior @ sender
            off_keys = [(m, tuple(np.flatnonzero(receiver[m] > 1e-12).tolist()))
                        for m in range(m2) if marginals[m] <= 1e-12]
            survivors.append((sender, receiver, marginals, off_keys, single[k]))
    off_beliefs = _off_path_beliefs(game, dict.fromkeys(
        key for *_, off_keys, _ in survivors for key in off_keys))

    pure, mixed = ([], set()), ([], set())    # (results, seen keys) each
    for sender, receiver, marginals, off_keys, single in survivors:
        if any(off_beliefs[key] is None for key in off_keys):
            continue
        beliefs = np.zeros((m2, n))
        for m in range(m2):
            if marginals[m] > 1e-12:
                beliefs[m] = prior * sender[:, m] / marginals[m]
        for m, support in off_keys:
            beliefs[m] = off_beliefs[m, support]
        gap, bayes_err, notes = verify_pbne(game, receiver, sender, beliefs)
        if gap > GAP_TOL or bayes_err > _BAYES_TOL or notes:
            continue
        key = np.round(np.concatenate([receiver.ravel(), sender.ravel()]), 7).tobytes()
        result = SignalingPBNE(receiver, sender, beliefs, tuple(m for m, _ in off_keys),
                               classify(sender), gap)
        for results, seen in ((pure, mixed) if single else (mixed,)):
            if key not in seen:
                seen.add(key)
                results.append(result)
    return tuple(sorted(results, key=lambda r: (support_of(r.sender), support_of(r.receiver)))
                 for results, _ in (pure, mixed))


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
