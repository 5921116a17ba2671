"""Sender-receiver equilibria: consistency, optimality, classification."""

import itertools

import numpy as np
import pytest

from secgames.core import EnumerationBudgetError, FiniteDistribution, MalformedInputError
from secgames.signaling import (_TIE_TOL, SignalingGame, _off_path_beliefs,
                                as_signaling_game, classify, posterior_from_sender,
                                receiver_best_response, solve_mixed_pbne,
                                solve_pure_and_mixed_pbne, solve_pure_pbne, verify_pbne)
from secgames.scenarios import build_static_bayesian
from tests.scalar_lp import support_lp


def escalation_signaling(r0=1.0, r1=1.0, r2=1.0, prior=0.5) -> SignalingGame:
    return as_signaling_game(build_static_bayesian(r0, r1, r2, prior))


class TestPosterior:
    def test_type_independent_strategy_preserves_prior(self):
        prior = FiniteDistribution([0.5, 0.5])
        sender = np.array([[1.0, 0.0], [1.0, 0.0]])
        post = posterior_from_sender(prior, sender, 0)
        np.testing.assert_allclose(post.weights, [0.5, 0.5])

    def test_hand_bayes(self):
        prior = FiniteDistribution([0.5, 0.5])
        sender = np.array([[1.0, 0.0], [0.5, 0.5]])
        post = posterior_from_sender(prior, sender, 0)
        np.testing.assert_allclose(post.weights, [2 / 3, 1 / 3], atol=1e-12)

    def test_separating_degenerate(self):
        prior = FiniteDistribution([0.5, 0.5])
        sender = np.array([[1.0, 0.0], [0.0, 1.0]])
        post = posterior_from_sender(prior, sender, 1)
        np.testing.assert_allclose(post.weights, [0.0, 1.0])

    def test_off_path_marker(self):
        prior = FiniteDistribution([0.5, 0.5])
        sender = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert posterior_from_sender(prior, sender, 1) is None


class TestReceiverBestResponse:
    def test_adversarial_belief_restricts(self):
        g = escalation_signaling()
        assert receiver_best_response(g, [1.0, 0.0], message=1) == {1}

    def test_legitimate_belief_permits(self):
        g = escalation_signaling()
        assert receiver_best_response(g, [0.0, 1.0], message=1) == {0}

    def test_zero_payoffs_full_tie(self):
        g = SignalingGame(("a", "b"), FiniteDistribution([0.5, 0.5]),
                          ("m0", "m1"), ("x", "y"),
                          np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
                          np.ones((2, 2), bool))
        assert receiver_best_response(g, [0.5, 0.5], 0) == {0, 1}


class TestClassify:
    def test_pure_patterns(self):
        assert classify([0, 0]) == "pooling"
        assert classify([0, 1]) == "separating"
        assert classify([0, 0, 1]) == "semi-separating"

    def test_pure_patterns_with_gaps_in_message_indices(self):
        assert classify([2, 2]) == "pooling"
        assert classify([0, 2]) == "separating"
        assert classify([5, 5, 0]) == "semi-separating"

    def test_mixed_patterns(self):
        assert classify(np.array([[0.5, 0.5], [0.5, 0.5]])) == "pooling"
        assert classify(np.array([[1.0, 0.0], [0.0, 1.0]])) == "separating"
        assert classify(np.array([[0.5, 0.5], [0.0, 1.0]])) == "semi-separating"

    def test_partition_on_exhaustive_two_by_two(self):
        # every pure 2-type -> 2-message map gets exactly one label
        for m0, m1 in itertools.product(range(2), range(2)):
            label = classify([m0, m1])
            expected = "pooling" if m0 == m1 else "separating"
            assert label == expected


class TestPurePbne:
    def test_escalation_equilibria_verified(self):
        g = escalation_signaling()
        found = solve_pure_pbne(g)
        assert found
        for r in found:
            gap, bayes_err, notes = verify_pbne(g, r.receiver, r.sender, r.beliefs)
            assert gap <= 1e-8
            assert bayes_err <= 1e-9
            assert not notes
            assert r.classification == "pooling"

    def test_dominant_message_pooling_exists(self):
        # message 1 strictly dominant for every sender type
        p1 = np.zeros((2, 2, 2))
        p2 = np.zeros((2, 2, 2))
        p2[:, 1, :] = 5.0
        g = SignalingGame(("t0", "t1"), FiniteDistribution([0.5, 0.5]),
                          ("m0", "m1"), ("x", "y"), p1, p2,
                          np.ones((2, 2), bool))
        found = solve_pure_pbne(g)
        assert any(r.classification == "pooling"
                   and np.allclose(r.sender[:, 1], 1.0) for r in found)

    def test_cheap_talk_babbling_present(self):
        # payoffs ignore the message entirely; pooling must survive
        rng = np.random.default_rng(3)
        base1 = rng.normal(size=(2, 1, 2))
        base2 = rng.normal(size=(2, 1, 2))
        p1 = np.repeat(base1, 2, axis=1)
        p2 = np.repeat(base2, 2, axis=1)
        g = SignalingGame(("t0", "t1"), FiniteDistribution([0.4, 0.6]),
                          ("m0", "m1"), ("x", "y"), p1, p2,
                          np.ones((2, 2), bool))
        found = solve_pure_pbne(g)
        assert any(r.classification == "pooling" for r in found)

    def test_off_path_beliefs_recorded(self):
        g = escalation_signaling()
        for r in solve_pure_pbne(g):
            for m in r.off_path:
                reply = int(np.argmax(r.receiver[m]))
                assert reply in receiver_best_response(g, r.beliefs[m], m)

    def test_belief_band_missed_by_a_coarse_grid(self):
        # a2 is a best reply at m1 only when P(t0) is in [0.31, 0.39],
        # a band with no point of an 11-point grid; the sender gets 1 at
        # m0, and at m1 gets 2 under a0 or a1 and 0 under a2
        p1 = np.zeros((3, 2, 2))
        p1[0, 1], p1[1, 1] = [6.1, -3.9], [-6.9, 3.1]
        p2 = np.zeros((3, 2, 2))
        p2[:, 0, :] = 1.0
        p2[:2, 1, :] = 2.0
        g = SignalingGame(("t0", "t1"), FiniteDistribution([0.5, 0.5]),
                          ("m0", "m1"), ("a0", "a1", "a2"), p1, p2,
                          np.ones((2, 2), bool))
        found = solve_pure_pbne(g)
        assert {(tuple(np.argmax(r.sender, axis=1)), int(np.argmax(r.receiver[1])))
                for r in found} == {((0, 0), 2), ((1, 1), 0)}
        for r in found:
            if r.off_path == (1,):
                assert 0.31 - 1e-9 <= r.beliefs[1, 0] <= 0.39 + 1e-9
            gap, bayes_err, notes = verify_pbne(g, r.receiver, r.sender, r.beliefs)
            assert gap <= 1e-8 and bayes_err <= 1e-9 and not notes

    def test_separating_posteriors_degenerate(self):
        # each type has a dominant own message; receiver learns the type
        p1 = np.zeros((2, 2, 2))
        p1[0, 0, 0] = 1.0   # action x best against type t0
        p1[1, 1, 1] = 1.0   # action y best against type t1
        p2 = np.zeros((2, 2, 2))
        p2[:, 0, 0] = 3.0   # t0 strictly prefers m0
        p2[:, 1, 1] = 3.0   # t1 strictly prefers m1
        g = SignalingGame(("t0", "t1"), FiniteDistribution([0.5, 0.5]),
                          ("m0", "m1"), ("x", "y"), p1, p2,
                          np.ones((2, 2), bool))
        found = solve_pure_pbne(g)
        seps = [r for r in found if r.classification == "separating"]
        assert seps
        for r in seps:
            for t in range(2):
                m = int(np.argmax(r.sender[t]))
                assert r.beliefs[m, t] == pytest.approx(1.0, abs=1e-9)

    def test_budget(self):
        p1 = np.zeros((2, 4, 8))
        p2 = np.zeros((2, 4, 8))
        g = SignalingGame(tuple(f"t{i}" for i in range(8)),
                          FiniteDistribution(np.full(8, 0.125)),
                          tuple(f"m{i}" for i in range(4)), ("x", "y"),
                          p1, p2, np.ones((8, 4), bool))
        # 4**8 sender maps times 2**4 replies: 1,048,576 support profiles
        with pytest.raises(EnumerationBudgetError):
            solve_pure_pbne(g)


class TestMixedPbne:
    def test_contains_all_pure(self):
        g = escalation_signaling()
        pure = solve_pure_pbne(g)
        mixed = solve_mixed_pbne(g)
        for p in pure:
            assert any(np.allclose(m.sender, p.sender, atol=1e-9)
                       and np.allclose(m.receiver, p.receiver, atol=1e-9)
                       for m in mixed), p

    def test_all_verified(self):
        g = escalation_signaling(r0=2.0, r1=1.0, r2=3.0, prior=0.4)
        for r in solve_mixed_pbne(g):
            gap, bayes_err, notes = verify_pbne(g, r.receiver, r.sender, r.beliefs)
            assert gap <= 1e-8 and bayes_err <= 1e-9 and not notes

    def test_uninformative_receiver_payoffs_force_uniform_receiver(self):
        # receiver payoffs are flat (she is willing to mix anything);
        # both sender types bet on her reply to m0 with opposite signs,
        # so sender indifference pins the m0 reply at exactly 50/50
        p1 = np.zeros((2, 2, 2))
        p2 = np.zeros((2, 2, 2))
        p2[0, 0, 0], p2[1, 0, 0] = 1.0, -1.0
        p2[0, 0, 1], p2[1, 0, 1] = -1.0, 1.0
        g = SignalingGame(("t0", "t1"), FiniteDistribution([0.5, 0.5]),
                          ("m0", "m1"), ("x", "y"), p1, p2,
                          np.ones((2, 2), bool))
        mixed = solve_mixed_pbne(g)
        assert any(np.allclose(r.receiver[0], [0.5, 0.5], atol=1e-9)
                   and 0 not in r.off_path for r in mixed)

    def test_single_type_sender_matches_stackelberg(self):
        # sender leads: its best message given the receiver's informed reply
        p1 = np.array([[[2.0], [0.0]],    # receiver prefers x after m0 ...
                       [[1.0], [3.0]]])   # ... and y after m1
        p2 = np.array([[[1.0], [4.0]],
                       [[2.0], [0.0]]])
        g = SignalingGame(("only",), FiniteDistribution([1.0]),
                          ("m0", "m1"), ("x", "y"), p1, p2,
                          np.ones((1, 2), bool))
        # backward induction: reply to m0 is x (2>1) -> sender gets 1;
        # reply to m1 is y (3>0) -> sender gets 0; leader picks m0
        found = solve_pure_pbne(g)
        assert found
        for r in found:
            assert np.argmax(r.sender[0]) == 0
            value = float(r.sender[0] @ (r.receiver * np.stack(
                [p2[:, m, 0] for m in range(2)])).sum(axis=1))
            assert value == pytest.approx(1.0, abs=1e-9)
        mixed = solve_mixed_pbne(g)
        assert any(np.argmax(r.sender[0]) == 0 for r in mixed)


class TestLift:
    def test_two_sided_game_rejected(self):
        from secgames.scenarios import build_exercise_qb
        with pytest.raises(MalformedInputError):
            as_signaling_game(build_exercise_qb("p1-informed"))


class TestZeroPriorType:
    """A message sent only by zero-prior types has no Bayes posterior:
    it is off path, as verify_pbne and the mixed solver treat it."""

    @staticmethod
    def _own_message_game():
        # t0 (prior 1) prefers m0 and t1 (prior 0) prefers m1 whatever
        # the reply, so "each type sends its own message" is a PBNE in
        # which m1 is sent, but only by a zero-prior type
        p1 = np.zeros((2, 2, 2))
        p1[0, :, 0] = p1[1, :, 1] = 1.0
        p2 = np.zeros((2, 2, 2))
        p2[:, 0, 0] = p2[:, 1, 1] = 1.0
        return SignalingGame(("t0", "t1"), FiniteDistribution([1.0, 0.0]),
                             ("m0", "m1"), ("x", "y"), p1, p2,
                             np.ones((2, 2), bool))

    @pytest.mark.parametrize("which", ["own-message", "escalation"])
    def test_pure_and_mixed_verified(self, which):
        g = (self._own_message_game() if which == "own-message"
             else escalation_signaling(prior=1.0))   # legitimate type: prior 0
        pure = solve_pure_pbne(g)
        mixed = solve_mixed_pbne(g)
        assert pure
        for r in pure + mixed:
            gap, bayes_err, notes = verify_pbne(g, r.receiver, r.sender, r.beliefs)
            assert gap <= 1e-8 and bayes_err <= 1e-9 and not notes
        for p in pure:
            assert any(np.allclose(m.sender, p.sender, atol=1e-9)
                       and np.allclose(m.receiver, p.receiver, atol=1e-9)
                       for m in mixed), p
        if which == "own-message":
            assert any(r.sender[1, 1] == 1.0 and r.off_path == (1,) for r in pure)


def _random_signaling(seed, n, m2, m1, zero_prior=False) -> SignalingGame:
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 4, size=n).astype(float)
    if zero_prior:
        weights[0] = 0.0
    mask = np.ones((n, m2), bool)
    mask[-1, rng.integers(m2)] = False    # one type loses a message
    return SignalingGame(tuple(f"t{i}" for i in range(n)),
                         FiniteDistribution(weights / weights.sum()),
                         tuple(f"m{i}" for i in range(m2)),
                         tuple(f"a{i}" for i in range(m1)),
                         rng.integers(-3, 4, size=(m1, m2, n)).astype(float),
                         rng.integers(-3, 4, size=(m1, m2, n)).astype(float), mask)


def _highs_feasible(n_y, n_v, a_eq, b_eq, a_ub) -> bool:
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.linprog(np.zeros(n_y + n_v), A_ub=np.reshape(a_ub, (-1, n_y + n_v)),
                           b_ub=np.zeros(len(a_ub)), A_eq=a_eq, b_eq=b_eq,
                           bounds=[(0, None)] * n_y + [(None, None)] * n_v,
                           method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def _receiver_side_oracle(g, sender_sup, receiver_sup) -> bool:
    """Replies on their supports under which each type's support ties at
    the best feasible message payoff."""
    var = {(m, a): i for i, (m, a) in enumerate(
        (m, a) for m in range(g.n_messages) for a in receiver_sup[m])}
    n_y = len(var)
    a_eq = [[float(vm == m) for vm, _ in var] + [0.0] * g.n_types
            for m in range(g.n_messages)]
    b_eq = [1.0] * g.n_messages
    a_ub = []
    for t in range(g.n_types):
        for m in np.flatnonzero(g.message_mask[t]):
            row = np.zeros(n_y + g.n_types)
            for a in receiver_sup[m]:
                row[var[(m, a)]] = g.payoffs2[a, m, t]
            row[n_y + t] = -1.0
            if m in sender_sup[t]:
                a_eq.append(row)
                b_eq.append(0.0)
            else:
                a_ub.append(row)
    return _highs_feasible(n_y, g.n_types, a_eq, b_eq, a_ub)


def _sender_side_oracle(g, sender_sup, receiver_sup) -> bool:
    """Sender rows on their supports under which, in prior-weighted
    (unnormalized) posteriors, each reply support ties at the best
    action at every message some type may send."""
    prior = np.asarray(g.prior.weights)
    var = {(t, m): i for i, (t, m) in enumerate(
        (t, m) for t in range(g.n_types) for m in sender_sup[t])}
    potential = sorted({m for sup in sender_sup for m in sup})
    n_y, n_v = len(var), len(potential)
    a_eq = [[float(vt == t) for vt, _ in var] + [0.0] * n_v for t in range(g.n_types)]
    b_eq = [1.0] * g.n_types
    a_ub = []
    for i, m in enumerate(potential):
        for a in range(g.n_actions):
            row = np.zeros(n_y + n_v)
            for t in range(g.n_types):
                if (t, m) in var:
                    row[var[(t, m)]] = prior[t] * g.payoffs1[a, m, t]
            row[n_y + i] = -1.0
            if a in receiver_sup[m]:
                a_eq.append(row)
                b_eq.append(0.0)
            else:
                a_ub.append(row)
    return _highs_feasible(n_y, n_v, a_eq, b_eq, a_ub)


def _check_rows(rows, supports, count):
    assert rows.shape == (len(supports), count)
    assert (rows >= 0).all()
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-8)
    for row, sup in zip(rows, supports):
        assert not np.delete(row, list(sup)).any()


def _check_ties(values, support, feasible):
    top = values[list(support)].max()
    assert values[list(support)].min() >= top - 1e-8
    assert values[list(feasible)].max() <= top + 1e-8


@pytest.mark.parametrize("seed,shape,zero_prior", [
    (0, (2, 2, 2), False), (1, (2, 2, 3), False), (2, (3, 2, 2), True)])
def test_support_lp_matches_highs_on_both_sides(seed, shape, zero_prior):
    from secgames.signaling import _support_coefficients
    from secgames.static import sized_subsets
    g = _random_signaling(seed, *shape, zero_prior=zero_prior)
    n, m2, m1 = shape
    prior = np.asarray(g.prior.weights)
    coef, coef1 = _support_coefficients(g)
    feasible = [np.flatnonzero(g.message_mask[t]) for t in range(n)]
    sender_subsets = [sized_subsets(f.tolist()) for f in feasible]
    verdicts = set()
    for sender_sup in itertools.product(*sender_subsets):
        potential = sorted({m for sup in sender_sup for m in sup})
        for receiver_sup in itertools.product(*[sized_subsets(range(m1))] * m2):
            receiver = support_lp(coef, sender_sup, feasible, receiver_sup, m1)
            assert (receiver is not None) == _receiver_side_oracle(
                g, sender_sup, receiver_sup)
            if receiver is not None:
                _check_rows(receiver, receiver_sup, m1)
                values = np.einsum("amt,ma->tm", g.payoffs2, receiver)
                for t in range(n):
                    _check_ties(values[t], sender_sup[t], feasible[t])
            sender = support_lp(coef1[potential], [receiver_sup[m] for m in potential],
                                [range(m1)] * len(potential), sender_sup, m2)
            assert (sender is not None) == _sender_side_oracle(
                g, sender_sup, receiver_sup)
            if sender is not None:
                _check_rows(sender, sender_sup, m2)
                weighted = np.einsum("amt,t,tm->ma", g.payoffs1, prior, sender)
                for m in potential:
                    _check_ties(weighted[m], receiver_sup[m], range(m1))
            verdicts.add(("receiver", receiver is None))
            verdicts.add(("sender", sender is None))
    assert len(verdicts) == 4    # both sides are feasible and infeasible somewhere


def _region_oracle(g, m, support) -> bool:
    """HiGHS verdict on the beliefs under which every action in `support`
    is a best reply at message m."""
    optimize = pytest.importorskip("scipy.optimize")
    u = g.payoffs1[:, m, :]
    a_ub = [u[b] - u[a] for a in support for b in range(g.n_actions)]
    a_eq = [np.ones(g.n_types)] + [u[a] - u[support[0]] for a in support[1:]]
    res = optimize.linprog(np.zeros(g.n_types), A_ub=a_ub, b_ub=np.zeros(len(a_ub)),
                           A_eq=a_eq, b_eq=[1.0] + [0.0] * (len(a_eq) - 1),
                           bounds=[(0, None)] * g.n_types, method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


@pytest.mark.parametrize("seed", range(20))
def test_off_path_belief_matches_highs(seed):
    from secgames.static import sized_subsets
    n = 2 + seed % 2
    rng = np.random.default_rng(seed)
    weights = rng.random(n) + 0.1
    weights[rng.integers(n)] = 0.0          # one zero-prior type
    shape = (3, 2, n)
    if seed % 4 < 2:
        p1 = rng.integers(-3, 4, size=shape).astype(float)
    else:
        p1 = rng.normal(size=shape)
    g = SignalingGame(tuple(f"t{i}" for i in range(n)),
                      FiniteDistribution(weights / weights.sum()),
                      ("m0", "m1"), ("a0", "a1", "a2"), p1, np.zeros(shape),
                      np.ones((n, 2), bool))
    keys = [(m, support) for m in range(2) for support in sized_subsets(range(3))]
    beliefs = _off_path_beliefs(g, keys)
    for m, support in keys:
        belief = beliefs[m, support]
        assert (belief is not None) == _region_oracle(g, m, support), (m, support)
        if belief is None:
            continue
        assert belief.shape == (n,) and (belief >= 0).all()
        assert belief.sum() == pytest.approx(1.0, abs=1e-12)
        values = g.payoffs1[:, m, :] @ belief
        assert values[list(support)].min() >= values.max() - _TIE_TOL


def _map_loop_pure_pbne(game):
    """Reference enumeration of the pure equilibria: every feasible
    type-to-message map, then every reply that is a best response (ties
    within ``_TIE_TOL``) under the Bayes posterior on path or under some
    belief off path, kept when no sender type gains by deviating."""
    from secgames.signaling import _BAYES_TOL, GAP_TOL, SignalingPBNE, _sender_values
    n, m1, m2 = game.n_types, game.n_actions, game.n_messages
    beliefs = _off_path_beliefs(game, [(m, (a,)) for m in range(m2) for a in range(m1)])
    off_choices = [[(a, beliefs[m, (a,)]) for a in range(m1) if beliefs[m, (a,)] is not None]
                   for m in range(m2)]
    results = []
    feasible_msgs = [np.flatnonzero(game.message_mask[t]).tolist() for t in range(n)]
    for sender_map in itertools.product(*feasible_msgs):
        sender = np.zeros((n, m2))
        sender[np.arange(n), sender_map] = 1.0
        posts = [posterior_from_sender(game.prior, sender, m) for m in range(m2)]
        off_path = tuple(m for m in range(m2) if posts[m] is None)
        choice_sets = [
            off_choices[m] if post is None else
            [(a, post.weights) for a in sorted(receiver_best_response(game, post, m))]
            for m, post in enumerate(posts)]
        for combo in itertools.product(*choice_sets):
            receiver = np.zeros((m2, m1))
            receiver[np.arange(m2), [a for a, _ in combo]] = 1.0
            stored = np.array([belief for _, belief in combo])
            value = _sender_values(game, receiver)
            if any(value[t, feasible_msgs[t]].max() > value[t, mm] + _TIE_TOL
                   for t, mm in enumerate(sender_map)):
                continue
            gap, bayes_err, _ = verify_pbne(game, receiver, sender, stored)
            if gap > GAP_TOL or bayes_err > _BAYES_TOL:
                continue
            results.append(SignalingPBNE(
                receiver, sender, stored, off_path, classify(list(sender_map)), gap))
    results.sort(key=lambda r: (tuple(np.argmax(r.sender, axis=1)),
                                tuple(np.argmax(r.receiver, axis=1))))
    return results


def _scalar_off_path_belief(game, message, support):
    """The off-path belief of ``_off_path_beliefs``, one system at a time
    on the scalar reference path."""
    if set(support) <= receiver_best_response(game, game.prior, message):
        return np.array(game.prior.weights)
    rows = support_lp([game.payoffs1[:, message, None, :]], [support],
                      [range(game.n_actions)], [range(game.n_types)], game.n_types)
    return None if rows is None else rows[0]


def _receiver_first_mixed_pbne(game):
    """Reference enumeration: the mixed solver one candidate at a time,
    with the receiver-side LP first, no memo of the sender side, and
    every LP on the scalar reference path."""
    from secgames.lp import DominanceScreen
    from secgames.signaling import (_BAYES_TOL, GAP_TOL, SignalingPBNE,
                                    _support_coefficients)
    from secgames.static import screen_grid, sized_subsets, support_of
    n, m1, m2 = game.n_types, game.n_actions, game.n_messages
    prior = np.asarray(game.prior.weights)
    feasible = [np.flatnonzero(game.message_mask[t]).tolist() for t in range(n)]
    sender_subsets = [sized_subsets(f) for f in feasible]
    receiver_subsets = [sized_subsets(range(m1))] * m2
    coef, coef1 = _support_coefficients(game)
    screens = [DominanceScreen(coef[t], feasible[t]) for t in range(n)]
    rejected = screen_grid(screens, sender_subsets, receiver_subsets)
    results, seen, off_beliefs = [], set(), {}
    for sender_sup, row in zip(itertools.product(*sender_subsets), rejected):
        potential = sorted({m for sup in sender_sup for m in sup})
        for receiver_sup, skip in zip(itertools.product(*receiver_subsets), row.tolist()):
            if skip:
                continue
            receiver = support_lp(coef, sender_sup, feasible, receiver_sup, m1)
            if receiver is None:
                continue
            sender = support_lp(coef1[potential], [receiver_sup[m] for m in potential],
                                [range(m1)] * len(potential), sender_sup, m2)
            if sender is None:
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
                    off_beliefs[key] = _scalar_off_path_belief(game, *key)
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


# (types, messages, actions, zero-prior type).  As (defender, user)
# games: 2x3 with 1x2 types, 2x2 with 1x3, 3x2 with 1x2 plus a
# zero-prior type, 3x3 with 1x3, 2x2 with 1x4 and 2x4 with 1x2.
_REFERENCE_CASES = ([(seed, (2, 3, 2, False)) for seed in range(5)]
                    + [(seed, (3, 2, 2, False)) for seed in range(5)]
                    + [(seed, (2, 2, 3, True)) for seed in range(5)]
                    + [(7, (3, 3, 3, False))]
                    + [(seed, (4, 2, 2, False)) for seed in range(2)]
                    + [(seed, (2, 4, 2, False)) for seed in range(2)])


def _spy_on_stacks(monkeypatch):
    """Records every ``static.solve_stack`` call as ``(phase, systems)``:
    phase i counts the ``signaling.solve_supports`` calls made so far, and
    a member system is its rows up to its last nonzero column, its
    right-hand side and its counts, so that padding does not count."""
    from secgames import signaling, static
    solve_supports, solve_stack = signaling.solve_supports, static.solve_stack
    phase, stacks = [0], []

    def supports_spy(parts):
        phase[0] += 1
        return solve_supports(parts)

    def stack_spy(body, rhs, ready, n_rows, n_cols):
        systems = []
        for k in range(len(body)):
            rows = body[k, :n_rows[k]]
            width = np.flatnonzero(rows.any(axis=0))[-1] + 1
            systems.append((int(n_rows[k]), int(n_cols[k]), rows[:, :width].tobytes(),
                            rhs[k, :n_rows[k]].tobytes()))
        stacks.append((phase[0], systems))
        return solve_stack(body, rhs, ready, n_rows, n_cols)

    monkeypatch.setattr(signaling, "solve_supports", supports_spy)
    monkeypatch.setattr(static, "solve_stack", stack_spy)
    return stacks


@pytest.mark.parametrize("seed,shape", _REFERENCE_CASES)
def test_mixed_pbne_matches_receiver_first_reference(monkeypatch, seed, shape):
    from secgames.static import _STACK_SYSTEMS
    *dims, zero_prior = shape
    g = _random_signaling(seed, *dims, zero_prior=zero_prior)
    stacks = _spy_on_stacks(monkeypatch)
    found = solve_mixed_pbne(g)
    expected = _receiver_first_mixed_pbne(g)
    assert len(found) == len(expected)
    for r, e in zip(found, expected):
        assert np.array_equal(r.receiver, e.receiver)
        assert np.array_equal(r.sender, e.sender)
        assert np.array_equal(r.beliefs, e.beliefs)
        assert (r.off_path, r.classification, r.gap) == (e.off_path, e.classification, e.gap)
    # No stack exceeds the cap; the largest game's sender side fills some.
    largest = max(len(systems) for _, systems in stacks)
    assert largest <= _STACK_SYSTEMS
    if shape == (3, 3, 3, False):
        assert largest == _STACK_SYSTEMS


def test_sender_side_lp_is_solved_once_per_on_path_reply_supports(monkeypatch):
    g = _random_signaling(0, 2, 3, 2)
    stacks = _spy_on_stacks(monkeypatch)
    found = solve_mixed_pbne(g)
    assert len(found) == len(_receiver_first_mixed_pbne(g)) > 0
    # No system, the sender side's (sender support profile, on-path
    # reply supports) among them, is solved twice.
    systems = [system for _, members in stacks for system in members]
    assert len(set(systems)) == len(systems)
    # Phase 1 is the sender side, phase 2 the receiver side of the
    # sender-feasible candidates, phase 3 the off-path beliefs.
    counts = [sum(len(members) for phase, members in stacks if phase == i) for i in (1, 2, 3)]
    assert counts == [9, 3, 1]


def _assert_pure_matches_map_loop(g):
    found, expected = solve_pure_pbne(g), _map_loop_pure_pbne(g)
    assert len(found) == len(expected)
    # On path the search divides by the marginal prior @ sender, the
    # loop by the sum of prior * sender.  From 4 types on, the two sums
    # may round apart by an ulp, and so may the gap that verify_pbne
    # computes under those beliefs.
    tol = 1e-15 if g.n_types >= 4 else 0.0
    for r, e in zip(found, expected):
        assert np.array_equal(r.receiver, e.receiver)
        assert np.array_equal(r.sender, e.sender)
        assert (r.off_path, r.classification) == (e.off_path, e.classification)
        off = list(r.off_path)
        on = [m for m in range(g.n_messages) if m not in r.off_path]
        assert np.array_equal(r.beliefs[off], e.beliefs[off])
        assert np.abs(r.beliefs[on] - e.beliefs[on]).max(initial=0.0) <= tol
        assert abs(r.gap - e.gap) <= tol


@pytest.mark.parametrize("shape", [(2, 3, 2, False), (3, 2, 3, True), (3, 3, 3, False),
                                   (4, 2, 3, False), (4, 3, 2, True), (5, 2, 2, False)])
def test_pure_pbne_matches_map_loop(shape):
    *dims, zero_prior = shape
    for seed in range(5):
        _assert_pure_matches_map_loop(_random_signaling(seed, *dims, zero_prior=zero_prior))


def test_pure_pbne_with_many_replies_matches_map_loop():
    # 2 messages x 32 actions: more (message, action) pairs than an int64
    # has bits, in 2**3 * 32**2 = 8,192 support profiles.
    for seed in range(2):
        _assert_pure_matches_map_loop(_random_signaling(seed, 3, 2, 32))


@pytest.mark.parametrize("block", [1, 100])
def test_search_blocks_do_not_change_results(monkeypatch, block):
    # Blocks of one sender profile, and blocks smaller than one sender
    # profile's reply profiles, give the results of one block.
    from secgames import signaling
    games = [_random_signaling(seed, *shape, zero_prior=z)
             for seed, (*shape, z) in enumerate([(2, 3, 2, False), (3, 2, 3, True)])]
    whole = [(solve_pure_pbne(g), solve_mixed_pbne(g)) for g in games]
    monkeypatch.setattr(signaling, "_BLOCK_PROFILES", block)
    for g, results in zip(games, whole):
        for found, expected in zip((solve_pure_pbne(g), solve_mixed_pbne(g)), results):
            assert len(found) == len(expected) > 0
            for r, e in zip(found, expected):
                for field in ("receiver", "sender", "beliefs"):
                    assert getattr(r, field).tobytes() == getattr(e, field).tobytes()
                assert (r.off_path, r.classification, r.gap) == (e.off_path, e.classification, e.gap)


def _assert_same_results(found, expected):
    assert len(found) == len(expected)
    for r, e in zip(found, expected):
        for field in ("receiver", "sender", "beliefs"):
            assert np.array_equal(getattr(r, field), getattr(e, field))
        assert (r.off_path, r.classification, r.gap) == (e.off_path, e.classification, e.gap)


@pytest.mark.parametrize("shape", [(2, 3, 2, False), (3, 2, 3, True), (2, 2, 3, True),
                                   (4, 2, 2, False), (4, 3, 2, True), (5, 2, 2, False)])
def test_pure_and_mixed_pbne_match_separate_searches(monkeypatch, shape):
    # One search gives both lists: its singleton slice is the pure search.
    # No game of _random_signaling's shapes (440 games searched) reaches
    # a pure equilibrium first from a larger support profile; in search
    # order a singleton profile comes before every profile that contains it.
    *dims, zero_prior = shape
    for seed in range(3):
        g = _random_signaling(seed, *dims, zero_prior=zero_prior)
        pure, mixed = solve_pure_and_mixed_pbne(g)
        _assert_same_results(pure, solve_pure_pbne(g))
        _assert_same_results(mixed, solve_mixed_pbne(g))
    # The pair solves exactly the systems, phase by phase, of the mixed
    # search alone: no pure system is solved a second time.
    with monkeypatch.context() as m:
        stacks = _spy_on_stacks(m)
        solve_mixed_pbne(g)
    with monkeypatch.context() as m:
        pair_stacks = _spy_on_stacks(m)
        solve_pure_and_mixed_pbne(g)
    assert pair_stacks == stacks


def test_games_past_the_old_shape_caps_solve():
    # mixed_ne once stopped at 8 actions and the mixed signaling search
    # at 3 types, messages or actions; both are now inside the budget.
    from secgames.static import BimatrixGame, as_bayesian, bayes_gap, check_budget, mixed_ne
    # The largest games the caps let through, 3 types x 3 messages x 3
    # actions (7**3 * 7**3 profiles) and 8x8 (255**2), are inside it too.
    check_budget([3] * 6)
    check_budget([8, 8])
    rng = np.random.default_rng(0)
    bim = BimatrixGame(*rng.integers(-3, 4, size=(2, 9, 9)).astype(float))
    found = mixed_ne(bim)
    assert found
    for e in found:
        assert bayes_gap(as_bayesian(bim), e.sigma1, e.sigma2)[0] <= 1e-8
    g = _random_signaling(1, 4, 3, 3)
    found = solve_mixed_pbne(g)
    assert found
    for r in found:
        gap, bayes_err, notes = verify_pbne(g, r.receiver, r.sender, r.beliefs)
        assert gap <= 1e-8 and bayes_err <= 1e-9 and not notes
