"""Domain-type invariants and payoff/transition machinery."""

import numpy as np
import pytest

from secgames.core import (FiniteDistribution, MalformedInputError,
                           PlayerTypeSpace, StrategyProfile,
                           expected_stage_payoff, transition, validate_game)
from secgames.scenarios import (build_apt_game, default_apt_parameters,
                                escalation_stage_game, exercise_qb_matrices)
from secgames.static import to_multistage, as_bayesian
from secgames.scenarios import build_static_bayesian


class TestFiniteDistribution:
    def test_valid(self):
        d = FiniteDistribution([0.25, 0.75])
        assert len(d) == 2
        assert d[1] == 0.75
        assert d.support() == (0, 1)

    def test_negative_weight_rejected(self):
        with pytest.raises(MalformedInputError):
            FiniteDistribution([-0.1, 1.1])

    def test_sum_tolerance(self):
        FiniteDistribution([0.5, 0.5 + 5e-10])   # inside 1e-9
        with pytest.raises(MalformedInputError):
            FiniteDistribution([0.5, 0.6])

    def test_unchecked_carries_bad_data(self):
        d = FiniteDistribution.unchecked([0.6, 0.6])
        assert d.violations()

    def test_normalized(self):
        d = FiniteDistribution.normalized([2.0, 6.0])
        np.testing.assert_allclose(d.weights, [0.25, 0.75])
        with pytest.raises(MalformedInputError):
            FiniteDistribution.normalized([0.0, 0.0])

    def test_point_mass_and_uniform(self):
        assert FiniteDistribution.point_mass(3, 1).support() == (1,)
        np.testing.assert_allclose(FiniteDistribution.uniform(4).weights, 0.25)

    def test_sampling_is_seeded(self):
        d = FiniteDistribution([0.3, 0.7])
        r1 = [d.sample(np.random.default_rng(5)) for _ in range(4)]
        r2 = [d.sample(np.random.default_rng(5)) for _ in range(4)]
        assert r1 == r2


class TestPlayerTypeSpace:
    def test_ok(self):
        ts = PlayerTypeSpace(2, ("adversarial", "legitimate"))
        assert ts.index("legitimate") == 1

    def test_duplicates_rejected(self):
        with pytest.raises(MalformedInputError):
            PlayerTypeSpace(1, ("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(MalformedInputError):
            PlayerTypeSpace(1, ())


class TestValidateGame:
    def test_well_formed_single_stage(self):
        g = to_multistage(build_static_bayesian())
        assert validate_game(g) == []

    def test_apt_well_formed(self):
        assert validate_game(build_apt_game()) == []

    def test_dangling_transition(self):
        g = build_apt_game()
        st0 = g.stages[0]
        broken = type(st0)(st0.index, st0.states, st0.actions1, st0.actions2,
                           st0.payoff1, st0.payoff2, st0.transition_table,
                           ("honeypot", "employee", "elsewhere"))
        g2 = type(g)(g.horizon, (broken,) + g.stages[1:], g.types1, g.types2,
                     g.prior_about_1, g.prior_about_2, g.initial_state)
        msgs = validate_game(g2)
        assert any("dangling transition" in m for m in msgs)

    def test_bad_prior_reported_not_raised(self):
        g = build_apt_game()
        g2 = type(g)(g.horizon, g.stages, g.types1, g.types2,
                     g.prior_about_1.unchecked([0.6, 0.6]), g.prior_about_2,
                     g.initial_state)
        msgs = validate_game(g2)
        assert any("not normalized" in m for m in msgs)


class TestExpectedStagePayoff:
    def test_escalation_stage_known_types(self):
        # restrict vs escalate with a low-awareness defender against a
        # known adversarial user pays the restrict reward r3
        p = default_apt_parameters()
        st = escalation_stage_game(p)
        sigma1 = np.array([[0.0, 1.0], [0.0, 1.0]])   # restrict for both types
        sigma2 = np.array([[0.0, 1.0], [0.0, 1.0]])   # escalate for both types
        val = expected_stage_payoff(st, "employee", sigma1, sigma2,
                                    belief_about_1=[1.0, 0.0],      # low type
                                    belief_about_2=[1.0, 0.0],      # adversarial
                                    player=1, own_type=0)
        assert val == pytest.approx(p.r3, abs=1e-12)

    def test_zero_game(self):
        st = escalation_stage_game()
        sigma = np.array([[1.0, 0.0], [1.0, 0.0]])    # both sides idle
        val = expected_stage_payoff(st, 0, sigma, sigma, [0.5, 0.5], [0.5, 0.5], 1)
        assert val == 0.0

    def test_uniform_mix_hand_expectation(self):
        # 2x2 matrix with entries 10/18/7/17: uniform play averages to 13
        bim = exercise_qb_matrices()["theta1"]
        g = to_multistage(as_bayesian(bim))
        st = g.stages[0]
        u = np.array([[0.5, 0.5]])
        val = expected_stage_payoff(st, 0, u, u, [1.0], [1.0], 1)
        assert val == pytest.approx((10 + 18 + 7 + 17) / 4, abs=1e-12)

    def test_dimension_mismatch(self):
        st = escalation_stage_game()
        with pytest.raises(MalformedInputError):
            expected_stage_payoff(st, 0, np.ones((2, 3)) / 3, np.ones((2, 2)) / 2,
                                  [0.5, 0.5], [0.5, 0.5], 1)

    def test_averaged_own_type_mode(self):
        # with own_type omitted the player's type is averaged under the
        # opponent's belief about it
        st = escalation_stage_game()
        s1 = np.array([[0.0, 1.0], [0.0, 1.0]])
        s2 = np.array([[0.0, 1.0], [0.0, 1.0]])
        b1 = [0.25, 0.75]
        fixed = [expected_stage_payoff(st, 0, s1, s2, b1, [1.0, 0.0], 1, own_type=t)
                 for t in range(2)]
        averaged = expected_stage_payoff(st, 0, s1, s2, b1, [1.0, 0.0], 1)
        assert averaged == pytest.approx(0.25 * fixed[0] + 0.75 * fixed[1], abs=1e-12)

    def test_bilinear_against_explicit_sum(self):
        rng = np.random.default_rng(11)
        p = default_apt_parameters()
        for _ in range(20):
            m1, m2, n1, n2 = 3, 3, 2, 2
            values = rng.normal(size=(1, m1, m2, n1, n2))
            st = escalation_stage_game(p)
            fake = type(st)(0, ("x",), tuple("abc"), tuple("def"),
                            type(st.payoff1)(values, np.ones((1, n1, m1), bool)),
                            type(st.payoff2)(values, np.ones((1, n2, m2), bool)),
                            np.zeros((1, m1, m2), int), ("x",))
            s1 = rng.dirichlet(np.ones(m1), size=n1)
            s2 = rng.dirichlet(np.ones(m2), size=n2)
            b1 = rng.dirichlet(np.ones(n1))
            b2 = rng.dirichlet(np.ones(n2))
            got = expected_stage_payoff(fake, 0, s1, s2, b1, b2, 1)
            oracle = 0.0
            for a1 in range(m1):
                for a2 in range(m2):
                    for t1 in range(n1):
                        for t2 in range(n2):
                            oracle += (b1[t1] * b2[t2] * s1[t1, a1] * s2[t2, a2]
                                       * values[0, a1, a2, t1, t2])
            assert got == pytest.approx(oracle, abs=1e-12)


class TestTransition:
    def test_entry_examples(self):
        g = build_apt_game()
        st = g.stages[0]
        # unsandboxed executive phishing reaches the executive machine
        assert transition(st, "external", "none", "ceo") == "ceo"
        # avatar mail always lands in the honeypot
        assert transition(st, "external", "none", "avatar") == "honeypot"

    def test_escalation_examples(self):
        g = build_apt_game()
        st = g.stages[1]
        for a1 in st.actions1:
            for a2 in st.actions2:
                assert transition(st, "honeypot", a1, a2) == "priv0"
        assert transition(st, "ceo", "permit", "escalate") == "priv3"
        assert transition(st, "employee", "permit", "escalate") == "priv2"

    def test_totality(self):
        g = build_apt_game()
        for st in g.stages:
            for x in st.states:
                for a1 in st.actions1:
                    for a2 in st.actions2:
                        assert transition(st, x, a1, a2) in st.next_states

    def test_out_of_range(self):
        st = build_apt_game().stages[0]
        with pytest.raises(MalformedInputError):
            transition(st, "external", "none", "no-such-action")
        with pytest.raises(MalformedInputError):
            transition(st, 9, 0, 0)


class TestStrategyProfile:
    def test_uniform_respects_masks(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        assert prof.violations(g) == []
        # the legitimate user never contacts the decoy
        assert prof.sigma2[0][:, 1, 2].max() == 0.0
        np.testing.assert_allclose(prof.sigma2[0][:, 1, :2], 0.5)

    def test_mass_on_masked_action_flagged(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        bad0 = prof.sigma2[0].copy()
        bad0[:, 1] = [0.2, 0.3, 0.5]
        bad = StrategyProfile(prof.sigma1, (bad0,) + prof.sigma2[1:], prof.classes)
        assert any("masked" in v for v in bad.violations(g))

    def test_unnormalized_row_flagged(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        bad0 = prof.sigma1[0].copy()
        bad0[0, 0] = [0.9, 0.0, 0.0]
        bad = StrategyProfile((bad0,) + prof.sigma1[1:], prof.sigma2, prof.classes)
        assert any("invalid distribution" in v for v in bad.violations(g))

    def test_per_history_profile_must_cover_every_history(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        classes = {(): 0}
        partial = StrategyProfile(tuple(a[:1] for a in prof.sigma1),
                                  tuple(a[:1] for a in prof.sigma2), classes)
        assert any("cover exactly" in v for v in partial.violations(g))

    def test_per_history_block_on_masked_action_flagged(self):
        from secgames.multistage import build_tree
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        # one block per history, each a copy of its state's Markov rows
        nodes = build_tree(g)
        classes, sig1, sig2 = {}, [[] for _ in g.stages], [[] for _ in g.stages]
        for node, (k, x) in nodes.items():
            classes[node] = len(sig1[k])
            sig1[k].append(prof.sigma1[k][x])
            sig2[k].append(prof.sigma2[k][x])
        ok = StrategyProfile(tuple(map(np.array, sig1)), tuple(map(np.array, sig2)), classes)
        assert ok.violations(g) == []
        root_user = ok.sigma2[0].copy()
        root_user[0, 1] = [0.2, 0.3, 0.5]     # the legitimate user contacts the decoy
        bad = StrategyProfile(ok.sigma1, (root_user,) + ok.sigma2[1:], classes)
        assert any("masked" in v for v in bad.violations(g))
