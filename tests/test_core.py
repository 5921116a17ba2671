"""Domain-type invariants and structural validation."""

import numpy as np
import pytest

from secgames.core import (FiniteDistribution, MalformedInputError,
                           StrategyProfile, validate_game)
from secgames.scenarios import build_apt_game, build_static_bayesian
from secgames.static import to_multistage


class TestFiniteDistribution:
    def test_valid(self):
        d = FiniteDistribution([0.25, 0.75])
        assert len(d) == 2
        assert d[1] == 0.75

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


class TestValidateGame:
    def test_well_formed_single_stage(self):
        g = to_multistage(build_static_bayesian())
        assert validate_game(g) == []

    def test_apt_well_formed(self):
        assert validate_game(build_apt_game()) == []

    @staticmethod
    def _with_stage0_next_states(g, next_states, table):
        st0 = g.stages[0]
        broken = type(st0)(st0.index, st0.states, st0.actions1, st0.actions2,
                           st0.payoff1, st0.payoff2, table, next_states)
        return type(g)(g.horizon, (broken,) + g.stages[1:], g.types1, g.types2,
                       g.prior_about_1, g.prior_about_2, g.initial_state)

    def test_dangling_transition(self):
        g = build_apt_game()
        msgs = validate_game(self._with_stage0_next_states(
            g, ("honeypot", "employee", "elsewhere"), g.stages[0].transition_table))
        assert any("dangling transition" in m for m in msgs)
        assert not any("differ from" in m for m in msgs)    # order only once all exist

    @staticmethod
    def _type_label_findings(labels):
        g = build_apt_game()
        return (validate_game(type(g)(g.horizon, g.stages, labels, g.types2, g.prior_about_1,
                                      g.prior_about_2, g.initial_state)),
                validate_game(type(g)(g.horizon, g.stages, g.types1, labels, g.prior_about_1,
                                      g.prior_about_2, g.initial_state)))

    def test_duplicated_type_labels(self):
        defender, user = self._type_label_findings(("a", "a"))
        assert defender == ["defender type labels empty or duplicated"]
        assert user == ["user type labels empty or duplicated"]

    def test_empty_type_labels(self):
        defender, user = self._type_label_findings(())
        assert "defender type labels empty or duplicated" in defender
        assert "user type labels empty or duplicated" in user

    def test_next_states_out_of_order(self):
        # reversed labels with the table remapped: every label-level
        # transition is unchanged, but build_tree reads the indices as
        # stage 1 states
        g = build_apt_game()
        st0 = g.stages[0]
        n = len(st0.next_states)
        g2 = self._with_stage0_next_states(g, st0.next_states[::-1],
                                           n - 1 - st0.transition_table)
        assert validate_game(g2) == [
            "stage 0: next_states ['ceo', 'employee', 'honeypot'] differ from "
            "stage 1 states ['honeypot', 'employee', 'ceo']"]

    def test_next_states_subset(self):
        g = build_apt_game()
        st0 = g.stages[0]
        msgs = validate_game(self._with_stage0_next_states(
            g, st0.next_states[:2], np.minimum(st0.transition_table, 1)))
        assert any("next_states ['honeypot', 'employee'] differ" in m for m in msgs)

    def test_bad_prior_reported_not_raised(self):
        g = build_apt_game()
        g2 = type(g)(g.horizon, g.stages, g.types1, g.types2,
                     g.prior_about_1.unchecked([0.6, 0.6]), g.prior_about_2,
                     g.initial_state)
        msgs = validate_game(g2)
        assert any("not normalized" in m for m in msgs)


class TestStateIndex:
    def test_out_of_range(self):
        st = build_apt_game().stages[0]
        with pytest.raises(MalformedInputError):
            st.state_index("no-such-state")
        with pytest.raises(MalformedInputError):
            st.state_index(9)


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
        short = (prof.classes[0], prof.classes[1][:3], prof.classes[2])
        for classes in (prof.classes[:1], short):
            partial = StrategyProfile(prof.sigma1, prof.sigma2, classes)
            assert partial.violations(g) == [
                "profile rows do not cover exactly the game's histories"]

    def test_class_index_out_of_range_flagged(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        for bad_index in (-1, 3):
            stage1 = prof.classes[1].copy()
            stage1[4] = bad_index
            bad = StrategyProfile(prof.sigma1, prof.sigma2,
                                  (prof.classes[0], stage1, prof.classes[2]))
            assert bad.violations(g) == [
                "player 1 stage 1 names a missing row block",
                "player 2 stage 1 names a missing row block"]
        fractional = StrategyProfile(prof.sigma1, prof.sigma2,
                                     tuple(c + 0.5 for c in prof.classes))
        assert fractional.violations(g) == ["profile class indices are not integers"]

    def test_per_history_block_on_masked_action_flagged(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        # one block per history, each a copy of its state's Markov rows
        classes = tuple(np.arange(len(c)) for c in prof.classes)
        ok = StrategyProfile(*prof.history_rows(), classes)
        assert ok.violations(g) == []
        root_user = ok.sigma2[0].copy()
        root_user[0, 1] = [0.2, 0.3, 0.5]     # the legitimate user contacts the decoy
        bad = StrategyProfile(ok.sigma1, (root_user,) + ok.sigma2[1:], classes)
        assert any("masked" in v for v in bad.violations(g))

    @pytest.mark.parametrize("stage0", [np.float64(1.0), [0.5, 0.5], [[1.0, 0.0, 0.0]]],
                             ids=["0-d", "1-d", "2-d"])
    def test_stage_array_not_3d_is_a_finding(self, stage0):
        g = build_apt_game()
        u = StrategyProfile.uniform(g)
        bad = StrategyProfile((stage0,) + u.sigma1[1:], u.sigma2, u.classes)
        found = bad.violations(g)
        assert len(found) == 1 and found[0].startswith("player 1 stage 0 shape ")
