"""Wire-format round trips for games, profiles and beliefs."""

import json

import numpy as np
import pytest

from secgames.core import MalformedInputError, StrategyProfile, validate_game
from secgames.gamejson import (beliefs_from_dict, beliefs_to_dict, dump_json,
                               game_from_dict, game_to_dict, load_game,
                               profile_from_dict, profile_to_dict)
from secgames.multistage import (backward_pass, build_tree, forward_pass,
                                 prior_beliefs, verify_epsilon)
from secgames.scenarios import build_apt_game, build_static_bayesian
from secgames.static import to_multistage


@pytest.fixture()
def apt():
    return build_apt_game()


def markov_profile_dict(game, profile) -> dict:
    """The documented Markov file form, ``side -> stage -> state -> type
    -> row``, of a profile whose row block ``x`` is state ``x`` (as
    :meth:`StrategyProfile.uniform` builds it)."""
    return {side: [{state: {t: arrs[k][x, ti].tolist() for ti, t in enumerate(types)}
                    for x, state in enumerate(st.states)}
                   for k, st in enumerate(game.stages)]
            for side, types, arrs in (("defender", game.types1, profile.sigma1),
                                      ("user", game.types2, profile.sigma2))}


class TestGameRoundTrip:
    def test_apt_round_trip(self, apt):
        raw = game_to_dict(apt)
        back = game_from_dict(raw)
        assert validate_game(back) == []
        assert back.types1 == apt.types1 and back.types2 == apt.types2
        assert back.initial_state == apt.initial_state
        for st_a, st_b in zip(apt.stages, back.stages):
            np.testing.assert_array_equal(st_a.payoff1.values, st_b.payoff1.values)
            np.testing.assert_array_equal(st_a.payoff2.values, st_b.payoff2.values)
            np.testing.assert_array_equal(st_a.payoff1.feasible, st_b.payoff1.feasible)
            np.testing.assert_array_equal(st_a.transition_table, st_b.transition_table)
            assert st_a.next_states == st_b.next_states

    def test_file_round_trip(self, apt, tmp_path):
        path = tmp_path / "game.json"
        dump_json(game_to_dict(apt), str(path))
        back = load_game(str(path))
        assert validate_game(back) == []

    def test_mask_defaults_to_all_feasible(self):
        g = to_multistage(build_static_bayesian())
        raw = game_to_dict(g)
        for st in raw["stages"]:
            del st["mask"]
        back = game_from_dict(raw)
        assert back.stages[0].payoff1.feasible.all()

    def test_bad_prior_survives_loading_and_fails_validation(self, apt):
        raw = game_to_dict(apt)
        raw["priors"]["about_user"] = [0.6, 0.6]
        back = game_from_dict(raw)
        assert any("not normalized" in v for v in validate_game(back))

    def test_dangling_label_reported(self, apt):
        raw = game_to_dict(apt)
        raw["stages"][0]["transition"][0][0][0] = "nowhere"
        back = game_from_dict(raw)
        assert any("dangling" in v for v in validate_game(back))

    def test_missing_field_raises(self):
        with pytest.raises(MalformedInputError):
            game_from_dict({"types": {"defender": ["*"], "user": ["*"]}})

    def test_shape_mismatch_raises(self, apt):
        raw = game_to_dict(apt)
        raw["stages"][0]["payoffs1"] = [[[0.0]]]
        with pytest.raises(MalformedInputError):
            game_from_dict(raw)


class TestProfileRoundTrip:
    def test_uniform_profile(self, apt):
        prof = StrategyProfile.uniform(apt)
        raw = profile_to_dict(apt, prof)
        assert raw["version"] == 2
        back = profile_from_dict(apt, raw)
        for node in build_tree(apt):
            for player in (1, 2):
                np.testing.assert_array_equal(back.rows(player, node), prof.rows(player, node))

    def test_markov_form_reads_as_shared_rows(self, apt):
        prof = StrategyProfile.uniform(apt)
        back = profile_from_dict(apt, markov_profile_dict(apt, prof))
        assert back.classes == {node: x for node, (_, x) in build_tree(apt).items()}
        for a, b in zip(prof.sigma1 + prof.sigma2, back.sigma1 + back.sigma2):
            np.testing.assert_array_equal(a, b)

    def test_missing_state_raises(self, apt):
        prof = StrategyProfile.uniform(apt)
        raw = markov_profile_dict(apt, prof)
        del raw["defender"][0]["external"]
        with pytest.raises(MalformedInputError):
            profile_from_dict(apt, raw)

    def test_per_history_profile(self, apt, tmp_path):
        prof, _, _ = backward_pass(apt, prior_beliefs(apt))
        raw = profile_to_dict(apt, prof)
        assert raw["version"] == 2
        path = tmp_path / "profile.json"
        dump_json(raw, str(path))
        back = profile_from_dict(apt, json.loads(path.read_text()))
        assert back.violations(apt) == []
        for node in build_tree(apt):
            for player in (1, 2):
                np.testing.assert_array_equal(back.rows(player, node),
                                              prof.rows(player, node))
        bel = forward_pass(apt, prof)
        ref = verify_epsilon(apt, prof, bel)
        got = verify_epsilon(apt, back, beliefs_from_dict(apt, beliefs_to_dict(apt, bel)))
        np.testing.assert_array_equal(got.eps1, ref.eps1)
        np.testing.assert_array_equal(got.eps2, ref.eps2)

    def test_per_history_profile_missing_history_raises(self, apt):
        prof, _, _ = backward_pass(apt, prior_beliefs(apt))
        raw = profile_to_dict(apt, prof)
        del raw["user"]["none,employee"]
        with pytest.raises(MalformedInputError):
            profile_from_dict(apt, raw)

    def test_unknown_profile_version_raises(self, apt):
        prof, _, _ = backward_pass(apt, prior_beliefs(apt))
        raw = dict(profile_to_dict(apt, prof), version=3)
        with pytest.raises(MalformedInputError):
            profile_from_dict(apt, raw)


class TestBeliefRoundTrip:
    def test_beliefs_reproduce_epsilon(self, apt):
        prof = StrategyProfile.uniform(apt)
        bel = forward_pass(apt, prof)
        back = beliefs_from_dict(apt, beliefs_to_dict(apt, bel))
        ref = verify_epsilon(apt, prof, bel)
        got = verify_epsilon(apt, prof, back)
        np.testing.assert_allclose(got.eps1, ref.eps1, atol=1e-9)
        np.testing.assert_allclose(got.eps2, ref.eps2, atol=1e-9)
        assert got.belief_violation == pytest.approx(ref.belief_violation, abs=1e-9)

    def test_node_flags_survive(self, apt):
        prof = StrategyProfile.uniform(apt)
        bel = forward_pass(apt, prof)
        back = beliefs_from_dict(apt, beliefs_to_dict(apt, bel))
        assert back.off_path_p1 == bel.off_path_p1
        assert back.aggregation_discrepancy == bel.aggregation_discrepancy

    def test_json_serializable(self, apt, tmp_path):
        prof = StrategyProfile.uniform(apt)
        bel = forward_pass(apt, prof)
        path = tmp_path / "bel.json"
        dump_json(beliefs_to_dict(apt, bel), str(path))
        with open(path) as fh:
            raw = json.load(fh)
        assert "aggregates" in raw
