"""Wire-format round trips for games, profiles and beliefs."""

import json

import numpy as np
import pytest

from secgames.core import MalformedInputError, StrategyProfile, validate_game
from secgames.gamejson import (beliefs_from_dict, beliefs_to_dict, dump_json,
                               game_from_dict, game_to_dict, history_labels, load_game,
                               profile_from_dict, profile_to_dict)
from secgames.multistage import backward_pass, forward_pass, solve_pbne, verify_epsilon
from secgames.scenarios import build_apt_game, build_static_bayesian
from secgames.static import to_multistage
from tests.test_multistage import history_tree, prior_beliefs


@pytest.fixture()
def apt():
    return build_apt_game()


def with_earlier_aggregates(game, raw: dict) -> dict:
    """``raw``, a beliefs file, with the keys that files of earlier
    versions also hold: per-state ``aggregates``, here the priors, and an
    ``aggregation_discrepancy``, here a number beyond the float range."""
    per_state = {side: [[np.asarray(prior.weights).tolist()] * st.n_states
                        for st in game.stages]
                 for side, prior in (("about_defender", game.prior_about_1),
                                     ("about_user", game.prior_about_2))}
    off_path = [[False] * st.n_states for st in game.stages]
    return dict(raw, aggregates=dict(per_state, off_path=off_path),
                aggregation_discrepancy=10**400)


def markov_profile_dict(game, profile) -> dict:
    """The documented Markov file form, ``side -> stage -> state -> type
    -> row``, of a profile whose row block ``x`` is state ``x`` (as
    :meth:`StrategyProfile.uniform` builds it)."""
    return {side: [{state: {t: arrs[k][x, ti].tolist() for ti, t in enumerate(types)}
                    for x, state in enumerate(st.states)}
                   for k, st in enumerate(game.stages)]
            for side, types, arrs in (("defender", game.types1, profile.sigma1),
                                      ("user", game.types2, profile.sigma2))}


def per_history_profile_dict(game, profile) -> dict:
    """The version-2 file form, ``side -> history -> type -> row``, that
    solve reports held before version 3: every history carries a copy of
    its block's rows."""
    return {"version": 2, **{
        side: {key: dict(zip(types, row)) for keys, stage in zip(history_labels(game), rows)
               for key, row in zip(keys, stage.tolist())}
        for side, types, rows in zip(("defender", "user"), (game.types1, game.types2),
                                     profile.history_rows())}}


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
        assert raw["version"] == 3
        back = profile_from_dict(apt, raw)
        for node in history_tree(apt):
            for player in (1, 2):
                np.testing.assert_array_equal(back.rows(player, node), prof.rows(player, node))

    def test_version_3_is_the_in_memory_layout(self, apt, tmp_path):
        prof = solve_pbne(apt).profile
        path = tmp_path / "profile.json"
        dump_json(profile_to_dict(apt, prof), str(path))
        raw = json.loads(path.read_text())
        assert sorted(raw) == ["classes", "defender", "user", "version"]
        back = profile_from_dict(apt, raw)
        assert back.violations(apt) == []
        for got, ref in zip(back.sigma1 + back.sigma2 + back.classes,
                            prof.sigma1 + prof.sigma2 + prof.classes):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("change, finding", [
        (lambda raw: raw["defender"].__setitem__(0, 5), "player 1 stage 0 shape ()"),
        (lambda raw: raw["classes"][1].__setitem__(0, 1.5), "class indices are not integers"),
        (lambda raw: raw["classes"][1].__setitem__(0, 10**400), "not integers"),
        (lambda raw: raw["classes"][2].__setitem__(0, -1), "stage 2 names a missing row block"),
        (lambda raw: raw["classes"][0].__setitem__(0, len(raw["defender"][0])),
         "stage 0 names a missing row block"),
        (lambda raw: [raw[key].pop() for key in ("classes", "defender", "user")],
         "do not cover exactly the game's histories"),
        (lambda raw: raw.__setitem__("classes", raw["classes"][:2]),
         "do not cover exactly the game's histories")],
        ids=["0-d-stage", "fractional-class", "huge-class", "negative-class", "class-past-blocks",
             "stages-missing", "classes-missing-stage"])
    def test_version_3_layout_is_checked_by_violations(self, apt, change, finding):
        raw = profile_to_dict(apt, StrategyProfile.uniform(apt))
        change(raw)
        assert any(finding in v for v in profile_from_dict(apt, raw).violations(apt))

    @pytest.mark.parametrize("change", [
        lambda raw: raw["classes"][1].__setitem__(0, True),
        lambda raw: raw.__setitem__("classes", {"0": [0]}),
        lambda raw: raw.pop("classes"),
        lambda raw: raw["user"][0].__setitem__(0, raw["user"][0][0][:1]),
        lambda raw: raw["defender"][0][0][0].__setitem__(0, 10**400),
        lambda raw: raw["defender"][1].__setitem__(0, "x"),
        lambda raw: raw.__setitem__("user", None)],
        ids=["bool-class", "classes-object", "classes-missing", "ragged-blocks",
             "huge-row", "text-block", "user-null"])
    def test_version_3_bad_numbers_raise(self, apt, change):
        raw = profile_to_dict(apt, StrategyProfile.uniform(apt))
        change(raw)
        with pytest.raises(MalformedInputError, match="profile 'classes'"):
            profile_from_dict(apt, raw)

    def test_markov_form_reads_as_shared_rows(self, apt):
        prof = StrategyProfile.uniform(apt)
        back = profile_from_dict(apt, markov_profile_dict(apt, prof))
        # each history names its end state's block
        states = [x for _, x in history_tree(apt).values()]
        assert np.concatenate(back.classes).tolist() == states
        for a, b in zip(prof.sigma1 + prof.sigma2, back.sigma1 + back.sigma2):
            np.testing.assert_array_equal(a, b)

    def test_missing_state_raises(self, apt):
        prof = StrategyProfile.uniform(apt)
        raw = markov_profile_dict(apt, prof)
        del raw["defender"][0]["external"]
        with pytest.raises(MalformedInputError):
            profile_from_dict(apt, raw)

    def test_per_history_profile(self, apt, tmp_path):
        prof, _ = backward_pass(apt, prior_beliefs(apt))
        raw = per_history_profile_dict(apt, prof)
        path = tmp_path / "profile.json"
        dump_json(raw, str(path))
        back = profile_from_dict(apt, json.loads(path.read_text()))
        assert back.violations(apt) == []
        for node in history_tree(apt):
            for player in (1, 2):
                np.testing.assert_array_equal(back.rows(player, node),
                                              prof.rows(player, node))
        bel = forward_pass(apt, prof)
        ref = verify_epsilon(apt, prof, bel)
        got = verify_epsilon(apt, back, beliefs_from_dict(apt, beliefs_to_dict(apt, bel)))
        np.testing.assert_array_equal(got.eps1, ref.eps1)
        np.testing.assert_array_equal(got.eps2, ref.eps2)

    def test_per_history_profile_missing_history_raises(self, apt):
        prof, _ = backward_pass(apt, prior_beliefs(apt))
        raw = per_history_profile_dict(apt, prof)
        del raw["user"]["none,employee"]
        with pytest.raises(MalformedInputError, match="missing user profile rows at stage 1 "
                                                      "for history 'none,employee'"):
            profile_from_dict(apt, raw)

    def test_per_history_profile_reads_as_one_block_per_history(self, apt):
        prof, _ = backward_pass(apt, prior_beliefs(apt))
        back = profile_from_dict(apt, per_history_profile_dict(apt, prof))
        assert [c.tolist() for c in back.classes] == [[0], list(range(9)), list(range(36))]
        rows1, rows2 = prof.history_rows()
        for got, ref in zip(back.sigma1 + back.sigma2, rows1 + rows2):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("side, key", [("defender", "bogus,bogus;x,y"), ("user", "nope"),
                                           ("user", "none,employee;none,employee;x,y")])
    def test_per_history_profile_unknown_history_raises(self, apt, side, key):
        raw = per_history_profile_dict(apt, StrategyProfile.uniform(apt))
        raw[side][key] = raw[side][""]
        with pytest.raises(MalformedInputError, match=f"unknown history {key!r}"):
            profile_from_dict(apt, raw)

    def test_histories_sharing_a_key_raise(self, apt):
        # ("a,b", "c") and ("a", "b,c") are both keyed "a,b,c"
        raw = game_to_dict(apt)
        raw["stages"][0]["actions1"] = ["a,b", "a", "z"]
        raw["stages"][0]["actions2"] = ["c", "b,c", "q"]
        game = game_from_dict(raw)
        prof = StrategyProfile.uniform(game)
        with pytest.raises(MalformedInputError, match="share one key"):
            profile_from_dict(game, per_history_profile_dict(game, prof))
        with pytest.raises(MalformedInputError, match="share one key"):
            beliefs_from_dict(game, beliefs_to_dict(game, forward_pass(game, prof)))

    def test_unknown_profile_version_raises(self, apt):
        prof, _ = backward_pass(apt, prior_beliefs(apt))
        for version in (1, 4, "3", True):
            raw = dict(profile_to_dict(apt, prof), version=version)
            with pytest.raises(MalformedInputError, match="unknown profile version"):
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
        for got, ref in zip(back.belief_p1 + back.belief_p2 + back.off_path_p1
                            + back.off_path_p2, bel.belief_p1 + bel.belief_p2
                            + bel.off_path_p1 + bel.off_path_p2):
            assert got.tobytes() == ref.tobytes()

    def test_aggregates_are_not_read(self, apt):
        prof = StrategyProfile.uniform(apt)
        raw = beliefs_to_dict(apt, forward_pass(apt, prof))
        ref = beliefs_from_dict(apt, raw)
        back = beliefs_from_dict(apt, json.loads(json.dumps(with_earlier_aggregates(apt, raw))))
        for got, want in zip(back.belief_p1 + back.belief_p2 + back.off_path_p1
                             + back.off_path_p2, ref.belief_p1 + ref.belief_p2
                             + ref.off_path_p1 + ref.off_path_p2):
            assert got.tobytes() == want.tobytes()
        got, want = verify_epsilon(apt, prof, back), verify_epsilon(apt, prof, ref)
        assert got.eps1.tobytes() == want.eps1.tobytes()
        assert got.eps2.tobytes() == want.eps2.tobytes()

    def test_rows_in_any_key_order_land_at_their_history(self, apt):
        prof, _ = backward_pass(apt, prior_beliefs(apt))
        bel = forward_pass(apt, prof)
        raw = beliefs_to_dict(apt, bel)
        for side in ("defender", "user"):
            raw[side] = dict(reversed(raw[side].items()))
        back = beliefs_from_dict(apt, raw)
        for got, ref in zip(back.belief_p1 + back.belief_p2, bel.belief_p1 + bel.belief_p2):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("side, key", [("defender", "nope,nope"), ("user", "nope"),
                                           ("defender", "none,employee;none,employee;x,y")])
    def test_unknown_off_path_history_raises(self, apt, side, key):
        raw = beliefs_to_dict(apt, forward_pass(apt, StrategyProfile.uniform(apt)))
        raw["off_path"][side].append(key)
        with pytest.raises(MalformedInputError, match=f"unknown history {key!r}"):
            beliefs_from_dict(apt, raw)

    def test_json_serializable(self, apt, tmp_path):
        prof = StrategyProfile.uniform(apt)
        bel = forward_pass(apt, prof)
        path = tmp_path / "bel.json"
        dump_json(beliefs_to_dict(apt, bel), str(path))
        with open(path) as fh:
            raw = json.load(fh)
        assert sorted(raw) == ["defender", "off_path", "user"]
