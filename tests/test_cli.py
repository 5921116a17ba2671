"""Command-line behavior: exit codes, reports, reproducibility."""

import json

import numpy as np
import pytest

from secgames import multistage, signaling, static
from secgames.cli import main
from secgames.core import FiniteDistribution, StrategyProfile, build_tree
from secgames.gamejson import (beliefs_to_dict, dump_json, game_to_dict, history_label,
                               load_game)
from secgames.scenarios import build_apt_game, build_static_bayesian
from tests.test_gamejson import markov_profile_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_list(capsys):
    code, out, _ = run(capsys, "scenario", "list")
    assert code == 0
    for name in ("static-baseline", "static-bayesian", "exercise-qb", "apt"):
        assert name in out


def test_solve_ne_baseline(capsys):
    code, out, _ = run(capsys, "solve", "ne", "--scenario", "static-baseline")
    assert code == 0
    assert "('restrict', 'nop')" in out


def test_solve_bne_uninformed_contains_paper_answer(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, out, _ = run(capsys, "solve", "bne", "--scenario", "exercise-qb",
                       "--info", "uninformed", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    eqs = report["results"]["equilibria"]
    assert any(abs(e["ex_ante"][0] - 18.5) < 1e-9
               and abs(e["ex_ante"][1] - 18.5) < 1e-9
               and e["sigma2"]["*"][1] > 1 - 1e-9 for e in eqs)


def test_solve_bne_complete_variant(capsys):
    code, out, _ = run(capsys, "solve", "bne", "--scenario", "exercise-qb",
                       "--info", "complete")
    assert code == 0
    assert "('A', 'a')" in out and "('B', 'b')" in out


def test_solve_signaling(capsys, tmp_path):
    out_file = tmp_path / "sig.json"
    code, out, _ = run(capsys, "solve", "signaling", "--scenario",
                       "static-bayesian", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["results"]["pure"]
    assert report["results"]["mixed"]
    for row in report["results"]["pure"]:
        assert row["gap"] <= 1e-8


def test_solve_signaling_zero_prior_type(capsys, tmp_path):
    # the legitimate user has prior 0, so a message only it sends is off path
    raw = game_to_dict(static.to_multistage(build_static_bayesian()))
    raw["priors"]["about_user"] = [1.0, 0.0]
    path = tmp_path / "zero.json"
    dump_json(raw, str(path))
    g = signaling.as_signaling_game(static.from_multistage(load_game(str(path))))
    found = {}
    for method in ("both", "pure"):
        out_file = tmp_path / f"{method}.json"
        code, _, err = run(capsys, "solve", "signaling", "--game", str(path),
                           "--method", method, "--out", str(out_file))
        assert code == 0, err
        found.update(json.loads(out_file.read_text())["results"])
    assert found["pure"]
    strategies = {}
    for method, rows in found.items():
        strategies[method] = []
        for row in rows:
            sender = np.array([row["sender"][t] for t in g.types])
            receiver = np.array([row["receiver"][m] for m in g.messages])
            beliefs = np.array([row["beliefs"][m] for m in g.messages])
            gap, bayes_err, notes = signaling.verify_pbne(g, receiver, sender, beliefs)
            assert gap <= 1e-8 and bayes_err <= 1e-9 and not notes
            strategies[method].append((sender, receiver))
    for s, r in strategies["pure"]:
        assert any(np.allclose(s, ms, atol=1e-9) and np.allclose(r, mr, atol=1e-9)
                   for ms, mr in strategies["mixed"])


def test_invalid_game_json_exits_2(capsys, tmp_path):
    game = build_apt_game()
    raw = game_to_dict(game)
    raw["priors"]["about_user"] = [0.6, 0.6]
    path = tmp_path / "bad.json"
    dump_json(raw, str(path))
    code, _, err = run(capsys, "solve", "ne", "--game", str(path))
    assert code == 2
    assert "not normalized" in err


_DELETE = object()      # a field to delete, not to set


@pytest.mark.parametrize("command", ["pbne", "ne"])
@pytest.mark.parametrize("path, value, named", [
    (("priors", "about_defender"), _DELETE, "about_defender"), (("priors",), None, "priors"),
    (("priors", "about_user"), "x", "about_user"), (("types",), [], "types"),
    (("horizon",), "x", "horizon"), (("horizon",), 1.5, "horizon"),
    (("stages",), None, "stages"), (("stages", 1), 5, "stage 1"),
    (("stages", 1, "states"), None, "stage 1"),
    (("stages", 1, "actions1"), _DELETE, "actions1"),
    (("stages", 1, "payoffs1"), _DELETE, "payoffs1"),
    (("stages", 0, "payoffs2"), {}, "payoffs2"),
    (("stages", 1, "transition"), _DELETE, "transition"),
    (("stages", 0, "transition"), [], "transition"),
    (("stages", 0, "transition"), "x", "transition"),
    (("stages", 0, "mask"), "x", "mask"), (("stages", 0, "mask"), [1], "mask"),
    (("stages", 2, "next_states"), True, "next_states")],
    ids=["no-prior", "null-priors", "text-prior", "list-types", "text-horizon",
         "float-horizon", "null-stages", "number-stage", "null-states", "no-actions1",
         "no-payoffs1", "object-payoffs2", "no-transition", "empty-transition",
         "text-transition", "text-mask", "list-mask", "bool-next-states"])
def test_malformed_game_file_exits_2(capsys, tmp_path, command, path, value, named):
    raw = game_to_dict(build_apt_game())
    target = raw
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    game_file, out_file = tmp_path / "game.json", tmp_path / "r.json"
    game_file.write_text(json.dumps(raw), encoding="utf-8")
    code, _, err = run(capsys, "solve", command, "--game", str(game_file),
                       "--out", str(out_file))
    assert code == 2
    assert "cannot load game" in err and named in err
    assert "Traceback" not in err
    assert not out_file.exists()


def test_unknown_scenario_exits_2(capsys):
    code, _, err = run(capsys, "solve", "bne", "--scenario", "nope")
    assert code == 2
    assert "unknown scenario" in err


def test_pbne_report_and_verify_round_trip(capsys, tmp_path):
    out_file = tmp_path / "pbne.json"
    code, out, _ = run(capsys, "solve", "pbne", "--scenario", "apt",
                       "--seed", "0", "--out", str(out_file))
    report = json.loads(out_file.read_text())
    if code == 0:
        assert report["results"]["converged"] is True
        stated = report["results"]["epsilon"]
        verify_out = tmp_path / "verify.json"
        code2, out2, _ = run(capsys, "verify", "--scenario", "apt",
                             "--profile", str(out_file),
                             "--out", str(verify_out))
        assert code2 == 0
        # the re-verified certificate reproduces the stated one exactly
        recomputed = json.loads(verify_out.read_text())["results"]["epsilon"]
        for side in ("defender", "user"):
            for t, eps in stated[side].items():
                assert abs(recomputed[side][t] - eps) <= 1e-9
    else:
        assert code == 3
        assert report["results"]["converged"] is False


def test_pbne_nonconvergence_exits_3(capsys, tmp_path):
    # an impossible tolerance forces the non-convergence path
    code, out, _ = run(capsys, "solve", "pbne", "--scenario", "apt",
                       "--seed", "0", "--max-iter", "1", "--tol", "1e-300")
    assert code == 3
    assert "did not converge" in out
    assert "sweep 1" in out


@pytest.mark.parametrize("option", [("--max-iter", "0"), ("--max-iter", "-3"),
                                    ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf")])
def test_pbne_bad_iteration_parameters_exit_2(capsys, tmp_path, option):
    out_file = tmp_path / "pbne.json"
    code, out, err = run(capsys, "solve", "pbne", "--scenario", "apt", *option,
                         "--out", str(out_file))
    assert code == 2
    assert "invalid input" in err and option[0].lstrip("-").replace("-", "_") in err
    assert "converged" not in out
    assert not out_file.exists()


def test_reports_are_byte_identical_for_same_seed(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "solve", "pbne", "--scenario", "apt",
                         "--seed", "3", "--out", str(path))
        assert code in (0, 3)
    assert a.read_bytes() == b.read_bytes()


def test_simulate_single_trajectory_deterministic(capsys, tmp_path):
    out_file = tmp_path / "pbne.json"
    run(capsys, "solve", "pbne", "--scenario", "apt", "--seed", "0",
        "--out", str(out_file))
    code, out1, _ = run(capsys, "simulate", "--scenario", "apt",
                        "--profile", str(out_file), "-n", "1", "--seed", "11")
    code2, out2, _ = run(capsys, "simulate", "--scenario", "apt",
                         "--profile", str(out_file), "-n", "1", "--seed", "11")
    assert code == 0 and code2 == 0
    assert out1 == out2
    assert "types:" in out1


def test_simulate_noise_isolation(capsys, tmp_path):
    out_file = tmp_path / "pbne.json"
    run(capsys, "solve", "pbne", "--scenario", "apt", "--seed", "0",
        "--out", str(out_file))
    _, clean, _ = run(capsys, "simulate", "--scenario", "apt",
                      "--profile", str(out_file), "-n", "1", "--seed", "4",
                      "--noise", "none")
    _, noisy, _ = run(capsys, "simulate", "--scenario", "apt",
                      "--profile", str(out_file), "-n", "1", "--seed", "4",
                      "--noise", "gaussian:1.0")
    def path_of(text):
        return [line.split("payoffs")[0] for line in text.splitlines()
                if line.startswith("  k=")]
    assert path_of(clean) == path_of(noisy)


def test_simulate_bad_n_exits_2(capsys, tmp_path):
    out_file = tmp_path / "pbne.json"
    run(capsys, "solve", "pbne", "--scenario", "apt", "--seed", "0",
        "--out", str(out_file))
    code, _, err = run(capsys, "simulate", "--scenario", "apt",
                       "--profile", str(out_file), "-n", "0")
    assert code == 2


def test_simulate_bad_noise_scale_exits_2(capsys, tmp_path):
    game = build_apt_game()
    path = tmp_path / "markov.json"
    dump_json(markov_profile_dict(game, StrategyProfile.uniform(game)), str(path))
    out_file = tmp_path / "sim.json"
    # the last two are finite, but the noisy totals or their squares
    # overflow float64
    for noise in ("gaussian:nan", "uniform:inf", "gaussian:-0",
                  "gaussian:1e308", "uniform:1e300"):
        code, _, err = run(capsys, "simulate", "--scenario", "apt", "--profile",
                           str(path), "-n", "5", "--noise", noise,
                           "--out", str(out_file))
        assert code == 2, noise
        assert "noise scale" in err
        assert not out_file.exists()


def _markov_profile(tmp_path):
    game = build_apt_game()
    path = tmp_path / "markov.json"
    dump_json(markov_profile_dict(game, StrategyProfile.uniform(game)), str(path))
    return str(path)


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_negative_seed_exits_2(capsys, tmp_path, command):
    out_file = tmp_path / "out.json"
    argv = (["solve", "pbne", "--scenario", "apt"] if command == "solve" else
            ["simulate", "--scenario", "apt", "--profile", _markov_profile(tmp_path),
             "-n", "5"])
    code, _, err = run(capsys, *argv, "--seed", "-1", "--out", str(out_file))
    assert code == 2
    assert "seed must be a non-negative integer" in err
    assert not out_file.exists()


@pytest.mark.parametrize("n", ["1", "5"])
def test_simulate_multi_word_seed(capsys, tmp_path, n):
    out_file = tmp_path / "sim.json"
    code, _, _ = run(capsys, "simulate", "--scenario", "apt", "--profile",
                     _markov_profile(tmp_path), "-n", n, "--seed",
                     "99999999999999999999999", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["results"]["n"] == int(n)


def test_verify_flags_inconsistent_beliefs(capsys, tmp_path):
    # beliefs frozen at the prior do not match a type-revealing profile
    out_file = tmp_path / "pbne.json"
    run(capsys, "solve", "pbne", "--scenario", "apt", "--seed", "0",
        "--out", str(out_file))
    report = json.loads(out_file.read_text())
    beliefs = report["results"]["beliefs"]
    for node in beliefs["defender"]:
        for t in beliefs["defender"][node]:
            beliefs["defender"][node][t] = [0.5, 0.5]
    for node in beliefs["user"]:
        for t in beliefs["user"][node]:
            beliefs["user"][node][t] = [0.5, 0.5]
    bel_file = tmp_path / "bel.json"
    dump_json(beliefs, str(bel_file))
    code, out, _ = run(capsys, "verify", "--scenario", "apt",
                       "--profile", str(out_file), "--beliefs", str(bel_file))
    assert code == 0
    assert "INCONSISTENT" in out


def test_params_override(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, out, _ = run(capsys, "solve", "bne", "--scenario", "static-bayesian",
                       "--params", '{"r0": 2.0, "r2": 3.0}',
                       "--out", str(out_file))
    assert code == 0
    code2, _, err = run(capsys, "solve", "bne", "--scenario", "static-bayesian",
                        "--params", '{"r0": -1.0}')
    assert code2 == 2


@pytest.mark.parametrize("command", [("solve", "ne", "--scenario", "static-baseline"),
                                     ("solve", "bne", "--scenario", "static-bayesian"),
                                     ("solve", "pbne", "--scenario", "apt",
                                      "--max-iter", "1")], ids=["ne", "bne", "pbne"])
@pytest.mark.parametrize("params", ["@missing.json", "@.", "@bad.json", "@list.json",
                                    "5", "[1]", '"r0"', "{bad", '{"no_such_key": 1}',
                                    '{"r1": 1e400}', '{"r1": NaN}', '{"r1": -Infinity}',
                                    '{"literal_avatar_cost": "no"}', '{"r1": true}',
                                    '{"r4_k_by_state": [NaN, 4, 8, 12]}', '{"r1": null}',
                                    '{"r1": 1%s}' % ("0" * 400)],
                         ids=["missing", "directory", "bad-file", "list-file", "number",
                              "list", "string", "bad", "unknown-key", "overflow", "nan",
                              "infinity", "text-for-bool", "bool-for-number", "nan-in-tuple",
                              "null", "integer-overflow"])
def test_bad_params_exit_2(capsys, tmp_path, command, params):
    (tmp_path / "bad.json").write_text("{bad", encoding="utf-8")
    (tmp_path / "list.json").write_text("[1]", encoding="utf-8")
    if params.startswith("@"):      # a file in tmp_path; "@." is the directory
        params = "@" + str(tmp_path / params[1:])
    out_file = tmp_path / "r.json"
    code, _, err = run(capsys, *command, "--params", params, "--out", str(out_file))
    assert code == 2
    assert "params" in err or "scenario" in err
    assert "Traceback" not in err
    assert not out_file.exists()
    if params.startswith('{"'):       # the message names the offending key
        assert repr(next(iter(json.loads(params)))) in err


@pytest.mark.parametrize("max_results", ["0", "-1"])
def test_solve_bne_max_results_below_one_exits_2(capsys, tmp_path, max_results):
    out_file = tmp_path / "r.json"
    code, _, err = run(capsys, "solve", "bne", "--scenario", "static-bayesian",
                       "--max-results", max_results, "--out", str(out_file))
    assert code == 2
    assert "invalid input" in err and "max_results" in err
    assert not out_file.exists()


def test_verify_reproduces_solve_epsilon_exactly(capsys, tmp_path):
    out_file = tmp_path / "pbne.json"
    code, out, _ = run(capsys, "solve", "pbne", "--scenario", "apt", "--seed", "0",
                       "--out", str(out_file))
    assert code == 0
    assert "stage programs (belief classes) per sweep: 8 " in out
    report = json.loads(out_file.read_text())["results"]
    assert report["profile"]["version"] == 2
    assert len(report["class_counts"]) == report["iterations"]
    verify_out = tmp_path / "verify.json"
    code2, _, _ = run(capsys, "verify", "--scenario", "apt",
                      "--profile", str(out_file), "--out", str(verify_out))
    assert code2 == 0
    assert json.loads(verify_out.read_text())["results"]["epsilon"] == report["epsilon"]


def test_verify_and_simulate_accept_markov_profiles(capsys, tmp_path):
    game = build_apt_game()
    path = tmp_path / "markov.json"
    dump_json(markov_profile_dict(game, StrategyProfile.uniform(game)), str(path))
    code, out, _ = run(capsys, "verify", "--scenario", "apt", "--profile", str(path))
    assert code == 0
    assert "no beliefs supplied" in out
    sim_out = tmp_path / "sim.json"
    code2, out2, _ = run(capsys, "simulate", "--scenario", "apt",
                         "--profile", str(path), "-n", "50", "--out", str(sim_out))
    assert code2 == 0
    assert "monte carlo over n=50" in out2
    counts = json.loads(sim_out.read_text())["results"]["counts"]
    assert all(isinstance(c, int) for side in counts.values() for c in side)
    assert sum(counts["defender"]) == sum(counts["user"]) == 50



def _per_history_expansion(game, markov: dict) -> dict:
    """The versioned per-history form of a Markov profile file: every
    history carries a copy of its state's rows."""
    out = {"version": 2}
    for side in ("defender", "user"):
        out[side] = {history_label(game, node): markov[side][k][game.stages[k].states[x]]
                     for node, (k, x) in build_tree(game).items()}
    return out


@pytest.mark.parametrize("noise", ["none", "gaussian:1.0", "uniform:0.5"])
@pytest.mark.parametrize("initial_state", ["external", "internal"])
def test_markov_file_matches_its_per_history_expansion(capsys, tmp_path, initial_state,
                                                       noise):
    game = build_apt_game(initial_state=initial_state)
    uniform = StrategyProfile.uniform(game)
    rng = np.random.default_rng(5)
    mixed = [[rng.random(a.shape) * (a > 0) for a in arrs]
             for arrs in (uniform.sigma1, uniform.sigma2)]
    profile = StrategyProfile(*(tuple(r / r.sum(axis=2, keepdims=True) for r in rows)
                                for rows in mixed), uniform.classes)
    markov = markov_profile_dict(game, profile)
    # one file path for both forms, so the reports' command lines agree
    path, out_file = tmp_path / "profile.json", tmp_path / "r.json"
    params = json.dumps({"initial_state": initial_state})
    runs = []
    for payload in (markov, _per_history_expansion(game, markov)):
        dump_json(payload, str(path))
        for argv in (("verify",), ("simulate", "-n", "500", "--noise", noise)):
            code, out, err = run(capsys, *argv, "--scenario", "apt", "--params", params,
                                 "--profile", str(path), "--out", str(out_file))
            runs.append((code, out, err, out_file.read_bytes()))
            out_file.unlink()
    assert [r[0] for r in runs] == [0] * 4
    assert runs[:2] == runs[2:]


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_markov_mass_on_masked_action_at_unreached_state_exits_2(capsys, tmp_path,
                                                                command):
    # no history of the internal game reaches state "external", yet its
    # rows are input and are checked like any other
    game = build_apt_game(initial_state="internal")
    raw = markov_profile_dict(game, StrategyProfile.uniform(game))
    raw["user"][0]["external"]["legitimate"] = [0.2, 0.3, 0.5]
    path, out_file = tmp_path / "markov.json", tmp_path / "r.json"
    dump_json(raw, str(path))
    code, _, err = run(capsys, command, "--scenario", "apt", "--params",
                       '{"initial_state": "internal"}', "--profile", str(path),
                       *(["-n", "5"] if command == "simulate" else []),
                       "--out", str(out_file))
    assert code == 2
    assert "masked action" in err and "Traceback" not in err
    assert not out_file.exists()


def test_offpath_grid_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "signaling", "--scenario", "static-bayesian",
              "--offpath-grid", "11"])
    assert exc.value.code == 2
    assert "--offpath-grid" in capsys.readouterr().err


def _too_large_game(kind) -> static.StaticBayesianGame:
    # 9x9 actions exceed mixed_ne's budget; 4 user types exceed the
    # mixed signaling enumeration's
    rng = np.random.default_rng(0)
    m1, m2, n2 = (9, 9, 1) if kind == "ne" else (2, 2, 4)
    return static.StaticBayesianGame(
        ("d",), tuple(f"u{i}" for i in range(n2)), FiniteDistribution([1.0]),
        FiniteDistribution(np.full(n2, 1 / n2)), rng.normal(size=(m1, m2, 1, n2)),
        rng.normal(size=(m1, m2, 1, n2)), *static.StaticBayesianGame.full_masks(m1, m2, 1, n2))


@pytest.mark.parametrize("command", [("ne",), ("signaling", "--method", "mixed"),
                                     ("signaling", "--method", "both")],
                         ids=["ne-9x9", "signaling-4-types", "signaling-both-4-types"])
def test_enumeration_budget_exits_2(capsys, tmp_path, command):
    path = tmp_path / "game.json"
    dump_json(game_to_dict(static.to_multistage(_too_large_game(command[0]))), str(path))
    out_file = tmp_path / "r.json"
    code, out, err = run(capsys, "solve", *command, "--game", str(path),
                         "--out", str(out_file))
    assert code == 2
    assert out == ""    # nothing is printed before every method has solved
    assert "invalid input" in err and "enumeration" in err
    assert "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ("ne", "--params", '{"no_such": 1}'),
    ("bne", "--params", '{"no_such": 1}'),
    ("bne", "--info", "complete", "--params", '{"no_such": 1}'),
    ("bne", "--info", "complete", "--max-results", "0")],
    ids=["ne-params", "bne-params", "bne-complete-params", "bne-complete-max-results"])
def test_exercise_qb_rejects_unused_options(capsys, tmp_path, argv):
    out_file = tmp_path / "r.json"
    code, _, err = run(capsys, "solve", argv[0], "--scenario", "exercise-qb", *argv[1:],
                       "--out", str(out_file))
    assert code == 2
    assert "no_such" in err or "max_results" in err
    assert "Traceback" not in err
    assert not out_file.exists()



def _set_first_belief_row(row):
    def mutate(profile, beliefs):
        per_type = next(iter(beliefs["defender"].values()))
        per_type[next(iter(per_type))] = row
        return profile, beliefs
    return mutate


def _rename_first_history(profile, beliefs):
    first = next(iter(beliefs["defender"]))
    beliefs["defender"]["nope,nope"] = beliefs["defender"].pop(first)
    return profile, beliefs


def _drop_user_history(profile, beliefs):
    beliefs["user"].pop(next(reversed(beliefs["user"])))
    return profile, beliefs


def _set_first_profile_row(row):
    def mutate(profile, beliefs):
        per_state = next(iter(profile["defender"][0].values()))
        per_state[next(iter(per_state))] = row
        return profile, beliefs
    return mutate


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("mutate", [
    _set_first_belief_row([0.5, 0.25, 0.25]), _rename_first_history, _drop_user_history,
    _set_first_belief_row("x"), _set_first_belief_row([-3, 7]),
    _set_first_belief_row([0.3, 0.3]), _set_first_belief_row([float("nan"), 1]),
    _set_first_profile_row("x"), _set_first_profile_row([float("nan"), 0.5, 0.5]),
    lambda profile, beliefs: ({"defender": [[1.0]], "user": [[1.0]]}, beliefs),
    lambda profile, beliefs: ([profile], beliefs),
    lambda profile, beliefs: (profile, [beliefs])],
    ids=["belief-length", "unknown-history", "missing-user-history", "belief-not-numeric",
         "belief-negative", "belief-sum", "belief-nan", "profile-not-numeric",
         "profile-nan", "profile-stage-array", "profile-array", "beliefs-array"])
def test_malformed_profile_or_beliefs_exit_2(capsys, tmp_path, command, mutate):
    game = build_apt_game()
    profile = StrategyProfile.uniform(game)
    raw = (markov_profile_dict(game, profile),
           beliefs_to_dict(game, multistage.forward_pass(game, profile)))
    profile_file, beliefs_file = tmp_path / "profile.json", tmp_path / "beliefs.json"
    for payload, path in zip(mutate(*raw), (profile_file, beliefs_file)):
        path.write_text(json.dumps(payload), encoding="utf-8")
    out_file = tmp_path / "r.json"
    code, _, err = run(capsys, command, "--scenario", "apt", "--profile", str(profile_file),
                       "--beliefs", str(beliefs_file), *(["-n", "5"] if command == "simulate"
                                                         else []), "--out", str(out_file))
    assert code == 2
    assert err and "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("source", [("--scenario", "static-bayesian"),
                                    ("--scenario", "static-baseline"), ("--game",)],
                         ids=["static-bayesian", "static-baseline", "game"])
def test_solve_bne_info_outside_exercise_qb_exits_2(capsys, tmp_path, source):
    if source == ("--game",):
        path = tmp_path / "game.json"
        dump_json(game_to_dict(static.to_multistage(build_static_bayesian())), str(path))
        source = ("--game", str(path))
    out_file = tmp_path / "r.json"
    code, _, err = run(capsys, "solve", "bne", *source, "--info", "complete",
                       "--out", str(out_file))
    assert code == 2
    assert "--info" in err and "exercise-qb" in err
    assert not out_file.exists()
