"""Command-line behavior: exit codes, reports, reproducibility."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.generators import random_game
from perfbench.tracer import Tracer

import secgames
from secgames import multistage, scenarios, signaling, simulate, static
from secgames.cli import build_parser, main
from secgames.core import FiniteDistribution, StrategyProfile
from secgames.gamejson import (beliefs_to_dict, dump_json, game_to_dict, history_labels,
                               load_game, profile_from_dict, profile_to_dict)
from secgames.scenarios import build_apt_game, build_exercise_qb, build_static_bayesian
from tests.test_gamejson import (markov_profile_dict, per_history_profile_dict,
                                 with_earlier_aggregates)


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
    (("stages", 2, "next_states"), True, "next_states"),
    (("stages", 0, "next_states"), ["nowhere"], "stage 0: 'next_states'"),
    (("stages", 0, "next_states"), ["ceo", "employee", "honeypot"], "stage 0: 'next_states'"),
    (("priors", "about_defender", 0), 10**400, "priors: 'about_defender'"),
    (("stages", 0, "payoffs1", 0, 0, 0, 0, 0), 10**400, "stage 0: 'payoffs1'")],
    ids=["no-prior", "null-priors", "text-prior", "list-types", "text-horizon",
         "float-horizon", "null-stages", "number-stage", "null-states", "no-actions1",
         "no-payoffs1", "object-payoffs2", "no-transition", "empty-transition",
         "text-transition", "text-mask", "list-mask", "bool-next-states",
         "unknown-next-states", "reordered-next-states", "int-beyond-float-prior",
         "int-beyond-float-payoff"])
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


@pytest.mark.parametrize("seed", ["-1", str(-(2**70))])
def test_pbne_negative_seed_exits_2(capsys, tmp_path, seed):
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, "solve", "pbne", "--scenario", "apt", "--max-iter", "1",
                         "--seed", seed, "--out", str(out_file))
    assert code == 2
    assert "invalid input: seed must be a non-negative integer" in err
    assert "Traceback" not in err and "converge" not in out
    assert not out_file.exists()


def test_pbne_multi_word_seed_is_recorded_not_solved_with(capsys, tmp_path):
    reports = {}
    for seed in ("0", "99999999999999999999999"):
        out_file = tmp_path / f"pbne-{seed}.json"
        code, _, _ = run(capsys, "solve", "pbne", "--scenario", "apt",
                         "--seed", seed, "--out", str(out_file))
        assert code == 0
        reports[seed] = json.loads(out_file.read_text())
    big = reports["99999999999999999999999"]
    assert big["seed"] == 99999999999999999999999
    assert big["results"] == reports["0"]["results"]


@pytest.mark.parametrize("n", ["1", "5"])
def test_simulate_multi_word_seed(capsys, tmp_path, n):
    out_file = tmp_path / "sim.json"
    code, _, _ = run(capsys, "simulate", "--scenario", "apt", "--profile",
                     _markov_profile(tmp_path), "-n", n, "--seed",
                     "99999999999999999999999", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["results"]["n"] == int(n)


def test_simulate_n_above_index_range_exits_2(capsys, tmp_path, monkeypatch):
    def walk(*args):
        raise AssertionError("walk called")

    monkeypatch.setattr(simulate._Sampler, "walk", walk)
    out_file = tmp_path / "sim.json"
    code, _, err = run(capsys, "simulate", "--scenario", "apt", "--profile",
                       _markov_profile(tmp_path), "-n", str(2**32 + 1),
                       "--out", str(out_file))
    assert code == 2
    assert "at most 2**32" in err and "Traceback" not in err
    assert not out_file.exists()


def test_simulate_single_trajectory_walks_once(capsys, tmp_path, monkeypatch):
    calls = []
    walk = simulate._Sampler.walk

    def recording_walk(self, start, stop):
        calls.append((start, stop))
        return walk(self, start, stop)

    monkeypatch.setattr(simulate._Sampler, "walk", recording_walk)
    code, out, _ = run(capsys, "simulate", "--scenario", "apt", "--profile",
                       _markov_profile(tmp_path), "-n", "1", "--noise", "gaussian:1.0")
    assert code == 0 and "types:" in out
    assert calls == [(0, 1)]


# sha256 of simulate reports on the APT solve report, keyed by (-n, --noise, --seed)
_WIDE_SEED = str(2**64 + 3)
SIMULATE_DIGESTS = {
    ("1", "none", "0"): "37fce17492f0c58a746586ee181846f85a48d96256a23d787cd18c9c772c0343",
    ("1", "none", _WIDE_SEED): "3425e998b42fcb6911e741907a3c8e82919854bc758c51a182040b84abc741e0",
    ("1", "gaussian:1.0", "0"): "691c056983ca023a49dcc76db821baa03b608e4052d96efaf5d6a3f5d0173558",
    ("1", "gaussian:1.0", _WIDE_SEED): "206207a4f3fe6f40e73b5822625d1b4086164c2f888bec1f71431ac1c12c6793",
    ("1", "uniform:0.5", "0"): "e01632d795fe8905a4dfe04e17b560486cb32a649248fc371d09f860bad4b197",
    ("1", "uniform:0.5", _WIDE_SEED): "b208b5a1a267d1132138515b05ac2f64e4692a6284602adce44a0b612fbf8f8d",
    ("1000", "none", "0"): "7bed7a3b3783f1931ee78dd87a04c39612fdc0a684b2feb4de6227860bf16638",
    ("1000", "none", _WIDE_SEED): "f49046df8865680d64a2fdf33d94b380cc0878cc9c55b1b59f308b6acfbf6295",
    ("1000", "gaussian:1.0", "0"): "f446c4474a4e818987927e69841013cdbeb9478c0f7f748208494f4e13bcea2c",
    ("1000", "gaussian:1.0", _WIDE_SEED): "6faf17c1cea21b5873599627bbe68d037d04496569bb79618f6fd0f1f78388a6",
    ("1000", "uniform:0.5", "0"): "e55e4406ab3fea1f3a44b86371b6c6788c68c2343d5841e8ba9e22e0f483faf5",
    ("1000", "uniform:0.5", _WIDE_SEED): "a1f0670d41e1ee12d20efbd11b8a5464f2c88fcbc6616d5ca1a709764993d17f",
    ("5000", "none", "0"): "f2c0fdca603861c388ff9e9dcc2f1535a0f20aa236d0d36a37acc3066983cb1e",
    ("5000", "none", _WIDE_SEED): "7153cfba040fd74c0ba90f1338dd09f86d2ae5d7d2e2303392cd07027a08aef5",
    ("5000", "gaussian:1.0", "0"): "f8754e77c1da6255bed72770a1f13a8258213225d197592ed4a48c1fc8cc80fc",
    ("5000", "gaussian:1.0", _WIDE_SEED): "3d043f024a67236cc716f5c55190af7570db3a9142c416c3281278d82c04e88c",
    ("5000", "uniform:0.5", "0"): "1b116afaad7649f242d264cd614e5f19e7af5c023d13c320b014f467dd9bb625",
    ("5000", "uniform:0.5", _WIDE_SEED): "1481ae4fe34b18cfb527f274a802a4a3c38092c4cabe3f747a4ca89c51a2a0b4",
}


# exit code and sha256 of the multi-stage reports before those, keyed by argv
PBNE_DIGESTS = {
    ("solve", "pbne", "--scenario", "apt", "--out", "report.json"):
        (0, "5ec9880b7173910444577053ba5014ae68b5f38348d65b7dde80c39ed31b38fb"),
    ("solve", "pbne", "--scenario", "apt", "--max-iter", "2", "--out", "capped.json"):
        (3, "4d6ead80c3b2455b7b86ddd80f017ebe052d5799bd28559f5617de4e4eb15397"),
    ("verify", "--scenario", "apt", "--profile", "report.json", "--out", "verify.json"):
        (0, "cc8e84a17dfe5fbd6f6254eec649ae3bc01ed063ea3818e388f0a25bed6b7094"),
}


def test_simulate_reports_match_pinned_digests(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)             # the report's command holds the paths
    for argv, (code, digest) in PBNE_DIGESTS.items():
        assert run(capsys, *argv)[0] == code, argv
        out = tmp_path / argv[-1]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv
    for (n, noise, seed), digest in SIMULATE_DIGESTS.items():
        code, _, _ = run(capsys, "simulate", "--scenario", "apt", "--profile", "report.json",
                         "-n", n, "--noise", noise, "--seed", seed, "--out", "sim.json")
        assert code == 0
        assert hashlib.sha256((tmp_path / "sim.json").read_bytes()).hexdigest() == digest, \
            (n, noise, seed)


def _random_oneshot_game(seed: int, m: int, n: int) -> static.StaticBayesianGame:
    """m x m actions and n types per player, payoffs normal to 6 places."""
    rng = np.random.default_rng(seed)
    priors = {1: ([1.0], [1.0]), 2: ([0.3, 0.7], [0.6, 0.4])}[n]
    return static.StaticBayesianGame(
        tuple(f"d{i}" for i in range(n)), tuple(f"u{i}" for i in range(n)),
        FiniteDistribution(priors[0]), FiniteDistribution(priors[1]),
        np.round(rng.normal(size=(m, m, n, n)), 6), np.round(rng.normal(size=(m, m, n, n)), 6),
        *static.StaticBayesianGame.full_masks(m, m, n, n))


# (seed, actions, types) of the random games the one-shot digests read
ONESHOT_GAMES = {"ne-5x5-a.json": (501, 5, 1), "ne-5x5-b.json": (502, 5, 1),
                 "bne-3x3-a.json": (331, 3, 2), "bne-3x3-b.json": (332, 3, 2)}
# sha256 of one-shot solve reports, keyed by the command after "solve"
ONESHOT_DIGESTS = {
    ("ne", "--scenario", "static-baseline"):
        "d80367f11a318bce20018a28d69246538552622b38df03bf8d9826600b02ea75",
    ("bne", "--scenario", "exercise-qb", "--info", "uninformed"):
        "d379c8d523f1c686bdf037fd1dcf4e05df1a8fd2cc56462b4908e2c232959005",
    ("bne", "--scenario", "exercise-qb", "--info", "p1-informed"):
        "a55bce7531649aea9248c5ee6513cc0f857e91db3f8a63c5657dd2aa31bf98e6",
    ("bne", "--scenario", "exercise-qb", "--info", "complete"):
        "751fa8103927299334ee4b6d56b240981e55db5d1e001886dc4ad3c2b18d4f20",
    ("bne", "--scenario", "static-bayesian"):
        "f53feba58677592d82127ea3621fcbb9b4f24c35f200d3128c0d4083fa207a71",
    ("bne", "--scenario", "static-bayesian", "--max-results", "1"):
        "294d787a5aa497c4d9de39e0992786023693e50fd10ca2f4135c7a47acdd14af",
    ("bne", "--scenario", "static-bayesian", "--max-results", "2"):
        "e5693b43cec442c705c564818a833b4b7eee8f4fee952a9d023802a42b1b6731",
    ("ne", "--game", "ne-5x5-a.json"):
        "eb1402e4cd2de6fcaf614a41eee919260d614f6fff9f9a54773f311626bd32a2",
    ("ne", "--game", "ne-5x5-b.json"):
        "7b38fe0e87c98fda824ee59b7aa84fcc5cac61bb39b4bb31958f56b79d8539f1",
    ("bne", "--game", "bne-3x3-a.json"):
        "1d58a84800b732f28520ede7b1982431cb7fc6260062cb6a4cb5f452f22b626d",
    ("bne", "--game", "bne-3x3-b.json"):
        "89123e66eb67fde92c8e561948cd64d9ac910ef73a7efcfe543aa145e679de9d",
}


def test_oneshot_reports_match_pinned_digests(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)             # the report's command holds the paths
    for name, (seed, m, n) in ONESHOT_GAMES.items():
        dump_json(game_to_dict(static.to_multistage(_random_oneshot_game(seed, m, n))), name)
    for argv, digest in ONESHOT_DIGESTS.items():
        code, _, _ = run(capsys, "solve", *argv, "--out", "report.json")
        assert code == 0
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest, \
            argv


def test_verify_flags_inconsistent_beliefs(capsys, tmp_path):
    # beliefs frozen at the prior do not match a type-revealing profile
    out_file = tmp_path / "pbne.json"
    run(capsys, "solve", "pbne", "--scenario", "apt", "--seed", "0",
        "--out", str(out_file))
    game = build_apt_game()
    profile = profile_from_dict(game, json.loads(out_file.read_text())["results"]["profile"])
    beliefs = beliefs_to_dict(game, multistage.forward_pass(game, profile))
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
                                     ("solve", "signaling", "--scenario", "static-bayesian"),
                                     ("solve", "pbne", "--scenario", "apt",
                                      "--max-iter", "1")],
                         ids=["ne", "bne", "signaling", "pbne"])
@pytest.mark.parametrize("params", ["@missing.json", "@.", "@bad.json", "@list.json",
                                    "5", "[1]", '"r0"', "{bad", '{"no_such_key": 1}',
                                    '{"r1": 1e400}', '{"r1": NaN}', '{"r1": -Infinity}',
                                    '{"literal_avatar_cost": "no"}', '{"r1": true}',
                                    '{"r4_k_by_state": [NaN, 4, 8, 12]}', '{"r1": null}',
                                    '{"r1": 1%s}' % ("0" * 400), '{"r0": -3}'],
                         ids=["missing", "directory", "bad-file", "list-file", "number",
                              "list", "string", "bad", "unknown-key", "overflow", "nan",
                              "infinity", "text-for-bool", "bool-for-number", "nan-in-tuple",
                              "null", "integer-overflow", "builder-rejects"])
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
        assert repr(next(iter(json.loads(params)))) in err or "r0 must be" in err
    if params == '{"r0": -3}' and "static-bayesian" in command:
        # one-shot and multi-stage builders' errors read alike
        assert "scenario 'static-bayesian': r0 must be positive" in err


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
    assert report["profile"]["version"] == 3
    assert len(report["class_counts"]) == report["iterations"]
    # one row block per class of the last sweep, and no stored beliefs
    for side in ("defender", "user"):
        assert sum(map(len, report["profile"][side])) == report["class_counts"][-1]
    assert "beliefs" not in report
    assert "aggregates" not in report and "aggregation_discrepancy" not in report
    verify_out = tmp_path / "verify.json"
    code2, _, _ = run(capsys, "verify", "--scenario", "apt",
                      "--profile", str(out_file), "--out", str(verify_out))
    assert code2 == 0
    assert json.loads(verify_out.read_text())["results"]["epsilon"] == report["epsilon"]


@pytest.mark.parametrize("max_iter", ["100", "1"])
def test_version_2_report_verifies_and_simulates_as_version_3(capsys, tmp_path, monkeypatch,
                                                               max_iter):
    # the same solve as a report of the old form: a version-2 profile and
    # the beliefs, which are the forward pass of that profile
    monkeypatch.chdir(tmp_path)             # the reports' commands hold the paths
    code, _, _ = run(capsys, "solve", "pbne", "--scenario", "apt", "--max-iter", max_iter,
                     "--out", "report.json")
    assert code == (0 if max_iter == "100" else 3)
    v3 = json.loads((tmp_path / "report.json").read_text())
    game = build_apt_game()
    profile = profile_from_dict(game, v3["results"]["profile"])
    v2 = json.loads(json.dumps(v3))
    v2["results"].update(profile=per_history_profile_dict(game, profile),
                         beliefs=beliefs_to_dict(game, multistage.forward_pass(game, profile)))
    outputs = []
    for report in (v3, v2):
        dump_json(report, "report.json")
        runs = []
        for argv in (("verify",), ("simulate", "-n", "1000", "--noise", "gaussian:1.0")):
            code, out, _ = run(capsys, *argv, "--scenario", "apt", "--profile", "report.json",
                               "--out", "r.json")
            assert code == 0
            runs.append((out, (tmp_path / "r.json").read_bytes()))
        outputs.append(runs)
    assert outputs[0] == outputs[1]
    verified = json.loads(outputs[0][0][1])["results"]
    assert verified["beliefs_derived_from_profile"] is True
    if max_iter == "100":
        assert verified["epsilon"] == v3["results"]["epsilon"]


@pytest.mark.parametrize("source", ["apt", "random-h2"])
def test_derived_beliefs_are_the_forward_pass(capsys, tmp_path, monkeypatch, source):
    # a --beliefs file holding the profile's forward pass gives the reports
    # of no --beliefs, apart from the flag that says which beliefs were
    # used; so does such a file with the per-state aggregates and the
    # discrepancy that files of earlier versions hold
    monkeypatch.chdir(tmp_path)             # the reports' commands hold the paths
    if source == "apt":
        game, args, solve = build_apt_game(), ["--scenario", "apt"], []
    else:
        dump_json(random_game(np.random.default_rng(101), 2), "game.json")
        game, args, solve = load_game("game.json"), ["--game", "game.json"], ["--max-iter", "2"]
    code, _, _ = run(capsys, "solve", "pbne", *args, *solve, "--out", "report.json")
    assert code in (0, 3)
    profile = profile_from_dict(
        game, json.loads((tmp_path / "report.json").read_text())["results"]["profile"])
    beliefs = beliefs_to_dict(game, multistage.forward_pass(game, profile))
    dump_json(beliefs, "beliefs.json")
    dump_json(with_earlier_aggregates(game, beliefs), "earlier.json")
    note = ("note: no beliefs supplied; verified against the profile's "
            "own forward-pass beliefs\n")
    for argv in (["verify"], ["simulate", "-n", "500", "--noise", "none"],
                 ["simulate", "-n", "500", "--noise", "gaussian:1.0"]):
        runs = []
        for beliefs in ([], ["--beliefs", "beliefs.json"], ["--beliefs", "earlier.json"]):
            code, out, err = run(capsys, *argv, *args, "--profile", "report.json", *beliefs,
                                 "--out", "r.json")
            assert code == 0 and not err
            results = json.loads((tmp_path / "r.json").read_text())["results"]
            if argv[0] == "verify":
                assert results.pop("beliefs_derived_from_profile") == (not beliefs)
                assert out.startswith(note) == (not beliefs)
            runs.append((out.replace(note, ""), json.dumps(results, sort_keys=True)))
        assert runs[0] == runs[1] == runs[2], argv
        if "none" in argv:
            assert results["noisy_mean"] == results["mean"]
            assert results["noisy_stderr"] == results["stderr"]


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
    classes = StrategyProfile.uniform(game).classes      # each history's end state
    for side in ("defender", "user"):
        out[side] = {key: markov[side][k][game.stages[k].states[x]]
                     for k, (keys, states) in enumerate(zip(history_labels(game), classes))
                     for key, x in zip(keys, states)}
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
    assert "user profile rows at stage 0 for state 'external' put mass on a masked action" in err
    assert "Traceback" not in err
    assert not out_file.exists()


def test_offpath_grid_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "signaling", "--scenario", "static-bayesian",
              "--offpath-grid", "11"])
    assert exc.value.code == 2
    assert "--offpath-grid" in capsys.readouterr().err


@pytest.mark.parametrize("options", [("--ou", "r.json", "--tim"), ("--ou", "r.json"),
                                     ("--out=r.json", "--tim"), ("--ou=r.json",)])
def test_option_prefixes_exit_2(capsys, tmp_path, monkeypatch, options):
    # a prefix of --out or --timings would slip past the report's echo
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "ne", "--scenario", "static-baseline", *options])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _too_large_game(kind) -> static.StaticBayesianGame:
    # Both exceed the budget of 10**6 support profiles: 10x10 actions
    # give (2**10 - 1)**2 = 1,046,529.  The signaling game (3 user types,
    # 4 user actions as messages, 3 defender replies) gives 15**3 * 7**4 =
    # 8,103,375 mixed profiles, though its 4**3 * 3**4 = 5,184 pure ones
    # are inside the budget: --method both runs one mixed search, so it
    # refuses before any pure system is solved.
    rng = np.random.default_rng(0)
    m1, m2, n2 = (10, 10, 1) if kind == "ne" else (3, 4, 3)
    return static.StaticBayesianGame(
        ("d",), tuple(f"u{i}" for i in range(n2)), FiniteDistribution([1.0]),
        FiniteDistribution(np.full(n2, 1 / n2)), rng.normal(size=(m1, m2, 1, n2)),
        rng.normal(size=(m1, m2, 1, n2)), *static.StaticBayesianGame.full_masks(m1, m2, 1, n2))


@pytest.mark.parametrize("command", [("ne",), ("signaling", "--method", "mixed"),
                                     ("signaling", "--method", "both")],
                         ids=["ne-10x10", "signaling-3-types-4x3", "signaling-both-3-types-4x3"])
def test_enumeration_budget_exits_2(capsys, tmp_path, monkeypatch, command):
    path = tmp_path / "game.json"
    dump_json(game_to_dict(static.to_multistage(_too_large_game(command[0]))), str(path))
    out_file = tmp_path / "r.json"
    stack_runs = []
    solve_stack = static.solve_stack
    monkeypatch.setattr(static, "solve_stack",
                        lambda *args: stack_runs.append(1) or solve_stack(*args))
    code, out, err = run(capsys, "solve", *command, "--game", str(path),
                         "--out", str(out_file))
    assert code == 2
    assert out == ""    # nothing is printed before every method has solved
    assert "invalid input" in err and "enumeration" in err
    assert "Traceback" not in err
    assert not out_file.exists()
    # The budget is checked before any support system is built.
    assert stack_runs == []


def _signaling_pool_game(seed: int) -> static.StaticBayesianGame:
    """A game of the benchmark's signaling shape: 2 defender and 3 user
    actions, one defender type and two user types, payoffs normal to 6
    places."""
    rng = np.random.default_rng(seed)
    weight = round(float(rng.uniform(0.2, 0.8)), 6)
    return static.StaticBayesianGame(
        ("d",), ("u0", "u1"), FiniteDistribution([1.0]),
        FiniteDistribution([weight, round(1.0 - weight, 6)]),
        np.round(rng.normal(size=(2, 3, 1, 2)), 6), np.round(rng.normal(size=(2, 3, 1, 2)), 6),
        *static.StaticBayesianGame.full_masks(2, 3, 1, 2))


def test_signaling_both_reports_the_pure_and_mixed_results(capsys, tmp_path):
    # --method both runs one search; its lists are those of the separate
    # --method pure and --method mixed runs.
    sources = [("--scenario", name) for name in scenarios.SCENARIOS]
    for seed in range(20):
        path = tmp_path / f"game-{seed}.json"
        dump_json(game_to_dict(static.to_multistage(_signaling_pool_game(seed))), str(path))
        sources.append(("--game", str(path)))
    accepted = []
    for source in sources:
        codes, results = [], {}
        for method in ("pure", "mixed", "both"):
            out_file = tmp_path / f"{method}.json"
            out_file.unlink(missing_ok=True)
            code, _, _ = run(capsys, "solve", "signaling", *source, "--method", method,
                             "--out", str(out_file))
            codes.append(code)
            if code == 0:
                results[method] = json.loads(out_file.read_text())["results"]
        assert codes in ([0, 0, 0], [2, 2, 2]), (source, codes)
        if codes[0] == 0:
            accepted.append(source)
            assert results["both"] == {"pure": results["pure"]["pure"],
                                       "mixed": results["mixed"]["mixed"]}, source
    # static-baseline and static-bayesian lift; the two-sided ones do not.
    assert [s[1] for s in accepted[:2]] == ["static-baseline", "static-bayesian"]
    assert len(accepted) == 22


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


def _add_off_path_history(side, key):
    def mutate(profile, beliefs):
        beliefs["off_path"][side].append(key)
        return profile, beliefs
    return mutate


def _versioned_profile(change, to_dict=per_history_profile_dict):
    """The version-2 form of the uniform profile (version 3 with
    ``profile_to_dict``), edited in place by ``change``."""
    def mutate(profile, beliefs):
        game = build_apt_game()
        versioned = to_dict(game, StrategyProfile.uniform(game))
        change(versioned)
        return versioned, beliefs
    return mutate


_V3_ARRAYS = "profile 'classes', 'defender' and 'user' must be per-stage arrays of numbers"
_V3_LISTS = "profile 'classes' must be per-stage lists of block numbers"


def _v3_profile(change, wording):
    """Version 3 edited by ``change``; the CLI must print ``wording``,
    gamejson's message or a finding of ``StrategyProfile.violations``,
    not numpy's text."""
    mutate = _versioned_profile(change, profile_to_dict)
    mutate.wording = wording
    return mutate


def _v3_set(field, *path_and_value, wording):
    """Version 3 with ``raw[field][path...] = value``."""
    *path, index, value = path_and_value

    def change(raw):
        target = raw[field]
        for key in path:
            target = target[key]
        target[index] = value
    return _v3_profile(change, wording)


def _versioned_profile_with_history(side, key):
    """The versioned form of the uniform profile with rows for one more
    history key."""
    return _versioned_profile(lambda raw: raw[side].__setitem__(key, raw[side][""]))


def _versioned_profile_row(row):
    """The versioned form of the uniform profile with the first defender
    row of history ``"none,employee"`` replaced by ``row``."""
    def change(raw):
        per_type = raw["defender"]["none,employee"]
        per_type[next(iter(per_type))] = row
    return _versioned_profile(change)


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
    lambda profile, beliefs: (profile, [beliefs]),
    _add_off_path_history("defender", "nope,nope"), _add_off_path_history("user", "nope"),
    _versioned_profile_with_history("defender", "bogus,bogus;x,y"),
    _versioned_profile_with_history("user", "nope"),
    _versioned_profile_row([0.5, 0.25, 0.25]), _versioned_profile_row("x"),
    _versioned_profile(lambda raw: raw["user"].pop("none,employee")),
    _versioned_profile_row([10**400, 0]), _set_first_belief_row([10**400, 0]),
    lambda profile, beliefs: (profile, {"command": "verify", "seed": None, "results": {
        "epsilon": {}, "beliefs_derived_from_profile": True}}),
    lambda profile, beliefs: (profile, {"command": "solve pbne", "seed": 0, "results": {
        "profile": profile}}),
    _v3_set("defender", 0, 5, wording="player 1 stage 0 shape () is not (blocks, 2, 3)"),
    _v3_set("user", 0, 0, [[0.5, 0.5, 0.0]], wording=_V3_ARRAYS),
    _v3_set("defender", 1, 0, 0, "x", wording=_V3_ARRAYS),
    _v3_set("classes", 1, 0, 1.5, wording="profile class indices are not integers"),
    _v3_set("classes", 1, 0, True, wording=_V3_LISTS),
    _v3_set("classes", 2, 0, -1, wording="player 1 stage 2 names a missing row block"),
    _v3_set("classes", 1, 0, 3, wording="player 1 stage 1 names a missing row block"),
    _v3_profile(lambda raw: [raw[key].pop() for key in ("classes", "defender", "user")],
                "profile rows do not cover exactly the game's histories"),
    _v3_set("defender", 0, 0, 0, 0, 10**400, wording=_V3_ARRAYS),
    _v3_set("classes", 1, 0, 10**400, wording="profile class indices are not integers"),
    _v3_profile(lambda raw: raw.__setitem__("classes", 0), _V3_LISTS),
    _v3_profile(lambda raw: raw.__setitem__("version", 4), "unknown profile version 4")],
    ids=["belief-length", "unknown-history", "missing-user-history", "belief-not-numeric",
         "belief-negative", "belief-sum", "belief-nan", "profile-not-numeric",
         "profile-nan", "profile-stage-array", "profile-array", "beliefs-array",
         "off-path-unknown-defender", "off-path-unknown-user",
         "profile-unknown-defender-history", "profile-unknown-user-history",
         "profile-ragged-history-row", "profile-not-numeric-history-row",
         "profile-missing-history", "profile-int-beyond-float", "belief-int-beyond-float",
         "verify-report", "solve-report",
         "v3-0-d-stage", "v3-ragged-blocks", "v3-row-text", "v3-class-fraction",
         "v3-class-bool", "v3-class-negative", "v3-class-past-blocks", "v3-stage-missing",
         "v3-row-int-beyond-float", "v3-class-int-beyond-float", "v3-classes-not-list",
         "unknown-version"])
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
    assert getattr(mutate, "wording", "") in err
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_profile_and_beliefs_wrapper_file_exits_2(capsys, tmp_path, command):
    # --profile takes a bare profile or a full solve report, not a
    # {"profile": ..., "beliefs": ...} wrapper
    game = build_apt_game()
    profile = StrategyProfile.uniform(game)
    wrapper, out_file = tmp_path / "wrapper.json", tmp_path / "r.json"
    dump_json({"profile": markov_profile_dict(game, profile),
               "beliefs": beliefs_to_dict(game, multistage.forward_pass(game, profile))},
              str(wrapper))
    code, _, err = run(capsys, command, "--scenario", "apt", "--profile", str(wrapper),
                       *(["-n", "5"] if command == "simulate" else []), "--out", str(out_file))
    assert code == 2
    assert "cannot load profile/beliefs" in err and "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("bad", ["--profile", "--beliefs"])
def test_profile_or_beliefs_file_not_utf8_exits_2(capsys, tmp_path, command, bad):
    game = build_apt_game()
    good, latin1, out_file = tmp_path / "good.json", tmp_path / "latin1.json", tmp_path / "r.json"
    dump_json(markov_profile_dict(game, StrategyProfile.uniform(game)), str(good))
    latin1.write_bytes(b'\xff{"defender": []}')
    files = (("--profile", str(latin1)) if bad == "--profile"
             else ("--profile", str(good), "--beliefs", str(latin1)))
    code, _, err = run(capsys, command, "--scenario", "apt", *files, "--out", str(out_file))
    assert code == 2
    assert "cannot load profile/beliefs" in err and "Traceback" not in err
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


@pytest.mark.parametrize("command, game, params", [
    ("ne", lambda: static.to_multistage(build_static_bayesian()),
     '{"r1": "x", "anything": null}'),
    ("pbne", build_apt_game, '{"r1": 2.0}')], ids=["ne", "pbne"])
def test_params_with_game_file_exits_2(capsys, tmp_path, command, game, params):
    path, out_file = tmp_path / "game.json", tmp_path / "r.json"
    dump_json(game_to_dict(game()), str(path))
    code, _, err = run(capsys, "solve", command, "--game", str(path), "--params", params,
                       "--out", str(out_file))
    assert code == 2
    assert "--params" in err and "--game" in err
    assert not out_file.exists()


def test_scenario_and_game_file_together_exit_2(capsys, tmp_path):
    path, out_file = tmp_path / "game.json", tmp_path / "r.json"
    dump_json(game_to_dict(static.to_multistage(build_static_bayesian())), str(path))
    code, out, err = run(capsys, "solve", "ne", "--scenario", "static-baseline",
                         "--game", str(path), "--out", str(out_file))
    assert code == 2
    assert "--scenario" in err and "--game" in err
    assert out == "" and not out_file.exists()


@pytest.mark.parametrize("out", ["missing/r.json", "."], ids=["missing-dir", "directory"])
@pytest.mark.parametrize("command", [("solve", "ne", "--scenario", "static-baseline"),
                                     ("solve", "pbne", "--scenario", "apt")],
                         ids=["ne", "pbne"])
def test_unwritable_out_exits_2(capsys, tmp_path, command, out):
    out = str(tmp_path / out)
    code, _, err = run(capsys, *command, "--out", out)
    assert code == 2
    assert f"cannot write report {out!r}" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def apt_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("apt") / "report.json"
    assert main(["solve", "pbne", "--scenario", "apt", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("command", [
    ("solve", "ne", "--scenario", "static-baseline"),
    ("solve", "bne", "--scenario", "static-bayesian"),
    ("solve", "signaling", "--scenario", "static-bayesian"),
    ("solve", "pbne", "--scenario", "apt"),
    ("verify", "--scenario", "apt", "--profile"),
    ("simulate", "--scenario", "apt", "-n", "10", "--profile")],
    ids=["ne", "bne", "signaling", "pbne", "verify", "simulate"])
def test_timings_flag_adds_only_wall_clock(capsys, tmp_path, apt_report, command):
    if command[-1] == "--profile":
        command += (apt_report,)
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    assert run(capsys, *command, "--out", str(plain))[0] == 0
    assert run(capsys, *command, "--timings", "--out", str(timed))[0] == 0
    plain, timed = json.loads(plain.read_text()), json.loads(timed.read_text())
    assert "wall_clock_seconds" not in plain
    elapsed = timed.pop("wall_clock_seconds")
    assert isinstance(elapsed, float) and np.isfinite(elapsed) and elapsed >= 0
    assert "--timings" not in timed["command"]
    assert timed == plain


@pytest.mark.parametrize("command", [("solve", "pbne"), ("verify",), ("simulate", "-n", "10")],
                         ids=["pbne", "verify", "simulate"])
def test_uninformed_exercise_qb_has_no_multistage_form(capsys, tmp_path, command):
    # both players of the default exercise are uninformed; a multi-stage
    # game would let player 1 see its type and solve p1-informed instead
    informed = static.to_multistage(build_exercise_qb("p1-informed"))
    profile = tmp_path / "profile.json"
    dump_json(profile_to_dict(informed, StrategyProfile.uniform(informed)), str(profile))
    extra = () if command[0] == "solve" else ("--profile", str(profile))
    code, _, err = run(capsys, *command, "--scenario", "exercise-qb", *extra)
    assert code == 2
    assert "uninformed" in err and "Traceback" not in err


def test_p1_informed_exercise_qb_solves_as_pbne(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _, _ = run(capsys, "solve", "pbne", "--scenario", "exercise-qb",
                     "--params", '{"info": "p1-informed"}', "--out", str(out_file))
    assert code == 0
    results = json.loads(out_file.read_text())["results"]
    assert results["values"] == {"defender": [10.0, 14.0], "user": [14.0]}
    assert results["epsilon"]["defender"] == {"theta1": 0.0, "theta2": 0.0}


README = Path(__file__).resolve().parent.parent / "README.md"


def _expand(line: str) -> list[str]:
    """``line`` with its first ``[...]`` dropped and kept, else its first
    ``a|b|c`` as each alternative, expanded again until none is left."""
    bracket = re.search(r"\[([^][]*)\]", line)
    if bracket:
        before, after = line[:bracket.start()], line[bracket.end():]
        return _expand(before + after) + _expand(before + bracket.group(1) + after)
    choice = re.search(r"(?<!\S)[\w.-]+(\|[\w.-]+)+(?!\S)", line)
    if choice:
        return [expanded for alternative in choice.group().split("|")
                for expanded in _expand(line[:choice.start()] + alternative
                                        + line[choice.end():])]
    return [line]


def _readme_commands() -> list[list[str]]:
    """The argv, after ``secgames``, of every command of the README's
    "Command line" block in order, with ``\\`` continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        for expanded in _expand(line):
            program, *argv = shlex.split(expanded)
            assert program == "secgames", line
            commands.append(argv)
    return commands


def _parser_commands(parser, prefix=()):
    """Every command path of ``parser``, such as ``("solve", "pbne")``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parser_commands(sub, prefix + (name,))
            return
    yield prefix


def test_readme_command_block_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)             # the block's files are relative paths
    commands = _readme_commands()
    undocumented = [path for path in _parser_commands(build_parser())
                    if not any(argv[:len(path)] == list(path) for argv in commands)]
    assert not undocumented
    stdout = []
    for argv in commands:
        if "beliefs.json" in argv and not (tmp_path / "beliefs.json").exists():
            # reports store no beliefs; the file is their forward pass
            game = build_apt_game()
            profile = profile_from_dict(
                game, json.loads((tmp_path / "report.json").read_text())["results"]["profile"])
            dump_json(beliefs_to_dict(game, multistage.forward_pass(game, profile)),
                      "beliefs.json")
        code, out, err = run(capsys, *argv)
        assert code == 0 and "Traceback" not in err, (argv, code, err)
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).exists(), argv
        stdout.append(out)

    # the module's __main__ block and the process exit code, in two children
    src = os.path.dirname(os.path.dirname(os.path.abspath(secgames.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def child(*argv):
        return subprocess.run([sys.executable, "-m", "secgames.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)

    first_solve = next(i for i, argv in enumerate(commands) if argv[0] == "solve")
    valid = child(*commands[first_solve])
    assert valid.returncode == 0 and valid.stdout == stdout[first_solve], valid.stderr
    malformed = child("solve", "bne", "--scenario", "static-bayesian", "--info", "complete")
    assert malformed.returncode == 2, malformed.stderr
    assert malformed.stderr and "Traceback" not in malformed.stderr


def test_traced_pbne_has_one_backward_and_forward_span_per_sweep(tmp_path):
    # perfbench's sweep metrics count these spans under solve_pbne; a solver
    # that stopped calling the module-level passes would read 0 there
    tracer = Tracer()
    tracer.install()
    report = tmp_path / "pbne.json"
    try:
        tracer.run_op(0, {}, main, ["solve", "pbne", "--scenario", "apt", "--max-iter", "2",
                                    "--out", str(report)])
    finally:
        tracer.uninstall()
    sweeps = json.loads(report.read_text())["results"]["iterations"]
    solve, = (s for s in tracer.spans if s.name == "multistage.solve_pbne")
    under = [s.name for s in tracer.spans if s.parent == solve.id]
    assert sweeps == 2
    assert under.count("multistage.backward_pass") == sweeps
    assert under.count("multistage.forward_pass") == sweeps
