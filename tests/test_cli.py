"""Command-line behavior: exit codes, reports, reproducibility."""

import json

import pytest

from secgames.cli import main
from secgames.core import StrategyProfile
from secgames.gamejson import dump_json, game_to_dict, profile_to_dict
from secgames.scenarios import build_apt_game


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
                       "static-bayesian", "--offpath-grid", "11",
                       "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["results"]["pure"]
    assert report["results"]["mixed"]
    for row in report["results"]["pure"]:
        assert row["gap"] <= 1e-8


def test_invalid_game_json_exits_2(capsys, tmp_path):
    game = build_apt_game()
    raw = game_to_dict(game)
    raw["priors"]["about_user"] = [0.6, 0.6]
    path = tmp_path / "bad.json"
    dump_json(raw, str(path))
    code, _, err = run(capsys, "solve", "ne", "--game", str(path))
    assert code == 2
    assert "not normalized" in err


def test_unknown_scenario_exits_2(capsys):
    code, _, err = run(capsys, "solve", "bne", "--scenario", "nope")
    assert code == 2
    assert "unknown scenario" in err


def test_pbne_report_and_verify_round_trip(capsys, tmp_path):
    out_file = tmp_path / "pbne.json"
    code, out, _ = run(capsys, "solve", "pbne", "--scenario", "apt",
                       "--seed", "0", "--restarts", "6", "--threads", "1",
                       "--out", str(out_file))
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
                       "--seed", "0", "--max-iter", "1", "--tol", "1e-300",
                       "--restarts", "2", "--threads", "1")
    assert code == 3
    assert "did not converge" in out
    assert "sweep 1" in out


def test_reports_are_byte_identical_for_same_seed(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "solve", "pbne", "--scenario", "apt",
                         "--seed", "3", "--restarts", "4", "--threads", "1",
                         "--out", str(path))
        assert code in (0, 3)
    assert a.read_bytes() == b.read_bytes()


def test_thread_count_does_not_change_results(capsys, tmp_path):
    a, b = tmp_path / "t1.json", tmp_path / "t4.json"
    run(capsys, "solve", "pbne", "--scenario", "apt", "--seed", "5",
        "--restarts", "4", "--threads", "1", "--out", str(a))
    run(capsys, "solve", "pbne", "--scenario", "apt", "--seed", "5",
        "--restarts", "4", "--threads", "4", "--out", str(b))
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    assert ra["results"]["profile"] == rb["results"]["profile"]
    assert ra["results"]["beliefs"] == rb["results"]["beliefs"]


def test_simulate_single_trajectory_deterministic(capsys, tmp_path):
    out_file = tmp_path / "pbne.json"
    run(capsys, "solve", "pbne", "--scenario", "apt", "--seed", "0",
        "--restarts", "4", "--threads", "1", "--out", str(out_file))
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
        "--restarts", "4", "--threads", "1", "--out", str(out_file))
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
        "--restarts", "4", "--threads", "1", "--out", str(out_file))
    code, _, err = run(capsys, "simulate", "--scenario", "apt",
                       "--profile", str(out_file), "-n", "0")
    assert code == 2


def test_simulate_bad_noise_scale_exits_2(capsys, tmp_path):
    game = build_apt_game()
    path = tmp_path / "markov.json"
    dump_json(profile_to_dict(game, StrategyProfile.uniform(game)), str(path))
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
    dump_json(profile_to_dict(game, StrategyProfile.uniform(game)), str(path))
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
        "--restarts", "4", "--threads", "1", "--out", str(out_file))
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
    dump_json(profile_to_dict(game, StrategyProfile.uniform(game)), str(path))
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

