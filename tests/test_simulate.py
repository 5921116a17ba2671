"""Monte Carlo play-out: determinism, noise isolation, convergence."""

import dataclasses

import numpy as np
import pytest

from secgames.core import MalformedInputError, StrategyProfile, build_tree
from secgames.multistage import cumulative_utility, forward_pass
from secgames import simulate
from secgames.simulate import (NoiseSpec, Trajectory, TrajectoryStep,
                               monte_carlo_value, sample_playout)
from secgames.scenarios import build_apt_game, build_static_bayesian
from secgames.static import to_multistage
from tests.test_multistage import chain_game


class TestNoiseSpec:
    def test_parse(self):
        assert NoiseSpec.parse("none") == NoiseSpec()
        assert NoiseSpec.parse("gaussian:1.5") == NoiseSpec("gaussian", 1.5)
        assert NoiseSpec.parse("uniform:0.25") == NoiseSpec("uniform", 0.25)

    def test_parse_errors(self):
        with pytest.raises(MalformedInputError):
            NoiseSpec.parse("gaussian")
        with pytest.raises(MalformedInputError):
            NoiseSpec.parse("cauchy:1.0")

    @pytest.mark.parametrize("text", ["gaussian:nan", "uniform:nan", "gaussian:inf",
                                      "uniform:inf", "gaussian:-0", "uniform:-0.0",
                                      "gaussian:-1", "uniform:1e308"])
    def test_bad_scales_rejected(self, text):
        with pytest.raises(MalformedInputError):
            NoiseSpec.parse(text)

    def test_zero_scale_accepted(self):
        assert NoiseSpec.parse("gaussian:0").scale == 0.0
        assert NoiseSpec.parse("uniform:0.0").scale == 0.0


class TestSamplePlayout:
    def test_forced_chain_is_deterministic(self):
        g = chain_game([(1.0, -1.0), (2.0, -2.0)])
        prof = StrategyProfile.uniform(g)
        traj = sample_playout(g, prof, rng_seed=0)
        assert [s.state for s in traj.steps] == ["s0", "s1"]
        assert traj.total1 == 3.0 and traj.total2 == -3.0
        assert traj.terminal_state == "s2"

    def test_zero_noise_means_equal_payoffs(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        traj = sample_playout(g, prof, rng_seed=5, noise="none")
        for s in traj.steps:
            assert s.noisy1 == s.payoff1 and s.noisy2 == s.payoff2

    def test_fixed_seed_reproducible(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        t1 = sample_playout(g, prof, rng_seed=42, noise="gaussian:1.0")
        t2 = sample_playout(g, prof, rng_seed=42, noise="gaussian:1.0")
        assert t1 == t2

    def test_noise_never_changes_the_path(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        clean = sample_playout(g, prof, rng_seed=9, noise="none")
        noisy = sample_playout(g, prof, rng_seed=9, noise="gaussian:3.0")
        assert [(s.state, s.action1, s.action2) for s in clean.steps] == \
               [(s.state, s.action1, s.action2) for s in noisy.steps]
        assert (clean.type1, clean.type2) == (noisy.type1, noisy.type2)

    def test_states_chain_through_transitions(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        for i in range(25):
            traj = sample_playout(g, prof, rng_seed=100, trajectory_index=i)
            for k, step in enumerate(traj.steps):
                st = g.stages[k]
                x = st.state_index(step.state)
                a1 = st.actions1.index(step.action1)
                a2 = st.actions2.index(step.action2)
                nxt = st.next_states[int(st.transition_table[x, a1, a2])]
                if k + 1 < len(traj.steps):
                    assert traj.steps[k + 1].state == nxt
                else:
                    assert traj.terminal_state == nxt


class TestMonteCarloValue:
    def test_zero_game(self):
        g = chain_game([(0.0, 0.0)])
        prof = StrategyProfile.uniform(g)
        rep = monte_carlo_value(g, prof, 50, rng_seed=0)
        assert rep.mean1[0] == 0.0 and rep.stderr1[0] == 0.0

    def test_forced_chain_mean_exact(self):
        g = chain_game([(5.0, 1.0), (5.0, 1.0), (5.0, 1.0)])
        prof = StrategyProfile.uniform(g)
        rep = monte_carlo_value(g, prof, 20, rng_seed=0)
        assert rep.mean1[0] == pytest.approx(15.0, abs=1e-12)
        assert rep.stderr1[0] == 0.0

    def test_sample_count_validated(self):
        g = chain_game([(0.0, 0.0)])
        with pytest.raises(MalformedInputError):
            monte_carlo_value(g, StrategyProfile.uniform(g), 0)

    def test_noisy_mean_matches_clean_within_three_stderr(self):
        g = chain_game([(2.0, -1.0), (3.0, 1.0)])
        prof = StrategyProfile.uniform(g)
        rep = monte_carlo_value(g, prof, 100_000, rng_seed=1, noise="gaussian:1.0")
        for mean, noisy, err in ((rep.mean1[0], rep.noisy_mean1[0], rep.noisy_stderr1[0]),
                                 (rep.mean2[0], rep.noisy_mean2[0], rep.noisy_stderr2[0])):
            assert abs(noisy - mean) <= 3 * err

    def test_converges_to_tree_value(self):
        g = to_multistage(build_static_bayesian(2.0, 1.0, 3.0, 0.4))
        prof = StrategyProfile.uniform(g)
        bel = forward_pass(g, prof)
        rep = monte_carlo_value(g, prof, 100_000, rng_seed=7)
        for t2 in range(g.n2):
            exact = cumulative_utility(g, prof, bel, 0, t2)[1]
            err = max(rep.stderr2[t2], 1e-9)
            assert abs(rep.mean2[t2] - exact) <= 3 * err

    def test_counts_partition_n(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        rep = monte_carlo_value(g, prof, 500, rng_seed=2)
        assert rep.counts1.sum() == 500
        assert rep.counts2.sum() == 500
        assert rep.counts1.dtype.kind == rep.counts2.dtype.kind == "i"


# ---------------------------------------------------------------------------
# Oracle: the sampler against one Generator.choice call per draw
# ---------------------------------------------------------------------------

def _rng(seed, index, stream):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index, stream)))


def reference_playout(game, profile, rng_seed, noise, index):
    """The play-out as written before the search tables: ``rng.choice``
    per draw, and a noise generator built and drawn once per value."""
    noise = NoiseSpec.parse(noise)
    rng = _rng(rng_seed, index, 0)
    noise_rng = _rng(rng_seed, index, 1)

    def draw():
        if noise.kind == "gaussian":
            return float(noise_rng.normal(0.0, noise.scale))
        if noise.kind == "uniform":
            return float(noise_rng.uniform(-noise.scale, noise.scale))
        return 0.0

    t1 = int(rng.choice(game.n1, p=np.asarray(game.prior_about_1.weights)))
    t2 = int(rng.choice(game.n2, p=np.asarray(game.prior_about_2.weights)))
    x = game.stages[0].state_index(game.initial_state)
    node = ()
    steps = []
    for k, st in enumerate(game.stages):
        a1 = int(rng.choice(st.m1, p=profile.rows(1, node, x)[t1]))
        a2 = int(rng.choice(st.m2, p=profile.rows(2, node, x)[t2]))
        node = node + ((a1, a2),)
        pay1 = float(st.payoff1.values[x, a1, a2, t1, t2])
        pay2 = float(st.payoff2.values[x, a1, a2, t1, t2])
        w1, w2 = draw(), draw()
        steps.append(TrajectoryStep(k, st.states[x], st.actions1[a1],
                                    st.actions2[a2], pay1, pay2,
                                    pay1 + w1, pay2 + w2))
        x = int(st.transition_table[x, a1, a2])
    return Trajectory(game.types1[t1], game.types2[t2], tuple(steps),
                      game.stages[-1].next_states[x])


def reference_monte_carlo(game, profile, n, rng_seed, noise):
    """Per-type statistics from per-type lists of reference play-outs."""
    cells = {key: [[] for _ in range(game.n1 if key[1] == 1 else game.n2)]
             for key in (("clean", 1), ("clean", 2), ("noisy", 1), ("noisy", 2))}
    for i in range(n):
        traj = reference_playout(game, profile, rng_seed, noise, i)
        t1 = game.types1.index(traj.type1)
        t2 = game.types2.index(traj.type2)
        cells["clean", 1][t1].append(traj.total1)
        cells["clean", 2][t2].append(traj.total2)
        cells["noisy", 1][t1].append(sum(s.noisy1 for s in traj.steps))
        cells["noisy", 2][t2].append(sum(s.noisy2 for s in traj.steps))
    out = {"counts1": np.array([len(c) for c in cells["clean", 1]]),
           "counts2": np.array([len(c) for c in cells["clean", 2]])}
    for kind, prefix in (("clean", ""), ("noisy", "noisy_")):
        for player in (1, 2):
            means = np.zeros(len(cells[kind, player]))
            errs = np.zeros(len(cells[kind, player]))
            for t, cell in enumerate(cells[kind, player]):
                if cell:
                    arr = np.asarray(cell)
                    means[t] = arr.mean()
                    if arr.size > 1:
                        errs[t] = arr.std(ddof=1) / np.sqrt(arr.size)
            out[f"{prefix}mean{player}"] = means
            out[f"{prefix}stderr{player}"] = errs
    return out


def per_history_profile(game, seed=0):
    """Every history its own row block, with random rows over the
    feasible actions of its state."""
    rng = np.random.default_rng(seed)
    nodes = build_tree(game)
    classes, sig1, sig2 = {}, [], []
    for k, st in enumerate(game.stages):
        at_k = [(node, x) for node, (kk, x) in nodes.items() if kk == k]
        for out, feas in ((sig1, st.payoff1.feasible), (sig2, st.payoff2.feasible)):
            rows = rng.random((len(at_k),) + feas.shape[1:]) * feas[[x for _, x in at_k]]
            out.append(rows / rows.sum(axis=2, keepdims=True))
        for block, (node, _) in enumerate(at_k):
            classes[node] = block
    return StrategyProfile(tuple(sig1), tuple(sig2), classes)


PROFILES = {"uniform-markov": lambda g: StrategyProfile.uniform(g),
            "per-history": per_history_profile}
NOISES = ("none", "gaussian:1.0", "uniform:0.5")


class TestSamplerOracle:
    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    def test_sample_playout_matches_choice_loop(self, profile_name, noise):
        g = build_apt_game()
        prof = PROFILES[profile_name](g)
        assert not prof.violations(g)
        for i in range(200):
            assert sample_playout(g, prof, 13, noise, trajectory_index=i) == \
                   reference_playout(g, prof, 13, noise, i)

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    def test_monte_carlo_value_matches_choice_loop(self, profile_name, noise):
        g = build_apt_game()
        prof = PROFILES[profile_name](g)
        rep = monte_carlo_value(g, prof, 300, rng_seed=29, noise=noise)
        ref = reference_monte_carlo(g, prof, 300, 29, noise)
        for name, expected in ref.items():
            assert getattr(rep, name).tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("noise", NOISES)
    def test_multi_word_seed_matches_choice_loop(self, noise):
        g = build_apt_game()
        prof = per_history_profile(g)
        seed = 2**64 + 3
        for i in range(50):
            assert sample_playout(g, prof, seed, noise, trajectory_index=i) == \
                   reference_playout(g, prof, seed, noise, i)
        rep = monte_carlo_value(g, prof, 100, rng_seed=seed, noise=noise)
        ref = reference_monte_carlo(g, prof, 100, seed, noise)
        for name, expected in ref.items():
            assert getattr(rep, name).tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    def test_blocks_do_not_change_results(self, monkeypatch, profile_name, noise):
        g = build_apt_game()
        prof = PROFILES[profile_name](g)
        whole = monte_carlo_value(g, prof, 60, rng_seed=31, noise=noise)
        monkeypatch.setattr(simulate, "_BLOCK", 7)    # eight full blocks and a part
        split = monte_carlo_value(g, prof, 60, rng_seed=31, noise=noise)
        ref = reference_monte_carlo(g, prof, 60, 31, noise)
        for name, expected in ref.items():
            assert getattr(whole, name).tobytes() == expected.tobytes(), name
            assert getattr(split, name).tobytes() == expected.tobytes(), name

    def test_more_than_one_block_matches_choice_loop(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        n = simulate._BLOCK + 3
        rep = monte_carlo_value(g, prof, n, rng_seed=37, noise="gaussian:1.0")
        ref = reference_monte_carlo(g, prof, n, 37, "gaussian:1.0")
        for name, expected in ref.items():
            assert getattr(rep, name).tobytes() == expected.tobytes(), name


SEEDS = (0, 1, 7, 2**31 - 1, 2**32, 2**64 + 3, 2**130 + 9)
INDICES = tuple(range(50)) + (2**31, 2**32 - 1)


class TestSeedKernel:
    @pytest.mark.parametrize("stream", [0, 1, 2])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_seed_sequence(self, seed, stream):
        got = simulate._pcg64_seeds(seed, np.array(INDICES), stream)
        assert len(got) == len(INDICES)
        for i, (state, inc) in zip(INDICES, got):
            expected = np.random.default_rng(np.random.SeedSequence(
                entropy=seed, spawn_key=(i, stream))).bit_generator.state
            assert expected == {"bit_generator": "PCG64",
                                "state": {"state": state, "inc": inc},
                                "has_uint32": 0, "uinteger": 0}, (seed, i, stream)

    @pytest.mark.parametrize("seed", [-1, -(2**64), 2.0, None])
    def test_bad_seed_rejected(self, seed):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        with pytest.raises(MalformedInputError, match="seed must be a non-negative integer"):
            sample_playout(g, prof, rng_seed=seed)
        with pytest.raises(MalformedInputError, match="seed must be a non-negative integer"):
            monte_carlo_value(g, prof, 5, rng_seed=seed)

    @pytest.mark.parametrize("index", [-1, 2**32])
    def test_trajectory_index_out_of_range(self, index):
        g = build_apt_game()
        with pytest.raises(MalformedInputError):
            sample_playout(g, StrategyProfile.uniform(g), trajectory_index=index)

    def test_last_index_matches_choice_loop(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        assert sample_playout(g, prof, 3, "uniform:0.5", trajectory_index=2**32 - 1) == \
               reference_playout(g, prof, 3, "uniform:0.5", 2**32 - 1)


class TestMalformedRows:
    @pytest.mark.parametrize("row", [[1.1, -0.1, 0.0], [0.3, 0.3, 0.3]])
    def test_bad_row_raises_from_both(self, row):
        g = build_apt_game()
        uniform = StrategyProfile.uniform(g)
        x0 = g.stages[0].state_index(g.initial_state)
        stage0 = np.array(uniform.sigma1[0])
        stage0[x0, :] = row                     # every type of the root row
        prof = dataclasses.replace(uniform, sigma1=(stage0,) + uniform.sigma1[1:])
        with pytest.raises(MalformedInputError):
            sample_playout(g, prof, rng_seed=0)
        with pytest.raises(MalformedInputError):
            monte_carlo_value(g, prof, 10, rng_seed=0)
        with pytest.raises(ValueError):         # as Generator.choice rejects it
            reference_playout(g, prof, 0, "none", 0)
