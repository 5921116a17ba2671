"""Monte Carlo play-out: determinism, noise isolation, convergence."""

import dataclasses

import numpy as np
import pytest

from secgames.core import MalformedInputError, StrategyProfile
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
        assert sum(s.payoff1 for s in traj.steps) == 3.0
        assert sum(s.payoff2 for s in traj.steps) == -3.0
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

def _block_rng(seed, block, stream):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(block, stream)))


def reference_playout(game, profile, rng_seed, noise, index):
    """The play-out as written before the search tables: ``rng.choice``
    per draw, and one noise value drawn per call, each generator first
    moved past the rows of the trajectories before ``index`` in its
    seed block."""
    noise = NoiseSpec.parse(noise)
    block, row = divmod(index, simulate._SEED_BLOCK)
    width = 2 * len(game.stages)
    rng = _block_rng(rng_seed, block, 0)
    rng.bit_generator.advance(row * (2 + width))
    noise_rng = _block_rng(rng_seed, block, 1)
    if noise.kind == "gaussian":        # the ziggurat's output count varies: draw past
        noise_rng.standard_normal(row * width)
    else:
        noise_rng.bit_generator.advance(row * width)

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
        a1 = int(rng.choice(st.m1, p=profile.rows(1, node)[t1]))
        a2 = int(rng.choice(st.m2, p=profile.rows(2, node)[t2]))
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
        cells["clean", 1][t1].append(sum(s.payoff1 for s in traj.steps))
        cells["clean", 2][t2].append(sum(s.payoff2 for s in traj.steps))
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
    states = StrategyProfile.uniform(game).classes      # each history's end state
    sig1, sig2 = [], []
    for st, x in zip(game.stages, states):
        for out, feas in ((sig1, st.payoff1.feasible), (sig2, st.payoff2.feasible)):
            rows = rng.random((len(x),) + feas.shape[1:]) * feas[x]
            out.append(rows / rows.sum(axis=2, keepdims=True))
    return StrategyProfile(tuple(sig1), tuple(sig2), tuple(np.arange(len(x)) for x in states))


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

    def test_more_than_one_block_matches_choice_loop(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        n = simulate._SEED_BLOCK + 3
        rep = monte_carlo_value(g, prof, n, rng_seed=37, noise="gaussian:1.0")
        ref = reference_monte_carlo(g, prof, n, 37, "gaussian:1.0")
        for name, expected in ref.items():
            assert getattr(rep, name).tobytes() == expected.tobytes(), name


SEEDS = (0, 1, 7, 2**31 - 1, 2**32, 2**64 + 3, 2**130 + 9)


class TestSeedKernel:
    @pytest.mark.parametrize("stream", [0, 1, 2])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_seed_sequence(self, seed, stream):
        # seed block b of a stream is Generator(PCG64(SeedSequence(seed, (b, stream))))
        g = build_apt_game()
        sampler = simulate._Sampler(g, StrategyProfile.uniform(g), seed, NoiseSpec())
        size = simulate._SEED_BLOCK

        def block_rows(block, gaussian):
            gen = _block_rng(seed, block, stream)
            return gen.standard_normal((size, 8)) if gaussian else gen.random((size, 8))

        for gaussian in (False, True):
            for block in (0, 1, 2**20 - 1):
                rows = block_rows(block, gaussian)
                for row in (0, 1, size - 1):
                    i = block * size + row
                    assert sampler._draws(stream, i, i + 1, 8, gaussian).tobytes() == \
                        rows[row].tobytes(), (block, gaussian, row)
                start = block * size
                assert sampler._draws(stream, start, start + size, 8, gaussian).tobytes() == \
                    rows.tobytes(), (block, gaussian)

    @pytest.mark.parametrize("width", [1, 8])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_match_generator_random(self, seed, width):
        # uniform rows are reached with advance(row * width), so the skip depends on width
        g = build_apt_game()
        sampler = simulate._Sampler(g, StrategyProfile.uniform(g), seed, NoiseSpec())
        size = simulate._SEED_BLOCK
        for stream in (0, 1):
            blocks = {b: _block_rng(seed, b, stream).random((size, width))
                      for b in (0, 1, 2**19, 2**20 - 1)}
            for i in (0, 1, 2, 49, size - 1, size, size + 1, 2**31, 2**32 - 1):
                got = sampler._draws(stream, i, i + 1, width)
                assert got.shape == (1, width)
                assert got.tobytes() == blocks[i // size][i % size].tobytes(), (i, stream)
            for start, stop in ((2, 9), (size - 3, size), (size + 1, size + 6)):
                expected = np.concatenate([blocks[0], blocks[1]])[start:stop]
                assert sampler._draws(stream, start, stop, width).tobytes() == \
                    expected.tobytes(), (start, stop, stream)

    @pytest.mark.parametrize("seed", [-1, -(2**64), 2.0, None, True, False])
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

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1", None])
    def test_trajectory_index_not_an_integer(self, index):
        g = build_apt_game()
        with pytest.raises(MalformedInputError, match="trajectory index must be a "
                                                      "non-negative integer"):
            sample_playout(g, StrategyProfile.uniform(g), trajectory_index=index)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None, 0, -3])
    def test_sample_count_not_a_positive_integer(self, n):
        g = build_apt_game()
        with pytest.raises(MalformedInputError, match="sample count must be an integer >= 1"):
            monte_carlo_value(g, StrategyProfile.uniform(g), n)

    def test_sample_count_above_index_range_rejected_before_sampling(self, monkeypatch):
        g = build_apt_game()

        def walk(*args):
            raise AssertionError("walk called")

        monkeypatch.setattr(simulate._Sampler, "walk", walk)
        with pytest.raises(MalformedInputError, match="at most 2\\*\\*32"):
            monte_carlo_value(g, StrategyProfile.uniform(g), 2**32 + 1)

    def test_numpy_integer_counts_accepted(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        assert sample_playout(g, prof, 3, trajectory_index=np.int64(4)) == \
               sample_playout(g, prof, 3, trajectory_index=4)
        assert monte_carlo_value(g, prof, np.int32(20), 3).mean1.tobytes() == \
               monte_carlo_value(g, prof, 20, 3).mean1.tobytes()

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

    def test_rows_are_checked_where_trajectories_reach_them(self):
        g = build_apt_game()
        uniform = StrategyProfile.uniform(g)
        bad_rows = ([0.3, 0.3, 0.3], [float("nan"), 1.0, 0.0])

        def with_stage(player, k, stage):
            arrays = list(uniform.arrays(player))
            arrays[k] = stage
            return dataclasses.replace(uniform, **{f"sigma{player}": tuple(arrays)})

        def stage1_rows(i):     # the user's stage-1 (row block, type) of trajectory i
            traj = reference_playout(g, uniform, 5, "none", i)
            return (g.stages[1].states.index(traj.steps[1].state),
                    g.types2.index(traj.type2))

        # stage 0 block 1 (state "internal") is no history's block
        stage0 = np.array(uniform.sigma1[0])
        stage0[1] = bad_rows
        unreached = with_stage(1, 0, stage0)
        for i in range(20):
            assert sample_playout(g, unreached, 5, "gaussian:1.0", trajectory_index=i) == \
                   sample_playout(g, uniform, 5, "gaussian:1.0", trajectory_index=i)
        got = monte_carlo_value(g, unreached, 300, rng_seed=5)
        want = monte_carlo_value(g, uniform, 300, rng_seed=5)
        assert got.mean1.tobytes() == want.mean1.tobytes() and got.first == want.first

        # two reached bad rows: the walk names the lowest (block, type),
        # a single trajectory its own
        stage1 = np.array(uniform.sigma2[1])
        stage1[2, 0] = stage1[1, 1] = [0.7, 0.7]
        reached = with_stage(2, 1, stage1)
        with pytest.raises(MalformedInputError,
                           match=r"^player 2 stage 1 row block 1 type 1 is not a distribution"):
            monte_carlo_value(g, reached, 300, rng_seed=5)
        pairs = [stage1_rows(i) for i in range(40)]
        for pair in ((2, 0), (1, 1)):
            i = pairs.index(pair)
            with pytest.raises(MalformedInputError, match="^player 2 stage 1 row block "
                                                          f"{pair[0]} type {pair[1]} is not"):
                sample_playout(g, reached, 5, trajectory_index=i)
        i = next(i for i, pair in enumerate(pairs) if pair not in ((2, 0), (1, 1)))
        assert sample_playout(g, reached, 5, trajectory_index=i) == \
               sample_playout(g, uniform, 5, trajectory_index=i)

        # a stage array one action too wide fails _cdf's shape check where reached
        wide = with_stage(2, 1, np.pad(uniform.sigma2[1], ((0, 0), (0, 0), (0, 1))))
        b, t = pairs[0]
        with pytest.raises(MalformedInputError, match=fr"^player 2 stage 1 row block {b} "
                                                      fr"type {t} has shape \(3,\), expected "
                                                      fr"\(2,\)$"):
            sample_playout(g, wide, 5)
        with pytest.raises(MalformedInputError, match=r"^player 2 stage 1 row block 0 type 0 "
                                                      r"has shape \(3,\), expected \(2,\)$"):
            monte_carlo_value(g, wide, 300, rng_seed=5)
