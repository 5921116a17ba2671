"""Multi-stage solver: beliefs, stage programs, passes, certificates."""

import dataclasses
import itertools

import numpy as np
import pytest

from secgames import multistage

from secgames.core import (FiniteDistribution, MalformedInputError, MultiStageGame,
                           PayoffTensor, StageGame, StrategyProfile)
from secgames.multistage import (ROW_ZERO_TOL, NonConvergenceReport,
                                 PbneSolution, backward_pass, belief_update, build_tree,
                                 cumulative_utility, forward_pass,
                                 prior_beliefs, root_values, solve_pbne,
                                 _stage_tensors, solve_stage_tensors,
                                 stage_deviation_gaps,
                                 verify_epsilon)
from secgames.scenarios import (build_apt_game, build_static_bayesian,
                                default_apt_parameters, exercise_qb_matrices)
from secgames.static import StaticBayesianGame, bayes_gap, to_multistage


def chain_game(payoffs_per_stage, n_stages=None):
    """Singleton-action game: one state per stage, forced moves."""
    stages = []
    payoffs_per_stage = list(payoffs_per_stage)
    for k, (pay1, pay2) in enumerate(payoffs_per_stage):
        j1 = np.full((1, 1, 1, 1, 1), float(pay1))
        j2 = np.full((1, 1, 1, 1, 1), float(pay2))
        feas = np.ones((1, 1, 1), bool)
        stages.append(StageGame(k, (f"s{k}",), ("go",), ("go",),
                                PayoffTensor(j1, feas), PayoffTensor(j2, feas),
                                np.zeros((1, 1, 1), int), (f"s{k + 1}",)))
    return MultiStageGame(len(stages) - 1, tuple(stages), ("*",), ("*",),
                          FiniteDistribution([1.0]), FiniteDistribution([1.0]),
                          "s0")


class TestBeliefUpdate:
    def test_type_independent_strategy_keeps_prior(self):
        post, on = belief_update([0.3, 0.7], [[0.5, 0.5], [0.5, 0.5]], 1)
        assert on
        np.testing.assert_allclose(post.weights, [0.3, 0.7])

    def test_hand_bayes(self):
        post, on = belief_update([0.5, 0.5], [[1.0, 0.0], [0.5, 0.5]], 0)
        assert on
        np.testing.assert_allclose(post.weights, [2 / 3, 1 / 3], atol=1e-12)

    def test_degenerate_prior_absorbing(self):
        post, on = belief_update([1.0, 0.0], [[0.5, 0.5], [0.9, 0.1]], 0)
        assert on
        np.testing.assert_allclose(post.weights, [1.0, 0.0])

    def test_off_path_keeps_prior_and_flags(self):
        post, on = belief_update([0.5, 0.5], [[1.0, 0.0], [1.0, 0.0]], 1)
        assert not on
        np.testing.assert_allclose(post.weights, [0.5, 0.5])


class TestStageBilinear:
    def test_single_type_coordination_matrix(self):
        bim = exercise_qb_matrices()["theta2"]
        j1 = bim.j1[:, :, None, None]
        j2 = bim.j2[:, :, None, None]
        feas = np.ones((1, 2), bool)
        sol = solve_stage_tensors(j1, j2, feas, feas, [1.0], [1.0])
        assert sol.converged
        assert abs(sol.objective) <= 1e-6
        np.testing.assert_allclose(sol.sigma1[0], [0, 1], atol=1e-9)
        np.testing.assert_allclose(sol.sigma2[0], [0, 1], atol=1e-9)

    def test_zero_game(self):
        z = np.zeros((2, 2, 1, 1))
        feas = np.ones((1, 2), bool)
        sol = solve_stage_tensors(z, z, feas, feas, [1.0], [1.0])
        assert sol.converged
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.s, 0.0, atol=1e-12)
        np.testing.assert_allclose(sol.w, 0.0, atol=1e-12)

    def test_escalation_stage_against_agent_form_oracle(self):
        # two-sided one-shot: restrict reward 3 (low) / 6 (high), r1=1, r2=4
        p = default_apt_parameters()
        p = type(p)(**{**p.__dict__, "r1": 1.0, "r2": 4.0, "r3": 3.0, "r4": 6.0})
        from secgames.scenarios import escalation_stage_game
        st = escalation_stage_game(p)
        zero = np.zeros((st.m1, st.m2, 2))
        t1, t2, feas1, feas2 = _stage_tensors(st, st.state_index("employee"), zero, zero)
        sol = solve_stage_tensors(t1, t2, feas1, feas2, [0.5, 0.5], [0.5, 0.5])
        assert sol.converged
        g = StaticBayesianGame(
            ("low", "high"), ("adversarial", "legitimate"),
            FiniteDistribution([0.5, 0.5]), FiniteDistribution([0.5, 0.5]),
            st.payoff1.values[1], st.payoff2.values[1],
            st.payoff1.feasible[1], st.payoff2.feasible[1])
        gap, _ = bayes_gap(g, sol.sigma1, sol.sigma2)
        assert gap <= 1e-6

    def test_masked_actions_never_in_support(self):
        rng = np.random.default_rng(5)
        j1 = rng.normal(size=(3, 3, 2, 2))
        j2 = rng.normal(size=(3, 3, 2, 2))
        feas1 = np.ones((2, 3), bool)
        feas2 = np.ones((2, 3), bool)
        feas2[1, 2] = False
        sol = solve_stage_tensors(j1, j2, feas1, feas2, [0.5, 0.5], [0.5, 0.5])
        assert sol.sigma2[1, 2] == 0.0

    def test_zero_belief_type_still_best_responds(self):
        rng = np.random.default_rng(6)
        j1 = rng.normal(size=(2, 2, 2, 2))
        j2 = rng.normal(size=(2, 2, 2, 2))
        feas = np.ones((2, 2), bool)
        sol = solve_stage_tensors(j1, j2, feas, feas, [1.0, 0.0], [0.5, 0.5])
        gaps1, gaps2 = stage_deviation_gaps(j1, j2, feas, feas,
                                            np.array([1.0, 0.0]),
                                            np.array([0.5, 0.5]),
                                            sol.sigma1, sol.sigma2)
        assert gaps1.max() <= 1e-6 and gaps2.max() <= 1e-6


class TestSignProperty:
    def test_feasible_points_nonpositive_and_equilibria_near_zero(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            m1, m2 = rng.integers(2, 4, size=2)
            j1 = rng.normal(size=(m1, m2, 2, 2))
            j2 = rng.normal(size=(m1, m2, 2, 2))
            feas1 = np.ones((2, m1), bool)
            feas2 = np.ones((2, m2), bool)
            b1 = rng.dirichlet(np.ones(2))
            b2 = rng.dirichlet(np.ones(2))
            for _ in range(100):
                s1 = rng.dirichlet(np.ones(m1), size=2)
                s2 = rng.dirichlet(np.ones(m2), size=2)
                pure1 = np.einsum("abst,t,tb->sa", j1, b2, s2)
                pure2 = np.einsum("abst,s,sa->tb", j2, b1, s1)
                s = -pure1.max(axis=1) - rng.uniform(0, 1, size=2) * rng.integers(0, 2)
                w = -pure2.max(axis=1)
                total = np.einsum("abst,s,t,sa,tb->", j1 + j2, b1, b2, s1, s2)
                obj = float(total + b2 @ w + b1 @ s)
                assert obj <= 1e-7
            sol = solve_stage_tensors(j1, j2, feas1, feas2, b1, b2)
            assert sol.converged, f"trial {trial}"
            assert abs(sol.objective) <= 1e-6


class TestForwardPass:
    def test_type_independent_profile_keeps_priors(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        # overwrite the user rows so both types share one feasible mix
        sig2 = [a.copy() for a in prof.sigma2]
        sig2[0][:, :, :] = np.array([0.5, 0.5, 0.0])
        prof2 = StrategyProfile(prof.sigma1, tuple(sig2), prof.classes)
        # defender rows are type-dependent only through masks (none here)
        bel = forward_pass(g, prof2)
        for k in range(2):
            np.testing.assert_allclose(bel.agg_about_2[k],
                                       np.tile([0.5, 0.5], (g.stages[k].n_states, 1)),
                                       atol=1e-12)

    def test_separating_stage_zero_degenerate_beliefs(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        sig2 = [a.copy() for a in prof.sigma2]
        sig2[0][:, 0, :] = [0.0, 1.0, 0.0]   # adversarial mails the executive
        sig2[0][:, 1, :] = [1.0, 0.0, 0.0]   # legitimate mails the employee
        prof2 = StrategyProfile(prof.sigma1, tuple(sig2), prof.classes)
        bel = forward_pass(g, prof2)
        for node, arr in bel.belief_p1.items():
            if len(node) != 1:
                continue
            (a1, a2) = node[0]
            if a2 == 1:
                np.testing.assert_allclose(arr, np.tile([1.0, 0.0], (2, 1)), atol=1e-12)
            elif a2 == 0:
                np.testing.assert_allclose(arr, np.tile([0.0, 1.0], (2, 1)), atol=1e-12)

    def test_on_path_bayes_matches_single_update(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        sig2 = [a.copy() for a in prof.sigma2]
        sig2[0][:, 0, :] = [1.0, 0.0, 0.0]
        sig2[0][:, 1, :] = [0.5, 0.5, 0.0]
        prof2 = StrategyProfile(prof.sigma1, tuple(sig2), prof.classes)
        bel = forward_pass(g, prof2)
        node = ((0, 0),)
        post, _ = belief_update([0.5, 0.5], sig2[0][0], 0)
        np.testing.assert_allclose(bel.belief_p1[node][0], post.weights, atol=1e-12)
        np.testing.assert_allclose(bel.belief_p1[node][0], [2 / 3, 1 / 3], atol=1e-12)

    def test_tree_size(self):
        g = build_apt_game()
        nodes = build_tree(g)
        assert len(nodes) == 1 + 9 + 36


class TestBackwardPass:
    def test_k0_equals_single_stage_solve(self):
        g = to_multistage(build_static_bayesian(2.0, 1.0, 3.0))
        bel = prior_beliefs(g)
        profile, values, sols = backward_pass(g, bel)
        st = g.stages[0]
        zero1, zero2 = np.zeros((st.m1, st.m2, g.n1)), np.zeros((st.m1, st.m2, g.n2))
        direct = solve_stage_tensors(*_stage_tensors(st, 0, zero1, zero2),
                                     g.prior_about_1, g.prior_about_2)
        np.testing.assert_allclose(profile.sigma1[0][0], direct.sigma1, atol=1e-9)
        np.testing.assert_allclose(profile.sigma2[0][0], direct.sigma2, atol=1e-9)

    def test_value_propagates_through_forced_chain(self):
        g = chain_game([(0.0, 0.0), (0.0, 0.0), (5.0, -2.0)])
        bel = prior_beliefs(g)
        profile, values, _ = backward_pass(g, bel)
        assert values.v1[0][0, 0] == pytest.approx(5.0, abs=1e-9)
        assert values.v2[0][0, 0] == pytest.approx(-2.0, abs=1e-9)
        assert values.v1[2][0, 0] == pytest.approx(5.0, abs=1e-9)

    def test_apt_values_finite(self):
        g = build_apt_game()
        profile, values, _ = backward_pass(g, prior_beliefs(g))
        x0 = g.stages[0].state_index(g.initial_state)
        assert np.isfinite(values.v1[0][x0]).all()
        assert np.isfinite(values.v2[0][x0]).all()


class TestSolvePbne:
    def test_k0_converges_in_one_sweep_and_matches_bne(self):
        static_g = build_static_bayesian(2.0, 1.0, 3.0)
        g = to_multistage(static_g)
        res = solve_pbne(g, seed=0)
        assert isinstance(res, PbneSolution)
        assert res.iterations == 1
        gap, _ = bayes_gap(static_g, res.profile.sigma1[0][0],
                           res.profile.sigma2[0][0])
        assert gap <= 1e-6
        assert max(res.epsilon.eps1.max(), res.epsilon.eps2.max()) <= 1e-6

    def test_type_independent_payoffs_keep_priors(self):
        rng = np.random.default_rng(8)
        j = rng.normal(size=(1, 2, 2, 1, 1))
        j1 = np.tile(j, (1, 1, 1, 2, 2))
        j2 = np.tile(rng.normal(size=(1, 2, 2, 1, 1)), (1, 1, 1, 2, 2))
        feas1 = np.ones((1, 2, 2), bool)
        feas2 = np.ones((1, 2, 2), bool)
        st = StageGame(0, ("x",), ("a", "b"), ("c", "d"),
                       PayoffTensor(j1, feas1), PayoffTensor(j2, feas2),
                       np.zeros((1, 2, 2), int), ("x",))
        st1 = StageGame(1, ("x",), ("a", "b"), ("c", "d"),
                        PayoffTensor(j1, feas1), PayoffTensor(j2, feas2),
                        np.zeros((1, 2, 2), int), ("x",))
        g = MultiStageGame(1, (st, st1), ("L", "H"), ("A", "B"),
                           FiniteDistribution([0.4, 0.6]),
                           FiniteDistribution([0.3, 0.7]), "x")
        res = solve_pbne(g, seed=0)
        assert isinstance(res, PbneSolution)
        for k in range(2):
            np.testing.assert_allclose(res.beliefs.agg_about_1[k], [[0.4, 0.6]], atol=1e-9)
            np.testing.assert_allclose(res.beliefs.agg_about_2[k], [[0.3, 0.7]], atol=1e-9)
        assert max(res.epsilon.eps1.max(), res.epsilon.eps2.max()) <= 1e-6

    def test_apt_outcome_is_wellformed(self):
        g = build_apt_game()
        res = solve_pbne(g, tol=1e-6, max_iter=40, seed=0)
        assert isinstance(res, (PbneSolution, NonConvergenceReport))
        if isinstance(res, PbneSolution):
            assert res.stage_gap <= 1e-6
            assert res.epsilon.belief_violation <= 1e-9
        else:
            assert len(res.residual_trace) == 40

    def test_non_convergence_is_reported_not_raised(self):
        g = build_apt_game()
        res = solve_pbne(g, tol=1e-12, max_iter=2, seed=0)
        if isinstance(res, NonConvergenceReport):
            assert len(res.residual_trace) == 2
            assert res.final_residuals == res.residual_trace[-1]

    def test_apt_grid_certifies(self):
        # 5 x 3 priors x both entry states; the multistart search certified
        # 16 of these 30 and stopped the other 14 at max_iter
        for pa in (0.1, 0.3, 0.5, 0.7, 0.9):
            for ph in (0.2, 0.5, 0.8):
                for state in ("external", "internal"):
                    p = dataclasses.replace(default_apt_parameters(), prior_adversarial=pa,
                                            prior_high_awareness=ph)
                    res = solve_pbne(build_apt_game(p, initial_state=state), seed=0)
                    assert isinstance(res, PbneSolution), (pa, ph, state)
                    assert max(res.epsilon.eps1.max(), res.epsilon.eps2.max()) <= 1e-4
                    assert res.epsilon.belief_violation <= 1e-9

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, None])
    def test_bad_seed_rejected(self, seed):
        g = build_apt_game()
        with pytest.raises(MalformedInputError, match="seed must be a non-negative integer"):
            solve_pbne(g, max_iter=1, seed=seed)

    def test_multi_word_seed_accepted(self):
        g = build_apt_game()
        res = solve_pbne(g, max_iter=1, seed=99999999999999999999999)
        assert isinstance(res, (PbneSolution, NonConvergenceReport))


class TestCumulativeUtility:
    def test_zero_game(self):
        g = chain_game([(0.0, 0.0), (0.0, 0.0)])
        prof = StrategyProfile.uniform(g)
        assert cumulative_utility(g, prof, prior_beliefs(g), 0, 0) == (0.0, 0.0)

    def test_k0_equals_stage_payoff(self):
        from secgames.core import expected_stage_payoff
        static_g = build_static_bayesian(2.0, 1.0, 3.0)
        g = to_multistage(static_g)
        prof = StrategyProfile.uniform(g)
        bel = forward_pass(g, prof)
        u1, u2 = cumulative_utility(g, prof, bel, 0, 0)
        v1 = expected_stage_payoff(g.stages[0], 0, prof.sigma1[0][0], prof.sigma2[0][0],
                                   g.prior_about_1, g.prior_about_2, 1, own_type=0)
        v2 = expected_stage_payoff(g.stages[0], 0, prof.sigma1[0][0], prof.sigma2[0][0],
                                   g.prior_about_1, g.prior_about_2, 2, own_type=0)
        assert u1 == pytest.approx(v1, abs=1e-12)
        assert u2 == pytest.approx(v2, abs=1e-12)

    def test_forced_chain_sums_and_suffix(self):
        g = chain_game([(1.0, -1.0), (2.0, -2.0), (4.0, -4.0)])
        prof = StrategyProfile.uniform(g)
        bel = prior_beliefs(g)
        assert cumulative_utility(g, prof, bel, 0, 0) == (7.0, -7.0)
        assert cumulative_utility(g, prof, bel, 0, 0, from_stage=1) == (6.0, -6.0)
        assert cumulative_utility(g, prof, bel, 0, 0, from_stage=2) == (4.0, -4.0)

    def test_matches_value_function_on_converged_solution(self):
        g = build_apt_game()
        res = solve_pbne(g, seed=0)
        assert isinstance(res, PbneSolution)
        x0 = g.stages[0].state_index(g.initial_state)
        for t1 in range(g.n1):
            u1, _ = cumulative_utility(g, res.profile, res.beliefs, t1, 0)
            assert u1 == pytest.approx(res.values.v1[0][x0, t1], abs=1e-6)
        for t2 in range(g.n2):
            _, u2 = cumulative_utility(g, res.profile, res.beliefs, 0, t2)
            assert u2 == pytest.approx(res.values.v2[0][x0, t2], abs=1e-6)

    def test_root_values_give_cumulative_utility(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        bel = forward_pass(g, prof)
        for from_stage in (0, 1):
            u1, u2 = root_values(g, prof, bel, from_stage)
            assert u1.shape == (g.n1,) and u2.shape == (g.n2,)
            for t1 in range(g.n1):
                for t2 in range(g.n2):
                    assert cumulative_utility(g, prof, bel, t1, t2, from_stage) == \
                           (float(u1[t1]), float(u2[t2]))


def _enumerate_best_user_policy(game, profile):
    """Brute-force best history-dependent pure policy for the user.

    Independent oracle for the certification pass: enumerate the user's
    pure history-dependent policies stage by stage over the joint
    (defender-type, history) measure, fixing the defender's profile.
    """
    nodes = build_tree(game)
    by_stage = [[] for _ in game.stages]
    for path, (k, _) in nodes.items():
        by_stage[k].append(path)
    n1 = game.n1
    p1w = np.asarray(game.prior_about_1.weights)

    def playout(policy, own_type):
        """policy: dict path -> a2. Exact expectation over defender types."""
        total = 0.0
        # measure over (theta1, path): start at root with prior weights
        dist = {(): p1w.copy()}
        for k, st in enumerate(game.stages):
            new_dist = {}
            for path, w in dist.items():
                x = nodes[path][1]
                a2 = policy[path]
                for t1 in range(n1):
                    if w[t1] <= 0:
                        continue
                    for a1 in range(st.m1):
                        pr = profile.sigma1[k][x, t1, a1]
                        if pr <= 0:
                            continue
                        total += w[t1] * pr * st.payoff1.values[x, a1, a2, t1, own_type] * 0
                        total += w[t1] * pr * st.payoff2.values[x, a1, a2, t1, own_type]
                        if k < game.horizon:
                            child = path + ((a1, a2),)
                            new_dist.setdefault(child, np.zeros(n1))
                            new_dist[child][t1] += w[t1] * pr
            dist = new_dist
        return total

    # enumerate policies: product over nodes of user actions
    all_paths = [p for stage_paths in by_stage for p in stage_paths]
    best = {}
    for own_type in range(game.n2):
        best_val = -np.inf
        m2s = [game.stages[nodes[p][0]].m2 for p in all_paths]
        for combo in itertools.product(*(range(m) for m in m2s)):
            policy = dict(zip(all_paths, combo))
            val = playout(policy, own_type)
            best_val = max(best_val, val)
        best[own_type] = best_val
    return best


class TestVerifyEpsilon:
    def test_zero_game_zero_eps(self):
        g = chain_game([(0.0, 0.0), (0.0, 0.0)])
        prof = StrategyProfile.uniform(g)
        rep = verify_epsilon(g, prof, prior_beliefs(g))
        assert rep.eps1.max() == 0.0 and rep.eps2.max() == 0.0

    def test_dominated_action_gap_is_exact(self):
        # one-stage game: user action 1 strictly dominates action 0 by 2.5
        j1 = np.zeros((1, 2, 2, 1, 1))
        j2 = np.zeros((1, 2, 2, 1, 1))
        j2[0, :, 1, 0, 0] = 2.5
        feas1 = np.ones((1, 1, 2), bool)
        feas2 = np.ones((1, 1, 2), bool)
        st = StageGame(0, ("x",), ("a", "b"), ("c", "d"),
                       PayoffTensor(j1, feas1), PayoffTensor(j2, feas2),
                       np.zeros((1, 2, 2), int), ("x",))
        g = MultiStageGame(0, (st,), ("*",), ("*",),
                           FiniteDistribution([1.0]), FiniteDistribution([1.0]), "x")
        sig1 = (np.full((1, 1, 2), 0.5),)
        sig2 = (np.array([[[1.0, 0.0]]]),)    # plays the dominated action
        prof = StrategyProfile(sig1, sig2, {(): 0})
        rep = verify_epsilon(g, prof, forward_pass(g, prof))
        assert rep.eps2[0] == pytest.approx(2.5, abs=1e-12)
        assert rep.eps1[0] == 0.0

    def test_exact_pure_equilibrium_has_zero_eps(self):
        # both players have a strictly dominant action; the hand-built
        # pure profile is an exact equilibrium
        j1 = np.zeros((1, 2, 2, 1, 1))
        j2 = np.zeros((1, 2, 2, 1, 1))
        j1[0, 1, :, 0, 0] += 1.0     # defender action b dominates
        j2[0, :, 1, 0, 0] += 1.0     # user action d dominates
        feas = np.ones((1, 1, 2), bool)
        st = StageGame(0, ("x",), ("a", "b"), ("c", "d"),
                       PayoffTensor(j1, feas), PayoffTensor(j2, feas),
                       np.zeros((1, 2, 2), int), ("x",))
        g = MultiStageGame(0, (st,), ("*",), ("*",),
                           FiniteDistribution([1.0]), FiniteDistribution([1.0]), "x")
        prof = StrategyProfile((np.array([[[0.0, 1.0]]]),),
                               (np.array([[[0.0, 1.0]]]),), {(): 0})
        rep = verify_epsilon(g, prof, forward_pass(g, prof))
        assert rep.eps1.max() <= 1e-9 and rep.eps2.max() <= 1e-9

    def test_inconsistent_beliefs_flagged(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        bel = forward_pass(g, prof)
        sig2 = [a.copy() for a in prof.sigma2]
        sig2[0][:, 0, :] = [0.0, 1.0, 0.0]
        prof2 = StrategyProfile(prof.sigma1, tuple(sig2), prof.classes)
        rep = verify_epsilon(g, prof2, bel)   # beliefs computed for prof, not prof2
        assert not rep.consistent

    def test_against_policy_enumeration_oracle(self):
        # tiny 2-stage game, exhaustive user-policy enumeration
        rng = np.random.default_rng(21)
        stages = []
        for k in range(2):
            j1 = rng.normal(size=(1, 2, 2, 2, 1)).round(2)
            j2 = rng.normal(size=(1, 2, 2, 2, 1)).round(2)
            feas1 = np.ones((1, 2, 2), bool)
            feas2 = np.ones((1, 1, 2), bool)
            stages.append(StageGame(k, ("x",), ("a", "b"), ("c", "d"),
                                    PayoffTensor(j1, feas1),
                                    PayoffTensor(j2, feas2),
                                    np.zeros((1, 2, 2), int), ("x",)))
        g = MultiStageGame(1, tuple(stages), ("L", "H"), ("*",),
                           FiniteDistribution([0.5, 0.5]),
                           FiniteDistribution([1.0]), "x")
        prof = StrategyProfile.uniform(g)
        bel = forward_pass(g, prof)
        rep = verify_epsilon(g, prof, bel)
        oracle = _enumerate_best_user_policy(g, prof)
        u2 = cumulative_utility(g, prof, bel, 0, 0)[1]
        assert rep.eps2[0] == pytest.approx(oracle[0] - u2, abs=1e-9)


class TestHistoryClasses:
    def test_round_off_mass_keeps_unplayed_actions_off_path(self, monkeypatch):
        # stage LPs can leave ~1e-16 on an action their solution does not
        # play; assembled rows drop it, so the histories behind that
        # action keep the flagged prior instead of a certain posterior
        g = build_apt_game()
        clean_profile, _, _ = backward_pass(g, prior_beliefs(g))
        clean = forward_pass(g, clean_profile)
        real = multistage.solve_stage_tensors

        def with_round_off(t1, t2, feas1, feas2, *args, **kwargs):
            sol = real(t1, t2, feas1, feas2, *args, **kwargs)
            return dataclasses.replace(
                sol, sigma1=np.where((sol.sigma1 == 0.0) & feas1, 1.94e-16, sol.sigma1),
                sigma2=np.where((sol.sigma2 == 0.0) & feas2, 1.94e-16, sol.sigma2))

        monkeypatch.setattr(multistage, "solve_stage_tensors", with_round_off)
        profile, _, _ = backward_pass(g, prior_beliefs(g))
        for arr in profile.sigma1 + profile.sigma2:
            assert not np.any((arr > 0.0) & (arr < ROW_ZERO_TOL))
        bel = forward_pass(g, profile)
        assert any(clean.off_path_p1.values()) and any(clean.off_path_p2.values())
        assert bel.off_path_p1 == clean.off_path_p1
        assert bel.off_path_p2 == clean.off_path_p2

    def test_histories_with_different_beliefs_get_their_own_programs(self):
        g = build_apt_game()
        bel = prior_beliefs(g)
        # make the defender certain of the adversarial user after one
        # stage-0 history only; its state shares nothing with the others
        node = ((0, 0),)
        bel.belief_p1[node] = np.tile([1.0, 0.0], (g.n1, 1))
        profile, _, sols = backward_pass(g, bel)
        x = build_tree(g)[node][1]
        peers = [p for p, (k, xx) in build_tree(g).items()
                 if k == 1 and xx == x and p != node]
        assert peers
        assert all(profile.classes[p] != profile.classes[node] for p in peers)
        assert len(sols) == sum(len(a) for a in profile.sigma1)

    def test_markov_profile_reads_as_shared_rows(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        for path, (k, x) in build_tree(g).items():
            np.testing.assert_array_equal(prof.rows(1, path), prof.sigma1[k][x])
            np.testing.assert_array_equal(prof.rows(2, path), prof.sigma2[k][x])

    def test_apt_converges_with_certified_epsilon_and_class_counts(self):
        g = build_apt_game()
        res = solve_pbne(g, seed=0)
        assert isinstance(res, PbneSolution)
        assert len(res.class_counts) == res.iterations == len(res.residual_trace)
        assert res.class_counts[0] == 8      # 1 + 3 + 4: one class per state
        assert max(res.epsilon.eps1.max(), res.epsilon.eps2.max()) <= 1e-4
        # the returned beliefs are the forward pass of the returned profile
        again = forward_pass(g, res.profile)
        for path, arr in again.belief_p1.items():
            np.testing.assert_array_equal(arr, res.beliefs.belief_p1[path])


def _tree_value_loop(game, profile, beliefs, player, own_type, best_response,
                     from_stage=0):
    """Reference: the per-node, per-action loop that the vectorized tree
    evaluation replaced, reading rows through the profile accessor."""
    nodes = build_tree(game)
    value = {}
    for path in sorted(nodes, key=len, reverse=True):
        k, x = nodes[path]
        st = game.stages[k]
        s1 = profile.rows(1, path)
        s2 = profile.rows(2, path)
        counted = k >= from_stage
        own_m, opp_m = (st.m1, st.m2) if player == 1 else (st.m2, st.m1)
        q = np.zeros(own_m)
        for a in range(own_m):
            for b in range(opp_m):
                a1, a2 = (a, b) if player == 1 else (b, a)
                cont = value[path + ((a1, a2),)] if k < game.horizon else 0.0
                if player == 1:
                    bel = beliefs.belief_p1[path][own_type]
                    pay = st.payoff1.values[x, a1, a2, own_type, :]
                    lik = bel * s2[:, a2]
                else:
                    bel = beliefs.belief_p2[path][own_type]
                    pay = st.payoff2.values[x, a1, a2, :, own_type]
                    lik = bel * s1[:, a1]
                if counted:
                    q[a] += float(lik @ pay)
                q[a] += float(lik.sum()) * cont
        feas = (st.payoff1 if player == 1 else st.payoff2).feasible[x, own_type]
        own = (s1 if player == 1 else s2)[own_type]
        value[path] = (float(np.where(feas, q, -np.inf).max())
                       if best_response and counted else float(own @ q))
    return value[()]


class TestVectorizedPassesMatchLoops:
    @pytest.fixture(params=["markov", "classes"])
    def case(self, request):
        g = build_apt_game()
        if request.param == "markov":
            prof = StrategyProfile.uniform(g)
        else:
            bel = prior_beliefs(g)
            bel.belief_p1[((0, 0),)] = np.tile([0.9, 0.1], (g.n1, 1))
            prof, _, _ = backward_pass(g, bel)
        return g, prof

    def test_tree_values(self, case):
        g, prof = case
        bel = forward_pass(g, prof)
        for t1 in range(g.n1):
            for t2 in range(g.n2):
                for from_stage in (0, 1):
                    u1, u2 = cumulative_utility(g, prof, bel, t1, t2, from_stage)
                    assert u1 == pytest.approx(
                        _tree_value_loop(g, prof, bel, 1, t1, False, from_stage), abs=1e-12)
                    assert u2 == pytest.approx(
                        _tree_value_loop(g, prof, bel, 2, t2, False, from_stage), abs=1e-12)
        rep = verify_epsilon(g, prof, bel)
        for player, eps in ((1, rep.eps1), (2, rep.eps2)):
            for t in range(len(eps)):
                gap = (_tree_value_loop(g, prof, bel, player, t, True)
                       - _tree_value_loop(g, prof, bel, player, t, False))
                assert eps[t] == pytest.approx(max(gap, 0.0), abs=1e-12)

    def test_forward_beliefs(self, case):
        g, prof = case
        bel = forward_pass(g, prof)
        for path, (k, _) in build_tree(g).items():
            if k == g.horizon:
                continue
            for a1 in range(g.stages[k].m1):
                for a2 in range(g.stages[k].m2):
                    child = path + ((a1, a2),)
                    for t in range(g.n1):
                        post, on = belief_update(bel.belief_p1[path][t],
                                                 prof.rows(2, path), a2)
                        np.testing.assert_allclose(bel.belief_p1[child][t],
                                                   post.weights, atol=1e-15)
                        if not on:
                            assert bel.off_path_p1[child]
                    for t in range(g.n2):
                        post, on = belief_update(bel.belief_p2[path][t],
                                                 prof.rows(1, path), a1)
                        np.testing.assert_allclose(bel.belief_p2[child][t],
                                                   post.weights, atol=1e-15)
                        if not on:
                            assert bel.off_path_p2[child]
