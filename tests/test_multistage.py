"""Multi-stage solver: beliefs, stage programs, passes, certificates."""

import dataclasses
import itertools

import numpy as np
import pytest

from secgames import multistage, simulate

from secgames.core import (BeliefSystem, FiniteDistribution, MalformedInputError,
                           MultiStageGame, PayoffTensor, StageGame, StrategyProfile,
                           stage_states)
from secgames.gamejson import history_labels, profile_to_dict
from secgames.multistage import (ROW_ZERO_TOL, _deviations, _prior_stage_beliefs,
                                 _stage_tensors, backward_pass, belief_update, build_tree,
                                 cumulative_utility, forward_pass, root_values, solve_pbne,
                                 solve_stage_tensors, verify_epsilon)
from secgames.scenarios import (build_apt_game, build_exercise_qb, build_static_bayesian,
                                default_apt_parameters, exercise_qb_matrices)
from secgames.static import (StaticBayesianGame, bayes_gap, equilibrium_values,
                             to_multistage)


def prior_beliefs(game) -> BeliefSystem:
    """The uninformative start: priors carried forward at every node."""
    tree = stage_states(game, build_tree(game))
    off = tuple(np.zeros(len(x), dtype=bool) for x in tree)
    return BeliefSystem(*_prior_stage_beliefs(game, tree), off, off)


def history_tree(game) -> dict:
    """Reference for ``build_tree``: every action history up to the final
    stage, mapped to (stage, end state), inserted stage by stage with
    each parent's children in (a1, a2) row-major order."""
    x0 = game.stages[0].state_index(game.initial_state)
    nodes = {(): (0, x0)}
    frontier = [()]
    for k in range(game.horizon):
        st = game.stages[k]
        nxt = []
        for path in frontier:
            x = nodes[path][1]
            for a1 in range(st.m1):
                for a2 in range(st.m2):
                    child = path + ((a1, a2),)
                    nodes[child] = (k + 1, int(st.transition_table[x, a1, a2]))
                    nxt.append(child)
        frontier = nxt
    return nodes


def _per_history(game, per_stage) -> dict:
    """Test-local view of per-stage arrays (build_tree order) keyed by
    history."""
    return dict(zip(history_tree(game), (v for stage in per_stage for v in stage)))


def _stage_paths(game) -> list[list]:
    """The histories of each stage, in build_tree order."""
    paths = list(history_tree(game))
    out, lo, size = [], 0, 1
    for st in game.stages:
        out.append(paths[lo:lo + size])
        lo, size = lo + size, size * st.m1 * st.m2
    return out


def _with_node_belief(beliefs, k, i, row, n_own):
    """``beliefs`` with player 1's belief at stage k's history i set to
    ``row`` for every own type."""
    stages = [a.copy() for a in beliefs.belief_p1]
    stages[k][i] = np.tile(row, (n_own, 1))
    return dataclasses.replace(beliefs, belief_p1=tuple(stages))


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
        st = build_apt_game(p).stages[1]
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
        gaps1, gaps2 = _deviations(j1, j2, feas, feas, np.array([1.0, 0.0]),
                                   np.array([0.5, 0.5]), sol.sigma1, sol.sigma2)[2:]
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
            np.testing.assert_allclose(bel.belief_p1[k],
                                       np.broadcast_to([0.5, 0.5], bel.belief_p1[k].shape),
                                       atol=1e-12)

    def test_separating_stage_zero_degenerate_beliefs(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        sig2 = [a.copy() for a in prof.sigma2]
        sig2[0][:, 0, :] = [0.0, 1.0, 0.0]   # adversarial mails the executive
        sig2[0][:, 1, :] = [1.0, 0.0, 0.0]   # legitimate mails the employee
        prof2 = StrategyProfile(prof.sigma1, tuple(sig2), prof.classes)
        bel = forward_pass(g, prof2)
        for i, arr in enumerate(bel.belief_p1[1]):
            a2 = i % g.stages[0].m2
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
        post, _ = belief_update([0.5, 0.5], sig2[0][0], 0)
        # history ((0, 0),) is stage 1's first
        np.testing.assert_allclose(bel.belief_p1[1][0][0], post.weights, atol=1e-12)
        np.testing.assert_allclose(bel.belief_p1[1][0][0], [2 / 3, 1 / 3], atol=1e-12)

    def test_tree_size(self):
        g = build_apt_game()
        assert len(build_tree(g)) == 1 + 9 + 36


class TestBackwardPass:
    def test_k0_equals_single_stage_solve(self):
        g = to_multistage(build_static_bayesian(2.0, 1.0, 3.0))
        bel = prior_beliefs(g)
        profile, sols = backward_pass(g, bel)
        st = g.stages[0]
        zero1, zero2 = np.zeros((st.m1, st.m2, g.n1)), np.zeros((st.m1, st.m2, g.n2))
        direct = solve_stage_tensors(*_stage_tensors(st, 0, zero1, zero2),
                                     g.prior_about_1, g.prior_about_2)
        np.testing.assert_allclose(profile.sigma1[0][0], direct.sigma1, atol=1e-9)
        np.testing.assert_allclose(profile.sigma2[0][0], direct.sigma2, atol=1e-9)

    def test_value_propagates_through_forced_chain(self):
        g = chain_game([(0.0, 0.0), (0.0, 0.0), (5.0, -2.0)])
        bel = prior_beliefs(g)
        profile, _ = backward_pass(g, bel)
        u1, u2 = root_values(g, profile, bel)
        assert u1[0] == pytest.approx(5.0, abs=1e-9)
        assert u2[0] == pytest.approx(-2.0, abs=1e-9)
        v1 = multistage._node_values(g, multistage._stages(g), profile.history_rows(),
                                     bel.belief_p1, 1, False)
        assert v1[2][0, 0] == pytest.approx(5.0, abs=1e-9)

    def test_apt_values_finite(self):
        g = build_apt_game()
        bel = prior_beliefs(g)
        profile, _ = backward_pass(g, bel)
        u1, u2 = root_values(g, profile, bel)
        assert np.isfinite(u1).all() and np.isfinite(u2).all()


class TestSolvePbne:
    def test_k0_converges_in_one_sweep_and_matches_bne(self):
        static_g = build_static_bayesian(2.0, 1.0, 3.0)
        g = to_multistage(static_g)
        res = solve_pbne(g)
        assert res.converged
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
        res = solve_pbne(g)
        assert res.converged
        for node_beliefs, prior in ((res.beliefs.belief_p2, [0.4, 0.6]),
                                    (res.beliefs.belief_p1, [0.3, 0.7])):
            for arr in node_beliefs:
                np.testing.assert_allclose(arr, np.broadcast_to(prior, arr.shape), atol=1e-9)
        assert max(res.epsilon.eps1.max(), res.epsilon.eps2.max()) <= 1e-6

    def test_apt_outcome_is_wellformed(self):
        g = build_apt_game()
        res = solve_pbne(g, tol=1e-6, max_iter=40)
        assert res.converged
        assert res.stage_gap <= 1e-6
        assert res.epsilon.belief_violation <= 1e-9

    def test_non_convergence_is_reported_not_raised(self):
        g = build_apt_game()
        res = solve_pbne(g, tol=1e-12, max_iter=2)
        assert not res.converged
        assert res.iterations == len(res.residual_trace) == len(res.class_counts) == 2
        assert res.values is None and res.epsilon is None and res.stage_gap is None
        assert res.profile.violations(g) == []
        # the beliefs are the forward pass of the last sweep's profile
        again = forward_pass(g, res.profile)
        for field in dataclasses.fields(again):
            got, ref = getattr(res.beliefs, field.name), getattr(again, field.name)
            assert len(got) == len(ref)
            for arr, ref_arr in zip(got, ref):
                assert arr.dtype == ref_arr.dtype and arr.shape == ref_arr.shape
                assert arr.tobytes() == ref_arr.tobytes(), field.name

    def test_apt_grid_certifies(self):
        # 5 x 3 priors x both entry states; the multistart search certified
        # 16 of these 30 and stopped the other 14 at max_iter
        for pa in (0.1, 0.3, 0.5, 0.7, 0.9):
            for ph in (0.2, 0.5, 0.8):
                for state in ("external", "internal"):
                    p = dataclasses.replace(default_apt_parameters(), prior_adversarial=pa,
                                            prior_high_awareness=ph)
                    res = solve_pbne(build_apt_game(p, initial_state=state))
                    assert res.converged, (pa, ph, state)
                    assert max(res.epsilon.eps1.max(), res.epsilon.eps2.max()) <= 1e-4
                    assert res.epsilon.belief_violation <= 1e-9

    @pytest.mark.parametrize("kwargs", [{"tol": True}, {"tol": False}, {"tol": -1e-9},
                                        {"tol": float("nan")}, {"max_iter": True},
                                        {"max_iter": 0}, {"max_iter": 2.0}])
    def test_bad_tol_or_max_iter_rejected(self, kwargs):
        with pytest.raises(MalformedInputError, match="tol|max_iter"):
            solve_pbne(build_apt_game(), **kwargs)


class TestCumulativeUtility:
    def test_zero_game(self):
        g = chain_game([(0.0, 0.0), (0.0, 0.0)])
        prof = StrategyProfile.uniform(g)
        assert cumulative_utility(g, prof, prior_beliefs(g), 0, 0) == (0.0, 0.0)

    def test_k0_equals_stage_payoff(self):
        static_g = build_static_bayesian(2.0, 1.0, 3.0)
        g = to_multistage(static_g)
        prof = StrategyProfile.uniform(g)
        bel = forward_pass(g, prof)
        u1, u2 = cumulative_utility(g, prof, bel, 0, 0)
        v1, v2, _, _ = equilibrium_values(static_g, prof.sigma1[0][0], prof.sigma2[0][0])
        assert u1 == pytest.approx(v1[0], abs=1e-12)
        assert u2 == pytest.approx(v2[0], abs=1e-12)

    def test_forced_chain_sums_and_suffix(self):
        g = chain_game([(1.0, -1.0), (2.0, -2.0), (4.0, -4.0)])
        prof = StrategyProfile.uniform(g)
        bel = prior_beliefs(g)
        assert cumulative_utility(g, prof, bel, 0, 0) == (7.0, -7.0)

    def test_matches_value_function_on_converged_solution(self):
        g = build_apt_game()
        res = solve_pbne(g)
        assert res.converged
        for t1 in range(g.n1):
            u1, _ = cumulative_utility(g, res.profile, res.beliefs, t1, 0)
            assert u1 == pytest.approx(res.values[0][t1], abs=1e-6)
        for t2 in range(g.n2):
            _, u2 = cumulative_utility(g, res.profile, res.beliefs, 0, t2)
            assert u2 == pytest.approx(res.values[1][t2], abs=1e-6)
        # the solve's values are the root values of what it returns
        for got, ref in zip(res.values, root_values(g, res.profile, res.beliefs)):
            assert got.tobytes() == ref.tobytes()

    def test_root_values_give_cumulative_utility(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        bel = forward_pass(g, prof)
        u1, u2 = root_values(g, prof, bel)
        assert u1.shape == (g.n1,) and u2.shape == (g.n2,)
        for t1 in range(g.n1):
            for t2 in range(g.n2):
                assert cumulative_utility(g, prof, bel, t1, t2) == (float(u1[t1]), float(u2[t2]))


def _enumerate_best_user_policy(game, profile):
    """Brute-force best history-dependent pure policy for the user.

    Independent oracle for the certification pass: enumerate the user's
    pure history-dependent policies stage by stage over the joint
    (defender-type, history) measure, fixing the defender's profile.
    """
    nodes = history_tree(game)
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
        prof = StrategyProfile(sig1, sig2, (np.array([0]),))
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
                               (np.array([[[0.0, 1.0]]]),), (np.array([0]),))
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
        clean_profile, _ = backward_pass(g, prior_beliefs(g))
        clean = forward_pass(g, clean_profile)
        real = multistage.solve_stage_tensors

        def with_round_off(t1, t2, feas1, feas2, *args, **kwargs):
            sol = real(t1, t2, feas1, feas2, *args, **kwargs)
            return dataclasses.replace(
                sol, sigma1=np.where((sol.sigma1 == 0.0) & feas1, 1.94e-16, sol.sigma1),
                sigma2=np.where((sol.sigma2 == 0.0) & feas2, 1.94e-16, sol.sigma2))

        monkeypatch.setattr(multistage, "solve_stage_tensors", with_round_off)
        profile, _ = backward_pass(g, prior_beliefs(g))
        for arr in profile.sigma1 + profile.sigma2:
            assert not np.any((arr > 0.0) & (arr < ROW_ZERO_TOL))
        bel = forward_pass(g, profile)
        assert any(o.any() for o in clean.off_path_p1) and any(o.any() for o in clean.off_path_p2)
        for got, ref in ((bel.off_path_p1, clean.off_path_p1),
                         (bel.off_path_p2, clean.off_path_p2)):
            assert [o.tolist() for o in got] == [o.tolist() for o in ref]

    def test_histories_with_different_beliefs_get_their_own_programs(self):
        g = build_apt_game()
        # make the defender certain of the adversarial user after one
        # stage-0 history only (stage 1's first); its state shares
        # nothing with the others
        bel = _with_node_belief(prior_beliefs(g), 1, 0, [1.0, 0.0], g.n1)
        profile, sols = backward_pass(g, bel)
        states = multistage._stages(g)[1]
        peers = np.flatnonzero(states == states[0])[1:]
        assert peers.size
        assert all(profile.classes[1][i] != profile.classes[1][0] for i in peers)
        assert len(sols) == sum(len(a) for a in profile.sigma1)

    def test_markov_profile_reads_as_shared_rows(self):
        g = build_apt_game()
        prof = StrategyProfile.uniform(g)
        for path, (k, x) in history_tree(g).items():
            np.testing.assert_array_equal(prof.rows(1, path), prof.sigma1[k][x])
            np.testing.assert_array_equal(prof.rows(2, path), prof.sigma2[k][x])

    def test_apt_converges_with_certified_epsilon_and_class_counts(self):
        g = build_apt_game()
        res = solve_pbne(g)
        assert res.converged
        assert len(res.class_counts) == res.iterations == len(res.residual_trace)
        assert res.class_counts[0] == 8      # 1 + 3 + 4: one class per state
        assert max(res.epsilon.eps1.max(), res.epsilon.eps2.max()) <= 1e-4
        # the returned beliefs are the forward pass of the returned profile
        again = forward_pass(g, res.profile)
        for arr, ref in zip(again.belief_p1 + again.belief_p2,
                            res.beliefs.belief_p1 + res.beliefs.belief_p2):
            np.testing.assert_array_equal(arr, ref)


def _tree_value_loop(game, profile, beliefs, player, own_type, best_response):
    """Reference: the per-node, per-action loop that the vectorized tree
    evaluation replaced, reading rows through the profile accessor."""
    nodes = history_tree(game)
    bel1, bel2 = _per_history(game, beliefs.belief_p1), _per_history(game, beliefs.belief_p2)
    value = {}
    for path in sorted(nodes, key=len, reverse=True):
        k, x = nodes[path]
        st = game.stages[k]
        s1 = profile.rows(1, path)
        s2 = profile.rows(2, path)
        own_m, opp_m = (st.m1, st.m2) if player == 1 else (st.m2, st.m1)
        q = np.zeros(own_m)
        for a in range(own_m):
            for b in range(opp_m):
                a1, a2 = (a, b) if player == 1 else (b, a)
                cont = value[path + ((a1, a2),)] if k < game.horizon else 0.0
                if player == 1:
                    bel = bel1[path][own_type]
                    pay = st.payoff1.values[x, a1, a2, own_type, :]
                    lik = bel * s2[:, a2]
                else:
                    bel = bel2[path][own_type]
                    pay = st.payoff2.values[x, a1, a2, :, own_type]
                    lik = bel * s1[:, a1]
                q[a] += float(lik @ pay)
                q[a] += float(lik.sum()) * cont
        feas = (st.payoff1 if player == 1 else st.payoff2).feasible[x, own_type]
        own = (s1 if player == 1 else s2)[own_type]
        value[path] = (float(np.where(feas, q, -np.inf).max())
                       if best_response else float(own @ q))
    return value[()]


class TestVectorizedPassesMatchLoops:
    @pytest.fixture(params=["markov", "classes"])
    def case(self, request):
        g = build_apt_game()
        if request.param == "markov":
            prof = StrategyProfile.uniform(g)
        else:
            bel = _with_node_belief(prior_beliefs(g), 1, 0, [0.9, 0.1], g.n1)
            prof, _ = backward_pass(g, bel)
        return g, prof

    def test_tree_values(self, case):
        g, prof = case
        bel = forward_pass(g, prof)
        for t1 in range(g.n1):
            for t2 in range(g.n2):
                u1, u2 = cumulative_utility(g, prof, bel, t1, t2)
                assert u1 == pytest.approx(_tree_value_loop(g, prof, bel, 1, t1, False),
                                           abs=1e-12)
                assert u2 == pytest.approx(_tree_value_loop(g, prof, bel, 2, t2, False),
                                           abs=1e-12)
        rep = verify_epsilon(g, prof, bel)
        for player, eps in ((1, rep.eps1), (2, rep.eps2)):
            for t in range(len(eps)):
                gap = (_tree_value_loop(g, prof, bel, player, t, True)
                       - _tree_value_loop(g, prof, bel, player, t, False))
                assert eps[t] == pytest.approx(max(gap, 0.0), abs=1e-12)

    def test_forward_beliefs(self, case):
        g, prof = case
        bel = forward_pass(g, prof)
        bel1, bel2 = _per_history(g, bel.belief_p1), _per_history(g, bel.belief_p2)
        off1, off2 = _per_history(g, bel.off_path_p1), _per_history(g, bel.off_path_p2)
        for path, (k, _) in history_tree(g).items():
            if k == g.horizon:
                continue
            for a1 in range(g.stages[k].m1):
                for a2 in range(g.stages[k].m2):
                    child = path + ((a1, a2),)
                    for t in range(g.n1):
                        post, on = belief_update(bel1[path][t], prof.rows(2, path), a2)
                        np.testing.assert_allclose(bel1[child][t], post.weights, atol=1e-15)
                        if not on:
                            assert off1[child]
                    for t in range(g.n2):
                        post, on = belief_update(bel2[path][t], prof.rows(1, path), a1)
                        np.testing.assert_allclose(bel2[child][t], post.weights, atol=1e-15)
                        if not on:
                            assert off2[child]


# ---------------------------------------------------------------------------
# Per-history reference walks: the tree code evaluates one stage at a time
# over build_tree order, and must match these loops bit for bit.
# ---------------------------------------------------------------------------

def _ref_children(path, st):
    return [path + ((a1, a2),) for a1 in range(st.m1) for a2 in range(st.m2)]


def _ref_bayes(bel, opp_rows):
    joint = bel[:, :, None] * opp_rows[None, :, :]
    total = joint.sum(axis=1)
    on = total > 0.0
    post = np.where(on[:, None, :], joint / np.where(on, total, 1.0)[:, None, :],
                    bel[:, :, None])
    return post.transpose(2, 0, 1), on.all(axis=0)


def _ref_node_beliefs(game, nodes, profile):
    p1w = np.asarray(game.prior_about_1.weights)
    p2w = np.asarray(game.prior_about_2.weights)
    bel1, bel2 = {(): np.tile(p2w, (game.n1, 1))}, {(): np.tile(p1w, (game.n2, 1))}
    off1, off2 = {(): False}, {(): False}
    for path, (k, _) in nodes.items():
        if k == game.horizon:
            continue
        post1, seen2 = _ref_bayes(bel1[path], profile.rows(2, path))
        post2, seen1 = _ref_bayes(bel2[path], profile.rows(1, path))
        for child in _ref_children(path, game.stages[k]):
            a1, a2 = child[-1]
            bel1[child] = post1[a2]
            bel2[child] = post2[a1]
            off1[child] = off1[path] or not seen2[a2]
            off2[child] = off2[path] or not seen1[a1]
    return bel1, bel2, off1, off2


def _ref_node_values(game, nodes, profile, beliefs, player, best_response):
    bel1, bel2 = _per_history(game, beliefs.belief_p1), _per_history(game, beliefs.belief_p2)
    value = {}
    n_own = game.n1 if player == 1 else game.n2
    for path in reversed(list(nodes)):
        k, x = nodes[path]
        st = game.stages[k]
        r1, r2 = profile.rows(1, path), profile.rows(2, path)
        if k < game.horizon:
            cont = np.array([value[c] for c in _ref_children(path, st)]).reshape(
                st.m1, st.m2, n_own)
        else:
            cont = np.zeros((st.m1, st.m2, n_own))
        if player == 1:
            w = bel1[path][:, :, None] * r2[None, :, :]
            q = np.einsum("sj,ijs->si", w.sum(axis=1), cont)
            q = q + np.einsum("suj,ijsu->si", w, st.payoff1.values[x])
            own_rows, own_feas = r1, st.payoff1.feasible[x]
        else:
            w = bel2[path][:, :, None] * r1[None, :, :]
            q = np.einsum("ui,iju->uj", w.sum(axis=1), cont)
            q = q + np.einsum("usi,ijsu->uj", w, st.payoff2.values[x])
            own_rows, own_feas = r2, st.payoff2.feasible[x]
        if best_response:
            value[path] = np.where(own_feas, q, -np.inf).max(axis=1)
        else:
            value[path] = (own_rows * q).sum(axis=1)
    return value


def random_tree_game(seed, horizon=2):
    """A seeded random game, H = 2 by default, with 3 states, 3 x 3 actions and 2 x 2
    types: normal payoffs, random transitions, some actions masked for
    some types."""
    rng = np.random.default_rng(seed)
    n_states, m1, m2, n1, n2 = 3, 3, 3, 2, 2
    stages = []
    for k in range(horizon + 1):
        shape = (n_states, m1, m2, n1, n2)
        feas1 = rng.uniform(size=(n_states, n1, m1)) > 0.2
        feas2 = rng.uniform(size=(n_states, n2, m2)) > 0.2
        feas1[..., 0] = feas2[..., 0] = True
        nxt = [f"s{k + 1}_{x}" for x in range(n_states)]
        stages.append(StageGame(k, [f"s{k}_{x}" for x in range(n_states)],
                                [f"d{a}" for a in range(m1)], [f"u{a}" for a in range(m2)],
                                PayoffTensor(rng.normal(size=shape), feas1),
                                PayoffTensor(rng.normal(size=shape), feas2),
                                rng.integers(n_states, size=shape[:3]), nxt))
    return MultiStageGame(horizon, tuple(stages), tuple(f"D{i}" for i in range(n1)),
                          tuple(f"U{i}" for i in range(n2)),
                          FiniteDistribution(rng.dirichlet(np.ones(n1))),
                          FiniteDistribution(rng.dirichlet(np.ones(n2))), "s0_0")


def _random_history_profile(game, rng):
    """One row block per history; about a fifth of the feasible actions
    get no mass, so some histories are off path."""
    nodes = history_tree(game)
    sig = [[[], []] for _ in game.stages]
    for path, (k, x) in nodes.items():
        st = game.stages[k]
        for i, tensor in enumerate((st.payoff1, st.payoff2)):
            feas = tensor.feasible[x]
            rows = rng.dirichlet(np.ones(feas.shape[1]), size=feas.shape[0]) * feas
            rows *= rng.uniform(size=rows.shape) > 0.2
            rows[rows.sum(axis=1) == 0.0] = feas[rows.sum(axis=1) == 0.0]
            sig[k][i].append(rows / rows.sum(axis=1, keepdims=True))
    return StrategyProfile(tuple(np.array(s[0]) for s in sig),
                           tuple(np.array(s[1]) for s in sig),
                           tuple(np.arange(len(s[0])) for s in sig))


def _oracle_cases():
    """(game, profile, beliefs) triples: APT grid profiles under their
    forward pass and under the priors, random H = 2 games under random
    per-history profiles and random node beliefs."""
    cases = []
    for pa, ph, state in ((0.1, 0.2, "external"), (0.5, 0.5, "internal"),
                          (0.9, 0.8, "external"), (0.3, 0.8, "internal")):
        p = dataclasses.replace(default_apt_parameters(), prior_adversarial=pa,
                                prior_high_awareness=ph)
        g = build_apt_game(p, initial_state=state)
        res = solve_pbne(g, max_iter=2)
        prof = res.profile
        cases += [(g, prof, forward_pass(g, prof)), (g, prof, prior_beliefs(g))]
    for seed in range(4):
        g = random_tree_game(seed)
        rng = np.random.default_rng(100 + seed)
        prof = _random_history_profile(g, rng)
        sizes = [len(c) for c in prof.classes]
        bel = forward_pass(g, prof)
        noisy = dataclasses.replace(bel, **{
            field: tuple(np.array([rng.dirichlet(np.ones(n_opp), size=n_own)
                                   for _ in range(n)]) for n in sizes)
            for field, n_own, n_opp in (("belief_p1", g.n1, g.n2),
                                        ("belief_p2", g.n2, g.n1))})
        cases += [(g, prof, bel), (g, prof, noisy)]
    return cases


class TestStageWalksMatchHistoryLoops:
    @pytest.fixture(scope="class")
    def cases(self):
        return _oracle_cases()

    def test_node_values_bit_for_bit(self, cases):
        for g, prof, bel in cases:
            nodes = history_tree(g)
            tree = multistage._stages(g)
            rows = prof.history_rows()
            stacked = bel.belief_p1, bel.belief_p2
            for player, br in itertools.product((1, 2), (False, True)):
                ref = _ref_node_values(g, nodes, prof, bel, player, br)
                got = multistage._node_values(g, tree, rows, stacked[player - 1], player, br)
                assert [v.shape for v in got] == [(len(x), ref[()].size) for x in tree]
                for path, v in _per_history(g, got).items():
                    assert v.tobytes() == ref[path].tobytes(), (player, br, path)

    def test_node_beliefs_bit_for_bit(self, cases):
        off_path = set()
        for g, prof, _ in cases:
            nodes = history_tree(g)
            bel = forward_pass(g, prof)
            ref1, ref2, ref_off1, ref_off2 = _ref_node_beliefs(g, nodes, prof)
            sizes = [len(x) for x in multistage._stages(g)]
            for got, ref in ((bel.belief_p1, ref1), (bel.belief_p2, ref2),
                             (bel.off_path_p1, ref_off1), (bel.off_path_p2, ref_off2)):
                assert [len(a) for a in got] == sizes
                got = _per_history(g, got)
                assert all(got[p].tobytes() == np.asarray(ref[p]).tobytes() for p in nodes)
            off_path |= {player for player, off in ((1, ref_off1), (2, ref_off2))
                         if any(off.values())}
        # the random profiles put some histories off path for both players
        assert off_path == {1, 2}


def test_stage_blocks_follow_build_tree_order(monkeypatch):
    # build_tree's end states, cut into stage blocks, list the reference
    # tree's (stage, state) pairs in its order
    games = [build_apt_game(initial_state=state) for state in ("external", "internal")]
    games += [to_multistage(build_exercise_qb("p1-informed"))]
    games += [random_tree_game(seed, horizon=3) for seed in range(3)]
    assert [game.horizon for game in games] == [2, 2, 0, 3, 3, 3]
    for game in games:
        pairs = [(k, x) for k, block in enumerate(stage_states(game, build_tree(game)))
                 for x in block.tolist()]
        assert pairs == list(history_tree(game).values())
    # APT: 3 x 3 actions at stage 0, then 2 x 2 at stage 1
    g = build_apt_game()
    assert [(st.m1, st.m2) for st in g.stages] == [(3, 3), (2, 2), (2, 2)]
    nodes = history_tree(g)
    tree = multistage._stages(g)
    paths = _stage_paths(g)
    assert [len(x) for x in tree] == [len(p) for p in paths] == [1, 9, 36]
    for k, st in enumerate(g.stages[:-1]):
        for i, path in enumerate(paths[k]):
            assert nodes[path] == (k, tree[k][i])
            for a1 in range(st.m1):
                for a2 in range(st.m2):
                    assert paths[k + 1][i * st.m1 * st.m2 + a1 * st.m2 + a2] \
                        == path + ((a1, a2),)
    # history i of stage k plays sigma[k][classes[k][i]]: that is its
    # rows(player, node) and the rows the report names by its position;
    # files that key histories by label take the label of that path
    prof = _random_history_profile(g, np.random.default_rng(3))
    solved = solve_pbne(g, max_iter=2)
    for profile in (prof, solved.profile):
        raw = profile_to_dict(g, profile)
        for k, keys in enumerate(history_labels(g)):
            for i, (key, path) in enumerate(zip(keys, paths[k])):
                assert key == ";".join(f"{g.stages[j].actions1[a1]},{g.stages[j].actions2[a2]}"
                                       for j, (a1, a2) in enumerate(path))
                c = raw["classes"][k][i]
                assert c == profile.classes[k][i]
                for player, side in ((1, "defender"), (2, "user")):
                    row = profile.arrays(player)[k][c]
                    assert profile.rows(player, path).tobytes() == row.tobytes()
                    assert raw[side][k][c] == row.tolist()
    # the sampler's child index finds the history its trajectory played:
    # with one row block per history, the block is the history's index
    blocks = []
    actions = simulate._Sampler._actions

    def spy(self, player, k, block, types, u):
        if player == 1:
            blocks.append(block.tolist())
        return actions(self, player, k, block, types, u)

    monkeypatch.setattr(simulate._Sampler, "_actions", spy)
    walk = simulate._Sampler(g, prof, 7, simulate.NoiseSpec()).walk(0, 300)
    for k, got in enumerate(blocks):
        index = {path: i for i, path in enumerate(paths[k])}
        played = [tuple(zip(a1[:k], a2[:k]))
                  for a1, a2 in zip(walk.actions1.tolist(), walk.actions2.tolist())]
        assert got == [index[path] for path in played]
    assert len(blocks) == len(g.stages) and len(set(blocks[-1])) > 10
