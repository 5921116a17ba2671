"""One-shot solvers: best responses, pure/mixed equilibria, Bayesian equilibria."""

import numpy as np
import pytest

from secgames.core import (EnumerationBudgetError, FiniteDistribution,
                           MalformedInputError)
from secgames.static import (BimatrixGame, StaticBayesianGame,
                             bayes_gap, best_response_set, equilibrium_values,
                             from_multistage, mixed_ne, prior_averaged_bimatrix,
                             pure_ne, solve_bne, to_multistage)
from secgames.scenarios import (build_exercise_qb, build_static_baseline,
                                build_static_bayesian, exercise_qb_matrices)


class TestBestResponseSet:
    def test_against_escalate(self):
        j1 = np.array([[0.0, -1.0], [0.0, 1.0]])
        assert best_response_set(j1, [0.0, 1.0], player=1) == {1}

    def test_tie_against_idle(self):
        j1 = np.array([[0.0, -1.0], [0.0, 1.0]])
        assert best_response_set(j1, [1.0, 0.0], player=1) == {0, 1}

    def test_zero_matrix_all_actions(self):
        assert best_response_set(np.zeros((3, 2)), [0.5, 0.5], player=1) == {0, 1, 2}
        assert best_response_set(np.zeros((3, 2)), [0.2, 0.3, 0.5], player=2) == {0, 1}

    def test_column_player(self):
        j2 = np.array([[0.0, 1.0], [0.0, -1.0]])
        assert best_response_set(j2, [1.0, 0.0], player=2) == {1}
        assert best_response_set(j2, [0.0, 1.0], player=2) == {0}


class TestPureNe:
    def test_qb_matrices(self):
        mats = exercise_qb_matrices()
        assert pure_ne(mats["theta1"]) == [("A", "a")]
        assert pure_ne(mats["theta2"]) == [("B", "b")]
        assert mats["theta2"].j1[1, 1] == 20 and mats["theta2"].j2[1, 1] == 20

    def test_baseline_unit_rewards(self):
        g = build_static_baseline(1.0, 1.0, 1.0, 1.0)
        assert pure_ne(g) == [("restrict", "nop")]

    def test_no_pure_equilibrium(self):
        mp = BimatrixGame([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
        assert pure_ne(mp) == []


class TestMixedNe:
    def test_matching_pennies_unique(self):
        mp = BimatrixGame([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
        eqs = mixed_ne(mp)
        assert len(eqs) == 1
        np.testing.assert_allclose(eqs[0].sigma1[0], [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(eqs[0].sigma2[0], [0.5, 0.5], atol=1e-9)
        assert eqs[0].ex_ante1 == pytest.approx(0.0, abs=1e-9)

    def test_qb_theta2_contains_bb(self):
        eqs = mixed_ne(exercise_qb_matrices()["theta2"])
        assert any(np.allclose(e.sigma1[0], [0, 1], atol=1e-9)
                   and np.allclose(e.sigma2[0], [0, 1], atol=1e-9) for e in eqs)

    def test_baseline_gaps(self):
        eqs = mixed_ne(build_static_baseline(1.0, 1.0, 1.0, 1.0))
        assert eqs
        assert all(e.gap <= 1e-8 for e in eqs)

    def test_pure_subset_of_mixed(self):
        for bim in (exercise_qb_matrices()["theta1"],
                    exercise_qb_matrices()["theta2"],
                    build_static_baseline(2.0, 1.0, 3.0, 1.5)):
            pure = pure_ne(bim)
            eqs = mixed_ne(bim)
            for (a1, a2) in pure:
                i, j = bim.actions1.index(a1), bim.actions2.index(a2)
                assert any(e.sigma1[0, i] > 1 - 1e-9 and e.sigma2[0, j] > 1 - 1e-9
                           for e in eqs), (a1, a2)

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            mixed_ne(BimatrixGame(np.zeros((9, 2)), np.zeros((9, 2))))

    def test_lexicographic_support_order(self):
        eqs = mixed_ne(build_static_baseline(1.0, 1.0, 1.0, 1.0))
        keys = [e.support for e in eqs]
        assert keys == sorted(keys)


class TestSolveBne:
    def test_qb_uninformed_has_paper_answer(self):
        g = build_exercise_qb("uninformed")
        eqs = solve_bne(g)
        hits = [e for e in eqs
                if np.allclose(e.sigma1, [[0, 1], [0, 1]], atol=1e-9)
                and np.allclose(e.sigma2[0], [0, 1], atol=1e-9)]
        assert hits
        assert hits[0].ex_ante1 == pytest.approx(18.5, abs=1e-9)
        assert hits[0].ex_ante2 == pytest.approx(18.5, abs=1e-9)

    def test_qb_uninformed_equals_prior_averaged_bimatrix(self):
        g = build_exercise_qb("uninformed")
        direct = solve_bne(g)
        averaged = mixed_ne(prior_averaged_bimatrix(g))
        # same ex-ante value sets up to ordering
        vals_a = sorted(round(e.ex_ante2, 9) for e in direct)
        vals_b = sorted(round(e.ex_ante2, 9) for e in averaged)
        assert vals_a == vals_b

    def test_qb_p1_informed_value_12(self):
        eqs = solve_bne(build_exercise_qb("p1-informed"))
        assert len(eqs) == 1
        e = eqs[0]
        np.testing.assert_allclose(e.sigma1, [[1, 0], [0, 1]], atol=1e-9)
        np.testing.assert_allclose(e.sigma2[0], [1, 0], atol=1e-9)
        assert e.ex_ante1 == pytest.approx(12.0, abs=1e-9)

    def test_escalation_bayesian_gaps(self):
        g = build_static_bayesian(1.0, 1.0, 1.0, prior_adversarial=0.5)
        eqs = solve_bne(g)
        assert eqs
        for e in eqs:
            gap, detail = bayes_gap(g, e.sigma1, e.sigma2)
            assert gap <= 1e-8, detail

    def test_existence_smoke_200_random_games(self):
        rng = np.random.default_rng(99)
        for trial in range(200):
            m1, m2 = rng.integers(2, 4, size=2)
            n2 = 2
            j1 = rng.normal(size=(m1, m2, 1, n2)).round(3)
            j2 = rng.normal(size=(m1, m2, 1, n2)).round(3)
            mask1, mask2 = StaticBayesianGame.full_masks(m1, m2, 1, n2)
            g = StaticBayesianGame(("*",), ("u0", "u1"),
                                   FiniteDistribution([1.0]),
                                   FiniteDistribution(rng.dirichlet(np.ones(n2))),
                                   j1, j2, mask1, mask2)
            eqs = solve_bne(g, max_results=1)
            assert eqs, f"trial {trial} found no equilibrium"
            assert eqs[0].gap <= 1e-8

    @pytest.mark.parametrize("max_results", [0, -1])
    def test_max_results_below_one_is_malformed(self, max_results):
        with pytest.raises(MalformedInputError, match="max_results"):
            solve_bne(build_static_bayesian(), max_results=max_results)

    def test_informed_agents_cover_zero_prior_types(self):
        # a zero-prior informed type must still best-respond
        j1 = np.zeros((2, 2, 1, 2))
        j2 = np.zeros((2, 2, 1, 2))
        j2[:, :, 0, 1] = [[1.0, 0.0], [1.0, 0.0]]   # type u1 strictly prefers action 0
        mask1, mask2 = StaticBayesianGame.full_masks(2, 2, 1, 2)
        g = StaticBayesianGame(("*",), ("u0", "u1"), FiniteDistribution([1.0]),
                               FiniteDistribution([1.0, 0.0]), j1, j2, mask1, mask2)
        for e in solve_bne(g):
            assert e.sigma2[1, 0] == pytest.approx(1.0, abs=1e-9)

    def test_round_trip_multistage_embedding(self):
        g = build_static_bayesian(2.0, 1.0, 3.0)
        back = from_multistage(to_multistage(g))
        np.testing.assert_allclose(back.payoffs1, g.payoffs1)
        np.testing.assert_allclose(back.payoffs2, g.payoffs2)
        np.testing.assert_allclose(back.prior_about_2.weights, g.prior_about_2.weights)

    def test_values_match_manual_expectation(self):
        g = build_exercise_qb("uninformed")
        sigma1 = np.array([[0.0, 1.0], [0.0, 1.0]])
        sigma2 = np.array([[0.0, 1.0]])
        v1, v2, e1, e2 = equilibrium_values(g, sigma1, sigma2)
        assert v1[0] == pytest.approx(17.0)
        assert v1[1] == pytest.approx(20.0)
        assert e1 == pytest.approx(18.5)
        assert e2 == pytest.approx(18.5)


class TestMasks:
    def test_masked_action_never_played(self):
        # action 1 is wildly profitable for type u0 but masked
        j1 = np.zeros((2, 2, 1, 2))
        j2 = np.zeros((2, 2, 1, 2))
        j2[:, 1, 0, 0] = 100.0
        mask1, mask2 = StaticBayesianGame.full_masks(2, 2, 1, 2)
        mask2 = mask2.copy()
        mask2[0, 1] = False
        g = StaticBayesianGame(("*",), ("u0", "u1"), FiniteDistribution([1.0]),
                               FiniteDistribution([0.5, 0.5]), j1, j2, mask1, mask2)
        eqs = solve_bne(g)
        assert eqs
        for e in eqs:
            assert e.sigma2[0, 1] == 0.0
