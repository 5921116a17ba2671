"""Lemke's algorithm (``lp.lemke``) on stage-program LCPs.

Every equilibrium is checked by exact deviation gaps; the cross-check
against ``static.solve_bne`` uses the static module's own certificate.
"""

import numpy as np
import pytest

from secgames import lp, static
from secgames.core import FiniteDistribution
from secgames.multistage import _deviations, _stage_lcp, _uniform_rows, solve_stage_tensors


def _lemke_stage(t1, t2, feas1, feas2, b1, b2):
    """Raw LCP rows (no zero-weight repair) and the kernel's answer."""
    args, idx1, idx2 = _stage_lcp(t1, t2, feas1, feas2, b1, b2,
                                  _uniform_rows(feas1), _uniform_rows(feas2))
    sol = lp.lemke(*args)
    assert sol.status == "solution"
    rows = []
    for feas, idx, z in ((feas1, idx1, sol.z[:idx1.size]),
                         (feas2, idx2, sol.z[idx1.size:idx1.size + idx2.size])):
        r = np.zeros(feas.size)
        r[idx] = z
        rows.append(r.reshape(feas.shape))
    return sol, args, rows


def _gaps(t1, t2, feas1, feas2, b1, b2, sigma1, sigma2):
    g1, g2 = _deviations(t1, t2, feas1, feas2, np.asarray(b1), np.asarray(b2),
                         sigma1, sigma2)[2:]
    return max(g1.max(), g2.max())


def test_tied_game_needs_the_lexicographic_rule():
    # 0/1 payoffs: ratio ties at every step; breaking them to the lowest
    # row cycles on this game, the lexicographic rule does not
    t1 = np.array([[[[1], [0]], [[1], [1]], [[1], [1]]],
                   [[[0], [1]], [[1], [1]], [[0], [0]]],
                   [[[1], [1]], [[1], [0]], [[0], [1]]]], dtype=float)
    t2 = np.array([[[[1], [0]], [[0], [0]], [[1], [1]]],
                   [[[1], [0]], [[1], [1]], [[0], [1]]],
                   [[[1], [1]], [[1], [1]], [[0], [0]]]], dtype=float)
    feas1, feas2 = np.ones((2, 3), bool), np.ones((1, 3), bool)
    b1, b2 = [0.5, 0.5], [1.0]
    sol, _, (x, y) = _lemke_stage(t1, t2, feas1, feas2, b1, b2)
    assert not sol.exact
    np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
    assert _gaps(t1, t2, feas1, feas2, b1, b2, x, y) <= 1e-12


def test_per_type_matching_pennies_has_its_unique_mixed_equilibrium():
    # defender type s plays only against user type s: two decoupled
    # zero-sum games with unique mixed equilibria 2/5 and 2/3
    games = [np.array([[2.0, -1.0], [-1.0, 1.0]]), np.array([[1.0, -1.0], [-1.0, 3.0]])]
    t1 = np.zeros((2, 2, 2, 2))
    for s, g in enumerate(games):
        t1[:, :, s, s] = g
    t2 = -t1
    feas = np.ones((2, 2), bool)
    sol = solve_stage_tensors(t1, t2, feas, feas, [0.3, 0.7], [0.6, 0.4])
    assert sol.converged and sol.start_index == 0 and sol.alternations > 0
    want = np.array([[0.4, 0.6], [2 / 3, 1 / 3]])
    np.testing.assert_allclose(sol.sigma1, want, atol=1e-12)
    np.testing.assert_allclose(sol.sigma2, want, atol=1e-12)


def test_masked_actions_are_left_out_of_the_lcp():
    rng = np.random.default_rng(21)
    t1, t2 = rng.normal(size=(3, 3, 2, 2)), rng.normal(size=(3, 3, 2, 2))
    feas1, feas2 = np.ones((2, 3), bool), np.ones((2, 3), bool)
    feas1[0, 1] = feas2[1, 0] = feas2[1, 2] = False
    b1, b2 = [0.5, 0.5], [0.4, 0.6]
    sol, args, (x, y) = _lemke_stage(t1, t2, feas1, feas2, b1, b2)
    assert args[1].size == feas1.sum() + feas2.sum() + 2 + 2
    assert x[0, 1] == 0.0 and y[1, 0] == 0.0 and y[1, 2] == 0.0
    np.testing.assert_allclose(y[1], [0.0, 1.0, 0.0])
    assert _gaps(t1, t2, feas1, feas2, b1, b2, x, y) <= 1e-9


def test_zero_weight_type_best_responds_without_repair():
    # no type's own conditions carry its own weight, so the LCP answer
    # already has the ruled-out defender type best-responding
    rng = np.random.default_rng(8)     # type 1's best response is not action 0
    t1, t2 = rng.normal(size=(3, 2, 2, 2)), rng.normal(size=(3, 2, 2, 2))
    feas1, feas2 = np.ones((2, 3), bool), np.ones((2, 2), bool)
    b1, b2 = [1.0, 0.0], [0.5, 0.5]
    _, _, (x, y) = _lemke_stage(t1, t2, feas1, feas2, b1, b2)
    assert _gaps(t1, t2, feas1, feas2, b1, b2, x, y) <= 1e-9


def test_failed_float_check_is_answered_by_the_exact_run(monkeypatch):
    rng = np.random.default_rng(9)
    t1, t2 = rng.normal(size=(3, 3, 2, 2)), rng.normal(size=(3, 3, 2, 2))
    feas = np.ones((2, 3), bool)
    b1, b2 = [0.3, 0.7], [0.55, 0.45]
    float_sol = solve_stage_tensors(t1, t2, feas, feas, b1, b2)
    assert float_sol.converged and float_sol.start_index == 0
    real = lp._lemke_run
    runs = []

    def corrupt_float(tableau, start, entering, free, exact):
        runs.append(exact)
        out = real(tableau, start, entering, free, exact)
        if exact or out is None:
            return out
        z, pivots = out
        return z + 0.01, pivots      # fails the check on the original data

    monkeypatch.setattr(lp, "_lemke_run", corrupt_float)
    sol = solve_stage_tensors(t1, t2, feas, feas, b1, b2)
    assert runs == [False, True]
    assert sol.converged and sol.start_index == -2
    np.testing.assert_allclose(sol.sigma1, float_sol.sigma1, atol=1e-9)
    np.testing.assert_allclose(sol.sigma2, float_sol.sigma2, atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_stage_equilibria_match_solve_bne_on_integer_ties(seed):
    # integer-tie Bayesian games drawn as in the screen oracle (payoffs 0..2)
    rng = np.random.default_rng(1200 + seed)
    pr1, pr2 = rng.dirichlet([1.0, 1.0]), rng.dirichlet([1.0, 1.0])
    j1 = rng.integers(0, 3, size=(3, 3, 2, 2)).astype(float)
    j2 = rng.integers(0, 3, size=(3, 3, 2, 2)).astype(float)
    mask1, mask2 = static.StaticBayesianGame.full_masks(3, 3, 2, 2)
    g = static.StaticBayesianGame(("a", "b"), ("c", "d"), FiniteDistribution(pr1),
                                  FiniteDistribution(pr2), j1, j2, mask1, mask2)
    feas = np.ones((2, 3), bool)
    sol = solve_stage_tensors(j1, j2, feas, feas, pr1, pr2)
    assert sol.converged
    gap, _ = static.bayes_gap(g, sol.sigma1, sol.sigma2)
    assert gap <= 1e-9
    found = static.solve_bne(g)
    assert found
    for eq in found:
        assert _gaps(j1, j2, feas, feas, pr1, pr2, eq.sigma1, eq.sigma2) <= 1e-9
