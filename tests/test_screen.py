"""The conditional-dominance screen in front of the support-enumeration LPs.

Oracles: every solver returns the same equilibria, bit for bit, with the
screen switched off, and every system the screen rejects is one that
``solve_lp`` also finds infeasible.
"""

import numpy as np
import pytest

from secgames import lp, multistage, signaling, static
from secgames.core import FiniteDistribution
from secgames.lp import DominanceScreen, LinearProgram, solve_lp
from secgames.scenarios import (build_exercise_qb, build_static_baseline,
                                build_static_bayesian, exercise_qb_matrices)


def _system_lp(coef, own_feasible, own_support, opp_supports) -> LinearProgram:
    """One agent's support system as the side LPs state it: opponent rows
    on their supports summing to 1, own support tied at the value v,
    other feasible actions not above it."""
    var = [(g, o) for g, sup in enumerate(opp_supports) for o in sup]
    n = len(var) + 1
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for g in range(len(opp_supports)):
        a_eq.append([float(vg == g) for vg, _ in var] + [0.0])
        b_eq.append(1.0)
    for b in own_feasible:
        row = [coef[b, g, o] for g, o in var] + [-1.0]
        if b in own_support:
            a_eq.append(row)
            b_eq.append(0.0)
        else:
            a_ub.append(row)
            b_ub.append(0.0)
    return LinearProgram.build(np.zeros(n), a_ub or None, b_ub or None, a_eq, b_eq,
                               lower=[0.0] * len(var) + [-np.inf])


# ---------------------------------------------------------------------------
# margin
# ---------------------------------------------------------------------------

def _near_tie(delta):
    # own action 1 beats action 0 by exactly delta against either opponent
    # action; max|C| is 10
    coef = np.array([[[-10.0, 0.0]], [[-10.0 + delta, delta]]])
    return coef, [0, 1], (0,), [(0, 1)]


def test_dominance_inside_margin_is_left_to_the_lp():
    threshold = lp._DOMINANCE_MARGIN * (1.0 + 10.0)
    coef, feas, own, opp = _near_tie(0.9 * threshold)
    assert not DominanceScreen(coef, feas).rejects(own, opp)
    assert solve_lp(_system_lp(coef, feas, own, opp)).status == "infeasible"
    coef, feas, own, opp = _near_tie(1.1 * threshold)
    assert DominanceScreen(coef, feas).rejects(own, opp)


def test_clear_dominance_is_rejected_and_infeasible():
    rng = np.random.default_rng(3)
    coef = rng.normal(size=(3, 2, 3))
    coef[2] = coef[0] + 0.5         # action 2 beats action 0 everywhere
    feas, own, opp = [0, 1, 2], (0, 1), [(0, 2), (1,)]
    assert DominanceScreen(coef, feas).rejects(own, opp)
    assert solve_lp(_system_lp(coef, feas, own, opp)).status == "infeasible"
    # the action that dominates is itself never rejected
    assert not DominanceScreen(coef, feas).rejects((2,), opp)


def test_systems_beyond_the_derived_margin_are_not_screened():
    n_y = lp._SCREEN_MAX_TERMS // 4
    coef = np.zeros((2, 1, n_y))
    coef[1] = 1.0
    screen = DominanceScreen(coef, [0, 1])
    assert not screen.rejects((0,), [tuple(range(n_y))])
    assert screen.rejects((0,), [tuple(range(10))])


# ---------------------------------------------------------------------------
# oracle: the screen changes no result
# ---------------------------------------------------------------------------

def _bimatrix(rng, draw):
    return static.BimatrixGame(draw(rng, (5, 5)), draw(rng, (5, 5)))


def _bayesian(rng, draw):
    mask1, mask2 = static.StaticBayesianGame.full_masks(3, 3, 2, 2)
    return static.StaticBayesianGame(
        ("a", "b"), ("c", "d"),
        FiniteDistribution(rng.dirichlet([1.0, 1.0])),
        FiniteDistribution(rng.dirichlet([1.0, 1.0])),
        draw(rng, (3, 3, 2, 2)), draw(rng, (3, 3, 2, 2)), mask1, mask2)


def _signaling(rng, draw):
    return signaling.SignalingGame(
        ("t0", "t1"), FiniteDistribution(rng.dirichlet([1.0, 1.0])),
        ("m0", "m1", "m2"), ("a0", "a1"),
        draw(rng, (2, 3, 2)), draw(rng, (2, 3, 2)), np.ones((2, 3), dtype=bool))


def _normal(rng, shape):
    return rng.normal(size=shape)


def _ties(rng, shape):
    return rng.integers(0, 3, size=shape).astype(float)


def _solvers():
    """(name, thunk) pairs covering all three one-shot solvers."""
    out = []
    for seed, draw in ((11, _normal), (12, _ties)):
        rng = np.random.default_rng(seed)
        bim, bay, sig = _bimatrix(rng, draw), _bayesian(rng, draw), _signaling(rng, draw)
        out += [(f"ne{seed}", lambda g=bim: static.mixed_ne(g)),
                (f"bne{seed}", lambda g=bay: static.solve_bne(g)),
                (f"signaling{seed}", lambda g=sig: signaling.solve_mixed_pbne(g))]
    scenario_games = [static.as_bayesian(build_static_baseline()), build_static_bayesian(),
                      build_exercise_qb("uninformed"), build_exercise_qb("p1-informed")]
    for i, g in enumerate(scenario_games):
        out += [(f"scenario{i}-ne",
                 lambda g=g: static.mixed_ne(static.prior_averaged_bimatrix(g))),
                (f"scenario{i}-bne", lambda g=g: static.solve_bne(g))]
        if len(g.types1) == 1:
            out.append((f"scenario{i}-signaling",
                        lambda g=g: signaling.solve_mixed_pbne(signaling.as_signaling_game(g))))
    for theta, bim in exercise_qb_matrices().items():
        out.append((f"qb-{theta}", lambda g=bim: static.mixed_ne(g)))
    return out


def _fingerprint(found) -> list:
    out = []
    for r in found:
        if isinstance(r, static.EquilibriumResult):
            arrays = (r.sigma1, r.sigma2, r.values1, r.values2)
            rest = (r.ex_ante1, r.ex_ante2, r.gap, r.support)
        else:
            arrays = (r.receiver, r.sender, r.beliefs)
            rest = (r.off_path, r.classification, r.gap, repr(r.supporting_beliefs))
        out.append(tuple(a.tobytes() for a in arrays) + rest)
    return out


@pytest.mark.parametrize("solve", [pytest.param(s, id=n) for n, s in _solvers()])
def test_screen_changes_no_equilibrium(monkeypatch, solve):
    rejected = {}
    real = DominanceScreen.rejects

    def recording(self, own_support, opp_supports):
        out = real(self, own_support, opp_supports)
        if out:
            key = (self.coef.tobytes(), tuple(own_support), tuple(map(tuple, opp_supports)))
            rejected[key] = (self.coef, self.own_feasible, own_support, opp_supports)
        return out

    monkeypatch.setattr(DominanceScreen, "rejects", recording)
    screened = _fingerprint(solve())
    monkeypatch.setattr(DominanceScreen, "rejects", lambda self, own, opp: False)
    assert screened == _fingerprint(solve())
    assert screened
    for coef, feas, own, opp in rejected.values():
        assert solve_lp(_system_lp(coef, feas, own, opp)).status == "infeasible"


def test_screen_cuts_lp_calls_on_a_5x5_game(monkeypatch):
    rng = np.random.default_rng(2024)
    game = static.BimatrixGame(rng.normal(size=(5, 5)), rng.normal(size=(5, 5)))
    calls = []

    def counting(problem):
        calls.append(1)
        return solve_lp(problem)

    monkeypatch.setattr(static, "solve_lp", counting)
    static.mixed_ne(game)
    screened = len(calls)
    calls.clear()
    monkeypatch.setattr(DominanceScreen, "rejects", lambda self, own, opp: False)
    static.mixed_ne(game)
    assert 0 < screened <= len(calls) / 3
