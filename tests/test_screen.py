"""The conditional-dominance screen in front of the support-enumeration LPs.

Oracles: every solver returns the same equilibria, bit for bit, with the
screen switched off, and every system the screen rejects is one that
``solve_lp`` also finds infeasible.
"""

import itertools
import math

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
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for g in range(len(opp_supports)):
        a_eq.append([float(vg == g) for vg, _ in var] + [0.0, 0.0])
        b_eq.append(1.0)
    for b in own_feasible:
        row = [coef[b, g, o] for g, o in var] + [-1.0, 1.0]     # v = v+ - v-
        if b in own_support:
            a_eq.append(row)
            b_eq.append(0.0)
        else:
            a_ub.append(row)
            b_ub.append(0.0)
    return LinearProgram.build(a_ub or None, b_ub or None, a_eq, b_eq)


def _verdict(coef, feas, own_support, opp_supports) -> bool:
    """The screen's verdict on one system, from its definition: Python
    sums over g of the per-row minima of coef[b] - coef[a]."""
    if 4 * sum(map(len, opp_supports)) + 2 * len(opp_supports) + 3 > lp._SCREEN_MAX_TERMS:
        return False
    threshold = lp._DOMINANCE_MARGIN * (1.0 + np.abs(coef).max())
    return any(sum(min(coef[b, g, o] - coef[a, g, o] for o in sup)
                   for g, sup in enumerate(opp_supports)) > threshold
               for a in own_support for b in feas)


def _rejects(coef, feas, own_support, opp_supports) -> bool:
    return bool(DominanceScreen(coef, feas).table([own_support],
                                                  [[s] for s in opp_supports])[0, 0])


# ---------------------------------------------------------------------------
# table = definition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_opp", [1, 2, 3])
def test_table_equals_the_definition(seed, n_opp):
    rng = np.random.default_rng([seed, n_opp])
    n_own, n_acts = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    shape = (n_own, n_opp, n_acts)
    # integer payoffs make ties (L = 0, not rejected); normal ones do not
    coef = (rng.integers(-2, 3, size=shape).astype(float) if seed % 2
            else rng.normal(size=shape))
    feas = sorted(rng.choice(n_own, size=int(rng.integers(1, n_own + 1)), replace=False).tolist())
    own_supports = static.sized_subsets(feas)
    opp_choices = [static.sized_subsets(range(n_acts))[:int(rng.integers(1, 6))]
                   for _ in range(n_opp)]
    table = DominanceScreen(coef, feas).table(own_supports, opp_choices)
    combos = list(itertools.product(*opp_choices))
    assert table.shape == (len(own_supports), len(combos))
    assert table.tolist() == [[_verdict(coef, feas, own, combo) for combo in combos]
                              for own in own_supports]


def test_screen_grid_ors_every_agent_in_product_order():
    rng = np.random.default_rng(8)
    coefs = [rng.integers(-2, 3, size=(3, 2, 3)).astype(float) for _ in range(2)]
    feas = [[0, 1, 2], [0, 2]]
    own_choices = [static.sized_subsets(f) for f in feas]
    opp_choices = [static.sized_subsets(range(3))] * 2
    grid = static.screen_grid([DominanceScreen(c, f) for c, f in zip(coefs, feas)],
                              own_choices, opp_choices)
    expected = np.array([[[_verdict(c, f, own, opp) for c, f, own in zip(coefs, feas, owns)]
                          for opp in itertools.product(*opp_choices)]
                         for owns in itertools.product(*own_choices)])
    assert grid.tolist() == expected.any(axis=2).tolist()
    # each agent rejects some profile that the other does not
    assert (expected[..., 0] & ~expected[..., 1]).any()
    assert (expected[..., 1] & ~expected[..., 0]).any()


def _near_tie(delta):
    # own action 1 beats action 0 by exactly delta against either opponent
    # action; max|C| is 10
    coef = np.array([[[-10.0, 0.0]], [[-10.0 + delta, delta]]])
    return coef, [0, 1], (0,), [(0, 1)]


def test_dominance_inside_margin_is_left_to_the_lp():
    threshold = lp._DOMINANCE_MARGIN * (1.0 + 10.0)
    coef, feas, own, opp = _near_tie(0.9 * threshold)
    assert not _rejects(coef, feas, own, opp)
    assert not _verdict(coef, feas, own, opp)
    assert solve_lp(_system_lp(coef, feas, own, opp)).status == "infeasible"
    coef, feas, own, opp = _near_tie(1.1 * threshold)
    assert _rejects(coef, feas, own, opp)
    assert _verdict(coef, feas, own, opp)


def test_clear_dominance_is_rejected_and_infeasible():
    rng = np.random.default_rng(3)
    coef = rng.normal(size=(3, 2, 3))
    coef[2] = coef[0] + 0.5         # action 2 beats action 0 everywhere
    feas, own, opp = [0, 1, 2], (0, 1), [(0, 2), (1,)]
    assert _rejects(coef, feas, own, opp)
    assert solve_lp(_system_lp(coef, feas, own, opp)).status == "infeasible"
    # the action that dominates is itself never rejected
    assert not _rejects(coef, feas, (2,), opp)


def test_systems_beyond_the_derived_margin_are_not_screened():
    n_y = (lp._SCREEN_MAX_TERMS - 5) // 4   # the largest screened row support
    coef = np.zeros((2, 1, n_y + 1))
    coef[1] = 1.0
    # one table, one profile on each side of the cap of 4 n_y + 2 G + 3 terms
    choices = [[tuple(range(n_y)), tuple(range(n_y + 1)), tuple(range(10))]]
    table = DominanceScreen(coef, [0, 1]).table([(0,), (1,), (0, 1)], choices)
    assert table.tolist() == [[True, False, True], [False, False, False],
                              [True, False, True]]
    assert [_verdict(coef, [0, 1], (0,), [c]) for c in choices[0]] == [True, False, True]


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
            rest = (r.off_path, r.classification, r.gap)
        out.append(tuple(a.tobytes() for a in arrays) + rest)
    return out


def _screen_off(self, own_supports, opp_choices):
    return np.zeros((len(own_supports), math.prod(map(len, opp_choices))), dtype=bool)


@pytest.mark.parametrize("solve", [pytest.param(s, id=n) for n, s in _solvers()])
def test_screen_changes_no_equilibrium(monkeypatch, solve):
    rejected = {}
    real = DominanceScreen.table

    def recording(self, own_supports, opp_choices):
        out = real(self, own_supports, opp_choices)
        combos = list(itertools.product(*opp_choices))
        for i, k in zip(*np.nonzero(out)):
            own, opp = tuple(own_supports[i]), tuple(map(tuple, combos[k]))
            rejected[(self.coef.tobytes(), own, opp)] = (self.coef, self.own_feasible, own, opp)
        return out

    monkeypatch.setattr(DominanceScreen, "table", recording)
    screened = _fingerprint(solve())
    monkeypatch.setattr(DominanceScreen, "table", _screen_off)
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
    monkeypatch.setattr(DominanceScreen, "table", _screen_off)
    static.mixed_ne(game)
    assert 0 < screened <= len(calls) / 3
