"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they execute; each criterion is a single test with its stated tolerance
pinned here, not deferred to configuration.
"""

import itertools
import json
import sys
import time

import numpy as np

from secgames.cli import main
from secgames.core import FiniteDistribution
from secgames.multistage import (PbneSolution, cumulative_utility,
                                 solve_pbne, solve_stage_tensors,
                                 stage_deviation_gaps)
from secgames.scenarios import (build_apt_game, build_exercise_qb,
                                default_apt_parameters, exercise_qb_matrices)
from secgames.signaling import (as_signaling_game, classify, solve_mixed_pbne,
                                solve_pure_pbne, verify_pbne)
from secgames.simulate import monte_carlo_value
from secgames.static import (StaticBayesianGame, bayes_gap, pure_ne,
                             solve_bne)
from secgames.scenarios import build_static_bayesian


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_uninformed_golden_answer(tmp_path):
    """solve bne, both players uninformed, returns (B,b) at (18.5, 18.5)."""
    out = tmp_path / "qb1.json"
    t0 = time.perf_counter()
    code = main(["solve", "bne", "--scenario", "exercise-qb",
                 "--info", "uninformed", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    report = json.loads(out.read_text())
    eqs = report["results"]["equilibria"]
    hit = [e for e in eqs
           if abs(e["sigma1"]["theta1"][1] - 1) < 1e-9
           and abs(e["sigma1"]["theta2"][1] - 1) < 1e-9
           and abs(e["sigma2"]["*"][1] - 1) < 1e-9]
    ok = (code == 0 and hit
          and abs(hit[0]["ex_ante"][0] - 18.5) <= 1e-9
          and abs(hit[0]["ex_ante"][1] - 18.5) <= 1e-9
          and elapsed < 1.0)
    _verdict("1 uninformed-BNE golden value", ok,
             f"{len(eqs)} equilibria, {elapsed:.2f}s")


def test_criterion_2_complete_information_per_type():
    """Per-type pure equilibria: (A,a) at (10,10) and (B,b) at (20,20)."""
    mats = exercise_qb_matrices()
    ne1 = pure_ne(mats["theta1"])
    ne2 = pure_ne(mats["theta2"])
    ok = (ne1 == [("A", "a")] and ne2 == [("B", "b")]
          and mats["theta1"].j1[0, 0] == 10 and mats["theta1"].j2[0, 0] == 10
          and mats["theta2"].j1[1, 1] == 20 and mats["theta2"].j2[1, 1] == 20)
    _verdict("2 complete-information per-type equilibria", ok,
             f"{ne1} / {ne2}")


def test_criterion_3_negative_information_gain():
    """The informed player's ex-ante value drops from 18.5 to 12."""
    eqs = solve_bne(build_exercise_qb("p1-informed"))
    ok = (len(eqs) >= 1
          and abs(eqs[0].ex_ante1 - 12.0) <= 1e-9
          and 12.0 < 18.5)
    _verdict("3 negative information gain", ok,
             f"informed ex-ante value {eqs[0].ex_ante1 if eqs else None}")


def test_criterion_4_oracle_equivalence_50_games():
    """Agent-form and single-stage bilinear solutions certify each other."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        m1, m2 = rng.integers(2, 4, size=2)
        j1 = rng.normal(size=(m1, m2, 2, 2)).round(3)
        j2 = rng.normal(size=(m1, m2, 2, 2)).round(3)
        pr1 = rng.dirichlet(np.ones(2))
        pr2 = rng.dirichlet(np.ones(2))
        mask1, mask2 = StaticBayesianGame.full_masks(m1, m2, 2, 2)
        g = StaticBayesianGame(("d0", "d1"), ("u0", "u1"),
                               FiniteDistribution(pr1), FiniteDistribution(pr2),
                               j1, j2, mask1, mask2)
        feas1 = np.ones((2, m1), bool)
        feas2 = np.ones((2, m2), bool)
        eqs = solve_bne(g, max_results=1)
        assert eqs, f"trial {trial}: agent form found nothing"
        g1, g2 = stage_deviation_gaps(j1, j2, feas1, feas2, pr1, pr2,
                                      eqs[0].sigma1, eqs[0].sigma2)
        worst = max(worst, g1.max(), g2.max())
        sol = solve_stage_tensors(j1, j2, feas1, feas2, pr1, pr2)
        assert sol.converged, f"trial {trial}: bilinear search failed"
        gap, _ = bayes_gap(g, sol.sigma1, sol.sigma2)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict("4 oracle equivalence on 50 random games", ok,
             f"worst cross-verified gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_bilinear_sign_property():
    """Feasible points score <= 1e-7; returned equilibria within 1e-6 of 0."""
    rng = np.random.default_rng(7)
    worst_feasible = -np.inf
    worst_eq = 0.0
    for trial in range(20):
        m1, m2 = rng.integers(2, 4, size=2)
        j1 = rng.normal(size=(m1, m2, 2, 2))
        j2 = rng.normal(size=(m1, m2, 2, 2))
        b1 = rng.dirichlet(np.ones(2))
        b2 = rng.dirichlet(np.ones(2))
        for _ in range(100):
            s1 = rng.dirichlet(np.ones(m1), size=2)
            s2 = rng.dirichlet(np.ones(m2), size=2)
            pure1 = np.einsum("abst,t,tb->sa", j1, b2, s2)
            pure2 = np.einsum("abst,s,sa->tb", j2, b1, s1)
            slack = rng.uniform(0.0, 0.5, size=2) * rng.integers(0, 2, size=2)
            s = -pure1.max(axis=1) - slack
            w = -pure2.max(axis=1)
            total = np.einsum("abst,s,t,sa,tb->", j1 + j2, b1, b2, s1, s2)
            obj = float(total + b2 @ w + b1 @ s)
            worst_feasible = max(worst_feasible, obj)
        feas1 = np.ones((2, m1), bool)
        feas2 = np.ones((2, m2), bool)
        sol = solve_stage_tensors(j1, j2, feas1, feas2, b1, b2)
        assert sol.converged, f"trial {trial}: no certified stage equilibrium"
        worst_eq = max(worst_eq, abs(sol.objective))
    ok = worst_feasible <= 1e-7 and worst_eq <= 1e-6
    _verdict("5 bilinear objective sign property", ok,
             f"max feasible obj {worst_feasible:.2e}, max |eq obj| {worst_eq:.2e}")


def test_criterion_6_apt_end_to_end():
    """Default campaign: converge with eps <= 1e-4 everywhere, or report
    non-convergence through exit code 3 with the residual trace.

    The certificate is computed against full-history beliefs.  The
    defender's entry-stage strategy reveals its type, so histories that
    end in one state hold different beliefs.  The solver gives each
    belief class its own stage program, so every history plays a
    strategy that is sequentially rational for its own belief, and
    history-aware deviations gain no more than the fixed-point
    tolerance allows.  The bound is asserted as stated.
    """
    t0 = time.perf_counter()
    res = solve_pbne(build_apt_game(), tol=1e-6, max_iter=100, seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 minutes"
    if isinstance(res, PbneSolution):
        eps_max = float(max(res.epsilon.eps1.max(), res.epsilon.eps2.max()))
        ok = eps_max <= 1e-4 and res.epsilon.belief_violation <= 1e-9
        _verdict("6 APT end-to-end", ok,
                 f"converged in {res.iterations} sweeps, eps {eps_max:.3g}, "
                 f"belief violation {res.epsilon.belief_violation:.2e}, "
                 f"aggregation discrepancy "
                 f"{res.beliefs.aggregation_discrepancy:.3g}, {elapsed:.1f}s")
    else:
        ok = (len(res.residual_trace) == res.iterations
              and res.final_residuals == res.residual_trace[-1])
        _verdict("6 APT end-to-end", ok,
                 f"non-convergence reported after {res.iterations} sweeps")


def test_criterion_7_dp_simulation_agreement():
    """Monte Carlo at n=1e5 matches tree-exact values within 3 stderr."""
    game = build_apt_game()
    res = solve_pbne(game, seed=0)
    assert isinstance(res, PbneSolution), "needs a converged solution"
    mc = monte_carlo_value(game, res.profile, 100_000, rng_seed=123)
    ok = True
    detail = []
    for t1 in range(game.n1):
        exact = cumulative_utility(game, res.profile, res.beliefs, t1, 0)[0]
        err = max(mc.stderr1[t1], 1e-12)
        ok &= abs(mc.mean1[t1] - exact) <= 3 * err
        detail.append(f"d[{game.types1[t1]}] |{mc.mean1[t1] - exact:.3g}|<=3x{err:.2g}")
    for t2 in range(game.n2):
        exact = cumulative_utility(game, res.profile, res.beliefs, 0, t2)[1]
        err = max(mc.stderr2[t2], 1e-12)
        ok &= abs(mc.mean2[t2] - exact) <= 3 * err
        detail.append(f"u[{game.types2[t2]}] |{mc.mean2[t2] - exact:.3g}|<=3x{err:.2g}")
    _verdict("7 dynamic-program vs simulation agreement", ok, "; ".join(detail))


def test_criterion_8_signaling_soundness():
    """Every emitted equilibrium re-verifies; labels match on all pure maps."""
    ok = True
    checked = 0
    for (r0, r1, r2, prior) in ((1.0, 1.0, 1.0, 0.5), (3.0, 1.0, 4.0, 0.5),
                                (2.0, 0.5, 1.0, 0.2), (1.0, 2.0, 5.0, 0.8)):
        g = as_signaling_game(build_static_bayesian(r0, r1, r2, prior))
        for res in (solve_pure_pbne(g), solve_mixed_pbne(g)):
            for eq in res:
                gap, bayes_err, notes = verify_pbne(g, eq.receiver, eq.sender,
                                                    eq.beliefs)
                ok &= gap <= 1e-8 and bayes_err <= 1e-9 and not notes
                checked += 1
    labels = {}
    for combo in itertools.product(range(2), repeat=2):
        labels[combo] = classify(list(combo))
    ok &= labels[(0, 0)] == "pooling" and labels[(1, 1)] == "pooling"
    ok &= labels[(0, 1)] == "separating" and labels[(1, 0)] == "separating"
    _verdict("8 signaling soundness", ok, f"{checked} equilibria re-verified")


def test_criterion_9_scenario_fidelity():
    """Every payoff cell and transition entry matches its source table."""
    p = default_apt_parameters()
    game = build_apt_game(p)
    ok = True

    # one-shot baseline: [0, -r1; 0, r3] / [0, r2; 0, -r4]
    from secgames.scenarios import build_static_baseline
    base = build_static_baseline(1.5, 2.5, 3.5, 4.5)
    ok &= np.array_equal(base.j1, [[0, -1.5], [0, 3.5]])
    ok &= np.array_equal(base.j2, [[0, 2.5], [0, -4.5]])

    # typed one-shot game
    sb = build_static_bayesian(3.0, 1.0, 4.0)
    adv, leg = 0, 1
    ok &= (sb.payoffs1[0, 1, 0, adv], sb.payoffs2[0, 1, 0, adv]) == (-4.0, 4.0)
    ok &= (sb.payoffs1[1, 1, 0, adv], sb.payoffs2[1, 1, 0, adv]) == (3.0, -3.0)
    ok &= (sb.payoffs1[0, 1, 0, leg], sb.payoffs2[0, 1, 0, leg]) == (1.0, 1.0)
    ok &= (sb.payoffs1[1, 1, 0, leg], sb.payoffs2[1, 1, 0, leg]) == (-1.0, -1.0)
    ok &= sb.payoffs1[0, 0, 0, adv] == sb.payoffs2[1, 0, 0, leg] == 0.0

    # coordination exercise matrices
    mats = exercise_qb_matrices()
    ok &= np.array_equal(mats["theta1"].j1, [[10, 18], [7, 17]])
    ok &= np.array_equal(mats["theta1"].j2, [[10, 4], [19, 17]])
    ok &= np.array_equal(mats["theta2"].j1, [[10, 18], [14, 20]])
    ok &= np.array_equal(mats["theta2"].j2, [[10, 18], [18, 20]])

    # entry stage, every cell for both user types and both defender types
    st0 = game.stages[0]
    c0 = (p.c1_0, p.c2_0)
    r0e = (p.r3_0, p.r4_0)
    for x in range(2):
        for t1 in range(2):
            v1l = st0.payoff1.values[x, :, :, t1, leg]
            v2l = st0.payoff2.values[x, :, :, t1, leg]
            ok &= np.allclose(v1l, [[0, 0, 0],
                                    [-c0[t1]] * 3, [-c0[t1]] * 3])
            ok &= np.allclose(v2l[:, :2], p.r1_0)
            ok &= not st0.payoff2.feasible[x, leg, 2]
            v1a = st0.payoff1.values[x, :, :, t1, adv]
            v2a = st0.payoff2.values[x, :, :, t1, adv]
            ok &= np.allclose(v1a, [[-p.r2_0, -p.r2_0, 0.0],
                                    [-c0[t1]] * 3, [-c0[t1]] * 3])
            ok &= np.allclose(v2a, [[p.r2_0, p.r2_0, p.r5_0],
                                    [-r0e[t1], p.r2_0, p.r5_0],
                                    [p.r2_0, -r0e[t1], p.r5_0]])

    # escalation stage cells
    st1 = game.stages[1]
    r0m = (p.r3, p.r4)
    for x in range(3):
        for t1 in range(2):
            ok &= np.allclose(st1.payoff1.values[x, :, :, t1, adv],
                              [[0, -p.r2], [0, r0m[t1]]])
            ok &= np.allclose(st1.payoff2.values[x, :, :, t1, adv],
                              [[0, p.r2], [0, -r0m[t1]]])
            ok &= np.allclose(st1.payoff1.values[x, :, :, t1, leg],
                              [[0, p.r1], [0, -p.r1]])
            ok &= np.allclose(st1.payoff2.values[x, :, :, t1, leg],
                              [[0, p.r1], [0, -p.r1]])

    # access stage cells
    st2 = game.stages[2]
    r0f = (p.r2_k, p.r3_k)
    for x in range(4):
        r4x, r1x = p.r4_k_by_state[x], p.r1_k_by_state[x]
        for t1 in range(2):
            ok &= np.allclose(st2.payoff1.values[x, :, :, t1, adv],
                              [[0, r1x], [-p.c_k, r0f[t1] - p.c_k]])
            ok &= np.allclose(st2.payoff2.values[x, :, :, t1, adv],
                              [[0, r4x - r1x], [0, -r0f[t1]]])
            ok &= np.allclose(st2.payoff1.values[x, :, :, t1, leg],
                              [[0, r4x], [-p.c_k, r4x - p.c_k]])
            ok &= np.allclose(st2.payoff2.values[x, :, :, t1, leg],
                              [[0, r4x], [0, r4x]])

    # entry transition, all 18 triples
    entry_golden = {
        (0, 0): (1, 2, 0), (0, 1): (0, 2, 0), (0, 2): (1, 0, 0),
        (1, 0): (1, 2, 0), (1, 1): (1, 2, 0), (1, 2): (1, 2, 0),
    }
    for (x, a1), row in entry_golden.items():
        ok &= tuple(st0.transition_table[x, a1]) == row

    # escalation transition, all 12 triples
    esc_golden = {
        (0, 0): (0, 0), (0, 1): (0, 0),
        (1, 0): (1, 2), (1, 1): (1, 1),
        (2, 0): (2, 3), (2, 1): (2, 2),
    }
    for (x, a1), row in esc_golden.items():
        ok &= tuple(st1.transition_table[x, a1]) == row

    _verdict("9 scenario fidelity", ok)
