"""Feasibility solver checks against vertex enumeration and HiGHS."""

import itertools
import threading

import numpy as np
import pytest

from secgames import lp
from secgames.core import MalformedInputError
from secgames.lp import LinearProgram, solve_lp
from tests.test_screen import _system_lp


def _satisfies(p, z, tol):
    return (z.min(initial=0.0) >= -tol
            and (p.a_ub @ z - p.b_ub).max(initial=0.0) <= tol
            and np.abs(p.a_eq @ z - p.b_eq).max(initial=0.0) <= tol)


def test_contradictory_bounds_infeasible():
    # x1 >= 2 encoded as -x1 <= -2, together with x1 <= 1
    p = LinearProgram.build(a_ub=[[-1.0], [1.0]], b_ub=[-2.0, 1.0])
    sol = solve_lp(p)
    assert sol.status == "infeasible" and sol.z is None


def test_equality_and_free_variable():
    # s free, s == 2.5, written as s = z[0] - z[1]
    sol = solve_lp(LinearProgram.build(a_eq=[[1.0, -1.0]], b_eq=[2.5]))
    assert sol.status == "optimal"
    assert sol.z[0] - sol.z[1] == pytest.approx(2.5, abs=1e-9)
    assert np.all(sol.z >= 0.0)


def test_dimension_mismatch_raises():
    p = LinearProgram.build(a_ub=[[1.0]], b_ub=[1.0], a_eq=[[1.0, 2.0]], b_eq=[1.0])
    with pytest.raises(MalformedInputError):
        solve_lp(p)
    with pytest.raises(MalformedInputError):
        LinearProgram.build()


def _random_system(seed):
    """{a z <= b, z >= 0} with a box z <= 10.  About half are
    infeasible; for the seeds used here, none is within 0.03 of the
    boundary between the two (the largest t with a z + t <= b)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, 9))
    a = np.vstack([rng.normal(size=(k, n)), np.eye(n)])
    b = np.concatenate([rng.normal(size=k) - 0.3, np.full(n, 10.0)])
    return a, b


def _has_vertex(a_rows, b_rows, n):
    """Whether {A z <= b, z >= 0} has a vertex, by enumerating every
    intersection of n active constraints drawn from the rows plus the
    coordinate planes.  The region lies in z >= 0, so it is nonempty
    exactly when it has one."""
    rows = np.vstack([a_rows, -np.eye(n)])      # -z_j <= 0
    rhs = np.concatenate([b_rows, np.zeros(n)])
    for combo in itertools.combinations(range(len(rows)), n):
        mat = rows[list(combo)]
        if abs(np.linalg.det(mat)) < 1e-10:
            continue
        z = np.linalg.solve(mat, rhs[list(combo)])
        if np.all(rows @ z <= rhs + 1e-8):
            return True
    return False


@pytest.mark.parametrize("trial", range(40))
def test_random_lp_matches_vertex_enumeration(trial):
    a, b = _random_system(1000 + trial)
    p = LinearProgram.build(a_ub=a, b_ub=b)
    sol = solve_lp(p)
    assert (sol.status == "optimal") == _has_vertex(a, b, a.shape[1])
    if sol.status == "optimal":
        assert _satisfies(p, sol.z, 1e-8)


@pytest.mark.parametrize("trial", range(15))
def test_weak_duality_spot_check(trial):
    # Farkas: {a z <= b, z >= 0} has a point exactly when its alternative
    # {y >= 0, a^T y >= 0, b . y <= -1} has none
    a, b = _random_system(7000 + trial)
    alternative = LinearProgram.build(a_ub=np.vstack([-a.T, b]),
                                      b_ub=np.concatenate([np.zeros(a.shape[1]), [-1.0]]))
    primal, dual = solve_lp(LinearProgram.build(a_ub=a, b_ub=b)), solve_lp(alternative)
    assert {primal.status, dual.status} == {"optimal", "infeasible"}
    for p, sol in ((LinearProgram.build(a_ub=a, b_ub=b), primal), (alternative, dual)):
        if sol.status == "optimal":
            assert _satisfies(p, sol.z, 1e-8)


def test_random_lps_with_equalities():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        a_eq = rng.normal(size=(1, n))
        interior = rng.uniform(0.2, 1.2, size=n)
        p = LinearProgram.build(a_ub=np.eye(n), b_ub=np.full(n, 4.0),
                                a_eq=a_eq, b_eq=a_eq @ interior)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert _satisfies(p, sol.z, 1e-8)


def test_support_systems_match_highs_verdicts():
    # random one-agent support systems, built as static.support_lp builds
    # them: 3 own actions with a support of one or two, one or two
    # opponent rows of 3 actions on random supports; 115 of the 200 are
    # infeasible
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2008)
    infeasible = 0
    for _ in range(200):
        n_rows = int(rng.integers(1, 3))
        opp = [sorted(rng.choice(3, size=int(rng.integers(1, 4)), replace=False))
               for _ in range(n_rows)]
        own = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
        p = _system_lp(rng.normal(size=(3, n_rows, 3)), [0, 1, 2], own, opp)
        ref = optimize.linprog(np.zeros(p.a_eq.shape[1]), A_ub=p.a_ub, b_ub=p.b_ub,
                               A_eq=p.a_eq, b_eq=p.b_eq, method="highs")
        assert ref.status in (0, 2)     # feasible, infeasible
        sol = solve_lp(p)
        assert (sol.status == "optimal") == (ref.status == 0)
        if sol.status == "optimal":
            assert _satisfies(p, sol.z, 1e-8)
        infeasible += sol.status == "infeasible"
    assert infeasible == 115


# Stage LPs of the APT game met by the forward-backward loop once a node
# belief had decayed to about 3e-6 (first, third) and when two user
# types' rows nearly coincide (second).  All are feasible.  The first
# used to end phase 1 on a column with no leaving row, which round-off
# had left with a -2e-10 reduced cost, and the second pivoted on 1e-9
# elements until phase 1 claimed a positive artificial sum: both came
# back "infeasible".  The third, with coefficients down to 5e-12, came
# back "optimal" at a point that broke its equality rows by 1.
# The last four of the eight variables are free; each is written as a
# (+, -) column pair.
_STAGE_LPS = [
    dict(
        a_ub=[[0.44444071422480963, 0.44444071422480963, 3.391085236933333e-07,
               3.391085236933333e-07, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
              [4.44443766222481, -2.5555569967751905, 3.391108523693334e-06,
               -4.238891476306667e-06, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
              [1.999998474, 1.999998474, 1.526e-06, 1.526e-06, 0.0, 0.0, 0.0, 0.0, 0.0,
               0.0, 1.0, -1.0],
              [3.999996948, 0.0, 3.052e-06, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
               -1.0],
              [0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0]],
        b_ub=[0.0, 0.0, 0.0, 0.0, -0.9999999999999999, -0.9999999999999999, -2.0, -2.0]),
    dict(
        a_ub=[[0.252688891010745, -0.5619401204257019, 0.0806453943225884,
               1.2722703524257017, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
              [0.2526889514032462, 3.383008395120483, 0.08064541359679175,
               -0.12999388178714916, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
              [0.25268889101074504, -0.5619401204257019, 0.08064539432258842,
               1.2722703524257017, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
              [0.25268902905075524, 5.6572019191204825, 0.08064543837791277,
               -0.1299938817871491, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0],
              [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0]],
        b_ub=[0.0, 0.0, 0.0, 0.0, 1.880001083652572e-08, 1.880001088139238e-08, -4.0,
              -6.799999984959992]),
    dict(
        a_ub=[[3.051995342648e-06, -3.999990844004657, 4.6573520000000005e-12,
               3.052004657352e-06, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
              [3.051995342648e-06, 2.9999984739953423, 4.6573520000000005e-12,
               -3.051995342648e-06, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
              [3.0519953426556594e-06, -3.999990844004657, 4.6573520000116885e-12,
               3.052004657352e-06, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
              [3.051995342741042e-06, 5.999993895995343, 4.657352000141982e-12,
               -3.051995342648e-06, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0],
              [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0]],
        b_ub=[0.0, 0.0, 0.0, 0.0, -5.551115123125783e-17, 0.8953686790000004, -2.0,
              -2.0]),
]


def _stage_lp(case):
    return LinearProgram.build(
        case["a_ub"], case["b_ub"],
        a_eq=[[1.0, 1.0, 0.0, 0.0] + [0.0] * 8,
              [0.0, 0.0, 1.0, 1.0] + [0.0] * 8],
        b_eq=[1.0, 1.0])


@pytest.mark.parametrize("case", range(len(_STAGE_LPS)))
def test_feasible_stage_lp_is_solved(case):
    p = _stage_lp(_STAGE_LPS[case])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert np.max(p.a_ub @ sol.z - p.b_ub) <= 1e-9
    np.testing.assert_allclose(p.a_eq @ sol.z, p.b_eq, atol=1e-9)
    assert np.all(sol.z[:4] >= -1e-12)


@pytest.mark.parametrize("case", range(len(_STAGE_LPS)))
def test_stage_lp_matches_highs(case):
    optimize = pytest.importorskip("scipy.optimize")
    p = _stage_lp(_STAGE_LPS[case])
    ref = optimize.linprog(np.zeros(p.a_eq.shape[1]), A_ub=p.a_ub, b_ub=p.b_ub,
                           A_eq=p.a_eq, b_eq=p.b_eq, method="highs")
    assert ref.status == 0      # feasible
    assert solve_lp(p).status == "optimal"


# A support-enumeration LP of a random 3x3, 2x2-type `solve bne` game.
# The floating-point run cycles on it: its ratio ties go to the lowest
# row, which is not Bland's rule.  It used to spin forever; the pivot
# cap now hands it to the exact run.  Columns: three opponent-row
# variables, then the two agents' values as (+, -) pairs.
_CYCLING_LP = dict(
    a_ub=[[-0.234061415232, -0.052492899943, -0.035039876832, -1.0, 1.0, 0.0, 0.0],
          [-0.263314804166, -0.7800387730009999, -0.700171498152, -1.0, 1.0, 0.0, 0.0],
          [-0.584242773252, -0.069420090315, 0.08588037105000002, 0.0, 0.0, -1.0, 1.0],
          [0.136695766833, -0.041437655689, 0.182309719104, 0.0, 0.0, -1.0, 1.0]],
    b_ub=[0.0, 0.0, 0.0, 0.0],
    a_eq=[[1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
          [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
          [-0.098781107296, 0.390531584517, -0.448759353717, -1.0, 1.0, 0.0, 0.0],
          [-0.802783023475, -0.299963226162, -0.66281824917, 0.0, 0.0, -1.0, 1.0]],
    b_eq=[1.0, 1.0, 0.0, 0.0])


def test_cycling_lp_ends_with_a_verdict():
    p = LinearProgram.build(**_CYCLING_LP)
    out = []
    # a regression would spin forever; the daemon thread lets the run end
    worker = threading.Thread(target=lambda: out.append(solve_lp(p)), daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "solve_lp did not return"
    assert out[0].status == "infeasible"


def test_cycling_lp_matches_highs():
    optimize = pytest.importorskip("scipy.optimize")
    p = LinearProgram.build(**_CYCLING_LP)
    ref = optimize.linprog(np.zeros(7), A_ub=p.a_ub, b_ub=p.b_ub, A_eq=p.a_eq, b_eq=p.b_eq,
                           method="highs")
    assert ref.status == 2      # infeasible
    assert solve_lp(p).status == "infeasible"


def test_cycling_lp_reaches_the_exact_run(monkeypatch):
    # the floating-point run stalls at its pivot cap, so the verdict is
    # the exact run's
    calls = []
    phase_one = lp._phase_one

    def spy(*args, exact):
        calls.append(exact)
        return phase_one(*args, exact=exact)

    monkeypatch.setattr(lp, "_phase_one", spy)
    assert solve_lp(LinearProgram.build(**_CYCLING_LP)).status == "infeasible"
    assert calls == [False, True]
