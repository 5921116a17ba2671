"""Simplex solver checks against brute-force vertex enumeration."""

import itertools
import threading

import numpy as np
import pytest

from secgames import lp
from secgames.core import MalformedInputError
from secgames.lp import LinearProgram, solve_lp


def test_single_variable_bound():
    p = LinearProgram.build(c=[1.0], a_ub=[[1.0]], b_ub=[3.0])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.z[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.value == pytest.approx(3.0, abs=1e-9)


def test_simplex_face_value():
    p = LinearProgram.build(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert np.all(sol.z >= -1e-12)


def test_contradictory_bounds_infeasible():
    # x1 >= 2 encoded as -x1 <= -2, together with x1 <= 1
    p = LinearProgram.build(c=[1.0], a_ub=[[-1.0], [1.0]], b_ub=[-2.0, 1.0])
    assert solve_lp(p).status == "infeasible"


def test_unbounded():
    p = LinearProgram.build(c=[1.0], a_ub=None, b_ub=None)
    assert solve_lp(p).status == "unbounded"


def test_equality_and_free_variable():
    # maximize -|s| style: maximize -s with s free, s == 2.5
    # s = z[0] - z[1]
    p = LinearProgram.build(c=[-1.0, 1.0], a_eq=[[1.0, -1.0]], b_eq=[2.5])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.z[0] - sol.z[1] == pytest.approx(2.5, abs=1e-9)
    assert sol.value == pytest.approx(-2.5, abs=1e-9)


def test_dimension_mismatch_raises():
    p = LinearProgram.build(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(MalformedInputError):
        solve_lp(p)


def _vertex_oracle(c, a_rows, b_rows, n):
    """Optimal value by enumerating vertices of {A z <= b, z >= 0}.

    Candidate vertices are intersections of n active constraints drawn
    from the inequality rows plus the coordinate planes.
    """
    rows = [np.asarray(r, dtype=float) for r in a_rows]
    rhs = list(b_rows)
    for j in range(n):
        e = np.zeros(n)
        e[j] = -1.0
        rows.append(e)        # -z_j <= 0
        rhs.append(0.0)
    rows = np.array(rows)
    rhs = np.array(rhs)
    best = -np.inf
    best_z = None
    for combo in itertools.combinations(range(len(rows)), n):
        mat = rows[list(combo)]
        if abs(np.linalg.det(mat)) < 1e-10:
            continue
        z = np.linalg.solve(mat, rhs[list(combo)])
        if np.all(rows @ z <= rhs + 1e-8):
            val = float(np.asarray(c) @ z)
            if val > best:
                best, best_z = val, z
    return best, best_z


@pytest.mark.parametrize("trial", range(40))
def test_random_lp_matches_vertex_enumeration(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, 9))
    a = rng.normal(size=(k, n))
    interior = rng.uniform(0.2, 1.5, size=n)
    b = a @ interior + rng.uniform(0.1, 1.0, size=k)
    # box rows keep the feasible region bounded
    a = np.vstack([a, np.eye(n)])
    b = np.concatenate([b, np.full(n, 10.0)])
    c = rng.normal(size=n)

    sol = solve_lp(LinearProgram.build(c=c, a_ub=a, b_ub=b))
    assert sol.status == "optimal"
    oracle_value, _ = _vertex_oracle(c, a, b, n)
    assert sol.value == pytest.approx(oracle_value, abs=1e-6)
    # primal feasibility of the reported point
    assert np.all(a @ sol.z <= b + 1e-8)
    assert np.all(sol.z >= -1e-8)
    assert sol.value == pytest.approx(float(c @ sol.z), abs=1e-8)


@pytest.mark.parametrize("trial", range(15))
def test_weak_duality_spot_check(trial):
    rng = np.random.default_rng(7000 + trial)
    n = int(rng.integers(2, 5))
    k = int(rng.integers(2, 7))
    a = rng.normal(size=(k, n))
    interior = rng.uniform(0.2, 1.0, size=n)
    b = a @ interior + rng.uniform(0.1, 0.8, size=k)
    a = np.vstack([a, np.eye(n)])
    b = np.concatenate([b, np.full(n, 5.0)])
    c = rng.normal(size=n)
    sol = solve_lp(LinearProgram.build(c=c, a_ub=a, b_ub=b))
    assert sol.status == "optimal"
    # random feasible points never beat the reported optimum
    for _ in range(25):
        cand = rng.uniform(0.0, 1.0, size=n) * interior
        if np.all(a @ cand <= b + 1e-12):
            assert float(c @ cand) <= sol.value + 1e-8


def test_random_lps_with_equalities():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        a_eq = rng.normal(size=(1, n))
        interior = rng.uniform(0.2, 1.2, size=n)
        b_eq = a_eq @ interior
        a_ub = np.eye(n)
        b_ub = np.full(n, 4.0)
        c = rng.normal(size=n)
        sol = solve_lp(LinearProgram.build(c=c, a_ub=a_ub, b_ub=b_ub,
                                           a_eq=a_eq, b_eq=b_eq))
        assert sol.status == "optimal"
        assert np.allclose(a_eq @ sol.z, b_eq, atol=1e-8)
        assert np.all(sol.z >= -1e-8)


# Stage LPs of the APT game met by the forward-backward loop once a node
# belief had decayed to about 3e-6 (first, third) and when two user
# types' rows nearly coincide (second).  All are feasible with optimum 0.
# The first used to end phase 1 on an "unbounded" column that round-off
# had left with a -2e-10 reduced cost, and the second pivoted on 1e-9
# elements until phase 1 claimed a positive artificial sum: both came
# back "infeasible".  The third, with coefficients down to 5e-12, came
# back "optimal" at a point that broke its equality rows by 1.
# The last four of the eight variables are free; each is written as a
# (+, -) column pair.
_STAGE_LPS = [
    dict(
        c=[2.222218831112405, 2.222218831112405, 2.458554261846667e-06,
           2.458554261846667e-06, 0.999999237, -0.999999237, 7.63e-07, -7.63e-07, 0.5,
           -0.5, 0.5, -0.5],
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
        c=[0.2526889319751285, 1.925716692833145, 1.0483873799447183,
           2.3565259980655915, 0.099999952, -0.099999952, 0.900000048, -0.900000048,
           0.758064508, -0.758064508, 0.241935492, -0.241935492],
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
        c=[3.051995342750617e-06, 3.0519953426914076e-06, 3.0520046573520007e-06,
           3.0520046573520007e-06, 0.034877107, -0.034877107, 0.965122893, -0.965122893,
           0.999998474, -0.999998474, 1.526e-06, -1.526e-06],
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
        case["c"], case["a_ub"], case["b_ub"],
        a_eq=[[1.0, 1.0, 0.0, 0.0] + [0.0] * 8,
              [0.0, 0.0, 1.0, 1.0] + [0.0] * 8],
        b_eq=[1.0, 1.0])


@pytest.mark.parametrize("case", range(len(_STAGE_LPS)))
def test_feasible_stage_lp_is_solved(case):
    p = _stage_lp(_STAGE_LPS[case])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    assert np.max(p.a_ub @ sol.z - p.b_ub) <= 1e-9
    np.testing.assert_allclose(p.a_eq @ sol.z, p.b_eq, atol=1e-9)
    assert np.all(sol.z[:4] >= -1e-12)


@pytest.mark.parametrize("case", range(len(_STAGE_LPS)))
def test_stage_lp_matches_highs(case):
    optimize = pytest.importorskip("scipy.optimize")
    p = _stage_lp(_STAGE_LPS[case])
    ref = optimize.linprog(-p.c, A_ub=p.a_ub, b_ub=p.b_ub, A_eq=p.a_eq,
                           b_eq=p.b_eq, method="highs")
    assert ref.status == 0
    assert solve_lp(p).value == pytest.approx(-ref.fun, abs=1e-9)


# A support-enumeration LP of a random 3x3, 2x2-type `solve bne` game.
# The floating-point run cycles on it: its ratio ties go to the lowest
# row, which is not Bland's rule.  It used to spin forever; the pivot
# cap now hands it to the exact run.  Columns: three opponent-row
# variables, then the two agents' values as (+, -) pairs.
_CYCLING_LP = dict(
    c=[0.0] * 7,
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
    ref = optimize.linprog(-p.c, A_ub=p.a_ub, b_ub=p.b_ub, A_eq=p.a_eq, b_eq=p.b_eq,
                           method="highs")
    assert ref.status == 2      # infeasible
    assert solve_lp(p).status == "infeasible"


def test_cycling_lp_reaches_the_exact_run(monkeypatch):
    # the floating-point run stalls at its pivot cap, so the verdict is
    # the exact run's
    calls = []
    two_phase = lp._two_phase

    def spy(*args, exact):
        calls.append(exact)
        return two_phase(*args, exact=exact)

    monkeypatch.setattr(lp, "_two_phase", spy)
    assert solve_lp(LinearProgram.build(**_CYCLING_LP)).status == "infeasible"
    assert calls == [False, True]
