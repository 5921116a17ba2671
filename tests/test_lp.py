"""Feasibility solver checks against vertex enumeration and HiGHS."""

import itertools
import threading

import numpy as np
import pytest

from secgames import lp, static
from secgames.core import MalformedInputError
from secgames.lp import LinearProgram, solve_lp
from tests import scalar_lp
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


def test_system_without_columns_is_infeasible():
    # 0 = 1: the Farkas certificate has no columns to check
    sol = solve_lp(LinearProgram.build(a_eq=np.zeros((1, 0)), b_eq=[1.0]))
    assert sol.status == "infeasible" and sol.z is None


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
    # random one-agent support systems, built as the solvers' stacks
    # state them: 3 own actions with a support of one or two, one or two
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

    def spy(*args):
        calls.append(args)
        return phase_one(*args)

    monkeypatch.setattr(lp, "_phase_one", spy)
    assert solve_lp(LinearProgram.build(**_CYCLING_LP)).status == "infeasible"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Stacked phase 1: every member as the scalar reference solves it alone
# ---------------------------------------------------------------------------

def _stack(problems):
    """Pad the systems' standard forms into one stack: each member's rows
    and columns first, zeros after."""
    forms = [lp._standard_form(p) for p in problems]
    m = max(body.shape[0] for body, _, _ in forms)
    width = max(body.shape[1] for body, _, _ in forms)
    body = np.zeros((len(forms), m, width))
    rhs = np.zeros((len(forms), m))
    ready = np.full((len(forms), m), -1)
    for k, (b, r, ready_k) in enumerate(forms):
        body[k, :b.shape[0], :b.shape[1]] = b
        rhs[k, :r.size] = r
        ready[k, :r.size] = ready_k
    n_rows = np.array([b.shape[0] for b, _, _ in forms])
    n_cols = np.array([b.shape[1] for b, _, _ in forms])
    return body, rhs, ready, n_rows, n_cols


def _random_side(rng, n_own, n_opp, m_own, m_opp, binary):
    """Coefficient tensors and feasible actions of one side's agents."""
    draw = ((lambda: rng.integers(0, 2, size=(m_own, n_opp, m_opp)).astype(float))
            if binary else (lambda: rng.normal(size=(m_own, n_opp, m_opp))))
    coeffs = [draw() for _ in range(n_own)]
    feasible = [sorted(rng.choice(m_own, size=int(rng.integers(1, m_own + 1)),
                                  replace=False).tolist()) for _ in range(n_own)]
    return coeffs, feasible


def _random_supports(rng, choices, n_sys):
    """``n_sys`` support profiles: one nonempty subset of each choice."""
    return [tuple(tuple(sorted(rng.choice(c, size=int(rng.integers(1, len(c) + 1)),
                                          replace=False).tolist())) for c in choices)
            for _ in range(n_sys)]


def _masks(profiles, n_actions):
    out = np.zeros((len(profiles), len(profiles[0]), n_actions), dtype=bool)
    for k, profile in enumerate(profiles):
        for i, sup in enumerate(profile):
            out[k, i, list(sup)] = True
    return out


def _support_problems(coeffs, feasible, own, opp, m_opp):
    """The scalar reference's point and LinearProgram for each (own,
    opp) profile."""
    points = [scalar_lp.support_lp(coeffs, o, feasible, p, m_opp) for o, p in zip(own, opp)]
    return points, [scalar_lp.support_problem(coeffs, o, feasible, p) for o, p in zip(own, opp)]


# (own agents, opponent agents, own actions, opponent actions, {0,1} payoffs)
_SIDE_SHAPES = [(1, 1, 5, 5, False), (1, 1, 5, 5, True), (1, 2, 3, 3, False),
                (2, 2, 3, 3, True), (2, 1, 3, 4, False), (2, 2, 4, 2, True)]


def _side_systems(seed, shape, n_sys=40):
    n_own, n_opp, m_own, m_opp, binary = shape
    rng = np.random.default_rng([seed, *map(int, shape)])
    coeffs, feasible = _random_side(rng, n_own, n_opp, m_own, m_opp, binary)
    own = _random_supports(rng, feasible, n_sys)
    opp = _random_supports(rng, [range(m_opp)] * n_opp, n_sys)
    points, problems = _support_problems(coeffs, feasible, own, opp, m_opp)
    return coeffs, feasible, _masks(own, m_own), _masks(opp, m_opp), points, problems


def _assert_solve_lp_equals(problem, ref):
    """``lp.solve_lp``, a one-member stack, gives the reference's verdict
    and point bit for bit."""
    sol = solve_lp(problem)
    assert sol.status == ref.status
    assert (sol.z is None) == (ref.z is None)
    if ref.z is not None:
        assert sol.z.tobytes() == ref.z.tobytes()


def test_stack_members_equal_solve_lp_bit_for_bit():
    # one stack of every shape's systems, so members differ in rows and columns
    problems = []
    for seed in range(3):
        for shape in _SIDE_SHAPES:
            problems += _side_systems(seed, shape)[-1]
    feasible, x = lp.solve_stack(*_stack(problems))
    n_infeasible = 0
    for k, p in enumerate(problems):
        ref = scalar_lp.solve_lp(p)
        assert feasible[k] == (ref.status == "optimal"), k
        if feasible[k]:
            assert x[k, :ref.z.size].tobytes() == ref.z.tobytes(), k
        _assert_solve_lp_equals(p, ref)
        n_infeasible += ref.status == "infeasible"
    assert len(problems) == 720 and 0 < n_infeasible < len(problems)


@pytest.mark.parametrize("shape", _SIDE_SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_stacked_sides_return_support_lp_points(seed, shape):
    coeffs, feasible, own, opp, points, _ = _side_systems(seed, shape)
    stacked = static.solve_supports([(static._SupportStack(coeffs, feasible), own, opp)])
    assert len(stacked) == len(points)
    for k, (got, want) in enumerate(zip(stacked, points)):
        assert (got is None) == (want is None), k
        if want is not None:
            assert got.tobytes() == want.tobytes(), k


def test_builders_of_different_sizes_share_padded_stacks(monkeypatch):
    # every shape's builder in one call: stacks cut across builders, and
    # members of different sizes are padded to one
    parts, points = [], []
    for seed in range(3):
        for shape in _SIDE_SHAPES:
            coeffs, feasible, own, opp, want, _ = _side_systems(seed, shape)
            parts.append((static._SupportStack(coeffs, feasible), own, opp))
            points += want
    sizes = []
    solve_stack = static.solve_stack
    monkeypatch.setattr(static, "solve_stack",
                        lambda body, *args: sizes.append(len(body)) or solve_stack(body, *args))
    stacked = static.solve_supports(parts)
    assert sizes == [static._STACK_SYSTEMS, static._STACK_SYSTEMS, 720 - 2 * static._STACK_SYSTEMS]
    assert len(stacked) == len(points)
    for k, (got, want) in enumerate(zip(stacked, points)):
        assert (got is None) == (want is None), k
        if want is not None:
            assert got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("shape", _SIDE_SHAPES)
def test_stacked_builder_writes_support_lp_rows(shape):
    coeffs, feasible, own, opp, _, problems = _side_systems(0, shape)
    stack = static._SupportStack(coeffs, feasible)
    m, width = stack.shape()
    body, rhs, ready = (np.zeros((len(own), m, width)), np.zeros((len(own), m)),
                        np.full((len(own), m), -1))
    n_rows, n_cols = stack.systems(own, opp, body, rhs, ready)
    n_y = opp.shape[1] * opp.shape[2]
    n_value = 2 * len(coeffs)
    for k, p in enumerate(problems):
        ref_body, ref_rhs, ref_ready = lp._standard_form(p)
        n_eq, n_ub = p.a_eq.shape[0], p.a_ub.shape[0]
        # the member's columns: its opponent variables, the values, its slacks
        cols = np.concatenate([np.flatnonzero(opp[k].ravel()),
                               n_y + np.arange(n_value), n_y + n_value + np.arange(n_ub)])
        assert (n_rows[k], n_cols[k]) == ref_body.shape == (n_eq + n_ub, cols.size)
        assert body[k][:, cols].tobytes() == ref_body.tobytes()
        assert not np.delete(body[k], cols, axis=1).any()     # padding is zero
        assert rhs[k].tobytes() == ref_rhs.tobytes()
        assert ready[k].tolist() == [-1 if r < 0 else int(cols[r]) for r in ref_ready]


def _near_tie_system(rng):
    """x_0 + ... + x_(n-1) = 2 under bounds x_j <= 1 + d, with every d
    below 2e-12: the ratio tests meet ratios within 1e-12 of each
    other, where the scan's choice is not the least ratio's row."""
    n = int(rng.integers(1, 4))
    k = int(rng.integers(2, 7))
    a_ub = np.zeros((k, n))
    a_ub[np.arange(k), rng.integers(n, size=k)] = 1.0
    return LinearProgram.build(a_ub, 1.0 + rng.uniform(0.0, 2e-12, size=k),
                               a_eq=np.ones((1, n)), b_eq=[2.0])


def test_stack_members_equal_solve_lp_on_hard_systems(monkeypatch):
    # near ratio ties, float verdicts that fail their checks (the stage
    # LPs) and general systems, in one stack; the cycling LP has its own
    # time-bounded test below
    rng = np.random.default_rng(12)
    problems = [_near_tie_system(rng) for _ in range(60)]
    problems += [_stage_lp(case) for case in _STAGE_LPS]
    problems += [LinearProgram.build(*_random_system(1000 + t)) for t in range(40)]
    refs = [scalar_lp.solve_lp(p) for p in problems]
    for p, ref in zip(problems, refs):
        _assert_solve_lp_equals(p, ref)
    replayed = []
    scan = lp._ratio_scan
    monkeypatch.setattr(lp, "_ratio_scan",
                        lambda ratio, positive: replayed.append(len(ratio)) or scan(ratio, positive))
    feasible, x = lp.solve_stack(*_stack(problems))
    assert replayed
    for k, ref in enumerate(refs):
        assert feasible[k] == (ref.status == "optimal"), k
        if feasible[k]:
            assert x[k, :ref.z.size].tobytes() == ref.z.tobytes(), k


def test_stalled_member_alone_reaches_the_exact_run(monkeypatch):
    problems = []
    for shape in _SIDE_SHAPES[:3]:
        problems += _side_systems(5, shape, n_sys=10)[-1]
    cycling = LinearProgram.build(**_CYCLING_LP)
    problems.insert(7, cycling)
    refs = [scalar_lp.solve_lp(p) for p in problems]
    exact_bodies = []
    phase_one = lp._phase_one

    def spy(body, rhs, ready):
        exact_bodies.append(body.copy())
        return phase_one(body, rhs, ready)

    monkeypatch.setattr(lp, "_phase_one", spy)
    out = []
    # without its pivot cap the cycling member would run for minutes
    worker = threading.Thread(target=lambda: out.append(lp.solve_stack(*_stack(problems))),
                              daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "solve_stack did not return"
    feasible, _ = out[0]
    body = lp._standard_form(cycling)[0]
    assert len(exact_bodies) == 1
    assert exact_bodies[0][:, :body.shape[1]].tobytes() == body.tobytes()
    assert not exact_bodies[0][:, body.shape[1]:].any()     # padding columns
    assert feasible.tolist() == [ref.status == "optimal" for ref in refs]
    assert not feasible[7]
