"""Core domain types for finite two-player Bayesian stage games.

Conventions used throughout the package:

* Player 1 is the defender (row player), player 2 is the user (column
  player).  Each player may carry a private type drawn from a finite
  label set.
* States, actions and types are referenced by integer index internally
  and by string label at the boundary; label-to-index maps are fixed
  when a game is constructed.
* Payoff tensors are dense ``(state, a1, a2, type1, type2)`` arrays.
  Actions that are forbidden for a given (state, type) pair are encoded
  in a boolean feasibility mask instead of a large negative payoff, so
  linear programs never see poisoned coefficients.
* All objects are immutable after construction and safe to share
  between concurrent solver instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Absolute tolerance for "weights sum to one" checks.
PROB_TOL = 1e-9


class MalformedInputError(ValueError):
    """Raised when an input violates a structural precondition."""


class EnumerationBudgetError(ValueError):
    """Raised when a requested enumeration exceeds its size budget."""


class SolverError(RuntimeError):
    """Raised when an internal solver fails; carries stage/state context."""


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def is_integer(value) -> bool:
    """An int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed) -> int:
    """``seed`` as an int; it must be a non-negative integer, which
    ``SeedSequence`` turns into its entropy words."""
    if not is_integer(seed) or seed < 0:
        raise MalformedInputError("seed must be a non-negative integer")
    return int(seed)


def index_of(labels: Sequence[str], key) -> int:
    """Resolve ``key`` (label or index) against an ordered label tuple."""
    if isinstance(key, (int, np.integer)):
        idx = int(key)
        if not 0 <= idx < len(labels):
            raise MalformedInputError(f"index {idx} out of range for {labels}")
        return idx
    try:
        return labels.index(key)
    except ValueError:
        raise MalformedInputError(f"unknown label {key!r}; expected one of {labels}") from None


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability vector over an indexed finite set.

    Weights must be non-negative and sum to one within ``PROB_TOL``.
    Use :meth:`unchecked` to carry possibly-invalid boundary data that
    will be screened later by :func:`validate_game`.
    """

    weights: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.weights)
        object.__setattr__(self, "weights", arr)
        problems = self.violations()
        if problems:
            raise MalformedInputError("distribution " + "; ".join(problems))

    @classmethod
    def unchecked(cls, weights) -> "FiniteDistribution":
        obj = object.__new__(cls)
        object.__setattr__(obj, "weights", _readonly(weights))
        return obj

    def violations(self) -> list[str]:
        """Findings against a probability vector, in the wording that
        :func:`validate_game` prefixes with the distribution's name."""
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            return [f"is not a vector (shape {w.shape})"]
        out = []
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            out.append("has negative or non-finite weights")
        if abs(w.sum() - 1.0) > PROB_TOL:
            out.append(f"not normalized (sum {w.sum():.12g})")
        return out

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> float:
        return float(self.weights[i])


@dataclass(frozen=True)
class PayoffTensor:
    """One player's stage payoffs plus that player's action feasibility.

    ``values[x, a1, a2, t1, t2]`` is the payoff in utility units;
    ``feasible[x, own_type, own_action]`` marks actions the owning
    player may use.  Every index combination must hold a finite value;
    infeasible combinations simply never receive probability.
    """

    values: np.ndarray
    feasible: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        object.__setattr__(self, "feasible", _readonly(self.feasible, dtype=bool))
        if self.values.ndim != 5:
            raise MalformedInputError("payoff values must be (state, a1, a2, t1, t2)")
        if self.feasible.ndim != 3:
            raise MalformedInputError("feasibility mask must be (state, own_type, own_action)")


@dataclass(frozen=True)
class StageGame:
    """One stage: action sets, type-dependent payoffs, deterministic moves.

    ``transition[x, a1, a2]`` is an index into ``next_states``; below
    the last stage those are the next stage's ``states``, in order.
    """

    index: int
    states: tuple[str, ...]
    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    payoff1: PayoffTensor
    payoff2: PayoffTensor
    transition_table: np.ndarray
    next_states: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions1", tuple(self.actions1))
        object.__setattr__(self, "actions2", tuple(self.actions2))
        object.__setattr__(self, "next_states", tuple(self.next_states))
        object.__setattr__(self, "transition_table", _readonly(self.transition_table, dtype=int))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def m1(self) -> int:
        return len(self.actions1)

    @property
    def m2(self) -> int:
        return len(self.actions2)

    def state_index(self, key) -> int:
        return index_of(self.states, key)


@dataclass(frozen=True)
class MultiStageGame:
    """Finite-horizon two-sided-incomplete-information game.

    ``prior_about_1`` is player 2's prior over player 1's types and
    vice versa; ``stages`` has length ``horizon + 1``.
    """

    horizon: int
    stages: tuple[StageGame, ...]
    types1: tuple[str, ...]
    types2: tuple[str, ...]
    prior_about_1: FiniteDistribution
    prior_about_2: FiniteDistribution
    initial_state: str

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "types1", tuple(self.types1))
        object.__setattr__(self, "types2", tuple(self.types2))

    @property
    def n1(self) -> int:
        return len(self.types1)

    @property
    def n2(self) -> int:
        return len(self.types2)

    def type_index(self, player: int, key) -> int:
        return index_of(self.types1 if player == 1 else self.types2, key)


def validate_game(game: MultiStageGame) -> list[str]:
    """Collect every structural violation; an empty list means well-formed.

    Violations are data, not failures: callers decide whether to abort.
    """
    v: list[str] = []
    n1, n2 = len(game.types1), len(game.types2)
    if not game.types1 or len(set(game.types1)) != n1:
        v.append("defender type labels empty or duplicated")
    if not game.types2 or len(set(game.types2)) != n2:
        v.append("user type labels empty or duplicated")
    if game.horizon != len(game.stages) - 1:
        v.append(f"horizon {game.horizon} != number of stages {len(game.stages)} - 1")
    for prior, size, what in ((game.prior_about_1, n1, "prior about defender"),
                              (game.prior_about_2, n2, "prior about user")):
        w = prior.weights
        if w.ndim != 1 or w.size != size:
            v.append(f"{what} dimension mismatch: got {w.shape}, expected ({size},)")
        else:
            v += [f"{what} {problem}" for problem in prior.violations()]

    for k, st in enumerate(game.stages):
        tag = f"stage {k}"
        S, m1, m2 = st.n_states, st.m1, st.m2
        if st.index != k:
            v.append(f"{tag}: stage index {st.index} out of order")
        if len(set(st.states)) != S:
            v.append(f"{tag}: duplicate state labels")
        shape = (S, m1, m2, n1, n2)
        for player, tensor in ((1, st.payoff1), (2, st.payoff2)):
            if tensor.values.shape != shape:
                v.append(f"{tag}: player {player} payoff shape {tensor.values.shape} != {shape}")
                continue
            if not np.all(np.isfinite(tensor.values)):
                v.append(f"{tag}: player {player} payoff has non-finite entries")
            n_own = n1 if player == 1 else n2
            m_own = m1 if player == 1 else m2
            if tensor.feasible.shape != (S, n_own, m_own):
                v.append(f"{tag}: player {player} mask shape {tensor.feasible.shape} "
                         f"!= {(S, n_own, m_own)}")
            elif not np.all(tensor.feasible.any(axis=2)):
                v.append(f"{tag}: player {player} has a (state, type) with no feasible action")
        if st.transition_table.shape != (S, m1, m2):
            v.append(f"{tag}: transition shape {st.transition_table.shape} != {(S, m1, m2)}")
        else:
            n_next = len(st.next_states)
            if st.transition_table.size and (st.transition_table.min() < 0
                                             or st.transition_table.max() >= n_next):
                v.append(f"{tag}: transition index outside declared next-state space")
        if k + 1 < len(game.stages):
            # build_tree reads a transition index as a stage k+1 state
            following = game.stages[k + 1].states
            missing = [s for s in st.next_states if s not in following]
            for label in missing:
                v.append(f"{tag}: dangling transition target {label!r} "
                         f"not a state of stage {k + 1}")
            if not missing and st.next_states != following:
                v.append(f"{tag}: next_states {list(st.next_states)} differ from "
                         f"stage {k + 1} states {list(following)}")

    if game.stages and game.initial_state not in game.stages[0].states:
        v.append(f"initial state {game.initial_state!r} not in stage 0 state space")
    return v


@dataclass(frozen=True)
class StrategyProfile:
    """Behavioral strategies: per player, stage, row block and own type.

    ``sigma1[k]`` has shape ``(n_blocks_k, n_types1, m1_k)`` and each row
    is a distribution over stage-k defender actions (masked actions carry
    zero mass); ``sigma2`` likewise for the user.  ``classes[k]`` is an
    int array with one entry per stage-k history in :func:`build_tree`
    order: history ``i`` plays ``sigma1[k][classes[k][i]]`` and
    ``sigma2[k][classes[k][i]]``, so histories that end in one state may
    play differently.  A Markov profile is the case where block ``x`` is
    state ``x`` and ``classes[k]`` holds each history's end state.
    """

    sigma1: tuple[np.ndarray, ...]
    sigma2: tuple[np.ndarray, ...]
    classes: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma1", tuple(_readonly(a) for a in self.sigma1))
        object.__setattr__(self, "sigma2", tuple(_readonly(a) for a in self.sigma2))
        object.__setattr__(self, "classes", tuple(_readonly(c, None) for c in self.classes))

    def rows(self, player: int, node: "NodeKey") -> np.ndarray:
        """Per-own-type rows, shape ``(n_types, m)``, played at history
        ``node``, found by the layout rule of :func:`build_tree`."""
        i = 0
        for k, (a1, a2) in enumerate(node):
            i = (i * self.sigma1[k].shape[2] + a1) * self.sigma2[k].shape[2] + a2
        return self.arrays(player)[len(node)][self.classes[len(node)][i]]

    def history_rows(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Both players' rows per stage, one per history in
        :func:`build_tree` order: shape ``(n_k, n_types, m)``."""
        return tuple(tuple(a[c] for a, c in zip(arrays, self.classes))
                     for arrays in (self.sigma1, self.sigma2))

    @classmethod
    def uniform(cls, game: MultiStageGame) -> "StrategyProfile":
        """Uniform over feasible actions at every decision point, as a
        Markov profile."""
        s1, s2 = [], []
        for st in game.stages:
            for out, tensor in ((s1, st.payoff1), (s2, st.payoff2)):
                feas = tensor.feasible.astype(float)
                out.append(feas / feas.sum(axis=2, keepdims=True))
        return cls(tuple(s1), tuple(s2), stage_states(game, build_tree(game)))

    def arrays(self, player: int) -> tuple[np.ndarray, ...]:
        return self.sigma1 if player == 1 else self.sigma2

    def violations(self, game: MultiStageGame) -> list[str]:
        states = stage_states(game, build_tree(game))
        if len(self.classes) != len(states) or any(
                c.shape != x.shape for c, x in zip(self.classes, states)):
            return ["profile rows do not cover exactly the game's histories"]
        if any(c.dtype.kind not in "iu" for c in self.classes):
            return ["profile class indices are not integers"]
        out = []
        for player, rows in ((1, self.sigma1), (2, self.sigma2)):
            n_own = game.n1 if player == 1 else game.n2
            if len(rows) != len(game.stages):
                out.append(f"player {player} profile covers {len(rows)} stages, "
                           f"expected {len(game.stages)}")
                continue
            for k, st in enumerate(game.stages):
                m = st.m1 if player == 1 else st.m2
                arr, cls = rows[k], self.classes[k]
                if arr.ndim != 3 or arr.shape[1:] != (n_own, m):
                    out.append(f"player {player} stage {k} shape {arr.shape} is not "
                               f"(blocks, {n_own}, {m})")
                    continue
                if not np.isfinite(arr).all() or np.any(arr < -PROB_TOL) or np.any(
                        np.abs(arr.sum(axis=2) - 1.0) > 1e-8):
                    out.append(f"player {player} stage {k} has an invalid distribution")
                if cls.min() < 0 or cls.max() >= len(arr):
                    out.append(f"player {player} stage {k} names a missing row block")
                    continue
                # a block is checked at every state its histories reach
                feas = (st.payoff1 if player == 1 else st.payoff2).feasible
                if np.any(arr[cls][~feas[states[k]]] > PROB_TOL):
                    out.append(f"player {player} stage {k} puts mass on a masked action")
        return out


# History nodes are tuples of (a1_index, a2_index) pairs from the root.
NodeKey = tuple[tuple[int, int], ...]


def build_tree(game: MultiStageGame) -> np.ndarray:
    """The end state of every action history up to the final stage, as
    one int array.

    Histories are laid out stage by stage, each parent's children in
    (a1, a2) row-major order.  This is the layout of every per-stage
    array in the package: stage k's histories form one block, and the
    children of its ``i``-th history are the stage-(k + 1) histories
    ``i*m1*m2 + a1*m2 + a2``, with ``m1``, ``m2`` stage k's action counts.
    So each stage's block is one gather of the one before it through the
    stage's transition table.
    """
    x = np.array([game.stages[0].state_index(game.initial_state)])
    blocks = [x]
    for st in game.stages[:game.horizon]:
        x = st.transition_table[x].ravel()
        blocks.append(x)
    return np.concatenate(blocks)


def stage_states(game: MultiStageGame, states: np.ndarray) -> list[np.ndarray]:
    """``states``, a :func:`build_tree` result, cut into its stage
    blocks: per stage, the end state of each history, in order."""
    out, lo, size = [], 0, 1
    for st in game.stages:
        out.append(states[lo:lo + size])
        lo, size = lo + size, size * st.m1 * st.m2
    return out


@dataclass(frozen=True)
class BeliefSystem:
    """Posterior beliefs over the opponent's type along the action tree.

    Node beliefs are per-stage arrays in :func:`build_tree` order:
    ``belief_p1[k]`` has shape ``(n_k, n_types1, n_types2)``, row
    ``[i, t]`` player 1's posterior over user types at stage k's history
    ``i`` when its own type is ``t``; ``belief_p2[k]`` likewise for the
    user.  ``off_path_p1[k]`` is a bool array marking the histories behind
    a user action that player 1's beliefs gave zero probability, and
    ``off_path_p2[k]`` likewise.  These node beliefs are what the
    per-stage equilibrium programs and the ε-certificate read.
    """

    belief_p1: tuple[np.ndarray, ...]
    belief_p2: tuple[np.ndarray, ...]
    off_path_p1: tuple[np.ndarray, ...]
    off_path_p2: tuple[np.ndarray, ...]
