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


def check_seed(seed) -> int:
    """``seed`` as an int; it must be a non-negative integer, which
    ``SeedSequence`` turns into its entropy words."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
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
            raise MalformedInputError("; ".join(problems))

    @classmethod
    def unchecked(cls, weights) -> "FiniteDistribution":
        obj = object.__new__(cls)
        object.__setattr__(obj, "weights", _readonly(weights))
        return obj

    @classmethod
    def uniform(cls, n: int) -> "FiniteDistribution":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, index: int) -> "FiniteDistribution":
        w = np.zeros(n)
        w[index] = 1.0
        return cls(w)

    @classmethod
    def normalized(cls, weights) -> "FiniteDistribution":
        """Rescale non-negative weights to sum to one (Bayes posteriors)."""
        arr = np.asarray(weights, dtype=float)
        total = arr.sum()
        if total <= 0.0:
            raise MalformedInputError("cannot normalize weights with non-positive total")
        return cls(arr / total)

    def violations(self) -> list[str]:
        w = np.asarray(self.weights, dtype=float)
        out = []
        if w.ndim != 1 or w.size == 0:
            out.append("weights must be a non-empty vector")
            return out
        if not np.all(np.isfinite(w)):
            out.append("weights contain non-finite entries")
            return out
        if np.any(w < 0.0):
            out.append(f"negative weight {w.min():.3g}")
        if abs(w.sum() - 1.0) > PROB_TOL:
            out.append(f"weights sum to {w.sum():.12g}, not 1")
        return out

    def support(self, tol: float = 1e-12) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.weights > tol))

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.weights), p=self.weights))

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> float:
        return float(self.weights[i])


@dataclass(frozen=True)
class PlayerTypeSpace:
    """Ordered private-type labels for one player (1=defender, 2=user)."""

    player: int
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.player not in (1, 2):
            raise MalformedInputError("player must be 1 or 2")
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise MalformedInputError("type space must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise MalformedInputError("type labels must be unique")

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, key) -> int:
        return index_of(self.labels, key)


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

    ``transition[x, a1, a2]`` is an index into ``next_states``; the
    next-stage game declares those labels as its own state space.
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


def _check_distribution(weights, size: int, what: str) -> list[str]:
    out = []
    w = np.asarray(getattr(weights, "weights", weights), dtype=float)
    if w.ndim != 1 or w.size != size:
        out.append(f"{what} dimension mismatch: got {w.shape}, expected ({size},)")
        return out
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        out.append(f"{what} has negative or non-finite weights")
    if abs(w.sum() - 1.0) > PROB_TOL:
        out.append(f"{what} not normalized (sum {w.sum():.12g})")
    return out


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
    v += _check_distribution(game.prior_about_1, n1, "prior about defender")
    v += _check_distribution(game.prior_about_2, n2, "prior about user")

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
            missing = [s for s in st.next_states if s not in game.stages[k + 1].states]
            for label in missing:
                v.append(f"{tag}: dangling transition target {label!r} "
                         f"not a state of stage {k + 1}")

    if game.stages and game.initial_state not in game.stages[0].states:
        v.append(f"initial state {game.initial_state!r} not in stage 0 state space")
    return v


def _per_type_matrix(sigma, n_types: int, n_actions: int, what: str) -> np.ndarray:
    """Coerce per-type strategies to an (n_types, n_actions) row-stochastic array."""
    if isinstance(sigma, FiniteDistribution):
        arr = np.tile(np.asarray(sigma.weights), (n_types, 1))
    elif isinstance(sigma, (list, tuple)) and sigma and isinstance(sigma[0], FiniteDistribution):
        arr = np.stack([np.asarray(d.weights) for d in sigma])
    else:
        arr = np.asarray(sigma, dtype=float)
        if arr.ndim == 1:
            arr = np.tile(arr, (n_types, 1))
    if arr.shape != (n_types, n_actions):
        raise MalformedInputError(
            f"{what} shape {arr.shape} incompatible with ({n_types}, {n_actions})")
    return arr


def expected_stage_payoff(stage: StageGame, x, sigma1, sigma2,
                          belief_about_1, belief_about_2,
                          player: int, own_type=None,
                          n_types: tuple[int, int] | None = None) -> float:
    """Expected one-stage payoff for ``player`` at state ``x``.

    The opponent's type is averaged under the evaluating player's
    belief; the player's own type is fixed when ``own_type`` is given,
    otherwise averaged under the opposing belief about that player.
    """
    if player not in (1, 2):
        raise MalformedInputError("player must be 1 or 2")
    b1 = np.asarray(getattr(belief_about_1, "weights", belief_about_1), dtype=float)
    b2 = np.asarray(getattr(belief_about_2, "weights", belief_about_2), dtype=float)
    n1, n2 = (len(b1), len(b2)) if n_types is None else n_types
    xi = stage.state_index(x)
    s1 = _per_type_matrix(sigma1, n1, stage.m1, "sigma1")
    s2 = _per_type_matrix(sigma2, n2, stage.m2, "sigma2")
    values = (stage.payoff1 if player == 1 else stage.payoff2).values
    if values.shape[3] != n1 or values.shape[4] != n2 or len(b1) != n1 or len(b2) != n2:
        raise MalformedInputError("belief/type dimensions do not match payoff tensor")
    w1, w2 = b1, b2
    if own_type is not None:
        if player == 1:
            w1 = np.zeros(n1)
            w1[int(own_type)] = 1.0
        else:
            w2 = np.zeros(n2)
            w2[int(own_type)] = 1.0
    # payoff[x] has axes (a1, a2, t1, t2)
    return float(np.einsum("abst,sa,tb,s,t->", values[xi], s1, s2, w1, w2))


def transition(stage: StageGame, x, a1, a2) -> str:
    """Deterministic next-state label for one action pair."""
    xi = stage.state_index(x)
    i1 = index_of(stage.actions1, a1)
    i2 = index_of(stage.actions2, a2)
    return stage.next_states[int(stage.transition_table[xi, i1, i2])]


@dataclass(frozen=True)
class StrategyProfile:
    """Behavioral strategies: per player, stage, row block and own type.

    ``sigma1[k]`` has shape ``(n_blocks_k, n_types1, m1_k)`` and each row
    is a distribution over stage-k defender actions (masked actions carry
    zero mass); ``sigma2`` likewise for the user.  ``classes`` maps every
    action history to the block its stage plays there, so histories that
    end in one state may play differently; a Markov profile is the case
    where block ``x`` is state ``x`` and every history of a state maps
    to it.  Readers go through :meth:`rows`.
    """

    sigma1: tuple[np.ndarray, ...]
    sigma2: tuple[np.ndarray, ...]
    classes: dict

    def __post_init__(self):
        object.__setattr__(self, "sigma1", tuple(_readonly(a) for a in self.sigma1))
        object.__setattr__(self, "sigma2", tuple(_readonly(a) for a in self.sigma2))
        object.__setattr__(self, "classes", dict(self.classes))

    def rows(self, player: int, node: "NodeKey") -> np.ndarray:
        """Per-own-type rows, shape ``(n_types, m)``, played at history
        ``node``."""
        return (self.sigma1 if player == 1 else self.sigma2)[len(node)][self.classes[node]]

    @classmethod
    def uniform(cls, game: MultiStageGame) -> "StrategyProfile":
        """Uniform over feasible actions at every decision point, as a
        Markov profile."""
        s1, s2 = [], []
        for st in game.stages:
            for out, tensor in ((s1, st.payoff1), (s2, st.payoff2)):
                feas = tensor.feasible.astype(float)
                out.append(feas / feas.sum(axis=2, keepdims=True))
        return cls(tuple(s1), tuple(s2),
                   {node: x for node, (_, x) in build_tree(game).items()})

    def arrays(self, player: int) -> tuple[np.ndarray, ...]:
        return self.sigma1 if player == 1 else self.sigma2

    def violations(self, game: MultiStageGame) -> list[str]:
        nodes = build_tree(game)
        if self.classes.keys() != nodes.keys():
            return ["profile rows do not cover exactly the game's histories"]
        # (block, state) pairs per stage: a block is checked at every
        # state its histories reach
        placed: list[set] = [set() for _ in game.stages]
        for node, (k, x) in nodes.items():
            placed[k].add((self.classes[node], x))
        out = []
        for player, rows in ((1, self.sigma1), (2, self.sigma2)):
            n_own = game.n1 if player == 1 else game.n2
            if len(rows) != len(game.stages):
                out.append(f"player {player} profile covers {len(rows)} stages, "
                           f"expected {len(game.stages)}")
                continue
            for k, st in enumerate(game.stages):
                m = st.m1 if player == 1 else st.m2
                arr = rows[k]
                n_blocks = arr.shape[0]
                if arr.shape != (n_blocks, n_own, m):
                    out.append(f"player {player} stage {k} shape {arr.shape} "
                               f"!= {(n_blocks, n_own, m)}")
                    continue
                if not np.isfinite(arr).all() or np.any(arr < -PROB_TOL) or np.any(
                        np.abs(arr.sum(axis=2) - 1.0) > 1e-8):
                    out.append(f"player {player} stage {k} has an invalid distribution")
                if any(not 0 <= c < n_blocks for c, _ in placed[k]):
                    out.append(f"player {player} stage {k} names a missing row block")
                    continue
                feas = (st.payoff1 if player == 1 else st.payoff2).feasible
                masked = np.concatenate([arr[c][~feas[x]] for c, x in sorted(placed[k])])
                if np.any(masked > PROB_TOL):
                    out.append(f"player {player} stage {k} puts mass on a masked action")
        return out


# History nodes are tuples of (a1_index, a2_index) pairs from the root.
NodeKey = tuple[tuple[int, int], ...]


def build_tree(game: MultiStageGame) -> dict[NodeKey, tuple[int, int]]:
    """All action histories up to the final stage, mapped to (stage, state).

    Histories are inserted stage by stage in lexicographic order, so
    every parent precedes its children.
    """
    x0 = game.stages[0].state_index(game.initial_state)
    nodes: dict[NodeKey, tuple[int, int]] = {(): (0, x0)}
    frontier: list[NodeKey] = [()]
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


@dataclass(frozen=True)
class BeliefSystem:
    """Posterior beliefs over the opponent's type along the action tree.

    ``belief_p1[node]`` has shape ``(n_types1, n_types2)``: player 1's
    posterior over user types, one row per own type.  These node beliefs
    are what the per-stage equilibrium programs read.  ``agg_about_2[k][x]``
    is the reach-weighted per-(stage, state) aggregate, a diagnostic;
    ``aggregation_discrepancy`` reports the largest disagreement between
    an on-path node belief and its state aggregate, that is how much a
    per-state summary of the beliefs would lose.
    """

    belief_p1: dict
    belief_p2: dict
    off_path_p1: dict
    off_path_p2: dict
    agg_about_1: tuple[np.ndarray, ...]
    agg_about_2: tuple[np.ndarray, ...]
    agg_off_path: tuple[np.ndarray, ...]
    aggregation_discrepancy: float

    def nodes(self) -> list[NodeKey]:
        return sorted(self.belief_p1.keys(), key=lambda p: (len(p), p))
