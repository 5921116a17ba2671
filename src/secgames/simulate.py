"""Monte Carlo play-out of a multi-stage game under a strategy profile.

A run with seed ``s`` keys its randomness to seed blocks of 4,096
trajectories: trajectory ``i`` is row ``i % 4096`` of block
``b = i // 4096``.  Its uniforms, the two types and then both actions of
each stage, are that row of
``Generator(PCG64(SeedSequence(s, spawn_key=(b, 0)))).random((4096, 2 + 2H))``.
Its noise is the same row drawn from stream ``(b, 1)``:
``standard_normal((4096, 2H))`` times the scale for gaussian noise, or
``random`` mapped onto ``[-scale, scale)`` for uniform noise.  So a run
is bit-reproducible, and trajectory ``i`` does not depend on ``n``.
Additive zero-mean stage noise can be recorded next to the clean
payoffs; it never influences actions or transitions, mirroring the fact
that the solvers work with the noise-free expected payoffs.

Types and actions are drawn the way ``Generator.choice(m, p=row)`` draws
them, one uniform per draw searched in the row's cumulative sums, so the
samples equal those of ``choice`` with the same generator.  Each
(player, stage)'s rows become one stack of search tables when a run
starts; a row that fails the checks raises only when a trajectory
reaches it.  A seed block is walked at a time, stage by stage, as arrays.
Memory grows with ``n``: for its bit-exact per-type statistics
:func:`monte_carlo_value` keeps length-``n`` 8-byte columns of the two
types and each player's clean totals, and of the noisy totals unless the
noise is ``none``.  At n = 500,000 peak RSS rose by about 41 bytes per
trajectory without noise and 57 with it, so the largest ``n``, 2**32,
needs about 200 GB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (MalformedInputError, MultiStageGame, StrategyProfile,
                   _readonly, check_seed, is_integer)

# The tolerance Generator.choice allows on the sum of a float64 row.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))
# Trajectories that share one pair of streams, walked together as arrays.
_SEED_BLOCK = 4096
_MAX_TRAJECTORIES = 2**32


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean payoff noise: none, gaussian(scale) or uniform(+-scale)."""

    kind: str = "none"
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "uniform"):
            raise MalformedInputError(f"unknown noise kind {self.kind!r}")
        if self.kind != "none":
            # numpy draws uniform(-s, s) over the width 2s, which must be finite
            width = 2.0 * self.scale if self.kind == "uniform" else self.scale
            if not math.isfinite(width) or math.copysign(1.0, self.scale) < 0:
                raise MalformedInputError(
                    f"noise scale must be finite and non-negative (not -0), "
                    f"got {self.scale!r}")

    @classmethod
    def parse(cls, text: str) -> "NoiseSpec":
        """Parse CLI syntax 'none', 'gaussian:1.0' or 'uniform:0.5'."""
        if text == "none":
            return cls()
        try:
            kind, scale = text.split(":", 1)
            scale = float(scale)
        except ValueError:
            raise MalformedInputError(
                f"noise spec {text!r}; expected none, gaussian:<sd> or uniform:<half-width>"
            ) from None
        return cls(kind, scale)


@dataclass(frozen=True)
class TrajectoryStep:
    stage: int
    state: str
    action1: str
    action2: str
    payoff1: float
    payoff2: float
    noisy1: float
    noisy2: float


@dataclass(frozen=True)
class Trajectory:
    type1: str
    type2: str
    steps: tuple[TrajectoryStep, ...]
    terminal_state: str


def _cdf(p, m: int, what: str) -> np.ndarray:
    """The search table ``Generator.choice(m, p=p)`` builds, after the
    checks it applies to ``p`` (:func:`_stage_tables`)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (m,):
        raise MalformedInputError(f"{what} has shape {p.shape}, expected ({m},)")
    cdf, ok = _stage_tables(p[None, None], m)
    if not ok[0, 0]:
        raise MalformedInputError(
            f"{what} is not a distribution: entries must be finite, "
            f"non-negative and sum to 1 (sum {p.sum()!r})")
    return cdf[0, 0]


def _stage_tables(rows, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The search tables of a stage's rows ``rows[block][type]``, and a
    mask of the rows that pass the checks ``Generator.choice(m, p=row)``
    applies: entries finite and non-negative, their sum within
    ``_SUM_ATOL`` of 1.  Every row of an array of another shape fails.

    The cumulative sums of non-negative entries never decrease, so the
    number of entries ``<= u`` is ``searchsorted(cdf, u, side="right")``,
    the index ``choice`` returns for the uniform ``u``.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 3 or rows.shape[2] != m:
        return rows, np.zeros(rows.shape[:2], dtype=bool)
    with np.errstate(all="ignore"):         # rows that fail the checks
        total = rows.sum(axis=2)
        ok = (np.isfinite(total) & ~(rows < 0).any(axis=2)
              & (np.abs(total - 1.0) <= _SUM_ATOL))
        cdf = rows.cumsum(axis=2)
        cdf /= cdf[..., -1:]
    return cdf, ok


def _search(cdfs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per uniform in ``u``, the index ``searchsorted(cdf, u, side="right")``
    gives in its table, a row of ``cdfs`` (or ``cdfs`` itself when it is
    one table): the count of table entries ``<= u``."""
    return (cdfs <= u[:, None]).sum(axis=1)


@dataclass(frozen=True)
class _Walk:
    """A block of trajectories as arrays, one row per trajectory.

    ``states`` has one column per stage plus the terminal state; the
    payoff and action arrays one per stage; ``noise`` holds the two
    noise values of each stage, defender first.
    """

    types1: np.ndarray
    types2: np.ndarray
    states: np.ndarray
    actions1: np.ndarray
    actions2: np.ndarray
    payoffs1: np.ndarray
    payoffs2: np.ndarray
    noise: np.ndarray


class _Sampler:
    """Play-outs of one profile: per (player, stage), the search tables
    of all its rows."""

    def __init__(self, game: MultiStageGame, profile: StrategyProfile,
                 rng_seed: int, noise: NoiseSpec):
        self.game = game
        self.profile = profile
        self.rng_seed = rng_seed
        self.noise = noise
        self.prior1 = _cdf(game.prior_about_1.weights, game.n1, "prior about player 1")
        self.prior2 = _cdf(game.prior_about_2.weights, game.n2, "prior about player 2")
        self.x0 = game.stages[0].state_index(game.initial_state)
        # per (player, stage): the tables, and their row mask only when a
        # row fails, so a stage whose rows all pass skips the reached-row check
        self.tables = {}
        for player in (1, 2):
            for k, st in enumerate(game.stages):
                cdf, ok = _stage_tables(profile.arrays(player)[k],
                                        st.m1 if player == 1 else st.m2)
                self.tables[player, k] = cdf, None if ok.all() else ok

    def _actions(self, player: int, k: int, blocks: np.ndarray, types: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
        """Each trajectory's action drawn with ``u`` from the row of its
        (row block, own type).  A reached row that :func:`_cdf` rejects
        raises its message, for the lowest such (block, type)."""
        tables, ok = self.tables[player, k]
        if ok is not None:
            bad = ~ok[blocks, types]
            if bad.any():
                b, t = min(zip(blocks[bad].tolist(), types[bad].tolist()))
                st = self.game.stages[k]
                _cdf(self.profile.arrays(player)[k][b][t], st.m1 if player == 1 else st.m2,
                     f"player {player} stage {k} row block {b} type {t}")
        return _search(tables[blocks, types], u)

    def _draws(self, stream: int, start: int, stop: int, width: int,
              gaussian: bool = False) -> np.ndarray:
        """Rows ``start`` to ``stop - 1`` of ``stream``, all in one seed
        block: row ``i`` is row ``i % _SEED_BLOCK`` of seed block
        ``i // _SEED_BLOCK``'s ``random`` (or ``standard_normal``) draw of
        shape ``(_SEED_BLOCK, width)``, and only the rows needed are drawn."""
        block, r0 = divmod(start, _SEED_BLOCK)
        gen = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(self.rng_seed, spawn_key=(block, stream))))
        if gaussian:         # the ziggurat takes a variable count of outputs
            return gen.standard_normal((stop - block * _SEED_BLOCK, width))[r0:]
        gen.bit_generator.advance(r0 * width)    # one output per double
        return gen.random((stop - start, width))

    def walk(self, start: int, stop: int) -> _Walk:
        """Trajectories ``start`` to ``stop - 1``, all in one seed block.

        Each trajectory's stream-0 uniforms are used in the order
        ``choice`` consumed them: the two types, then both actions of
        each stage.
        """
        stages = self.game.stages
        n, n_stages = stop - start, len(stages)
        kind, scale = self.noise.kind, self.noise.scale
        u = self._draws(0, start, stop, 2 + 2 * n_stages)
        t1 = _search(self.prior1, u[:, 0])
        t2 = _search(self.prior2, u[:, 1])
        states = np.empty((n, n_stages + 1), dtype=int)
        a1s = np.empty((n, n_stages), dtype=int)
        a2s = np.empty((n, n_stages), dtype=int)
        pay1 = np.empty((n, n_stages))
        pay2 = np.empty((n, n_stages))
        x = np.full(n, self.x0)
        # each trajectory's history, by its index in build_tree order
        nodes = np.zeros(n, dtype=int)
        for k, st in enumerate(stages):
            blocks = self.profile.classes[k][nodes]
            a1 = self._actions(1, k, blocks, t1, u[:, 2 + 2 * k])
            a2 = self._actions(2, k, blocks, t2, u[:, 3 + 2 * k])
            states[:, k], a1s[:, k], a2s[:, k] = x, a1, a2
            pay1[:, k] = st.payoff1.values[x, a1, a2, t1, t2]
            pay2[:, k] = st.payoff2.values[x, a1, a2, t1, t2]
            nodes = (nodes * st.m1 + a1) * st.m2 + a2
            x = st.transition_table[x, a1, a2]
        states[:, n_stages] = x
        if kind == "gaussian":
            with np.errstate(over="ignore"):     # as normal(0, scale) overflows to inf
                noise = 0.0 + scale * self._draws(1, start, stop, 2 * n_stages, True)
        elif kind == "uniform":                  # Generator.uniform(-scale, scale)
            noise = -scale + (scale - -scale) * self._draws(1, start, stop, 2 * n_stages)
        else:
            noise = np.zeros((n, 2 * n_stages))
        return _Walk(t1, t2, states, a1s, a2s, pay1, pay2, noise)


def _parse_noise(noise: NoiseSpec | str) -> NoiseSpec:
    return NoiseSpec.parse(noise) if isinstance(noise, str) else noise


def sample_playout(game: MultiStageGame, profile: StrategyProfile,
                   rng_seed: int = 0, noise: NoiseSpec | str = "none",
                   trajectory_index: int = 0) -> Trajectory:
    """Draw types from the priors, then play the profile stage by stage,
    each step with the rows of the history played so far.

    Noise uses its own random stream, so switching it on or off never
    changes the sampled types, actions or states.  ``trajectory_index``
    must be an integer from 0 to 2**32 - 1.
    """
    rng_seed = check_seed(rng_seed)
    if not is_integer(trajectory_index) or not 0 <= trajectory_index < _MAX_TRAJECTORIES:
        raise MalformedInputError(f"trajectory index must be a non-negative integer "
                                  f"below 2**32, got {trajectory_index!r}")
    i = int(trajectory_index)
    walk = _Sampler(game, profile, rng_seed, _parse_noise(noise)).walk(i, i + 1)
    return _trajectory(game, walk, 0)


def _trajectory(game: MultiStageGame, walk: _Walk, row: int) -> Trajectory:
    """Row ``row`` of ``walk`` with its states, actions and types named."""
    x = walk.states[row].tolist()
    a1, a2 = walk.actions1[row].tolist(), walk.actions2[row].tolist()
    pay1, pay2 = walk.payoffs1[row].tolist(), walk.payoffs2[row].tolist()
    w = walk.noise[row].tolist()
    steps = tuple(
        TrajectoryStep(k, st.states[x[k]], st.actions1[a1[k]], st.actions2[a2[k]],
                       pay1[k], pay2[k], pay1[k] + w[2 * k], pay2[k] + w[2 * k + 1])
        for k, st in enumerate(game.stages))
    return Trajectory(game.types1[walk.types1[row]], game.types2[walk.types2[row]], steps,
                      game.stages[-1].next_states[x[-1]])


@dataclass(frozen=True)
class MonteCarloReport:
    """Per-(player, own type) sample statistics of cumulative payoffs,
    and ``first``, trajectory 0 of the run."""

    n: int
    counts1: np.ndarray
    counts2: np.ndarray
    mean1: np.ndarray
    mean2: np.ndarray
    stderr1: np.ndarray
    stderr2: np.ndarray
    noisy_mean1: np.ndarray
    noisy_mean2: np.ndarray
    noisy_stderr1: np.ndarray
    noisy_stderr2: np.ndarray
    first: Trajectory

    def __post_init__(self):
        for name in ("counts1", "counts2"):
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype=int))
        for name in ("mean1", "mean2", "stderr1", "stderr2",
                     "noisy_mean1", "noisy_mean2", "noisy_stderr1", "noisy_stderr2"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def _type_stats(types: np.ndarray, totals: np.ndarray, n_types: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per own type, the mean of its trajectories' totals (in trajectory
    order) and the standard error of that mean."""
    means = np.zeros(n_types)
    errs = np.zeros(n_types)
    for t in range(n_types):
        arr = totals[types == t]
        if not arr.size:
            continue
        means[t] = arr.mean()
        if arr.size > 1:
            errs[t] = arr.std(ddof=1) / np.sqrt(arr.size)
    return means, errs


def _totals(stage_values: np.ndarray) -> np.ndarray:
    """Each row's stage values added left to right from 0.0, the floats
    ``sum()`` gives on the row."""
    total = np.zeros(len(stage_values))
    for column in stage_values.T:
        total += column
    return total


def monte_carlo_value(game: MultiStageGame, profile: StrategyProfile, n: int,
                      rng_seed: int = 0, noise: NoiseSpec | str = "none"
                      ) -> MonteCarloReport:
    """Sample means of cumulative payoffs, conditioned on own type, over
    ``n`` trajectories (an integer from 1 to 2**32, the number of
    trajectory indices).

    Raises :class:`MalformedInputError` when the noise is so large that
    a noisy mean or standard error is not a finite float64.  With noise
    ``none`` the noisy statistics are the clean ones: each noisy total
    adds +0.0 to a sum that starts at +0.0, so it is the clean float.
    """
    if not is_integer(n) or not 1 <= n <= _MAX_TRAJECTORIES:
        raise MalformedInputError(
            f"sample count must be an integer >= 1 and at most 2**32, got {n!r}")
    rng_seed = check_seed(rng_seed)
    noise = _parse_noise(noise)
    sampler = _Sampler(game, profile, rng_seed, noise)
    noiseless = noise.kind == "none"
    types1, types2 = np.empty(n, dtype=int), np.empty(n, dtype=int)
    clean1, clean2 = np.empty(n), np.empty(n)
    noisy1, noisy2 = (None, None) if noiseless else (np.empty(n), np.empty(n))
    for start in range(0, n, _SEED_BLOCK):
        stop = min(start + _SEED_BLOCK, n)
        walk = sampler.walk(start, stop)
        if not start:
            first = _trajectory(game, walk, 0)
        types1[start:stop], types2[start:stop] = walk.types1, walk.types2
        # payoffs near the float64 limit overflow to inf as sum() does, silently
        with np.errstate(over="ignore", invalid="ignore"):
            clean1[start:stop] = _totals(walk.payoffs1)
            clean2[start:stop] = _totals(walk.payoffs2)
            if not noiseless:
                noisy1[start:stop] = _totals(walk.payoffs1 + walk.noise[:, 0::2])
                noisy2[start:stop] = _totals(walk.payoffs2 + walk.noise[:, 1::2])
    m1, e1 = _type_stats(types1, clean1, game.n1)
    m2, e2 = _type_stats(types2, clean2, game.n2)
    if noiseless:
        nm1, ne1, nm2, ne2 = m1, e1, m2, e2
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            nm1, ne1 = _type_stats(types1, noisy1, game.n1)
            nm2, ne2 = _type_stats(types2, noisy2, game.n2)
    if not all(np.isfinite(a).all() for a in (nm1, nm2, ne1, ne2)):
        raise MalformedInputError(
            f"noisy payoff statistics overflow float64 at noise scale {noise.scale!r}")
    return MonteCarloReport(
        n, np.bincount(types1, minlength=game.n1), np.bincount(types2, minlength=game.n2),
        m1, m2, e1, e2, nm1, nm2, ne1, ne2, first)
