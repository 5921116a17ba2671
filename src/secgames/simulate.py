"""Monte Carlo play-out of a multi-stage game under a strategy profile.

Trajectory ``i`` of a run with seed ``s`` draws from the streams of
``SeedSequence(entropy=s, spawn_key=(i, stream))`` with PCG64, stream 0
for types and actions and stream 1 for noise, so a run is
bit-reproducible and independent of batching.  Those seeds are computed
for a whole block of trajectories at once by array arithmetic that
reproduces ``SeedSequence`` and PCG64 seeding; each trajectory's draws
then come from one reused ``Generator`` set to its state.  Additive
zero-mean stage noise can be recorded next to the clean payoffs; it
never influences actions or transitions, mirroring the fact that the
solvers work with the noise-free expected payoffs.

Types and actions are drawn the way ``Generator.choice(m, p=row)`` draws
them, one uniform per draw searched in the row's cumulative sums, so the
samples equal those of ``choice`` with the same generator.  Each row is
checked and turned into its search table once per (game, profile), the
first time a trajectory reaches it.  Trajectories are walked a block at
a time, stage by stage, as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (MalformedInputError, MultiStageGame, StrategyProfile,
                   _readonly, check_seed)

# The tolerance Generator.choice allows on the sum of a float64 row.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))
# Trajectories walked together as arrays; memory stays flat in n.
_BLOCK = 4096

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (pcg_setseq_128_srandom_r).
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_MASK128 = (1 << 128) - 1


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

    @property
    def total1(self) -> float:
        return sum(s.payoff1 for s in self.steps)

    @property
    def total2(self) -> float:
        return sum(s.payoff2 for s in self.steps)


def _uint32_words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of an int >= 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of SeedSequence's multiplicative hash on uint32 words:
    the hashed words and the next hash constant."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _pcg64_seeds(seed: int, indices: np.ndarray, stream: int
                 ) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(entropy=seed,
    spawn_key=(i, stream)))`` for every ``i`` in ``indices``.

    ``indices`` must all be below 2**32 (one spawn-key word each).
    SeedSequence's pool mixing and ``generate_state(4, uint64)`` run in
    uint32 arithmetic, one array element per index; PCG64's seeding
    step runs on Python ints.
    """
    n = len(indices)
    # the run entropy is zero-padded to the pool size when a spawn key follows
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.full(n, w, dtype=np.uint32) for w in run]
    entropy += [indices.astype(np.uint32), np.full(n, stream, dtype=np.uint32)]

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value, hash_const = _hash(value, hash_const, _MULT_A)
        return value

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(8):                       # generate_state(4, uint64)
        value, hash_const = _hash(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        words.append(value.astype(np.uint64))
    s0, s1, s2, s3 = ((words[2 * j + 1] << np.uint64(32) | words[2 * j]).tolist()
                      for j in range(4))
    seeds = []
    for hi, lo, seq_hi, seq_lo in zip(s0, s1, s2, s3):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        seeds.append((((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return seeds


def _cdf(p, m: int, what: str) -> np.ndarray:
    """The search table ``Generator.choice(m, p=p)`` builds, after the
    checks it applies to ``p``.

    The cumulative sums of non-negative entries never decrease, so the
    number of entries ``<= u`` is ``searchsorted(cdf, u, side="right")``,
    the index ``choice`` returns for the uniform ``u``.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (m,):
        raise MalformedInputError(f"{what} has shape {p.shape}, expected ({m},)")
    total = p.sum()
    if not np.isfinite(total) or np.any(p < 0) or abs(total - 1.0) > _SUM_ATOL:
        raise MalformedInputError(
            f"{what} is not a distribution: entries must be finite, "
            f"non-negative and sum to 1 (sum {total!r})")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


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
    """Play-outs of one profile: per-row search tables, each checked and
    built the first time a trajectory reaches its row, and one reused
    generator that is set to each trajectory's stream in turn."""

    def __init__(self, game: MultiStageGame, profile: StrategyProfile,
                 rng_seed: int, noise: NoiseSpec):
        self.game = game
        self.profile = profile
        self.rng_seed = rng_seed
        self.noise = noise
        self.prior1 = _cdf(game.prior_about_1.weights, game.n1, "prior about player 1")
        self.prior2 = _cdf(game.prior_about_2.weights, game.n2, "prior about player 2")
        self.x0 = game.stages[0].state_index(game.initial_state)
        self._rows: dict[tuple[int, int, int, int], np.ndarray] = {}
        # history node ids: path per id, id per path, row block per id
        self._paths: list = [()]
        self._ids: dict = {(): 0}
        self._blocks = [] if profile.classes is None else [profile.classes[()]]
        self._bits = np.random.PCG64()
        self._gen = np.random.Generator(self._bits)
        self._state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 1},
                       "has_uint32": 0, "uinteger": 0}

    def _row(self, player: int, k: int, block: int, t: int) -> np.ndarray:
        key = (player, k, block, t)
        cdf = self._rows.get(key)
        if cdf is None:
            st = self.game.stages[k]
            cdf = self._rows[key] = _cdf(
                self.profile.arrays(player)[k][block][t],
                st.m1 if player == 1 else st.m2,
                f"player {player} stage {k} row block {block} type {t}")
        return cdf

    def _actions(self, player: int, k: int, blocks: np.ndarray, types: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
        """Each trajectory's action drawn with ``u`` from the row of its
        (row block, own type)."""
        n_own = self.game.n1 if player == 1 else self.game.n2
        keys, rows = np.unique(blocks * n_own + types, return_inverse=True)
        tables = np.array([self._row(player, k, *divmod(int(key), n_own)) for key in keys])
        return _search(tables[rows], u)

    def _children(self, nodes: np.ndarray, a1: np.ndarray, a2: np.ndarray,
                  m1: int, m2: int) -> np.ndarray:
        """The node ids of the histories ``nodes`` extended by ``(a1, a2)``."""
        keys, inv = np.unique((nodes * m1 + a1) * m2 + a2, return_inverse=True)
        out = []
        for key in keys.tolist():
            parent, rest = divmod(key, m1 * m2)
            path = self._paths[parent] + (divmod(rest, m2),)
            node = self._ids.get(path)
            if node is None:
                node = self._ids[path] = len(self._paths)
                self._paths.append(path)
                self._blocks.append(self.profile.classes[path])
            out.append(node)
        return np.array(out)[inv]

    def _draws(self, start: int, stop: int, stream: int, width: int, fill) -> np.ndarray:
        """One row of ``width`` values per trajectory ``start`` to
        ``stop - 1``, written by ``fill(generator, row)`` from that
        trajectory's own ``stream``."""
        if stop > 2**32:
            raise MalformedInputError("trajectory indices must be below 2**32")
        out = np.empty((stop - start, width))
        inner = self._state["state"]
        for row, (state, inc) in zip(out, _pcg64_seeds(
                self.rng_seed, np.arange(start, stop), stream)):
            inner["state"], inner["inc"] = state, inc
            self._bits.state = self._state
            fill(self._gen, row)
        return out

    def walk(self, start: int, stop: int) -> _Walk:
        """Trajectories ``start`` to ``stop - 1``.

        Each trajectory's uniforms come from one call on its stream-0
        generator, in the order ``choice`` consumed them: the two types,
        then both actions of each stage.
        """
        stages = self.game.stages
        n, n_stages = stop - start, len(stages)
        u = self._draws(start, stop, 0, 2 + 2 * n_stages, lambda g, row: g.random(out=row))
        t1 = _search(self.prior1, u[:, 0])
        t2 = _search(self.prior2, u[:, 1])
        states = np.empty((n, n_stages + 1), dtype=int)
        a1s = np.empty((n, n_stages), dtype=int)
        a2s = np.empty((n, n_stages), dtype=int)
        pay1 = np.empty((n, n_stages))
        pay2 = np.empty((n, n_stages))
        x = np.full(n, self.x0)
        nodes = np.zeros(n, dtype=int)
        for k, st in enumerate(stages):
            blocks = x if self.profile.classes is None else np.array(self._blocks)[nodes]
            a1 = self._actions(1, k, blocks, t1, u[:, 2 + 2 * k])
            a2 = self._actions(2, k, blocks, t2, u[:, 3 + 2 * k])
            states[:, k], a1s[:, k], a2s[:, k] = x, a1, a2
            pay1[:, k] = st.payoff1.values[x, a1, a2, t1, t2]
            pay2[:, k] = st.payoff2.values[x, a1, a2, t1, t2]
            if self.profile.classes is not None and k + 1 < n_stages:
                nodes = self._children(nodes, a1, a2, st.m1, st.m2)
            x = st.transition_table[x, a1, a2]
        states[:, n_stages] = x
        scale = self.noise.scale
        if self.noise.kind == "gaussian":
            noise = self._draws(start, stop, 1, 2 * n_stages, lambda g, row: np.copyto(
                row, g.normal(0.0, scale, len(row))))
        elif self.noise.kind == "uniform":
            noise = self._draws(start, stop, 1, 2 * n_stages, lambda g, row: np.copyto(
                row, g.uniform(-scale, scale, len(row))))
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
    must be below 2**32.
    """
    rng_seed = check_seed(rng_seed)
    if trajectory_index < 0:
        raise MalformedInputError("trajectory index must be non-negative")
    walk = _Sampler(game, profile, rng_seed, _parse_noise(noise)).walk(
        trajectory_index, trajectory_index + 1)
    x = walk.states[0].tolist()
    a1, a2 = walk.actions1[0].tolist(), walk.actions2[0].tolist()
    pay1, pay2 = walk.payoffs1[0].tolist(), walk.payoffs2[0].tolist()
    w = walk.noise[0].tolist()
    steps = tuple(
        TrajectoryStep(k, st.states[x[k]], st.actions1[a1[k]], st.actions2[a2[k]],
                       pay1[k], pay2[k], pay1[k] + w[2 * k], pay2[k] + w[2 * k + 1])
        for k, st in enumerate(game.stages))
    return Trajectory(game.types1[walk.types1[0]], game.types2[walk.types2[0]], steps,
                      game.stages[-1].next_states[x[-1]])


@dataclass(frozen=True)
class MonteCarloReport:
    """Per-(player, own type) sample statistics of cumulative payoffs."""

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
    """Sample means of cumulative payoffs, conditioned on own type.

    Raises :class:`MalformedInputError` when the noise is so large that
    a noisy mean or standard error is not a finite float64.
    """
    if n < 1:
        raise MalformedInputError("sample count must be at least 1")
    rng_seed = check_seed(rng_seed)
    noise = _parse_noise(noise)
    sampler = _Sampler(game, profile, rng_seed, noise)
    parts: list[tuple[np.ndarray, ...]] = []
    for start in range(0, n, _BLOCK):
        walk = sampler.walk(start, min(start + _BLOCK, n))
        # payoffs near the float64 limit overflow to inf as sum() does, silently
        with np.errstate(over="ignore", invalid="ignore"):
            parts.append((walk.types1, walk.types2,
                          _totals(walk.payoffs1), _totals(walk.payoffs2),
                          _totals(walk.payoffs1 + walk.noise[:, 0::2]),
                          _totals(walk.payoffs2 + walk.noise[:, 1::2])))
    types1, types2, clean1, clean2, noisy1, noisy2 = (
        np.concatenate(column) for column in zip(*parts))
    m1, e1 = _type_stats(types1, clean1, game.n1)
    m2, e2 = _type_stats(types2, clean2, game.n2)
    with np.errstate(over="ignore", invalid="ignore"):
        nm1, ne1 = _type_stats(types1, noisy1, game.n1)
        nm2, ne2 = _type_stats(types2, noisy2, game.n2)
    if not all(np.isfinite(a).all() for a in (nm1, nm2, ne1, ne2)):
        raise MalformedInputError(
            f"noisy payoff statistics overflow float64 at noise scale {noise.scale!r}")
    return MonteCarloReport(
        n, np.bincount(types1, minlength=game.n1), np.bincount(types2, minlength=game.n2),
        m1, m2, e1, e2, nm1, nm2, ne1, ne2)
