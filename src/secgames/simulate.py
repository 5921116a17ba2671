"""Monte Carlo play-out of a multi-stage game under a strategy profile.

Per-trajectory generators are derived from (seed, trajectory index), so
a run is bit-reproducible and independent of batching.  Additive
zero-mean stage noise can be recorded next to the clean payoffs; it
never influences actions or transitions, mirroring the fact that the
solvers work with the noise-free expected payoffs.

Types and actions are drawn the way ``Generator.choice(m, p=row)`` draws
them, one uniform per draw searched in the row's cumulative sums, so the
samples equal those of ``choice`` with the same generator.  Each row is
checked and turned into its search table once per (game, profile), not
on every draw.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import MalformedInputError, MultiStageGame, StrategyProfile, _readonly

# The tolerance Generator.choice allows on the sum of a float64 row.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


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

    def draws(self, rng_seed: int, index: int, count: int) -> list[float]:
        """The ``count`` noise values of trajectory ``index``, from its own
        stream; zeros for no noise, drawn without building a generator."""
        if self.kind == "none":
            return [0.0] * count
        rng = _trajectory_rng(rng_seed, index, 1)
        if self.kind == "gaussian":
            return rng.normal(0.0, self.scale, count).tolist()
        return rng.uniform(-self.scale, self.scale, count).tolist()


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


def _trajectory_rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index, stream)))


def _cdf(p, m: int, what: str) -> list[float]:
    """The search table ``Generator.choice(m, p=p)`` builds, after the
    checks it applies to ``p``.

    ``bisect_right(cdf, u)`` is ``searchsorted(u, side="right")`` on the
    same values: the cumulative sums of non-negative entries never
    decrease.
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
    return cdf.tolist()


class _Sampler:
    """Play-outs of one profile: per-row search tables, each checked and
    built the first time a trajectory reaches its row."""

    def __init__(self, game: MultiStageGame, profile: StrategyProfile):
        self.game = game
        self.profile = profile
        self.prior1 = _cdf(game.prior_about_1.weights, game.n1, "prior about player 1")
        self.prior2 = _cdf(game.prior_about_2.weights, game.n2, "prior about player 2")
        self.x0 = game.stages[0].state_index(game.initial_state)
        self.n_draws = 2 + 2 * len(game.stages)
        self._payoff1 = [st.payoff1.values.tolist() for st in game.stages]
        self._payoff2 = [st.payoff2.values.tolist() for st in game.stages]
        self._transition = [st.transition_table.tolist() for st in game.stages]
        self._rows: dict[tuple[int, int, int, int], list[float]] = {}

    def _row(self, player: int, k: int, block: int, t: int) -> list[float]:
        key = (player, k, block, t)
        cdf = self._rows.get(key)
        if cdf is None:
            st = self.game.stages[k]
            cdf = self._rows[key] = _cdf(
                self.profile.arrays(player)[k][block][t],
                st.m1 if player == 1 else st.m2,
                f"player {player} stage {k} row block {block} type {t}")
        return cdf

    def walk(self, rng_seed: int, index: int):
        """Trajectory ``index``: its types, ``(state, a1, a2, payoff1,
        payoff2)`` per stage and the terminal state index.

        All uniforms come from one call on the trajectory's generator,
        in the order ``choice`` consumed them: the two types, then both
        actions of each stage.
        """
        u = _trajectory_rng(rng_seed, index, 0).random(self.n_draws).tolist()
        t1 = bisect_right(self.prior1, u[0])
        t2 = bisect_right(self.prior2, u[1])
        classes = self.profile.classes
        x = self.x0
        node = ()
        steps = []
        for k in range(len(self.game.stages)):
            block = x if classes is None else classes[node]
            a1 = bisect_right(self._row(1, k, block, t1), u[2 + 2 * k])
            a2 = bisect_right(self._row(2, k, block, t2), u[3 + 2 * k])
            steps.append((x, a1, a2, self._payoff1[k][x][a1][a2][t1][t2],
                          self._payoff2[k][x][a1][a2][t1][t2]))
            if classes is not None:
                node += ((a1, a2),)
            x = self._transition[k][x][a1][a2]
        return t1, t2, steps, x


def sample_playout(game: MultiStageGame, profile: StrategyProfile,
                   rng_seed: int = 0, noise: NoiseSpec | str = "none",
                   trajectory_index: int = 0) -> Trajectory:
    """Draw types from the priors, then play the profile stage by stage,
    each step with the rows of the history played so far.

    Noise uses its own random stream, so switching it on or off never
    changes the sampled types, actions or states.
    """
    noise = NoiseSpec.parse(noise) if isinstance(noise, str) else noise
    t1, t2, walked, x = _Sampler(game, profile).walk(rng_seed, trajectory_index)
    w = noise.draws(rng_seed, trajectory_index, 2 * len(walked))
    steps = tuple(
        TrajectoryStep(k, st.states[xk], st.actions1[a1], st.actions2[a2],
                       pay1, pay2, pay1 + w[2 * k], pay2 + w[2 * k + 1])
        for k, (st, (xk, a1, a2, pay1, pay2)) in enumerate(zip(game.stages, walked)))
    return Trajectory(game.types1[t1], game.types2[t2], steps,
                      game.stages[-1].next_states[x])


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


def _type_stats(types: np.ndarray, totals: list[float], n_types: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per own type, the mean of its trajectories' totals (in trajectory
    order) and the standard error of that mean."""
    totals = np.array(totals)
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


def monte_carlo_value(game: MultiStageGame, profile: StrategyProfile, n: int,
                      rng_seed: int = 0, noise: NoiseSpec | str = "none"
                      ) -> MonteCarloReport:
    """Sample means of cumulative payoffs, conditioned on own type.

    Raises :class:`MalformedInputError` when the noise is so large that
    a noisy mean or standard error is not a finite float64.
    """
    if n < 1:
        raise MalformedInputError("sample count must be at least 1")
    noise = NoiseSpec.parse(noise) if isinstance(noise, str) else noise
    sampler = _Sampler(game, profile)
    types1, types2 = [], []
    clean1, clean2, noisy1, noisy2 = [], [], [], []
    for i in range(n):
        t1, t2, steps, _ = sampler.walk(rng_seed, i)
        types1.append(t1)
        types2.append(t2)
        w = noise.draws(rng_seed, i, 2 * len(steps))
        clean1.append(sum(s[3] for s in steps))
        clean2.append(sum(s[4] for s in steps))
        noisy1.append(sum(s[3] + w[2 * k] for k, s in enumerate(steps)))
        noisy2.append(sum(s[4] + w[2 * k + 1] for k, s in enumerate(steps)))
    types1 = np.array(types1)
    types2 = np.array(types2)
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
