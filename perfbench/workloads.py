"""The benchmark workloads: inputs, command sequences and output checks.

A workload turns its seed into a pool of ``pool`` inputs (``setup``),
prepares anything that must exist before timing starts and is not part
of a user's set-up (``prepare``), and yields *passes*: the fixed sequence
of CLI commands it runs on one input of the pool (``pass_ops``).  Every
command writes its report with ``--out``; each command carries the exit
codes it may end with and a check that re-derives what the report
claims.

``BENCHMARK.json`` lists the workloads that gate.  ``deep-tree`` and
``oneshot`` stay runnable by name: they hit program defects that make
some operations hang or raise (see the README), so they cannot gate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import generators
from secgames import gamejson, scenarios, signaling, static
from secgames.core import validate_game

# ``solve pbne`` sweep cap on apt-sweep.  With the default (100) one APT
# instance costs anywhere from 0.07 s (2 sweeps) to 5 s (100 sweeps, no
# convergence), so a run of a few dozen instances gives a per-command
# time that depends on which instances the seed drew.  With a cap of 2
# an instance stops after one sweep only if that sweep leaves its
# beliefs unchanged; in traced runs every instance ran two sweeps,
# converged (exit 0) or not (exit 3).
APT_MAX_ITER = 2
# Pool sizes: each input runs about ten times or more in one run (see
# run.py), and one cycle through the pool takes a few seconds.
APT_POOL = 32
DEEP_HORIZON = 4
DEEP_MAX_ITER = 2
DEEP_POOL = 6
SIM_N = 1000
SIM_NOISES = ("none", "gaussian:1.0")
SIM_MAX_Z = 5.0
SIM_POOL = 8
ONESHOT_NE_SIGNALING_POOL = 6
# ``oneshot`` does not gate; its larger pool keeps its ``solve bne`` hangs
# (see the README) showing on a good share of seeds.
ONESHOT_POOL = 40
# Bayes-consistency tolerance used by the signaling solver itself.
BAYES_TOL = 1e-9


def validate_game_or_raise(game):
    problems = validate_game(game)
    if problems:
        raise ValueError(f"invalid game: {problems}")
    return game


@dataclass
class Op:
    """One CLI command.  ``check(code, report)`` returns a problem or None."""

    kind: str
    argv: list[str]
    out: str
    codes: tuple[int, ...] = (0,)
    check: Callable[[int, dict], str | None] | None = None
    variant: str = ""


class Workload:
    kinds: tuple[str, ...] = ()     # command kinds of one pass, in order
    pool = 1                        # number of inputs; passes cycle through them

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.inputs: list = []

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng((self.seed,) + stream)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_game(self, name: str, raw: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        return path

    def load_valid(self, path: str):
        return validate_game_or_raise(gamejson.load_game(path))

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, run_cli) -> None:
        """Untimed work that must precede the warm-up; none by default."""

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def pass_ops(self, j: int) -> list[Op]:
        """The pass on input ``j`` of the pool."""
        raise NotImplementedError


def _pbne_checks(state: dict):
    """Checks for ``solve pbne`` followed by ``verify`` on its report."""

    def solve_check(code, report):
        res = report["results"]
        if res["converged"] != (code == 0):
            return f"exit {code} but converged={res['converged']}"
        state["epsilon"] = res.get("epsilon") if code == 0 else None
        return None

    def verify_check(code, report):
        eps = state.get("epsilon")
        if eps is not None and report["results"]["epsilon"] != eps:
            return (f"verify epsilon {report['results']['epsilon']} != "
                    f"solve epsilon {eps}")
        return None

    return solve_check, verify_check


def _pbne_pass(w: Workload, tag: str, source: list[str], extra: list[str],
               seed: int) -> list[Op]:
    solve_check, verify_check = _pbne_checks({})
    report = w.path(f"pbne-{tag}.json")
    return [
        Op("solve_pbne", ["solve", "pbne", *source, *extra, "--seed", str(seed),
                          "--out", report], report, (0, 3), solve_check),
        Op("verify", ["verify", *source, "--profile", report,
                      "--out", w.path(f"verify-{tag}.json")],
           w.path(f"verify-{tag}.json"), (0,), verify_check),
    ]


class AptSweep(Workload):
    """APT instances with drawn priors and initial state: solve, then verify."""

    kinds = ("solve_pbne", "verify")
    pool = APT_POOL

    def setup(self):
        self.inputs = generators.apt_pool(self.rng(1), APT_POOL)
        for p in self.inputs:
            p = dict(p)
            initial = p.pop("initial_state")
            validate_game_or_raise(scenarios.build_apt_game(
                scenarios.AptParameters(**p), initial_state=initial))
        self.warm = generators.apt_pool(self.rng(2), 1)[0]

    def _ops(self, tag, params, seed):
        source = ["--scenario", "apt", "--params", json.dumps(params, sort_keys=True)]
        return _pbne_pass(self, tag, source, ["--max-iter", str(APT_MAX_ITER)], seed)

    def warmup(self):
        return self._ops("warm", self.warm, 0)

    def pass_ops(self, j):
        return self._ops(str(j), self.inputs[j], j)


class DeepTree(Workload):
    """Random horizon-4 games (7,381 histories): capped solve, then verify."""

    kinds = ("solve_pbne", "verify")
    pool = DEEP_POOL

    def setup(self):
        self.inputs = []
        for i in range(DEEP_POOL):
            raw = generators.random_game(self.rng(1, i), DEEP_HORIZON)
            path = self.write_game(f"game-{i}.json", raw)
            self.load_valid(path)
            self.inputs.append(path)
        self.warm = self.write_game(
            "game-warm.json", generators.random_game(self.rng(2), 2))
        self.load_valid(self.warm)

    def _ops(self, tag, path, seed):
        return _pbne_pass(self, tag, ["--game", path],
                          ["--max-iter", str(DEEP_MAX_ITER)], seed)

    def warmup(self):
        return self._ops("warm", self.warm, 0)

    def pass_ops(self, j):
        return self._ops(str(j), self.inputs[j], j)


def _simulate_check(code, report):
    """Each clean and noisy mean within SIM_MAX_Z standard errors of exact."""
    res = report["results"]
    for side in ("defender", "user"):
        for t, exact in enumerate(res["exact"][side]):
            if res["counts"][side][t] < 2:
                continue
            for mean_key, err_key in (("mean", "stderr"),
                                      ("noisy_mean", "noisy_stderr")):
                mean = res[mean_key][side][t]
                err = res[err_key][side][t]
                if err == 0.0:
                    bad = abs(mean - exact) > 1e-9 * (1.0 + abs(exact))
                else:
                    bad = abs(mean - exact) / err > SIM_MAX_Z
                if bad:
                    return (f"{side}[{t}] {mean_key} {mean} vs exact {exact} "
                            f"(stderr {err})")
    return None


class MonteCarlo(Workload):
    """``simulate`` on the default APT profile, alternating noise settings."""

    kinds = tuple(f"simulate:{n}" for n in SIM_NOISES)
    pool = SIM_POOL

    def setup(self):
        validate_game_or_raise(scenarios.build_apt_game())
        self.inputs = [int(s) for s in self.rng(1).integers(2**31, size=SIM_POOL)]
        self.profile = self.path("apt-profile.json")

    def prepare(self, run_cli):
        code = run_cli(["solve", "pbne", "--scenario", "apt", "--out", self.profile])
        if code not in (0, 3):
            raise RuntimeError(f"solving the APT profile exited {code}")

    def _ops(self, tag, seed, n):
        ops = []
        for noise in SIM_NOISES:
            name = noise.split(":")[0]
            out = self.path(f"sim-{tag}-{name}.json")
            ops.append(Op(f"simulate:{noise}",
                          ["simulate", "--scenario", "apt", "--profile", self.profile,
                           "-n", str(n), "--seed", str(seed), "--noise", noise,
                           "--out", out], out, (0,), _simulate_check, name))
        return ops

    def warmup(self):
        return self._ops("warm", 0, 200)

    def pass_ops(self, j):
        return self._ops(str(j), self.inputs[j], SIM_N)


def _rows(per_type: dict, labels) -> np.ndarray:
    return np.array([per_type[t] for t in labels], dtype=float)


def _bne_check(g):
    """Every reported equilibrium of ``g`` has a recomputed gap within
    the solver's tolerance, and there is at least one (Nash's theorem)."""

    def check(code, report):
        eqs = report["results"]["equilibria"]
        if not eqs:
            return "no equilibrium reported"
        for eq in eqs:
            gap, _ = static.bayes_gap(g, _rows(eq["sigma1"], g.types1),
                                      _rows(eq["sigma2"], g.types2))
            if gap > static.GAP_TOL:
                return f"equilibrium has deviation gap {gap}"
        return None

    return check


def _ne_check(bim):
    """The mixed equilibria as for ``solve bne``, plus every pure one."""
    bayes = static.as_bayesian(bim)
    mixed = _bne_check(bayes)

    def check(code, report):
        problem = mixed(code, report)
        if problem:
            return problem
        for a1, a2 in report["results"]["pure"]:
            s1 = np.eye(len(bim.actions1))[[bim.actions1.index(a1)]]
            s2 = np.eye(len(bim.actions2))[[bim.actions2.index(a2)]]
            gap, _ = static.bayes_gap(bayes, s1, s2)
            if gap > static.GAP_TOL:
                return f"pure equilibrium ({a1}, {a2}) has deviation gap {gap}"
        return None

    return check


def _signaling_check(sg):
    def check(code, report):
        for method, rows in report["results"].items():
            for r in rows:
                receiver = _rows(r["receiver"], sg.messages)
                sender = _rows(r["sender"], sg.types)
                beliefs = _rows(r["beliefs"], sg.messages)
                gap, bayes_err, notes = signaling.verify_pbne(sg, receiver, sender,
                                                              beliefs)
                if gap > signaling.GAP_TOL or bayes_err > BAYES_TOL or notes:
                    return (f"{method} equilibrium fails re-verification: gap {gap}, "
                            f"Bayes error {bayes_err}, {notes}")
        return None

    return check


class OneShot(Workload):
    """Random one-shot games: ``solve ne``, ``solve bne``, ``solve signaling``."""

    SHAPES = {  # kind -> (actions (defender, user), types (defender, user))
        "solve_ne": ((5, 5), (1, 1)),
        "solve_bne": ((3, 3), (2, 2)),
        "solve_signaling": ((2, 3), (1, 2)),
    }
    kinds = tuple(SHAPES)
    pool = ONESHOT_POOL

    def _triple(self, tag, rng):
        out = {}
        for kind, (actions, types) in self.SHAPES.items():
            path = self.write_game(f"{kind}-{tag}.json",
                                   generators.oneshot_game(rng, actions, types))
            g = static.from_multistage(self.load_valid(path))
            if kind == "solve_ne":
                check = _ne_check(static.prior_averaged_bimatrix(g))
            elif kind == "solve_bne":
                check = _bne_check(g)
            else:
                check = _signaling_check(signaling.as_signaling_game(g))
            out[kind] = (path, check)
        return out

    def setup(self):
        self.inputs = [self._triple(str(i), self.rng(1, i)) for i in range(self.pool)]
        self.warm = self._triple("warm", self.rng(2))

    def _ops(self, tag, triple):
        ops = []
        for kind, (path, check) in triple.items():
            out = self.path(f"out-{kind}-{tag}.json")
            ops.append(Op(kind, ["solve", kind.split("_", 1)[1], "--game", path,
                                 "--out", out], out, (0,), check))
        return ops

    def warmup(self):
        return self._ops("warm", self.warm)

    def pass_ops(self, j):
        return self._ops(str(j), self.inputs[j])


class OneShotNeSignaling(OneShot):
    """``oneshot`` without ``solve bne``, whose LPs can cycle forever.

    ``solve ne`` still runs ``static.solve_bne`` on the bimatrix game's
    Bayesian form, so the ``static`` layer stays measured.
    """

    SHAPES = {k: v for k, v in OneShot.SHAPES.items() if k != "solve_bne"}
    kinds = tuple(SHAPES)
    pool = ONESHOT_NE_SIGNALING_POOL


WORKLOADS = {
    "apt-sweep": AptSweep,
    "monte-carlo": MonteCarlo,
    "oneshot-ne-signaling": OneShotNeSignaling,
    "deep-tree": DeepTree,
    "oneshot": OneShot,
}
