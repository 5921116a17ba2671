"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain data
(CLI parameter dicts or game-description JSON dicts), so the program
under test only ever sees the generated inputs, never the seed.
"""

from __future__ import annotations

import numpy as np

APT_INITIAL_STATES = ("external", "internal")


def apt_pool(rng: np.random.Generator, n: int) -> list[dict]:
    """``--params`` for ``n`` APT instances.

    The two priors are drawn from [0.1, 0.9] and the initial state from
    {external, internal}, on a grid: the priors' square is cut into
    ``k`` by ``k`` equal cells, ``k`` the largest whole number with
    ``2 k**2 <= n``, and each cell holds one instance per initial state,
    each at a point drawn uniformly in the cell.  The remaining
    instances are drawn from the whole range.  Every seed then covers
    the parameter space in the same proportions.
    """
    k = int((n // 2) ** 0.5)
    cells = [(a, h, s) for a in range(k) for h in range(k)
             for s in range(len(APT_INITIAL_STATES))]
    width = 0.8 / max(k, 1)
    out = []
    for i in range(n):
        if i < len(cells):
            a, h, s = cells[i]
            lo_a, lo_h, span = 0.1 + a * width, 0.1 + h * width, width
        else:
            lo_a, lo_h, span, s = 0.1, 0.1, 0.8, int(rng.integers(2))
        out.append({"prior_adversarial": float(lo_a + span * rng.uniform()),
                    "prior_high_awareness": float(lo_h + span * rng.uniform()),
                    "initial_state": APT_INITIAL_STATES[s]})
    return out


def _one_stage(rng, states, actions1, actions2, n1, n2, next_states):
    shape = (len(states), len(actions1), len(actions2), n1, n2)
    transition = rng.integers(len(next_states), size=shape[:3])
    return {
        "states": list(states),
        "actions1": list(actions1),
        "actions2": list(actions2),
        "payoffs1": np.round(rng.normal(size=shape), 6).tolist(),
        "payoffs2": np.round(rng.normal(size=shape), 6).tolist(),
        "transition": [[[next_states[j] for j in row] for row in plane]
                       for plane in transition.tolist()],
        "next_states": list(next_states),
    }


def _prior(rng, n: int) -> list[float]:
    w = rng.uniform(0.2, 0.8, size=n)
    w = np.round(w / w.sum(), 6)
    w[-1] = round(1.0 - float(w[:-1].sum()), 6)
    return w.tolist()


def random_game(rng: np.random.Generator, horizon: int, states: int = 3,
                actions: tuple[int, int] = (3, 3),
                types: tuple[int, int] = (2, 2)) -> dict:
    """A random multi-stage game as a game-description JSON dict.

    ``horizon + 1`` stages of ``states`` states each, standard-normal
    payoffs, uniformly random deterministic transitions, every action
    feasible, and priors drawn away from the simplex boundary.  The
    terminal next-state labels of the last stage are ``end0``...
    """
    m1, m2 = actions
    n1, n2 = types
    a1 = [f"d{i}" for i in range(m1)]
    a2 = [f"u{i}" for i in range(m2)]
    stages = []
    for k in range(horizon + 1):
        here = [f"s{k}_{x}" for x in range(states)]
        nxt = ([f"s{k + 1}_{x}" for x in range(states)] if k < horizon
               else [f"end{x}" for x in range(states)])
        stages.append(_one_stage(rng, here, a1, a2, n1, n2, nxt))
    return {
        "types": {"defender": [f"D{i}" for i in range(n1)],
                  "user": [f"U{i}" for i in range(n2)]},
        "priors": {"about_defender": _prior(rng, n1),
                   "about_user": _prior(rng, n2)},
        "horizon": horizon,
        "initial_state": stages[0]["states"][0],
        "stages": stages,
    }


def oneshot_game(rng: np.random.Generator, actions: tuple[int, int],
                 types: tuple[int, int]) -> dict:
    """A random one-shot (horizon 0, one state) game description."""
    return random_game(rng, 0, states=1, actions=actions, types=types)
