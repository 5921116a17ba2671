"""JSON wire formats: game descriptions, profiles, beliefs.

The game schema mirrors the in-memory layout: ``types``, ``priors``,
``horizon``, ``initial_state`` and a ``stages`` array whose entries
carry ``states``, ``actions1``, ``actions2``, ``payoffs1``/``payoffs2``
nested as [state][a1][a2][type1][type2], an optional ``mask`` and a
``transition`` array [state][a1][a2] of next-state labels.  Loading is
permissive about normalization problems (they surface later through
validate_game); structural impossibilities raise.

Profiles have two forms: a versioned per-history one, which
:func:`profile_to_dict` writes, and the Markov form with one row per
stage, state and type.  :func:`profile_from_dict` reads both, the
Markov form as a per-history profile whose histories share their
state's rows.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import (PROB_TOL, BeliefSystem, FiniteDistribution, MalformedInputError,
                   MultiStageGame, NodeKey, PayoffTensor, StageGame,
                   StrategyProfile, build_tree)


def game_to_dict(game: MultiStageGame) -> dict[str, Any]:
    stages = []
    for k, st in enumerate(game.stages):
        transition = [[[st.next_states[int(st.transition_table[x, a1, a2])]
                        for a2 in range(st.m2)] for a1 in range(st.m1)]
                      for x in range(st.n_states)]
        stages.append({
            "states": list(st.states),
            "actions1": list(st.actions1),
            "actions2": list(st.actions2),
            "payoffs1": st.payoff1.values.tolist(),
            "payoffs2": st.payoff2.values.tolist(),
            "mask": {
                "player1": st.payoff1.feasible.tolist(),
                "player2": st.payoff2.feasible.tolist(),
            },
            "transition": transition,
            "next_states": list(st.next_states),
        })
    return {
        "types": {"defender": list(game.types1), "user": list(game.types2)},
        "priors": {
            "about_defender": np.asarray(game.prior_about_1.weights).tolist(),
            "about_user": np.asarray(game.prior_about_2.weights).tolist(),
        },
        "horizon": game.horizon,
        "initial_state": game.initial_state,
        "stages": stages,
    }


def _field(raw, key: str, where: str):
    if not isinstance(raw, dict):
        raise MalformedInputError(f"{where} must be a JSON object")
    if key not in raw:
        raise MalformedInputError(f"{where}: missing field {key!r}")
    return raw[key]


def _labels(raw, key: str, where: str) -> list[str]:
    value = _field(raw, key, where)
    if not isinstance(value, list):
        raise MalformedInputError(f"{where}: {key!r} must be a list of labels")
    return [str(s) for s in value]


def _array(raw, key: str, where: str, dtype=float) -> np.ndarray:
    value = _field(raw, key, where)
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise MalformedInputError(f"{where}: {key!r} must be a numeric array") from None


def _stage_from_dict(k: int, raw: dict, next_states: list[str] | None,
                     n1: int, n2: int) -> StageGame:
    where = f"stage {k}"
    states = _labels(raw, "states", where)
    actions1 = _labels(raw, "actions1", where)
    actions2 = _labels(raw, "actions2", where)
    p1, p2 = _array(raw, "payoffs1", where), _array(raw, "payoffs2", where)
    S, m1, m2 = len(states), len(actions1), len(actions2)
    expected = (S, m1, m2, n1, n2)
    if p1.shape != expected or p2.shape != expected:
        raise MalformedInputError(
            f"stage {k}: payoff shape {p1.shape}/{p2.shape} != {expected}")
    mask = raw.get("mask") or {}
    if not isinstance(mask, dict):
        raise MalformedInputError(f"{where}: 'mask' must be a JSON object")
    f1, f2 = (_array(mask, key, f"{where} mask", bool) if key in mask else np.ones((S, n, m))
              for key, n, m in (("player1", n1, m1), ("player2", n2, m2)))
    if f1.ndim != 3 or f2.ndim != 3:
        raise MalformedInputError(f"{where}: 'mask' must be [state][type][action] arrays")

    transition = _field(raw, "transition", where)
    try:
        cells = np.array(transition, dtype=object)
    except ValueError:      # ragged
        cells = None
    if cells is None or cells.shape != (S, m1, m2):
        raise MalformedInputError(f"{where}: 'transition' must be [state][a1][a2] "
                                  f"lists of labels, {S}x{m1}x{m2}")
    labels = [str(label) for label in cells.ravel()]
    declared = (_labels(raw, "next_states", where) if raw.get("next_states") is not None
                else None)
    if next_states is None:
        next_states = declared if declared is not None else list(dict.fromkeys(labels))
    elif declared is not None and declared != next_states:
        raise MalformedInputError(f"{where}: 'next_states' {declared} differs from "
                                  f"stage {k + 1} 'states' {next_states}")
    index = {s: i for i, s in enumerate(next_states)}
    for label in labels:
        if label not in index:
            # keep the label visible as a dangling target
            index[label] = len(next_states)
            next_states = next_states + [label]
    table = np.array([index[label] for label in labels], dtype=int).reshape(S, m1, m2)
    return StageGame(k, tuple(states), tuple(actions1), tuple(actions2),
                     PayoffTensor(p1, f1), PayoffTensor(p2, f2),
                     table, tuple(next_states))


def game_from_dict(raw: dict[str, Any]) -> MultiStageGame:
    """Read a game description; a missing field or one of the wrong kind
    raises :class:`MalformedInputError` naming the stage and field."""
    where = "game description"
    types, priors = _field(raw, "types", where), _field(raw, "priors", where)
    types1 = tuple(_labels(types, "defender", "types"))
    types2 = tuple(_labels(types, "user", "types"))
    prior1 = _array(priors, "about_defender", "priors")
    prior2 = _array(priors, "about_user", "priors")
    horizon = _field(raw, "horizon", where)
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise MalformedInputError(f"{where}: 'horizon' must be an integer, got {horizon!r}")
    stages_raw = _field(raw, "stages", where)
    if not isinstance(stages_raw, list):
        raise MalformedInputError(f"{where}: 'stages' must be a list")
    initial_state = str(_field(raw, "initial_state", where))
    stages = []
    n1, n2 = len(types1), len(types2)
    for k, st_raw in enumerate(stages_raw):
        nxt = (_labels(stages_raw[k + 1], "states", f"stage {k + 1}")
               if k + 1 < len(stages_raw) else None)
        stages.append(_stage_from_dict(k, st_raw, nxt, n1, n2))
    return MultiStageGame(
        horizon=horizon, stages=tuple(stages), types1=types1, types2=types2,
        prior_about_1=FiniteDistribution.unchecked(prior1),
        prior_about_2=FiniteDistribution.unchecked(prior2),
        initial_state=initial_state)


def load_game(path: str) -> MultiStageGame:
    with open(path, "r", encoding="utf-8") as fh:
        return game_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Profiles and beliefs.
# ---------------------------------------------------------------------------

# Version of the per-history profile form; the Markov form carries none.
PROFILE_VERSION = 2


def profile_to_dict(game: MultiStageGame, profile: StrategyProfile) -> dict:
    """``{"version": 2, side -> history -> type -> row}``, histories
    keyed as in the belief format."""
    out: dict[str, Any] = {"version": PROFILE_VERSION}
    for player, side, types in ((1, "defender", game.types1), (2, "user", game.types2)):
        out[side] = {history_label(game, node): {
            t: row.tolist() for t, row in zip(types, profile.rows(player, node))}
            for node in build_tree(game)}
    return out


def _row(raw_row, m: int, where: str) -> np.ndarray:
    try:
        row = np.asarray(raw_row, dtype=float)
    except (TypeError, ValueError):
        raise MalformedInputError(f"profile row for {where} is not numeric") from None
    if row.shape != (m,):
        raise MalformedInputError(f"profile row for {where} has shape {row.shape}, "
                                  f"expected ({m},)")
    return row


def _profile_by_history(game: MultiStageGame, raw: dict) -> StrategyProfile:
    """One row block per history, read from the versioned form."""
    nodes = build_tree(game)
    classes: dict[NodeKey, int] = {}
    blocks = [[[], []] for _ in game.stages]
    for node, (k, _) in nodes.items():
        key = history_label(game, node)
        st = game.stages[k]
        classes[node] = len(blocks[k][0])
        for i, (side, types, m) in enumerate((("defender", game.types1, st.m1),
                                              ("user", game.types2, st.m2))):
            try:
                per_type = raw[side][key]
                rows = [_row(per_type[t], m, f"{side}/{t} at history {key!r}")
                        for t in types]
            except (KeyError, TypeError):
                raise MalformedInputError(
                    f"profile missing {side} rows for history {key!r}") from None
            blocks[k][i].append(rows)
    return StrategyProfile(tuple(np.array(b[0]) for b in blocks),
                           tuple(np.array(b[1]) for b in blocks), classes)


def profile_from_dict(game: MultiStageGame, raw: dict) -> StrategyProfile:
    """Read either profile form written by :func:`profile_to_dict`."""
    if isinstance(raw, dict) and "version" in raw:
        if raw["version"] != PROFILE_VERSION:
            raise MalformedInputError(f"unknown profile version {raw['version']!r}")
        return _profile_by_history(game, raw)
    sig1, sig2 = [], []
    for k, st in enumerate(game.stages):
        for side, types, m, tensor, out in (
                ("defender", game.types1, st.m1, st.payoff1, sig1),
                ("user", game.types2, st.m2, st.payoff2, sig2)):
            try:
                stage_map = raw[side][k]
            except (KeyError, IndexError, TypeError):
                raise MalformedInputError(
                    f"profile missing {side} entry for stage {k}") from None
            arr = np.zeros((st.n_states, len(types), m))
            for x, state in enumerate(st.states):
                try:
                    raw_rows = [stage_map[state][t] for t in types]
                except (KeyError, TypeError):
                    raise MalformedInputError(
                        f"profile missing {side} rows for state {state!r} at stage {k}"
                    ) from None
                for ti, (t, raw_row) in enumerate(zip(types, raw_rows)):
                    where = f"{side}/{t} at stage {k} state {state!r}"
                    arr[x, ti] = _row(raw_row, m, where)
                    # checked here for every state: the profile's own
                    # check sees only the states some history reaches
                    if np.any(arr[x, ti][~tensor.feasible[x, ti]] > PROB_TOL):
                        raise MalformedInputError(
                            f"profile row for {where} puts mass on a masked action")
            out.append(arr)
    return StrategyProfile(tuple(sig1), tuple(sig2),
                           {node: x for node, (_, x) in build_tree(game).items()})


def history_label(game: MultiStageGame, node: NodeKey) -> str:
    parts = []
    for k, (a1, a2) in enumerate(node):
        st = game.stages[k]
        parts.append(f"{st.actions1[a1]},{st.actions2[a2]}")
    return ";".join(parts)


def _node_key_parse(game: MultiStageGame, text: str) -> NodeKey:
    if not text:
        return ()
    node = []
    try:
        for k, part in enumerate(text.split(";")):
            a1_label, a2_label = part.split(",")
            st = game.stages[k]
            node.append((st.actions1.index(a1_label), st.actions2.index(a2_label)))
    except (IndexError, ValueError):
        raise MalformedInputError(f"unknown history {text!r}") from None
    return tuple(node)


def beliefs_to_dict(game: MultiStageGame, beliefs: BeliefSystem) -> dict:
    nodes = beliefs.nodes()
    return {
        "defender": {history_label(game, n): {
            t: beliefs.belief_p1[n][ti].tolist() for ti, t in enumerate(game.types1)}
            for n in nodes},
        "user": {history_label(game, n): {
            t: beliefs.belief_p2[n][ti].tolist() for ti, t in enumerate(game.types2)}
            for n in nodes},
        "off_path": {
            "defender": [history_label(game, n) for n in nodes if beliefs.off_path_p1[n]],
            "user": [history_label(game, n) for n in nodes if beliefs.off_path_p2[n]],
        },
        "aggregates": {
            "about_defender": [a.tolist() for a in beliefs.agg_about_1],
            "about_user": [a.tolist() for a in beliefs.agg_about_2],
            "off_path": [a.tolist() for a in beliefs.agg_off_path],
        },
        "aggregation_discrepancy": beliefs.aggregation_discrepancy,
    }


def _side_beliefs(game: MultiStageGame, tree, raw: dict, side: str, types,
                  n_opp: int) -> tuple[dict, dict]:
    """One side's node beliefs and off-path flags.  The beliefs are checked
    once, as one stacked array: every history of ``tree`` exactly once,
    and each row a distribution over the ``n_opp`` opponent types."""
    per_history = raw[side]
    off_path = set(raw.get("off_path", {}).get(side, []))
    nodes = [_node_key_parse(game, key) for key in per_history]
    if len(nodes) != len(tree) or set(nodes) != tree.keys():
        raise MalformedInputError(f"{side} beliefs do not cover exactly the game's histories")
    try:
        rows = np.array([[per_type[t] for t in types] for per_type in per_history.values()],
                        dtype=float)
    except ValueError:      # a ragged or non-numeric row
        rows = None
    if rows is None or rows.shape != (len(nodes), len(types), n_opp):
        raise MalformedInputError(f"{side} belief rows must be {n_opp} numbers each")
    if not (np.isfinite(rows).all() and rows.min() >= -PROB_TOL
            and np.abs(rows.sum(axis=2) - 1.0).max() <= PROB_TOL):
        raise MalformedInputError(f"{side} belief rows must be distributions "
                                  "over the opponent's types")
    return (dict(zip(nodes, rows)),
            {node: key in off_path for node, key in zip(nodes, per_history)})


def beliefs_from_dict(game: MultiStageGame, raw: dict) -> BeliefSystem:
    tree = build_tree(game)
    try:
        bel1, off1 = _side_beliefs(game, tree, raw, "defender", game.types1, game.n2)
        bel2, off2 = _side_beliefs(game, tree, raw, "user", game.types2, game.n1)
        agg = raw.get("aggregates", {})
        agg1 = tuple(np.asarray(a, dtype=float) for a in agg.get(
            "about_defender", [np.tile(game.prior_about_1.weights, (st.n_states, 1))
                               for st in game.stages]))
        agg2 = tuple(np.asarray(a, dtype=float) for a in agg.get(
            "about_user", [np.tile(game.prior_about_2.weights, (st.n_states, 1))
                           for st in game.stages]))
        agg_off = tuple(np.asarray(a, dtype=bool) for a in agg.get(
            "off_path", [np.zeros(st.n_states, dtype=bool) for st in game.stages]))
        discrepancy = float(raw.get("aggregation_discrepancy", 0.0))
    except MalformedInputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise MalformedInputError(f"malformed beliefs: {err!r}") from None
    return BeliefSystem(bel1, bel2, off1, off2, agg1, agg2, agg_off, discrepancy)


def dump_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
