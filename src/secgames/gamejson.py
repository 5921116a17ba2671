"""JSON wire formats: game descriptions, profiles, beliefs.

The game schema mirrors the in-memory layout: ``types``, ``priors``,
``horizon``, ``initial_state`` and a ``stages`` array whose entries
carry ``states``, ``actions1``, ``actions2``, ``payoffs1``/``payoffs2``
nested as [state][a1][a2][type1][type2], an optional ``mask`` and a
``transition`` array [state][a1][a2] of next-state labels.  Loading is
permissive about normalization problems (they surface later through
validate_game); structural impossibilities raise.

Profiles are written in the :class:`StrategyProfile` layout (version 3):
per stage, the row blocks and the block each history plays, in
``build_tree`` order.  :func:`profile_from_dict` also reads version 2,
one row block per history, and the Markov form, one row per stage, state
and type, read as one block per state that its histories all name.

Belief files and version-2 profiles key histories by their action
labels, such as ``"none,employee"`` (:func:`history_labels`), as
``{key: {type: row}}`` maps; the Markov form keys each stage's map by
state.  One writer builds those maps stage by stage over the keys, and
one reader stacks a stage's map into an ``(n_keys, n_types, width)``
array in key order, naming the side, stage and key of a missing, ragged
or non-numeric row.  Readers reject a history key the game does not
have.  Solve reports store no beliefs: they are the forward pass of the
profile, and ``beliefs_to_dict(game, forward_pass(game, profile))``
writes them as a ``--beliefs`` file.
"""

from __future__ import annotations

import itertools
import json
from typing import Any

import numpy as np

from .core import (PROB_TOL, BeliefSystem, FiniteDistribution, MalformedInputError,
                   MultiStageGame, PayoffTensor, StageGame, StrategyProfile,
                   build_tree, stage_states)


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
    except OverflowError:       # an integer literal beyond the float range
        raise MalformedInputError(f"{where}: {key!r} holds a number beyond the "
                                  "float range") from None


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

# Version of the profile form that is written; the Markov form carries none.
PROFILE_VERSION = 3


def history_labels(game: MultiStageGame) -> list[list[str]]:
    """Every history's key, per stage in ``build_tree`` order: its action
    pairs ``"a1,a2"`` joined by ``";"``, and ``""`` for the root."""
    out = [[""]]
    for st in game.stages[:-1]:
        pairs = [f"{a1},{a2}" for a1 in st.actions1 for a2 in st.actions2]
        out.append([f"{head};{pair}" if head else pair for head in out[-1] for pair in pairs])
    return out


def _history_index(labels: list[list[str]]) -> dict[str, int]:
    """Each history key's position in ``build_tree`` order.  Two histories
    share a key when action labels contain ``","`` or ``";"``; then no
    file can tell them apart, and this raises."""
    index = {key: i for i, key in enumerate(itertools.chain.from_iterable(labels))}
    if len(index) != sum(map(len, labels)):
        raise MalformedInputError("two histories share one key: an action label "
                                  "contains ',' or ';'")
    return index


def _keyed_rows(labels: list[list[str]], per_stage, types) -> dict:
    """``{key: {type: row}}`` over every history, stage by stage, from
    per-stage ``(n_k, n_types, width)`` arrays."""
    return {key: dict(zip(types, rows)) for keys, stage in zip(labels, per_stage)
            for key, rows in zip(keys, stage.tolist())}


def _stacked_rows(rows_by_key, keys, types, width: int, where: str) -> np.ndarray:
    """The ``{key: {type: row}}`` map ``rows_by_key`` as one
    ``(len(keys), len(types), width)`` float array in ``keys`` order.
    A missing key or type, or rows that are ragged, not numeric or not
    ``width`` long, raise naming ``where`` and the first such key."""
    shape = (len(keys), len(types), width)
    try:
        rows = np.array([[rows_by_key[key][t] for t in types] for key in keys], dtype=float)
        if rows.shape == shape:
            return rows
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    for key in keys:
        per_type = rows_by_key.get(key) if isinstance(rows_by_key, dict) else None
        if not isinstance(per_type, dict) or any(t not in per_type for t in types):
            raise MalformedInputError(f"missing {where} {key!r}")
        try:
            rows = np.array([per_type[t] for t in types], dtype=float)
        except (TypeError, ValueError, OverflowError):
            rows = None
        if rows is None or rows.shape != shape[1:]:
            raise MalformedInputError(f"{where} {key!r} must be {width} numbers per type")
    raise MalformedInputError(f"{where} must be {width} numbers per type")


def profile_to_dict(game: MultiStageGame, profile: StrategyProfile) -> dict:
    """``{"version": 3, "classes": [stage][history] block, side ->
    [stage][block][type][action]}``, the layout of ``profile``; the
    histories of ``game`` are implied by ``build_tree`` order."""
    return {"version": PROFILE_VERSION, "classes": [c.tolist() for c in profile.classes],
            "defender": [a.tolist() for a in profile.sigma1],
            "user": [a.tolist() for a in profile.sigma2]}


def _profile_by_history(game: MultiStageGame, raw: dict) -> StrategyProfile:
    """One row block per history, read from the versioned form."""
    labels = history_labels(game)
    index = _history_index(labels)
    sigma = []
    for side, types, widths in (("defender", game.types1, [st.m1 for st in game.stages]),
                                ("user", game.types2, [st.m2 for st in game.stages])):
        rows_by_key = raw.get(side)
        sigma.append(tuple(
            _stacked_rows(rows_by_key, keys, types, m,
                          f"{side} profile rows at stage {k} for history")
            for k, (keys, m) in enumerate(zip(labels, widths))))
        unknown = [key for key in rows_by_key if key not in index]
        if unknown:
            raise MalformedInputError(f"profile has {side} rows for unknown history "
                                      f"{unknown[0]!r}")
    return StrategyProfile(*sigma, tuple(np.arange(len(keys)) for keys in labels))


def profile_from_dict(game: MultiStageGame, raw: dict) -> StrategyProfile:
    """Read a profile of version 3 (:func:`profile_to_dict`), of version 2
    or in the Markov form.  Of version 3 only the numbers are checked
    here; whether it fits the game is for :meth:`StrategyProfile.violations`
    to find."""
    if isinstance(raw, dict) and raw.get("version") == PROFILE_VERSION:
        classes = raw.get("classes")
        if not isinstance(classes, list) or any(isinstance(c, bool) for stage in classes
                                                if isinstance(stage, list) for c in stage):
            raise MalformedInputError("profile 'classes' must be per-stage lists of "
                                      "block numbers")
        try:
            return StrategyProfile(tuple(raw["defender"]), tuple(raw["user"]), tuple(classes))
        except (KeyError, TypeError, ValueError, OverflowError):
            raise MalformedInputError("profile 'classes', 'defender' and 'user' must be "
                                      "per-stage arrays of numbers") from None
    if isinstance(raw, dict) and "version" in raw:
        if raw["version"] != 2:
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
            where = f"{side} profile rows at stage {k} for state"
            rows = _stacked_rows(stage_map, st.states, types, m, where)
            # checked here for every state: the profile's own check sees
            # only the states some history reaches
            masked = np.argwhere(((rows > PROB_TOL) & ~tensor.feasible).any(axis=2))
            if masked.size:
                x, t = masked[0]
                raise MalformedInputError(f"{where} {st.states[x]!r} put mass on a "
                                          f"masked action of type {types[t]!r}")
            out.append(rows)
    return StrategyProfile(tuple(sig1), tuple(sig2), stage_states(game, build_tree(game)))


def beliefs_to_dict(game: MultiStageGame, beliefs: BeliefSystem) -> dict:
    labels = history_labels(game)

    def flagged(per_stage):
        return [keys[i] for keys, flags in zip(labels, per_stage)
                for i in np.flatnonzero(flags)]

    return {
        "defender": _keyed_rows(labels, beliefs.belief_p1, game.types1),
        "user": _keyed_rows(labels, beliefs.belief_p2, game.types2),
        "off_path": {"defender": flagged(beliefs.off_path_p1),
                     "user": flagged(beliefs.off_path_p2)},
    }


def _side_beliefs(raw: dict, side: str, types, n_opp: int, labels, index: dict
                  ) -> tuple[tuple, tuple]:
    """One side's node beliefs and off-path flags, per stage: every
    history of ``labels`` has one row per own type, each a distribution
    over the ``n_opp`` opponent types; the file and its off-path list
    may name only histories of ``index``."""
    rows_by_key = _field(raw, side, "beliefs")
    unknown = [key for key in rows_by_key if key not in index]
    if unknown:
        raise MalformedInputError(f"unknown history {unknown[0]!r}")
    beliefs = []
    for k, keys in enumerate(labels):
        where = f"{side} belief rows at stage {k} for history"
        rows = _stacked_rows(rows_by_key, keys, types, n_opp, where)
        # a non-finite weight reads as -1, which no distribution holds
        rows_or_neg = np.where(np.isfinite(rows), rows, -1.0)
        valid = ((rows_or_neg >= -PROB_TOL).all(axis=2)
                 & (np.abs(rows_or_neg.sum(axis=2) - 1.0) <= PROB_TOL)).all(axis=1)
        if not valid.all():
            raise MalformedInputError(f"{where} {keys[valid.argmin()]!r} must be "
                                      "distributions over the opponent's types")
        beliefs.append(rows)
    off = np.zeros(len(index), dtype=bool)
    for key in raw.get("off_path", {}).get(side, []):
        if key not in index:
            raise MalformedInputError(f"{side} off-path list names unknown history {key!r}")
        off[index[key]] = True
    return tuple(beliefs), tuple(np.split(off, np.cumsum([len(keys) for keys in labels])[:-1]))


def beliefs_from_dict(game: MultiStageGame, raw: dict) -> BeliefSystem:
    """Node beliefs and off-path flags as :func:`beliefs_to_dict` writes
    them.  Other keys are not read, such as the ``aggregates`` and
    ``aggregation_discrepancy`` that files of earlier versions hold."""
    labels = history_labels(game)
    index = _history_index(labels)
    try:
        bel1, off1 = _side_beliefs(raw, "defender", game.types1, game.n2, labels, index)
        bel2, off2 = _side_beliefs(raw, "user", game.types2, game.n1, labels, index)
    except MalformedInputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise MalformedInputError(f"malformed beliefs: {err!r}") from None
    return BeliefSystem(bel1, bel2, off1, off2)


def dump_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
