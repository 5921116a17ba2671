"""Command-line surface.

Subcommands: ``scenario list``, ``solve {ne,bne,signaling,pbne}``,
``verify`` and ``simulate``.  Every command reads its game through
:func:`_load_game`, from a built-in scenario (``--scenario``, with
``--params`` JSON overrides) or a JSON file (``--game``), and prints
its results as probability tables rounded to four decimals.  A command
returns its exit code, its results and the multi-stage game it ran on;
:func:`main` alone times the command and writes ``--out``, the
full-precision JSON report that is the artifact of record.

Exit codes: 0 success, 2 invalid input (the validation findings are
printed; also a game too large for an enumeration's budget, and an
``--out`` path that cannot be written), 3 equilibrium-search
non-convergence (``solve pbne`` only).  Reports omit wall-clock timings
unless ``--timings`` is given, so a (command, seed) pair reproduces its
report byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import sys
import time

import numpy as np

from . import gamejson, multistage, scenarios, signaling, simulate, static
from .core import (EnumerationBudgetError, MalformedInputError, MultiStageGame,
                   check_seed, stage_states, validate_game)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


class CliError(Exception):
    """Invalid input: its message goes to stderr and the exit code is 2."""


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _dist_str(labels, weights) -> str:
    return "  ".join(f"{l}={_fmt(w)}" for l, w in zip(labels, weights))


def _print_per_type(game, values1, values2, fmt) -> None:
    """One ``  side[type]: fmt(value)`` line per type, defender types first."""
    for side, types, values in (("defender", game.types1, values1),
                                ("user", game.types2, values2)):
        for t, value in zip(types, values):
            print(f"  {side}[{t}]: {fmt(value)}")


def _param_defaults(scenario: str | None) -> dict:
    """The default of each ``--params`` key that a scenario's builder reads."""
    if scenario == "apt":
        start = inspect.signature(scenarios.build_apt_game).parameters["initial_state"]
        return {**{f.name: f.default for f in dataclasses.fields(scenarios.AptParameters)},
                "initial_state": start.default}
    builder = {"static-bayesian": scenarios.build_static_bayesian,
               "static-baseline": scenarios.build_static_baseline}.get(scenario)
    return {} if builder is None else {
        name: p.default for name, p in inspect.signature(builder).parameters.items()}


def _finite_number(value) -> bool:
    """An int or a float, not a bool, within the float range (this also
    rejects NaN and an integer too large to convert)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_param(key: str, value, default) -> None:
    """A ``--params`` value must have the type of the builder's default."""
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, (int, float)):
        ok, kind = _finite_number(value), "a finite number"
    elif isinstance(default, tuple):
        ok = (isinstance(value, list) and len(value) == len(default)
              and all(map(_finite_number, value)))
        kind = f"a list of {len(default)} finite numbers"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise CliError(f"--params {key!r} must be {kind}, got {value!r}")


def _parse_params(args) -> dict:
    """The ``--params`` object, each value checked against the type of the
    scenario builder's default; keys the builder does not take are left
    for it to reject."""
    text = args.params
    if not text:
        return {}
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                params = json.load(fh)
        else:
            params = json.loads(text)
    except OSError as err:
        raise CliError(f"cannot read --params file: {err}")
    except ValueError as err:      # JSONDecodeError, or a file that is not UTF-8
        raise CliError(f"--params is not valid JSON: {err}")
    if not isinstance(params, dict):
        raise CliError(f"--params must be a JSON object, got {type(params).__name__}")
    defaults = _param_defaults(args.scenario)
    for key, value in params.items():    # json reads NaN, Infinity and 1e400
        if key in defaults:
            _check_param(key, value, defaults[key])
    return params


def _scenario_game(name: str, params: dict, info: str | None):
    """Scenario ``name`` built from ``params``: with ``info`` None its
    multi-stage game, otherwise its one-shot game under information
    structure ``info``, which for ``complete`` is exercise-qb's pair of
    per-type matrices.  The APT campaign has only the multi-stage form."""
    if name == "apt":
        initial = params.pop("initial_state", "external")
        return scenarios.build_apt_game(scenarios.AptParameters(**params),
                                        initial_state=initial)
    if name == "exercise-qb" and info == "complete":
        return scenarios.exercise_qb_matrices(**params)
    if name == "exercise-qb":
        game = scenarios.build_exercise_qb(*[info] if info else [], **params)
    elif name == "static-bayesian":
        game = scenarios.build_static_bayesian(**params)
    else:
        game = static.as_bayesian(scenarios.build_static_baseline(**params))
    return game if info else static.to_multistage(game)


def _load_game(args, one_shot: bool = False):
    """The game that ``--scenario``/``--params`` or ``--game`` names.  A
    multi-stage game is validated, and with ``one_shot`` viewed as a
    one-shot game; a built-in one-shot scenario is built as one, under
    the ``--info`` structure of ``solve bne`` (default: uninformed)."""
    info = getattr(args, "info", None)
    if info is not None and args.scenario != "exercise-qb":
        raise CliError("--info applies only to --scenario exercise-qb")
    if args.game and args.params is not None:
        raise CliError("--params applies only to --scenario, not to --game")
    if args.game and args.scenario:
        raise CliError("give one game source: --scenario NAME or --game FILE, not both")
    params = _parse_params(args)
    if args.game:
        try:
            game = gamejson.load_game(args.game)
        # ValueError: invalid JSON, a file that is not UTF-8, or a
        # MalformedInputError
        except (OSError, ValueError) as err:
            raise CliError(f"cannot load game {args.game!r}: {err}")
    elif not args.scenario:
        raise CliError("a game source is required: --scenario NAME or --game FILE")
    elif args.scenario not in scenarios.SCENARIOS:
        raise CliError(f"unknown scenario {args.scenario!r}; try: "
                       + ", ".join(scenarios.SCENARIOS))
    else:
        try:
            game = _scenario_game(args.scenario, params,
                                  (info or "uninformed") if one_shot else None)
        except (TypeError, MalformedInputError) as err:
            raise CliError(f"scenario {args.scenario!r}: {err}")
    if not isinstance(game, MultiStageGame):
        return game
    problems = validate_game(game)
    if problems:
        raise CliError("invalid game:\n  " + "\n  ".join(problems))
    return static.from_multistage(game) if one_shot else game


def _game_digest(game: MultiStageGame) -> dict:
    return {
        "horizon": game.horizon,
        "types": {"defender": list(game.types1), "user": list(game.types2)},
        "initial_state": game.initial_state,
        "stages": [{"states": list(st.states),
                    "actions1": list(st.actions1),
                    "actions2": list(st.actions2)} for st in game.stages],
    }


def _echo_args(argv: list[str]) -> list[str]:
    """Drop output plumbing so identical runs yield identical reports."""
    out, skip = [], False
    for token in argv:      # skip: ``token`` is the value of ``--out``
        if not (skip or token in ("--out", "--timings") or token.startswith("--out=")):
            out.append(token)
        skip = token == "--out" and not skip
    return out


# ---------------------------------------------------------------------------
# solve subcommands
# ---------------------------------------------------------------------------

def _equilibria(game_static, results, label: str) -> list[dict]:
    """Print equilibria ``results`` of a one-shot game; return their payload."""
    print(f"{label}: {len(results)} equilibrium(s)")
    out = []
    for n, r in enumerate(results):
        print(f"  #{n}  gap={r.gap:.2e}  ex-ante values "
              f"({_fmt(r.ex_ante1)}, {_fmt(r.ex_ante2)})")
        for ti, t in enumerate(game_static.types1):
            print(f"    defender[{t}]: {_dist_str(game_static.actions1, r.sigma1[ti])}"
                  f"   value {_fmt(r.values1[ti])}")
        for ti, t in enumerate(game_static.types2):
            print(f"    user[{t}]:     {_dist_str(game_static.actions2, r.sigma2[ti])}"
                  f"   value {_fmt(r.values2[ti])}")
        out.append({
            "sigma1": {t: r.sigma1[i].tolist() for i, t in enumerate(game_static.types1)},
            "sigma2": {t: r.sigma2[i].tolist() for i, t in enumerate(game_static.types2)},
            "values1": {t: float(r.values1[i]) for i, t in enumerate(game_static.types1)},
            "values2": {t: float(r.values2[i]) for i, t in enumerate(game_static.types2)},
            "ex_ante": [r.ex_ante1, r.ex_ante2],
            "gap": r.gap,
        })
    return out


def _bimatrix_results(bim, max_results, pure_label: str, mixed_label: str) -> dict:
    """Pure and mixed equilibria of bimatrix game ``bim``: both are solved
    before either prints."""
    pure = static.pure_ne(bim)
    mixed = static.mixed_ne(bim, max_results=max_results)
    print(f"{pure_label}: {pure if pure else 'none'}")
    return {"pure": [list(p) for p in pure],
            "equilibria": _equilibria(static.as_bayesian(bim), mixed, mixed_label)}


def cmd_solve_ne(args) -> tuple:
    bim = static.prior_averaged_bimatrix(_load_game(args, one_shot=True))
    return EXIT_OK, _bimatrix_results(bim, None, "pure equilibria", "mixed equilibria"), None


def cmd_solve_bne(args) -> tuple:
    g = _load_game(args, one_shot=True)
    if isinstance(g, dict):     # exercise-qb --info complete: a bimatrix per world type
        results = {theta: _bimatrix_results(bim, args.max_results,
                                            f"[{theta}] pure equilibria", f"[{theta}] mixed")
                   for theta, bim in g.items()}
    else:
        eqs = static.solve_bne(g, max_results=args.max_results)
        results = {"equilibria": _equilibria(g, eqs, "Bayesian equilibria")}
    return EXIT_OK, results, None


def cmd_solve_signaling(args) -> tuple:
    g = signaling.as_signaling_game(_load_game(args, one_shot=True))
    # every method is solved before anything prints, so a method that
    # refuses the game leaves no partial output; both come from one search
    if args.method == "both":
        solved = dict(zip(("pure", "mixed"), signaling.solve_pure_and_mixed_pbne(g)))
    else:
        solved = {args.method: (signaling.solve_pure_pbne(g) if args.method == "pure"
                                else signaling.solve_mixed_pbne(g))}
    payload: dict = {}
    for method, found in solved.items():
        print(f"{method}: {len(found)} equilibrium(s)")
        rows = []
        for r in found:
            print(f"  [{r.classification}] gap={r.gap:.2e} off-path messages: "
                  f"{[g.messages[m] for m in r.off_path] or 'none'}")
            for ti, t in enumerate(g.types):
                print(f"    sender[{t}]: {_dist_str(g.messages, r.sender[ti])}")
            for mi, m in enumerate(g.messages):
                print(f"    receiver[{m}]: {_dist_str(g.actions, r.receiver[mi])}"
                      f"   belief {_dist_str(g.types, r.beliefs[mi])}")
            rows.append({
                "sender": {t: r.sender[ti].tolist() for ti, t in enumerate(g.types)},
                "receiver": {m: r.receiver[mi].tolist() for mi, m in enumerate(g.messages)},
                "beliefs": {m: r.beliefs[mi].tolist() for mi, m in enumerate(g.messages)},
                "off_path": [g.messages[m] for m in r.off_path],
                "classification": r.classification,
                "gap": r.gap,
            })
        payload[method] = rows
    return EXIT_OK, payload, None


def _epsilon_results(game: MultiStageGame, eps, heading: str, violation: str) -> dict:
    """Print the ε certificate ``eps`` under ``heading``, then the belief
    consistency ``violation`` line; return its payload."""
    print(heading)
    _print_per_type(game, eps.eps1, eps.eps2, lambda e: f"{e:.6g}")
    print(f"belief consistency violation: {violation}")
    return {
        "defender": {t: float(eps.eps1[i]) for i, t in enumerate(game.types1)},
        "user": {t: float(eps.eps2[i]) for i, t in enumerate(game.types2)},
        "belief_violation": eps.belief_violation,
        "consistent": eps.consistent,
    }


def cmd_solve_pbne(args) -> tuple:
    game = _load_game(args)
    check_seed(args.seed)       # recorded in the report; the solve does not read it
    res = multistage.solve_pbne(game, tol=args.tol, max_iter=args.max_iter)
    results = {
        "converged": res.converged,
        "iterations": res.iterations,
        "residual_trace": [[float(a) if np.isfinite(a) else None, float(b)]
                           for a, b in res.residual_trace],
        "class_counts": list(res.class_counts),
        "profile": gamejson.profile_to_dict(game, res.profile),
    }
    if not res.converged:
        last_p, last_b = res.residual_trace[-1]
        print(f"did not converge after {res.iterations} sweeps; "
              f"final residuals strategy={last_p:.3g} belief={last_b:.3g}")
        print("residual trace (strategy, belief, stage programs) per sweep:")
        for i, ((rp, rb), n) in enumerate(zip(res.residual_trace, res.class_counts), 1):
            print(f"  sweep {i}: {rp:.3g} {rb:.3g} {n}")
        return EXIT_NO_CONVERGENCE, results, game

    eps = res.epsilon
    print(f"converged in {res.iterations} sweep(s); "
          f"worst per-stage deviation gap {res.stage_gap:.2e}")
    print("stage programs (belief classes) per sweep: "
          + " ".join(str(n) for n in res.class_counts))
    results["epsilon"] = _epsilon_results(
        game, eps, "epsilon certificate (distance from best response, per type):",
        f"{eps.belief_violation:.2e}")
    print("utility-to-go at the initial state:")
    _print_per_type(game, *res.values, _fmt)
    print("strategies (per history, own type):")
    for k, (st, keys, states, rows1, rows2) in enumerate(zip(
            game.stages, gamejson.history_labels(game),
            stage_states(game, multistage.build_tree(game)), *res.profile.history_rows())):
        for key, x, r1, r2 in zip(keys, states, rows1, rows2):
            where = f"k={k} [{key}] x={st.states[x]}"
            for t, row in zip(game.types1, r1):
                print(f"  {where} defender[{t}]: {_dist_str(st.actions1, row)}")
            for t, row in zip(game.types2, r2):
                print(f"  {where} user[{t}]: {_dist_str(st.actions2, row)}")
    results.update(stage_gap=res.stage_gap,
                   values={"defender": res.values[0].tolist(), "user": res.values[1].tolist()})
    return EXIT_OK, results, game


# ---------------------------------------------------------------------------
# verify / simulate
# ---------------------------------------------------------------------------

def _json_object(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise CliError(f"{path!r} must hold a JSON object, got {type(raw).__name__}")
    return raw


def _load_profile_and_beliefs(game: MultiStageGame, profile_path: str,
                              beliefs_path: str | None):
    """The profile, its beliefs (read from ``beliefs_path``, else its own
    forward pass) and whether they were derived.  ``profile_path`` holds
    a bare profile or a full solve report, whose beliefs are that forward
    pass and are not stored; a file that cannot be read raises
    :class:`CliError`."""
    try:
        raw = _json_object(profile_path)
        if isinstance(raw.get("results"), dict):      # a full solve report
            raw = raw["results"].get("profile")
        if raw is None:
            raise CliError(f"{profile_path!r} carries no strategy profile")
        profile = gamejson.profile_from_dict(game, raw)
        bad = profile.violations(game)
        if bad:
            raise CliError("invalid profile:\n  " + "\n  ".join(bad))
        if beliefs_path:
            return profile, gamejson.beliefs_from_dict(game, _json_object(beliefs_path)), False
        return profile, multistage.forward_pass(game, profile), True
    # ValueError: invalid JSON, or a file that is not UTF-8
    except (OSError, ValueError, MalformedInputError, KeyError) as err:
        raise CliError(f"cannot load profile/beliefs: {err}")


def cmd_verify(args) -> tuple:
    game = _load_game(args)
    profile, beliefs, derived = _load_profile_and_beliefs(game, args.profile, args.beliefs)
    eps = multistage.verify_epsilon(game, profile, beliefs)
    if derived:
        print("note: no beliefs supplied; verified against the profile's "
              "own forward-pass beliefs")
    epsilon = _epsilon_results(
        game, eps, "epsilon (distance from best response):",
        f"{eps.belief_violation:.3g} "
        f"({'consistent' if eps.consistent else 'INCONSISTENT on path'})")
    return EXIT_OK, {"epsilon": epsilon, "beliefs_derived_from_profile": derived}, game


def cmd_simulate(args) -> tuple:
    if args.n < 1:
        raise CliError("-n must be at least 1")
    game = _load_game(args)
    profile, beliefs, _ = _load_profile_and_beliefs(game, args.profile, args.beliefs)
    noise = simulate.NoiseSpec.parse(args.noise)
    report = simulate.monte_carlo_value(game, profile, args.n, args.seed, noise)
    if args.n == 1:
        traj = report.first
        print(f"types: defender={traj.type1} user={traj.type2}; "
              f"terminal state {traj.terminal_state}")
        for s in traj.steps:
            print(f"  k={s.stage} x={s.state}: ({s.action1}, {s.action2}) "
                  f"payoffs ({_fmt(s.payoff1)}, {_fmt(s.payoff2)}) "
                  f"noisy ({_fmt(s.noisy1)}, {_fmt(s.noisy2)})")
    exact1, exact2 = (v.tolist() for v in multistage.root_values(game, profile, beliefs))
    print(f"monte carlo over n={args.n} draws (clean payoffs, exact = tree value):")
    _print_per_type(game, zip(report.counts1, report.mean1, report.stderr1, exact1),
                    zip(report.counts2, report.mean2, report.stderr2, exact2),
                    lambda row: "count={} mean={:.6g} stderr={:.3g} exact={:.6g}".format(*row))
    return EXIT_OK, {
        "n": args.n,
        "noise": {"kind": noise.kind, "scale": noise.scale},
        "counts": {"defender": report.counts1.tolist(), "user": report.counts2.tolist()},
        "mean": {"defender": report.mean1.tolist(), "user": report.mean2.tolist()},
        "stderr": {"defender": report.stderr1.tolist(), "user": report.stderr2.tolist()},
        "noisy_mean": {"defender": report.noisy_mean1.tolist(),
                       "user": report.noisy_mean2.tolist()},
        "noisy_stderr": {"defender": report.noisy_stderr1.tolist(),
                         "user": report.noisy_stderr2.tolist()},
        "exact": {"defender": exact1, "user": exact2},
    }, game


def cmd_scenario_list(_args) -> tuple:
    for name, blurb in scenarios.SCENARIOS.items():
        print(f"{name:16s} {blurb}")
    return EXIT_OK, None, None


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_game_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="built-in scenario name (see: scenario list)")
    p.add_argument("--game", help="game description JSON file")
    p.add_argument("--params", help="scenario parameter overrides: JSON or @file")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timing in the report "
                        "(breaks byte-for-byte reproducibility)")


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``add_subparsers`` its subparsers, that take
    options by their full names only: ``_echo_args`` drops ``--out`` and
    ``--timings`` from reports by name, so a prefix must not reach them."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: building it costs
    milliseconds, parsing leaves it unchanged."""
    ap = _Parser(
        prog="secgames",
        description="Equilibrium solvers for finite Bayesian security games")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sc = sub.add_parser("scenario", help="scenario utilities")
    sc_sub = sc.add_subparsers(dest="scenario_cmd", required=True)
    sc_list = sc_sub.add_parser("list", help="list built-in scenarios")
    sc_list.set_defaults(func=cmd_scenario_list)

    solve = sub.add_parser("solve", help="compute equilibria")
    solve_sub = solve.add_subparsers(dest="solver", required=True)

    ne = solve_sub.add_parser("ne", help="pure and mixed equilibria of a one-shot game")
    _add_game_source(ne)
    ne.set_defaults(func=cmd_solve_ne, seed=None)

    bne = solve_sub.add_parser("bne", help="Bayesian equilibria of a one-shot game")
    _add_game_source(bne)
    bne.add_argument("--info", choices=scenarios.QB_INFO_VARIANTS,
                     help="information structure for scenario exercise-qb "
                          "(default: uninformed)")
    bne.add_argument("--max-results", type=int, default=None,
                     help="stop after this many equilibria")
    bne.set_defaults(func=cmd_solve_bne, seed=None)

    sig = solve_sub.add_parser("signaling",
                               help="perfect Bayesian equilibria, sender moves first")
    _add_game_source(sig)
    sig.add_argument("--method", choices=("pure", "mixed", "both"), default="both")
    sig.set_defaults(func=cmd_solve_signaling, seed=None)

    pbne = solve_sub.add_parser("pbne",
                                help="multi-stage perfect Bayesian equilibrium search")
    _add_game_source(pbne)
    pbne.add_argument("--tol", type=float, default=1e-6,
                      help="sup-norm fixed-point tolerance")
    pbne.add_argument("--max-iter", type=int, default=100)
    pbne.add_argument("--seed", type=int, default=0,
                      help="recorded in the report; the solve is "
                           "deterministic and does not depend on it")
    pbne.set_defaults(func=cmd_solve_pbne)

    ver = sub.add_parser("verify", help="re-verify a stored profile, never "
                                        "trusting its stated gaps")
    _add_game_source(ver)
    ver.add_argument("--profile", required=True,
                     help="profile JSON (or a solve report containing one)")
    ver.add_argument("--beliefs", help="belief JSON; default: recompute from profile")
    ver.set_defaults(func=cmd_verify, seed=None)

    sim = sub.add_parser("simulate", help="Monte Carlo play-out of a stored profile")
    _add_game_source(sim)
    sim.add_argument("--profile", required=True)
    sim.add_argument("--beliefs")
    sim.add_argument("-n", type=int, default=10_000, help="number of trajectories")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--noise", default="none",
                     help="payoff noise: none, gaussian:<sd> or uniform:<half-width>")
    sim.set_defaults(func=cmd_simulate)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one command; time it and write its report to ``--out``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, results, game = args.func(args)
        if results is not None and args.out:
            report = {"command": " ".join(_echo_args(argv)), "seed": args.seed,
                      "results": results}
            if game is not None:
                report["game"] = _game_digest(game)
            if args.timings:
                report["wall_clock_seconds"] = time.perf_counter() - t0
            try:
                gamejson.dump_json(report, args.out)
            except OSError as err:
                raise CliError(f"cannot write report {args.out!r}: {err}")
            print(f"report written to {args.out}")
        return code
    except CliError as err:
        print(str(err), file=sys.stderr)
        return EXIT_INVALID
    except (MalformedInputError, EnumerationBudgetError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
