"""Command-line surface.

Subcommands: ``scenario list``, ``solve {ne,bne,signaling,pbne}``,
``verify`` and ``simulate``.  Games come from a built-in scenario
(``--scenario``, with ``--params`` JSON overrides) or a JSON file
(``--game``); results print as probability tables rounded to four
decimals, and ``--out`` writes the full-precision JSON report, which is
the artifact of record.

Exit codes: 0 success, 2 invalid input (the validation findings are
printed; also a game too large for an enumeration's budget), 3
equilibrium-search non-convergence (``solve pbne`` only).
Reports omit wall-clock timings unless ``--timings`` is given, so a
(command, seed) pair reproduces its report byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import time

import numpy as np

from . import gamejson, multistage, scenarios, signaling, simulate, static
from .core import (EnumerationBudgetError, MalformedInputError, MultiStageGame,
                   validate_game)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _dist_str(labels, weights) -> str:
    return "  ".join(f"{l}={_fmt(w)}" for l, w in zip(labels, weights))


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
    text = getattr(args, "params", None)
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


def _load_multistage(args) -> MultiStageGame:
    params = _parse_params(args)
    if args.game:
        try:
            game = gamejson.load_game(args.game)
        # ValueError: invalid JSON, a file that is not UTF-8, or a
        # MalformedInputError
        except (OSError, ValueError) as err:
            raise CliError(f"cannot load game {args.game!r}: {err}")
    elif args.scenario:
        game = _build_scenario_multistage(args.scenario, params)
    else:
        raise CliError("a game source is required: --scenario NAME or --game FILE")
    problems = validate_game(game)
    if problems:
        raise CliError("invalid game:\n  " + "\n  ".join(problems))
    return game


def _build_scenario_multistage(name: str, params: dict) -> MultiStageGame:
    try:
        if name == "apt":
            initial = params.pop("initial_state", "external")
            return scenarios.build_apt_game(
                scenarios.AptParameters(**params), initial_state=initial)
        if name == "static-bayesian":
            return static.to_multistage(scenarios.build_static_bayesian(**params))
        if name == "static-baseline":
            return static.to_multistage(
                static.as_bayesian(scenarios.build_static_baseline(**params)))
        if name == "exercise-qb":
            return static.to_multistage(scenarios.build_exercise_qb(**params))
    except (TypeError, MalformedInputError) as err:
        raise CliError(f"scenario {name!r}: {err}")
    raise CliError(f"unknown scenario {name!r}; try: " + ", ".join(scenarios.SCENARIOS))


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
    out = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--out":
            skip = True
            continue
        if token.startswith("--out=") or token == "--timings":
            continue
        out.append(token)
    return out


def _make_report(args, results: dict, game: MultiStageGame | None = None,
                 elapsed: float | None = None) -> dict:
    report = {
        "command": " ".join(_echo_args(args.echo)),
        "seed": getattr(args, "seed", None),
        "results": results,
    }
    if game is not None:
        report["game"] = _game_digest(game)
    if getattr(args, "timings", False) and elapsed is not None:
        report["wall_clock_seconds"] = elapsed
    return report


def _emit(args, report: dict) -> None:
    if args.out:
        gamejson.dump_json(report, args.out)
        print(f"report written to {args.out}")


# ---------------------------------------------------------------------------
# solve subcommands
# ---------------------------------------------------------------------------

def _equilibria_payload(game_static, results) -> list[dict]:
    out = []
    for r in results:
        out.append({
            "sigma1": {t: r.sigma1[i].tolist() for i, t in enumerate(game_static.types1)},
            "sigma2": {t: r.sigma2[i].tolist() for i, t in enumerate(game_static.types2)},
            "values1": {t: float(r.values1[i]) for i, t in enumerate(game_static.types1)},
            "values2": {t: float(r.values2[i]) for i, t in enumerate(game_static.types2)},
            "ex_ante": [r.ex_ante1, r.ex_ante2],
            "gap": r.gap,
        })
    return out


def _print_equilibria(game_static, results, label: str) -> None:
    print(f"{label}: {len(results)} equilibrium(s)")
    for i, r in enumerate(results):
        print(f"  #{i}  gap={r.gap:.2e}  ex-ante values "
              f"({_fmt(r.ex_ante1)}, {_fmt(r.ex_ante2)})")
        for ti, t in enumerate(game_static.types1):
            print(f"    defender[{t}]: {_dist_str(game_static.actions1, r.sigma1[ti])}"
                  f"   value {_fmt(r.values1[ti])}")
        for ti, t in enumerate(game_static.types2):
            print(f"    user[{t}]:     {_dist_str(game_static.actions2, r.sigma2[ti])}"
                  f"   value {_fmt(r.values2[ti])}")


def _static_game_for(args):
    """Resolve the one-shot game for ne/bne/signaling commands."""
    params = _parse_params(args)
    info = getattr(args, "info", None)
    try:
        if args.scenario == "exercise-qb":
            return scenarios.build_exercise_qb(info or "uninformed", **params)
        if args.scenario == "static-bayesian":
            return scenarios.build_static_bayesian(**params)
        if args.scenario == "static-baseline":
            return static.as_bayesian(scenarios.build_static_baseline(**params))
    except TypeError as err:
        raise CliError(f"scenario {args.scenario!r}: {err}")
    game = _load_multistage(args)
    return static.from_multistage(game)


def cmd_solve_ne(args) -> int:
    t0 = time.perf_counter()
    g = _static_game_for(args)
    bim = static.prior_averaged_bimatrix(g)
    pure = static.pure_ne(bim)
    mixed = static.mixed_ne(bim)
    print(f"pure equilibria: {pure if pure else 'none'}")
    _print_equilibria(static.as_bayesian(bim), mixed, "mixed equilibria")
    results = {
        "pure": [list(p) for p in pure],
        "equilibria": _equilibria_payload(static.as_bayesian(bim), mixed),
    }
    _emit(args, _make_report(args, results, elapsed=time.perf_counter() - t0))
    return EXIT_OK


def cmd_solve_bne(args) -> int:
    t0 = time.perf_counter()
    if args.info is not None and args.scenario != "exercise-qb":
        raise CliError("--info applies only to --scenario exercise-qb")
    if args.scenario == "exercise-qb" and args.info == "complete":
        try:
            matrices = scenarios.exercise_qb_matrices(**_parse_params(args))
        except TypeError as err:
            raise CliError(f"scenario {args.scenario!r}: {err}")
        results = {}
        for theta, bim in matrices.items():
            pure = static.pure_ne(bim)
            mixed = static.mixed_ne(bim, max_results=args.max_results)
            print(f"[{theta}] pure equilibria: {pure}")
            _print_equilibria(static.as_bayesian(bim), mixed, f"[{theta}] mixed")
            results[theta] = {
                "pure": [list(p) for p in pure],
                "equilibria": _equilibria_payload(static.as_bayesian(bim), mixed),
            }
        _emit(args, _make_report(args, results, elapsed=time.perf_counter() - t0))
        return EXIT_OK
    g = _static_game_for(args)
    eqs = static.solve_bne(g, max_results=args.max_results)
    _print_equilibria(g, eqs, "Bayesian equilibria")
    results = {"equilibria": _equilibria_payload(g, eqs)}
    _emit(args, _make_report(args, results, elapsed=time.perf_counter() - t0))
    return EXIT_OK


def cmd_solve_signaling(args) -> int:
    t0 = time.perf_counter()
    g = signaling.as_signaling_game(_static_game_for(args))
    # every method is solved before anything prints, so a method that
    # refuses the game leaves no partial output
    solved = {method: (signaling.solve_pure_pbne(g) if method == "pure"
                       else signaling.solve_mixed_pbne(g))
              for method in (("pure", "mixed") if args.method == "both" else (args.method,))}
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
    _emit(args, _make_report(args, payload, elapsed=time.perf_counter() - t0))
    return EXIT_OK


def _epsilon_payload(game: MultiStageGame, eps) -> dict:
    return {
        "defender": {t: float(eps.eps1[i]) for i, t in enumerate(game.types1)},
        "user": {t: float(eps.eps2[i]) for i, t in enumerate(game.types2)},
        "belief_violation": eps.belief_violation,
        "consistent": eps.consistent,
    }


def cmd_solve_pbne(args) -> int:
    t0 = time.perf_counter()
    game = _load_multistage(args)
    res = multistage.solve_pbne(game, tol=args.tol, max_iter=args.max_iter,
                                seed=args.seed)
    elapsed = time.perf_counter() - t0
    trace = [[float(a) if np.isfinite(a) else None, float(b)]
             for a, b in res.residual_trace]
    if isinstance(res, multistage.NonConvergenceReport):
        print(f"did not converge after {res.iterations} sweeps; "
              f"final residuals strategy={res.final_residuals[0]:.3g} "
              f"belief={res.final_residuals[1]:.3g}")
        print("residual trace (strategy, belief, stage programs) per sweep:")
        for i, ((rp, rb), n) in enumerate(zip(res.residual_trace, res.class_counts), 1):
            print(f"  sweep {i}: {rp:.3g} {rb:.3g} {n}")
        results = {
            "converged": False,
            "iterations": res.iterations,
            "residual_trace": trace,
            "class_counts": list(res.class_counts),
            "profile": gamejson.profile_to_dict(game, res.last_profile),
            "beliefs": gamejson.beliefs_to_dict(game, res.last_beliefs),
        }
        _emit(args, _make_report(args, results, game, elapsed))
        return EXIT_NO_CONVERGENCE

    eps = res.epsilon
    print(f"converged in {res.iterations} sweep(s); "
          f"worst per-stage deviation gap {res.stage_gap:.2e}")
    print("stage programs (belief classes) per sweep: "
          + " ".join(str(n) for n in res.class_counts))
    print(f"belief aggregation discrepancy: {res.beliefs.aggregation_discrepancy:.4g} "
          "(diagnostic: how far on-path histories' beliefs are from their "
          "state's average; stage programs read per-history beliefs)")
    print("epsilon certificate (distance from best response, per type):")
    for i, t in enumerate(game.types1):
        print(f"  defender[{t}]: {eps.eps1[i]:.6g}")
    for i, t in enumerate(game.types2):
        print(f"  user[{t}]: {eps.eps2[i]:.6g}")
    print(f"belief consistency violation: {eps.belief_violation:.2e}")
    x0 = game.stages[0].state_index(game.initial_state)
    print("utility-to-go at the initial state:")
    for i, t in enumerate(game.types1):
        print(f"  defender[{t}]: {_fmt(res.values.v1[0][x0, i])}")
    for i, t in enumerate(game.types2):
        print(f"  user[{t}]: {_fmt(res.values.v2[0][x0, i])}")
    print("strategies (per history, own type):")
    for node, (k, x) in multistage.build_tree(game).items():
        st = game.stages[k]
        where = f"k={k} [{gamejson.history_label(game, node)}] x={st.states[x]}"
        for i, t in enumerate(game.types1):
            print(f"  {where} defender[{t}]: "
                  f"{_dist_str(st.actions1, res.profile.rows(1, node)[i])}")
        for i, t in enumerate(game.types2):
            print(f"  {where} user[{t}]: "
                  f"{_dist_str(st.actions2, res.profile.rows(2, node)[i])}")
    results = {
        "converged": True,
        "iterations": res.iterations,
        "residual_trace": trace,
        "class_counts": list(res.class_counts),
        "stage_gap": res.stage_gap,
        "aggregation_discrepancy": res.beliefs.aggregation_discrepancy,
        "profile": gamejson.profile_to_dict(game, res.profile),
        "beliefs": gamejson.beliefs_to_dict(game, res.beliefs),
        "values": {
            "defender": [v.tolist() for v in res.values.v1],
            "user": [v.tolist() for v in res.values.v2],
        },
        "epsilon": _epsilon_payload(game, eps),
    }
    _emit(args, _make_report(args, results, game, elapsed))
    return EXIT_OK


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
    raw = _json_object(profile_path)
    if isinstance(raw.get("results"), dict):      # a full solve report
        prof_raw = raw["results"].get("profile")
        bel_raw = raw["results"].get("beliefs")
    else:
        prof_raw = raw.get("profile", raw)
        bel_raw = raw.get("beliefs")
    if prof_raw is None:
        raise CliError(f"{profile_path!r} carries no strategy profile")
    profile = gamejson.profile_from_dict(game, prof_raw)
    bad = profile.violations(game)
    if bad:
        raise CliError("invalid profile:\n  " + "\n  ".join(bad))
    if beliefs_path:
        bel_raw = _json_object(beliefs_path)
        if isinstance(bel_raw.get("results"), dict):
            bel_raw = bel_raw["results"].get("beliefs")
    if bel_raw is not None:
        beliefs = gamejson.beliefs_from_dict(game, bel_raw)
        derived = False
    else:
        beliefs = multistage.forward_pass(game, profile)
        derived = True
    return profile, beliefs, derived


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    game = _load_multistage(args)
    try:
        profile, beliefs, derived = _load_profile_and_beliefs(
            game, args.profile, args.beliefs)
    except (OSError, json.JSONDecodeError, MalformedInputError, KeyError) as err:
        raise CliError(f"cannot load profile/beliefs: {err}")
    eps = multistage.verify_epsilon(game, profile, beliefs)
    if derived:
        print("note: no beliefs supplied; verified against the profile's "
              "own forward-pass beliefs")
    print("epsilon (distance from best response):")
    for i, t in enumerate(game.types1):
        print(f"  defender[{t}]: {eps.eps1[i]:.6g}")
    for i, t in enumerate(game.types2):
        print(f"  user[{t}]: {eps.eps2[i]:.6g}")
    print(f"belief consistency violation: {eps.belief_violation:.3g} "
          f"({'consistent' if eps.consistent else 'INCONSISTENT on path'})")
    results = {"epsilon": _epsilon_payload(game, eps),
               "beliefs_derived_from_profile": derived}
    _emit(args, _make_report(args, results, game, time.perf_counter() - t0))
    return EXIT_OK


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    if args.n < 1:
        raise CliError("-n must be at least 1")
    game = _load_multistage(args)
    try:
        profile, beliefs, _ = _load_profile_and_beliefs(
            game, args.profile, args.beliefs)
    except (OSError, json.JSONDecodeError, MalformedInputError, KeyError) as err:
        raise CliError(f"cannot load profile/beliefs: {err}")
    noise = simulate.NoiseSpec.parse(args.noise)
    if args.n == 1:
        traj = simulate.sample_playout(game, profile, args.seed, noise)
        print(f"types: defender={traj.type1} user={traj.type2}; "
              f"terminal state {traj.terminal_state}")
        for s in traj.steps:
            print(f"  k={s.stage} x={s.state}: ({s.action1}, {s.action2}) "
                  f"payoffs ({_fmt(s.payoff1)}, {_fmt(s.payoff2)}) "
                  f"noisy ({_fmt(s.noisy1)}, {_fmt(s.noisy2)})")
    report = simulate.monte_carlo_value(game, profile, args.n, args.seed, noise)
    exact1, exact2 = (v.tolist() for v in multistage.root_values(game, profile, beliefs))
    print(f"monte carlo over n={args.n} draws (clean payoffs, exact = tree value):")
    for i, t in enumerate(game.types1):
        print(f"  defender[{t}]: count={report.counts1[i]} "
              f"mean={report.mean1[i]:.6g} stderr={report.stderr1[i]:.3g} "
              f"exact={exact1[i]:.6g}")
    for i, t in enumerate(game.types2):
        print(f"  user[{t}]: count={report.counts2[i]} "
              f"mean={report.mean2[i]:.6g} stderr={report.stderr2[i]:.3g} "
              f"exact={exact2[i]:.6g}")
    results = {
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
    }
    _emit(args, _make_report(args, results, game, time.perf_counter() - t0))
    return EXIT_OK


def cmd_scenario_list(_args) -> int:
    for name, blurb in scenarios.SCENARIOS.items():
        print(f"{name:16s} {blurb}")
    return EXIT_OK


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    args.echo = argv
    try:
        return args.func(args)
    except CliError as err:
        print(str(err), file=sys.stderr)
        return err.code
    except (MalformedInputError, EnumerationBudgetError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
