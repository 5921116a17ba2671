"""Per-layer metrics from the spans of a traced run.

Counts and times are per pass (one pass is the workload's command
sequence on one input), so runs of different lengths compare.  A
layer's ``self_s`` is its spans' duration minus the time their child
spans and leaf calls cover; for a leaf (``solve_lp``, ``belief_update``,
``sample_playout``) it is the summed duration of its calls.  Layers a
workload never calls report 0.
"""

from __future__ import annotations

from collections import defaultdict

ST = "multistage.solve_stage_tensors"
SWEEP_PARTS = ("multistage.backward_pass", "multistage.forward_pass")


def layer_metrics(spans, passes: int, overhead_ratio: float, import_s: float) -> dict:
    by_id = {s.id: s for s in spans}
    variant = defaultdict(str, {s.op: s.attrs.get("variant", "") for s in spans
                                  if s.name == "cli"})
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(float))
    leaf = defaultdict(lambda: defaultdict(float))
    leaf_by_variant = defaultdict(lambda: defaultdict(float))
    sweep_s = 0.0
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
        incl[s.name] += s.duration
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)):
                attrs[s.name][key] += value
        for name, stats in s.leaves.items():
            for key, value in stats.items():
                leaf[name][key] += value
                leaf_by_variant[(name, variant[s.op])][key] += value
        parent = by_id.get(s.parent)
        if s.name in SWEEP_PARTS and parent and parent.name == "multistage.solve_pbne":
            sweep_s += s.duration

    def ratio(a, b):
        return a / b if b else 0.0

    def per_pass(x):
        return x / passes

    lp = leaf["lp.solve_lp"]
    bu = leaf["multistage.belief_update"]
    sp = leaf["simulate.sample_playout"]
    histories = ratio(attrs["multistage.build_tree"]["histories"],
                      calls["multistage.build_tree"])
    values = {
        "lp.solve_lp.calls": (per_pass(lp["calls"]), "count"),
        "lp.solve_lp.self_s": (per_pass(lp["s"]), "s"),
        "lp.solve_lp.us_per_call": (1e6 * ratio(lp["s"], lp["calls"]), "us"),
        "lp.solve_lp.rows": (per_pass(lp["rows"]), "count"),
        "lp.solve_lp.infeasible_ratio": (ratio(lp["infeasible"], lp["calls"]), "ratio"),
        f"{ST}.calls": (per_pass(calls[ST]), "count"),
        f"{ST}.self_s": (per_pass(self_s[ST]), "s"),
        "multistage.stage.warm_hit_ratio": (ratio(attrs[ST]["warm_hits"], calls[ST]),
                                            "ratio"),
        "multistage.stage.fallbacks": (per_pass(attrs[ST]["fallbacks"]), "count"),
        "multistage.stage.alternations": (per_pass(attrs[ST]["alternations"]), "count"),
        "multistage.stage.uncertified": (per_pass(attrs[ST]["uncertified"]), "count"),
        "multistage.solve_pbne.sweeps": (
            ratio(calls["multistage.backward_pass"], calls["multistage.solve_pbne"]),
            "count"),
        "multistage.solve_pbne.self_s": (per_pass(self_s["multistage.solve_pbne"]), "s"),
        "multistage.backward_pass.self_s": (
            per_pass(self_s["multistage.backward_pass"]), "s"),
        "multistage.sweep_s": (ratio(sweep_s, calls["multistage.backward_pass"]), "s"),
        "multistage.histories": (histories, "count"),
        "multistage.build_tree.calls": (per_pass(calls["multistage.build_tree"]), "count"),
        "multistage.build_tree.self_s": (per_pass(self_s["multistage.build_tree"]), "s"),
        "multistage.forward_pass.calls": (
            per_pass(calls["multistage.forward_pass"]), "count"),
        "multistage.forward_pass.self_s": (
            per_pass(self_s["multistage.forward_pass"]), "s"),
        "multistage.forward_pass.us_per_history": (
            1e6 * ratio(incl["multistage.forward_pass"],
                        calls["multistage.forward_pass"] * histories), "us"),
        "multistage.belief_update.calls": (per_pass(bu["calls"]), "count"),
        "multistage.belief_update.self_s": (per_pass(bu["s"]), "s"),
        "multistage.verify_epsilon.self_s": (
            per_pass(self_s["multistage.verify_epsilon"]), "s"),
        "multistage.cumulative_utility.self_s": (
            per_pass(self_s["multistage.cumulative_utility"]), "s"),
        "simulate.sample_playout.calls": (per_pass(sp["calls"]), "count"),
        "simulate.monte_carlo_value.self_s": (
            per_pass(self_s["simulate.monte_carlo_value"]), "s"),
        "static.solve_bne.calls": (per_pass(calls["static.solve_bne"]), "count"),
        "static.solve_bne.self_s": (per_pass(self_s["static.solve_bne"]), "s"),
        "signaling.solve_pure_pbne.self_s": (
            per_pass(self_s["signaling.solve_pure_pbne"]), "s"),
        "signaling.solve_mixed_pbne.self_s": (
            per_pass(self_s["signaling.solve_mixed_pbne"]), "s"),
        "gamejson.dump_json.self_s": (per_pass(self_s["gamejson.dump_json"]), "s"),
        "gamejson.report_bytes": (per_pass(attrs["gamejson.dump_json"]["bytes"]), "B"),
        "gamejson.beliefs_to_dict.self_s": (
            per_pass(self_s["gamejson.beliefs_to_dict"]), "s"),
        "gamejson.beliefs_from_dict.self_s": (
            per_pass(self_s["gamejson.beliefs_from_dict"]), "s"),
        "gamejson.load_game.self_s": (per_pass(self_s["gamejson.load_game"]), "s"),
        "core.validate_game.calls": (per_pass(calls["core.validate_game"]), "count"),
        "core.validate_game.self_s": (per_pass(self_s["core.validate_game"]), "s"),
        "scenarios.build_apt_game.self_s": (
            per_pass(self_s["scenarios.build_apt_game"]), "s"),
        "cli.self_s": (per_pass(self_s["cli"]), "s"),
        "setup.import_s": (import_s, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for noise in ("none", "gaussian"):
        stats = leaf_by_variant[("simulate.sample_playout", noise)]
        values[f"simulate.sample_playout.us_per_call.noise_{noise}"] = (
            1e6 * ratio(stats["s"], stats["calls"]), "us")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
