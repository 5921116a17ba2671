"""Write a BENCH_<n>.json file from the unchanged benchmark runner.

    python3 bench.py BENCH_<n>.json

Run from the root of a source checkout.  For every workload that
``BENCHMARK.json`` gates, ``perfbench/run.py`` runs in a child process at
seeds 1-5 with ``--trace 0`` and once at seed 1 with ``--trace 1``, each
for the benchmark's ``run_seconds``, one run at a time.  Then the tier-1
suite runs once.  Last, the horizon sweep: on the random game of
``perfbench.generators.random_game(default_rng(101), H)`` for H = 1..5,
``solve pbne --max-iter 2`` and then ``verify`` of its report, each in a
fresh ``python -m secgames.cli`` child whose exit code, wall time and
peak RSS are recorded.  The file holds the runner's header lines, every
run's final JSON object, the per-metric medians of each (workload,
trace) group, the tier-1 pass count and wall time, the horizon rows,
the ``src/`` line count that the runner's header reports, and the host:
``os.cpu_count()``, ``os.getloadavg()`` before the first run and after
the last, ``sys.version`` and ``sys.flags.dont_write_bytecode``.  When
that flag comes from ``PYTHONDONTWRITEBYTECODE``, every child inherits
it and writes no bytecode cache, so each fresh interpreter compiles
``src/`` again.  The exit code is 1
when a run, the tier-1 suite or a horizon command failed (a solve may
stop at its two sweeps with exit 3); the file is written either way.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from perfbench.generators import random_game

ROOT = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2, 3, 4, 5)
TRACE_SEED = 1
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
HORIZONS = (1, 2, 3, 4, 5)
HORIZON_SEED = 101
CLI = [sys.executable, "-m", "secgames.cli"]


def parse_run(stdout: str) -> tuple[list[str], dict | None]:
    """The runner's ``# `` header lines (those before its first other
    line) and its last line as JSON, or None when that is not JSON."""
    lines = stdout.splitlines()
    header = []
    for line in lines:
        if not line.startswith("# "):
            break
        header.append(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return header, result if isinstance(result, dict) else None


def medians(results: list[dict]) -> dict:
    """Per metric, the median of its values over ``results`` (runner
    JSON objects), with its unit and sample count."""
    values: dict[str, list[float]] = {}
    units = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {name: {"median": statistics.median(v), "unit": units[name], "n": len(v)}
            for name, v in values.items()}


def parse_tier1(stdout: str) -> dict:
    """Counts from pytest's closing summary line (``775 passed in 19.28s``)."""
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
    return {"summary": summary, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "errors": counts.get("errors", 0)}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    header, result = parse_run(proc.stdout)
    run = {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
           "wall_s": round(wall, 3), "header": header, "result": result}
    if result is None or proc.returncode:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def run_child(argv: list[str], cwd: str, env: dict) -> dict:
    """Run ``argv`` in a fresh child: its exit code (minus the signal
    number when a signal ended it), wall time and peak RSS, read from that
    child's own ``os.wait4`` rusage (``RUSAGE_CHILDREN`` would be the
    largest peak of all children so far; Linux counts it in KiB).  Linux
    starts a child's peak at its parent's RSS when it was spawned, since
    exec keeps the old image's peak: this process (about 28 MB with
    numpy) stays below a CLI child, which imports more (30 MB or more)."""
    start = time.perf_counter()
    with tempfile.TemporaryFile() as err, subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err) as proc:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        row = {"exit": proc.returncode, "wall_s": round(time.perf_counter() - start, 3),
               "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}
        if row["exit"] not in (0, 3):
            err.seek(0)
            row["stderr_tail"] = err.read()[-2000:].decode(errors="replace")
    return row


def run_horizons(env: dict) -> list[dict]:
    """``solve pbne --max-iter 2`` and ``verify`` through the CLI on the
    random game of ``default_rng(HORIZON_SEED)`` at each horizon."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for horizon in HORIZONS:
            game, report = f"h{horizon}.json", f"h{horizon}-report.json"
            with open(os.path.join(tmp, game), "w", encoding="utf-8") as fh:
                json.dump(random_game(np.random.default_rng(HORIZON_SEED), horizon), fh)
            solve = run_child(CLI + ["solve", "pbne", "--game", game, "--max-iter", "2",
                                     "--out", report], tmp, env)
            verify = run_child(CLI + ["verify", "--game", game, "--profile", report], tmp, env)
            rows.append({"horizon": horizon, "solve": solve, "verify": verify})
            print(f"horizon {horizon}: solve exit {solve['exit']}, {solve['wall_s']:.1f} s; "
                  f"verify exit {verify['exit']}, {verify['wall_s']:.1f} s",
                  file=sys.stderr, flush=True)
    return rows


def git_describe() -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 bench.py BENCH_<n>.json", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    load_before = os.getloadavg()
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in [(seed, 0) for seed in SEEDS] + [(TRACE_SEED, 1)]:
            runs.append(run_workload(workload, seed, seconds, trace))
            print(f"{workload} seed {seed} trace {trace}: exit {runs[-1]['exit']}, "
                  f"{runs[-1]['wall_s']:.1f} s", file=sys.stderr, flush=True)
    host = {"cpu_count": os.cpu_count(), "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(), "python": sys.version,
            "dont_write_bytecode": sys.flags.dont_write_bytecode}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    tier1 = {**parse_tier1(proc.stdout), "exit": proc.returncode,
             "wall_s": round(time.perf_counter() - start, 3)}
    horizon = run_horizons(env)

    groups: dict[tuple[str, int], list[dict]] = {}
    for run in runs:
        if run["result"] is not None:
            groups.setdefault((run["workload"], run["trace"]), []).append(run["result"])
    src_lines = next((int(m.group(1)) for run in runs for line in run["header"]
                      for m in [re.search(r"src lines (\d+)", line)] if m), None)
    bench = {
        "command": "python3 bench.py " + argv[0],
        "git": git_describe(),
        "run_seconds": seconds,
        "src_lines": src_lines,
        "host": host,
        "tier1": tier1,
        "medians": {f"{workload} trace {trace}": medians(results)
                    for (workload, trace), results in groups.items()},
        "runs": runs,
        "horizon": horizon,
    }
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    ok = tier1["exit"] == 0 and all(
        run["exit"] == 0 and run["result"] is not None and run["result"]["correct"]
        for run in runs) and all(row["solve"]["exit"] in (0, 3) and row["verify"]["exit"] == 0
                                 for row in horizon)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
