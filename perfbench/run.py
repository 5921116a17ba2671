"""secgames benchmark: CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One caller runs CLI commands in process through
``secgames.cli.main(argv)``, one at a time in a closed loop, after an
untimed warm-up pass.  A *pass* is the workload's fixed command sequence
on one generated input.  Passes cycle through the workload's pool of
inputs until ``--seconds`` have elapsed and the cycle under way is
complete, so every input runs the same number of times, spread over the
run.  Fresh-interpreter set-ups are timed at evenly spaced moments of
the run.  Every command's exit code and report are checked, and the
sha256 of every report is kept per (command, seed) under
``.bench_out/digests`` so a repeat, or a later run at the same seed,
must reproduce it byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
pass twice, untraced and traced in alternating order, and prints the
per-layer metrics from the traced copies (see ``tracer.py``) together
with the tracing overhead; the spans go to ``.bench_out/trace-*.json``.
Human-readable lines come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import functools
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
SETUP_PROBES = 7
# An operation still running after this long counts as failed and ends the
# run, so a solver that never returns cannot hold the benchmark past its
# time limit.  The slowest operations take a few seconds.
OP_LIMIT_S = 30.0


def tail(values: list[float], low: bool = False) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile that still has at
    least ten samples beyond it, or None below eleven samples.  With
    ``low`` (a rate, where the slow end is low) the tail is the lowest
    percentile with ten samples below it."""
    n = len(values)
    if n < 11:
        return None
    if low:
        return 100.0 * 10 / n, sorted(values)[10]
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def read_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return f"unknown ({ref[5:]} is packed)"


def read_sources() -> tuple[int, str]:
    """Line count of ``src/`` and a sha256 of its Python files."""
    lines = 0
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    return lines, digest.hexdigest()


class SetupProbes:
    """Fresh-interpreter set-ups, timed at evenly spaced moments of a run.

    The host's speed drifts over tens of seconds, so set-ups taken all
    at once would sample one moment; spread over the run, their median
    sees the same conditions as the passes.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.dir = os.path.join(OUT_DIR, f"probe-{workload}")
        self.every = seconds / SETUP_PROBES
        self.setup: list[float] = []
        self.imports: list[float] = []

    def probe(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        t0 = time.monotonic()
        proc = subprocess.run(self.argv + ["--workdir", self.dir],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        stamp = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup.append(stamp["done"] - t0)
        self.imports.append(stamp["import_s"])
        shutil.rmtree(self.dir, ignore_errors=True)

    def due(self, elapsed: float) -> None:
        """Take the probes whose moment has come ``elapsed`` s into the run."""
        while len(self.setup) < SETUP_PROBES and elapsed >= len(self.setup) * self.every:
            self.probe()

    def medians(self) -> tuple[float, float]:
        self.due(float("inf"))
        return statistics.median(self.setup), statistics.median(self.imports)


class Runner:
    """Runs CLI operations, checks them and keeps their timings."""

    def __init__(self, cli, store: str, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)   # successful ops
        # fastest untraced time per (input, kind), failed ops ranked last
        self.best: dict[tuple[int, str], tuple[bool, float]] = {}
        # traced -> [(input, seconds, every op succeeded)] per pass
        self.passes: dict[bool, list[tuple[int, float, bool]]] = {False: [], True: []}
        self.digests: dict[str, str] = {}
        self.store = store
        self.stored: dict[str, str] = {}
        if os.path.isfile(store):
            with open(store, encoding="utf-8") as fh:
                self.stored = json.load(fh)
        self.current = None         # (op, traced, start) while an op runs
        self.pass_input = -1
        self.pass_total = 0.0
        self.pass_ok = True

    def call(self, argv: list[str]) -> tuple[int | None, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                return self.cli.main(argv), err.getvalue()
            except SystemExit as exc:      # argparse rejects its input this way
                return (exc.code if isinstance(exc.code, int) else 2), err.getvalue()

    def execute(self, op, traced: bool = False) -> float:
        """Run one operation; return its wall time.  Failures are counted."""
        self.attempted += 1
        t0 = time.perf_counter()
        self.current = (op, traced, t0)
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            if traced:
                code, err = self.tracer.run_op(
                    self.attempted, {"kind": op.kind, "variant": op.variant},
                    self.call, op.argv)
            else:
                code, err = self.call(op.argv)
        except Exception:
            code, err = None, traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        self.current = None
        self.record(op, traced, elapsed, self.check(op, code, err))
        return elapsed

    def record(self, op, traced: bool, elapsed: float, problem: str | None) -> None:
        if problem:
            self.failed += 1
            self.problems.append(f"{' '.join(op.argv)}: {problem}")
            self.pass_ok = False
        elif not traced:
            self.times[op.kind].append(elapsed)
        if not traced:
            key = (self.pass_input, op.kind)
            self.best[key] = min(self.best.get(key, (True, math.inf)),
                                 (problem is not None, elapsed))
        self.pass_total += elapsed

    def timed_out(self) -> None:
        """Count the running operation as failed and close its pass."""
        op, traced, t0 = self.current
        self.record(op, traced, time.perf_counter() - t0,
                    f"still running after {OP_LIMIT_S:g} s")
        self.passes[traced].append((self.pass_input, self.pass_total, False))

    def fastest_passes(self) -> list[float]:
        """Per input, the sum over its pass's commands of each command's
        fastest untraced time.  A failed run of a command counts only if
        that command never succeeded on the input, so a run that only
        fails still reports a time."""
        total: dict[int, float] = defaultdict(float)
        for (j, _), (_, t) in self.best.items():
            total[j] += t
        return list(total.values())

    def check(self, op, code, err: str) -> str | None:
        if code not in op.codes:
            return f"exit {code}: {err.strip()[-500:]}"
        try:
            with open(op.out, "rb") as fh:
                data = fh.read()
            report = json.loads(data)
            problem = self.record_digest(op, data)
            return problem or (op.check(code, report) if op.check else None)
        except Exception:
            return traceback.format_exc()

    def record_digest(self, op, data: bytes) -> str | None:
        """Key the report by its command line without ``--out``, with each
        input file (``--game``, ``--profile``) named by its sha256."""
        argv = []
        for flag, arg in zip([""] + op.argv, op.argv):
            if flag == "--out" or arg == "--out":
                continue
            if flag in ("--game", "--profile"):
                with open(arg, "rb") as fh:
                    arg = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
            argv.append(arg)
        key = " ".join(argv)
        digest = hashlib.sha256(data).hexdigest()
        for seen in (self.digests.get(key), self.stored.get(key)):
            if seen is not None and seen != digest:
                return f"report sha256 {digest} differs from {seen} at the same seed"
        self.digests[key] = digest
        return None

    def save_digests(self) -> None:
        os.makedirs(os.path.dirname(self.store), exist_ok=True)
        merged = {**self.stored, **self.digests}
        tmp = f"{self.store}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.store)

    def run_pass(self, j: int, ops, traced: bool = False) -> None:
        self.pass_input = j
        self.pass_total = 0.0
        self.pass_ok = True
        for op in ops:
            self.execute(op, traced)
        self.passes[traced].append((j, self.pass_total, self.pass_ok))


def fmt_stats(name: str, unit: str, values: list[float], low: bool = False) -> str:
    line = f"{name:<28} median {statistics.median(values):.6g} {unit}"
    t = tail(values, low)
    if t is None:
        line += f"  tail n/a (n={len(values)} < 11)"
    else:
        line += f"  p{t[0]:.1f} {t[1]:.6g} {unit} (10 {'below' if low else 'beyond'})"
    return line + f"  n={len(values)}"


def end_to_end(wl, runner: Runner, setup_s: float, sim_n: int) -> dict:
    """Print every per-command metric and return the gated ones."""
    for kind in wl.kinds:
        values = runner.times[kind]
        if not values:
            continue
        if kind.startswith("simulate:"):
            rates = [sim_n / v for v in values]
            print(fmt_stats(f"simulate_traj_per_s[{kind[9:]}]", "1/s", rates, low=True))
        else:
            print(fmt_stats(f"{kind}_s", "s", values))
    sims = [v for k, vs in runner.times.items() if k.startswith("simulate:") for v in vs]
    if sims:
        print(f"{'simulate_traj_per_s':<28} {sim_n * len(sims) / sum(sims):.6g} 1/s "
              f"over {len(sims)} runs of -n {sim_n}")
    print(fmt_stats("pass wall time", "s", [t for _, t, _ in runner.passes[False]]))
    fastest = runner.fastest_passes()
    pass_s = statistics.fmean(fastest)
    print(f"{'pass_s':<28} {pass_s:.6g} s  mean over {len(fastest)} inputs of the "
          f"pass made of each command's fastest of "
          f"{len(runner.passes[False]) / len(fastest):.3g} runs")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'peak_rss_mb':<28} {peak:.6g} MB")
    print(f"{'setup_s':<28} {setup_s:.6g} s  median of {SETUP_PROBES} fresh interpreters")
    print(f"{'fail_ratio':<28} {runner.failed}/{runner.attempted} operations")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": pass_s, "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def finish(args, wl, runner: Runner, probes: SetupProbes, sim_n: int,
           workdir: str) -> None:
    """Save digests, print the metrics and the result line."""
    if runner.tracer is not None:
        runner.tracer.uninstall()
    setup_s, import_s = probes.medians()
    runner.save_digests()
    shutil.rmtree(workdir, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    print(f"# {len(runner.passes[False])} passes, {runner.attempted} operations, "
          f"{len(runner.digests)} distinct report digests; timings cover the "
          f"passes and operations that succeeded")
    if runner.tracer is None:
        metrics = end_to_end(wl, runner, setup_s, sim_n)
    else:
        import layers
        pairs = [(u, t) for (_, u, u_ok), (_, t, t_ok)
                 in zip(runner.passes[False], runner.passes[True]) if u_ok and t_ok]
        ratio = (sum(t for _, t in pairs) / sum(u for u, _ in pairs)) if pairs else 0.0
        metrics = layers.layer_metrics(runner.tracer.spans,
                                       max(1, len(runner.passes[True])), ratio, import_s)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_json() for s in runner.tracer.spans], fh)
        for name, m in metrics.items():
            print(f"{name:<52} {m['value']:.6g} {m['unit']}")
        print(f"# spans written to {path}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "secgames", "cli.py")):
        print(f"no secgames sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, src)
    from secgames import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"secgames was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    lines, fingerprint = read_sources()
    print(f"# workload {args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"trace {args.trace}  closed loop, one caller, one command at a time")
    print(f"# nproc {len(os.sched_getaffinity(0))}  os.cpu_count {os.cpu_count()} "
          f"(the --threads default)  python {sys.version.split()[0]}  "
          f"numpy {np.__version__}  commit {read_commit()}  src lines {lines}")

    probes = SetupProbes(args.workload, args.seed, args.seconds)
    workdir = os.path.join(OUT_DIR, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    # digests are kept per source tree: other code may legitimately write
    # other reports
    store = os.path.join(OUT_DIR, "digests", fingerprint[:16],
                         f"{args.workload}-seed{args.seed}.json")
    runner = Runner(cli, store, tracer)
    report = functools.partial(finish, args, wl, runner, probes, workloads.SIM_N,
                               workdir)

    def on_limit(signum, frame):
        # The solver may be stuck where no exception can reach it (a pool
        # thread), so report from here and leave without joining threads.
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        faulthandler.dump_traceback(all_threads=True)
        runner.timed_out()
        report()
        os._exit(0)

    signal.signal(signal.SIGALRM, on_limit)
    wl.prepare(lambda argv: runner.call(argv)[0])
    runner.run_pass(-1, wl.warmup())
    runner.times.clear()
    runner.best.clear()
    runner.passes[False].clear()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or i % wl.pool:
        probes.due(time.perf_counter() - start)
        j = i % wl.pool
        ops = wl.pass_ops(j)
        if tracer is None:
            runner.run_pass(j, ops)
        else:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                runner.run_pass(j, ops, traced)
        i += 1
    report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
