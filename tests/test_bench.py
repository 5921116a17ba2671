"""The BENCH file writer (``bench.py``) on runner, pytest and child-process output."""

import json
import os
import resource
import subprocess
import sys

import bench

RUN_OUTPUT = """\
# workload oneshot-ne-signaling  seed 1  40 s  trace 0  closed loop
# nproc 2  os.cpu_count 2  python 3.12.0  numpy 2.0.0  commit abc  src lines 4381
solve_ne_s                   median 0.004 s
# 10 passes, 20 operations, 20 distinct report digests
{"correct": true, "attempted": 20, "failed": 0, "metrics": {"pass_s": {"value": 0.008, "unit": "s"}}}
"""


def test_parse_run_takes_the_leading_header_and_the_last_json_line():
    header, result = bench.parse_run(RUN_OUTPUT)
    assert header == RUN_OUTPUT.splitlines()[:2]
    assert result == {"correct": True, "attempted": 20, "failed": 0,
                      "metrics": {"pass_s": {"value": 0.008, "unit": "s"}}}
    assert bench.parse_run("# header only\nTraceback ...\n") == (["# header only"], None)
    assert bench.parse_run("") == ([], None)


def test_medians_per_metric():
    runs = [{"metrics": {"pass_s": {"value": v, "unit": "s"},
                         "peak_rss_mb": {"value": 40.0 + v, "unit": "MB"}}}
            for v in (3.0, 1.0, 2.0)]
    assert bench.medians(runs) == {"pass_s": {"median": 2.0, "unit": "s", "n": 3},
                                   "peak_rss_mb": {"median": 42.0, "unit": "MB", "n": 3}}


def test_parse_tier1_reads_the_summary_line():
    out = "....\n0.39s call     tests/test_cli.py::test_x\n3 failed, 772 passed, 1 errors in 22.22s\n"
    assert bench.parse_tier1(out) == {"summary": "3 failed, 772 passed, 1 errors in 22.22s",
                                      "passed": 772, "failed": 3, "errors": 1}
    assert bench.parse_tier1("")["passed"] == 0


def test_run_child_reads_the_childs_own_exit_code_and_rusage(tmp_path):
    # a child's peak starts at this process's RSS; the first child grows past it
    floor_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >> 10
    big = bench.run_child([sys.executable, "-c",
                           f"import sys; b = b'x' * ({floor_mb + 64} << 20); sys.exit(3)"],
                          str(tmp_path), dict(os.environ))
    assert big["exit"] == 3 and "stderr_tail" not in big
    small = bench.run_child([sys.executable, "-c", "raise SystemExit('bad input')"],
                            str(tmp_path), dict(os.environ))
    assert small["exit"] == 1 and "bad input" in small["stderr_tail"]
    # a running maximum over all children would repeat the first peak
    assert 0 < small["peak_rss_mb"] < big["peak_rss_mb"] - 32


def test_main_records_the_host_around_the_runs(tmp_path, monkeypatch):
    events = []
    loads = iter([(1.5, 1.25, 1.0), (2.5, 2.0, 1.5)])

    def getloadavg():
        events.append("load")
        return next(loads)

    def run_workload(workload, seed, seconds, trace):
        events.append("run")
        return {"workload": workload, "seed": seed, "trace": trace, "exit": 0,
                "wall_s": 0.0, "header": [], "result": {"correct": True, "metrics": {}}}

    monkeypatch.setattr(bench.os, "getloadavg", getloadavg)
    monkeypatch.setattr(bench, "run_workload", run_workload)
    monkeypatch.setattr(bench, "run_horizons", lambda env: [])
    monkeypatch.setattr(bench.subprocess, "run", lambda argv, **kwargs: (
        subprocess.CompletedProcess(argv, 0, "3 passed in 0.10s\n", "")))
    out = tmp_path / "BENCH.json"
    assert bench.main([str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["host"] == {"cpu_count": os.cpu_count(), "loadavg_before": [1.5, 1.25, 1.0],
                               "loadavg_after": [2.5, 2.0, 1.5], "python": sys.version,
                               "dont_write_bytecode": sys.flags.dont_write_bytecode}
    n_runs = len(written["runs"])
    assert n_runs > 0 and events == ["load"] + ["run"] * n_runs + ["load"]
