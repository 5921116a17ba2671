"""Spans around calls into secgames, recorded from outside the package.

Each wrapped function is replaced at the name its callers look up, for
example ``multistage.solve_lp`` rather than ``lp.solve_lp``, because the
solver modules import ``solve_lp`` by name.  A span records its name,
parent, start and end; every span of one CLI operation shares that
operation's id.  Hot leaves (``belief_update``, ``sample_playout``,
``solve_lp``) are not kept as spans: their calls and time are summed
into counters on the enclosing span, which keeps memory and overhead
bounded.  Spans stay in memory and are written out when the run ends.

``solve pbne`` runs its stage programs on a thread pool (``--threads``
defaults to the CPU count).  Calls made on a pool thread are counted as
leaves of the span open on the calling thread; the part of that span's
interval they cover is the union of their intervals, so self time never
goes negative.  Their own time is read from the pool thread's CPU clock,
because their wall time includes waiting for the interpreter lock while
the other pool thread runs.
"""

from __future__ import annotations

import functools
import os
import threading
import time

from secgames import (cli, gamejson, multistage, scenarios, signaling,
                      simulate, static)


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "child_s",
                 "attrs", "leaves", "active", "since", "covered")

    def __init__(self, span_id, parent, op, name, start):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.attrs: dict = {}
        self.leaves: dict = {}      # name -> {"calls": n, "s": t, ...extras}
        self.active = 0
        self.since = 0.0
        self.covered = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.covered

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "name": self.name, "start": self.start, "end": self.end,
                "self_s": self.self_s, "attrs": self.attrs,
                "leaves": self.leaves}


def _lp_result(args, kwargs, result) -> dict:
    problem = args[0] if args else kwargs["problem"]
    return {"rows": problem.a_ub.shape[0] + problem.a_eq.shape[0],
            "infeasible": int(result.status != "optimal")}


def _stage_result(args, kwargs, result) -> dict:
    return {"warm_hits": int(result.start_index == -1),
            "fallbacks": int(result.start_index == -2),
            "alternations": result.alternations,
            "uncertified": int(not result.converged)}


def _tree_result(args, kwargs, result) -> dict:
    return {"histories": len(result)}


def _dump_result(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


# (module, attribute looked up by callers, span name, leaf, result hook)
WRAPPED = (
    (cli, "validate_game", "core.validate_game", False, None),
    (multistage, "validate_game", "core.validate_game", False, None),
    (scenarios, "build_apt_game", "scenarios.build_apt_game", False, None),
    (gamejson, "load_game", "gamejson.load_game", False, None),
    (gamejson, "dump_json", "gamejson.dump_json", False, _dump_result),
    (gamejson, "beliefs_to_dict", "gamejson.beliefs_to_dict", False, None),
    (gamejson, "beliefs_from_dict", "gamejson.beliefs_from_dict", False, None),
    (multistage, "solve_pbne", "multistage.solve_pbne", False, None),
    (multistage, "backward_pass", "multistage.backward_pass", False, None),
    (multistage, "forward_pass", "multistage.forward_pass", False, None),
    (multistage, "build_tree", "multistage.build_tree", False, _tree_result),
    (multistage, "solve_stage_tensors", "multistage.solve_stage_tensors", False,
     _stage_result),
    (multistage, "verify_epsilon", "multistage.verify_epsilon", False, None),
    (multistage, "cumulative_utility", "multistage.cumulative_utility", False, None),
    (multistage, "belief_update", "multistage.belief_update", True, None),
    (multistage, "solve_lp", "lp.solve_lp", True, _lp_result),
    (static, "solve_lp", "lp.solve_lp", True, _lp_result),
    (signaling, "solve_lp", "lp.solve_lp", True, _lp_result),
    (static, "solve_bne", "static.solve_bne", False, None),
    (signaling, "solve_pure_pbne", "signaling.solve_pure_pbne", False, None),
    (signaling, "solve_mixed_pbne", "signaling.solve_mixed_pbne", False, None),
    (simulate, "monte_carlo_value", "simulate.monte_carlo_value", False, None),
    (simulate, "sample_playout", "simulate.sample_playout", True, None),
)


class Tracer:
    """Records spans while an operation is open; passes calls through
    untouched otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._owner = threading.get_ident()
        self._lock = threading.Lock()
        self._op = None
        self._next_id = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, leaf, hook in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, leaf, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def run_op(self, op_id: int, attrs: dict, fn, *args):
        """Run ``fn(*args)`` as the root span ``cli`` of operation ``op_id``."""
        self._op = op_id
        root = self._open("cli")
        root.attrs.update(attrs)
        try:
            return fn(*args)
        finally:
            self._close(root)
            self._op = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, parent, self._op, name, time.perf_counter())
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration
        self.spans.append(span)

    def _leaf(self, name, fn, hook, args, kwargs):
        span = self._stack[-1]
        clock = (time.perf_counter if threading.get_ident() == self._owner
                 else time.thread_time)
        with self._lock:
            if span.active == 0:
                span.since = time.perf_counter()
            span.active += 1
        c0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            spent = clock() - c0
            with self._lock:
                span.active -= 1
                if span.active == 0:
                    span.covered += time.perf_counter() - span.since
                stats = span.leaves.setdefault(name, {"calls": 0, "s": 0.0})
                stats["calls"] += 1
                stats["s"] += spent
        if hook is not None:
            extra = hook(args, kwargs, result)
            with self._lock:
                for key, value in extra.items():
                    stats[key] = stats.get(key, 0) + value
        return result

    def _wrap(self, fn, name: str, leaf: bool, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if leaf or threading.get_ident() != tracer._owner:
                return tracer._leaf(name, fn, hook, args, kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    span.attrs[key] = span.attrs.get(key, 0) + value
            return result

        return wrapper
