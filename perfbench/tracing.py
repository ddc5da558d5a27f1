"""Spans around pastlab's public entry points, recorded from the benchmark side.

The tracer replaces each entry point by a wrapper in every module that binds
it, records a span per call while a job is running, and restores the
originals on exit.  A span carries its name, start, end, parent span and job
id.  Calls made once per explored state or graph node (`step`, `step_all`,
`Scheduler.decide`, `parse`, `print_program`) would produce millions of
spans, so each is folded into one record per parent span that keeps the call
count and the summed time.

Self time of a record is its time minus the time of its child records.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Dict, List, Optional

from pastlab import (certificates, cli, exploration, scheduling, semantics,
                     syntax, transforms)

perf = time.perf_counter

EXPLORE = "exploration.explore"
SCHEDULERS = (scheduling.ConstantScheduler, scheduling.FunctionScheduler,
              scheduling.RandomScheduler, scheduling.TableScheduler,
              scheduling.BoundedScheduler)


class Record:
    __slots__ = ("rid", "name", "parent", "job", "start", "end", "calls",
                 "busy", "child", "folds", "attrs", "keys")

    def __init__(self, rid, name, parent, job, start):
        self.rid, self.name, self.parent, self.job = rid, name, parent, job
        self.start = self.end = start
        self.calls, self.busy, self.child = 0, 0.0, 0.0
        self.folds: Optional[Dict[str, "Record"]] = None
        self.attrs: Optional[Dict[str, float]] = None
        self.keys = None

    def add(self, key, value):
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = self.attrs.get(key, 0) + value

    def get(self, key):
        return self.attrs.get(key, 0) if self.attrs else 0

    def folded(self, name, tracer) -> "Record":
        if self.folds is None:
            self.folds = {}
        rec = self.folds.get(name)
        if rec is None:
            rec = self.folds[name] = tracer._new(name, self, perf())
        return rec

    def self_time(self) -> float:
        return self.busy - self.child

    def to_json(self):
        return {"id": self.rid, "name": self.name,
                "parent": self.parent.rid if self.parent else None,
                "job": self.job, "start": self.start, "end": self.end,
                "calls": self.calls, "busy": self.busy, **(self.attrs or {})}


class Tracer:
    def __init__(self):
        self.records: List[Record] = []
        self.stack: List[Record] = []
        self.job: Optional[int] = None
        self._patches = []

    # -- records -------------------------------------------------------------

    def _new(self, name, parent, start) -> Record:
        rec = Record(len(self.records), name, parent, self.job, start)
        self.records.append(rec)
        return rec

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        self.stack = [self._new("job", None, perf())]

    def end_job(self) -> None:
        root = self.stack[0]
        root.end = perf()
        root.busy, root.calls = root.end - root.start, 1
        self.stack, self.job = [], None

    def _close(self, rec: Record, start: float) -> None:
        end = perf()
        duration = end - start
        rec.end = end
        rec.busy += duration
        rec.calls += 1
        self.stack.pop()
        if rec.parent is not None:
            rec.parent.child += duration

    def span(self, name, fn, after=None):
        """A wrapper recording one span per call of `fn`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            start = perf()
            rec = self._new(name, self.stack[-1], start)
            self.stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec, start)
            if after is not None:
                after(rec, args, result)
            return result
        return wrapper

    def fold(self, name, fn, after=None):
        """A wrapper adding each call of `fn` to one record per parent."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            rec = self.stack[-1].folded(name, self)
            self.stack.append(rec)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec, start)
            if after is not None:
                after(rec, args, result)
            return result
        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper, static=False):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def install(self, bench_module) -> None:
        """Wrap every traced entry point; `bench_module` is the benchmark's
        own module, whose direct calls into pastlab are traced too."""
        parse = self.fold("syntax.parse", syntax.parse)
        for owner in (syntax, cli, bench_module):
            self._patch(owner, "parse", parse)
        # print_program calls itself through the module global, so only the
        # bindings other modules hold are wrapped, never syntax's own.
        printer = self.fold("syntax.print", syntax.print_program)
        for owner in (cli, semantics, bench_module):
            self._patch(owner, "print_program", printer)

        self._patch(exploration, "step",
                    self.fold("semantics.step", semantics.step, self._stepped))
        self._patch(exploration, "step_all",
                    self.fold("semantics.step", semantics.step_all, self._stepped))
        for cls in SCHEDULERS:
            self._patch(cls, "decide",
                        self.fold("scheduling.decide", cls.__dict__["decide"],
                                  self._decided))
        self._patch(exploration, "iter_partial_schedules",
                    self._counting_generator(exploration.iter_partial_schedules))

        for name in ("run_masses", "build_tree", "collect_nondet_queries"):
            self._patch(exploration, name,
                        self.span(EXPLORE, getattr(exploration, name),
                                  self._explored))
        self._patch(exploration, "collapse_to_state_graph",
                    self.span("exploration.graph",
                              exploration.collapse_to_state_graph, self._graphed))
        graph_cls = exploration.StateGraph
        self._patch(graph_cls, "to_json",
                    self.span("exploration.graph_dump", graph_cls.to_json))
        self._patch(graph_cls, "from_json",
                    self.span("exploration.graph_load",
                              graph_cls.__dict__["from_json"].__func__),
                    static=True)

        self._patch(certificates, "worst_case_exit_times",
                    self.span("certificates.solve",
                              certificates.worst_case_exit_times, self._solved))
        self._patch(certificates, "check_rsm",
                    self.span("certificates.check_rsm", certificates.check_rsm,
                              self._checked))
        self._patch(certificates, "check_proof_rule",
                    self.span("certificates.check_rule",
                              certificates.check_proof_rule, self._checked))
        for cls in (certificates.RsmCert, certificates.RuleCert):
            self._patch(cls, "from_json",
                        self.span("certificates.load",
                                  cls.__dict__["from_json"].__func__),
                        static=True)
        self._patch(transforms, "emit_inc",
                    self.span("transforms.emit", transforms.emit_inc))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- counts recorded at the boundaries -------------------------------------

    def _stepped(self, rec, args, result):
        rec.add("successors", len(result))
        explore = rec.parent
        if explore.name != EXPLORE:
            return
        start = perf()
        state = args[0]
        scheduler = args[1] if len(args) > 1 else None
        # States may merge only when the scheduler ignores the history.
        if isinstance(scheduler, scheduling.ConstantScheduler):
            key = (state.program, state.valuation)
        else:
            key = (state.program, state.valuation, state.history)
        try:
            hash(key)
        except RecursionError:
            # Hashing a long program recurses once per statement; its
            # printed form is an equally distinct key.
            key = (syntax.print_program(state.program),) + key[1:]
        if explore.keys is None:
            explore.keys = set()
        explore.keys.add(key)
        # Key bookkeeping is tracing cost: keep it out of the explore span.
        keys = explore.folded("trace.keys", self)
        cost = perf() - start
        keys.busy += cost
        keys.calls += 1
        explore.child += cost

    def _decided(self, rec, args, result):
        rec.add("history_len", len(args[1]))

    def _counting_generator(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.job is not None:
                    self.stack[0].add("schedules", 1)
                yield item
        return wrapper

    def _explored(self, rec, args, result):
        if rec.keys is not None:
            rec.add("distinct", len(rec.keys))
            rec.keys = None
        frontier = getattr(result, "frontier", None)
        if frontier is not None:
            rec.add("frontier", len(frontier))

    def _graphed(self, rec, args, result):
        rec.add("nodes", len(result))
        rec.add("edges", sum(len(out) for out in result.edges.values()))

    def _solved(self, rec, args, result):
        rec.add("region", len(args[1]))

    def _checked(self, rec, args, result):
        rec.add("violations", len(result.violations))

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for rec in self.records:
                handle.write(json.dumps(rec.to_json()) + "\n")


def _outermost(records, names):
    """Records named in `names` with no ancestor also named in `names`."""
    out = []
    for rec in records:
        if rec.name not in names:
            continue
        parent = rec.parent
        while parent is not None and parent.name not in names:
            parent = parent.parent
        if parent is None:
            out.append(rec)
    return out


def layer_metrics(records: List[Record], jobs: int, overhead_s: float) -> dict:
    """Per-layer metrics of a traced run, as means per job unless noted."""
    by_name: Dict[str, List[Record]] = {}
    for rec in records:
        by_name.setdefault(rec.name, []).append(rec)

    def named(name):
        return by_name.get(name, [])

    def self_time(name):
        return sum(r.self_time() for r in named(name))

    def calls(name):
        return sum(r.calls for r in named(name))

    def summed(name, attr):
        return sum(r.get(attr) for r in named(name))

    def inclusive(name):
        return sum(r.busy for r in _outermost(records, {name}))

    per = 1.0 / max(jobs, 1)
    decide_calls = calls("scheduling.decide")
    expanded = sum(r.calls for r in named("semantics.step")
                   if r.parent.name == EXPLORE)
    # check_rsm calls made inside check_proof_rule belong to the rule check.
    rsm_alone = [r for r in _outermost(records, {"certificates.check_rsm",
                                                 "certificates.check_rule"})
                 if r.name == "certificates.check_rsm"]
    checks = rsm_alone + named("certificates.check_rule")
    metrics = {
        "cli.self_s": (self_time("job") * per, "s"),
        "syntax.parse_s": (inclusive("syntax.parse") * per, "s"),
        "syntax.parse_calls": (calls("syntax.parse") * per, "count"),
        "syntax.print_s": (inclusive("syntax.print") * per, "s"),
        "semantics.step_s": (self_time("semantics.step") * per, "s"),
        "semantics.step_calls": (calls("semantics.step") * per, "count"),
        "semantics.successors": (summed("semantics.step", "successors") * per, "count"),
        "scheduling.decide_s": (self_time("scheduling.decide") * per, "s"),
        "scheduling.decide_calls": (decide_calls * per, "count"),
        "scheduling.history_len_mean": (
            summed("scheduling.decide", "history_len") / decide_calls
            if decide_calls else 0.0, "count"),
        "scheduling.schedules": (summed("job", "schedules") * per, "count"),
        "exploration.explore_s": (self_time(EXPLORE) * per, "s"),
        "exploration.states_expanded": (expanded * per, "count"),
        "exploration.frontier_final": (summed(EXPLORE, "frontier") * per, "count"),
        "exploration.distinct_ratio": (
            summed(EXPLORE, "distinct") / expanded if expanded else 0.0, "ratio"),
        "exploration.graph_s": (self_time("exploration.graph") * per, "s"),
        "exploration.graph_nodes": (summed("exploration.graph", "nodes") * per, "count"),
        "exploration.graph_edges": (summed("exploration.graph", "edges") * per, "count"),
        "exploration.graph_dump_s": (inclusive("exploration.graph_dump") * per, "s"),
        "exploration.graph_load_s": (inclusive("exploration.graph_load") * per, "s"),
        "certificates.solve_s": (self_time("certificates.solve") * per, "s"),
        "certificates.solve_calls": (calls("certificates.solve") * per, "count"),
        "certificates.solve_region_max": (
            max((r.get("region") for r in named("certificates.solve")),
                default=0), "count"),
        "certificates.check_rsm_s": (sum(r.busy for r in rsm_alone) * per, "s"),
        "certificates.check_rule_s": (inclusive("certificates.check_rule") * per, "s"),
        "certificates.load_s": (inclusive("certificates.load") * per, "s"),
        "certificates.violations": (
            sum(r.get("violations") for r in checks) * per, "count"),
        "transforms.emit_s": (inclusive("transforms.emit") * per, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return metrics
