"""Spans around the public functions of each optibase module, recorded
from outside the package by replacing the attributes that callers look up.

A span is (name, start, end, parent, operation id).  Spans are kept in
flat arrays while the run lasts and written out once it ends.  The layer
of a span is the part of its name before the first dot; a layer's self
time is the time its spans cover minus the time covered by their child
spans, so the self times of all layers add up to the operation spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, class or None, attribute, span name): the attributes callers
# look up.  The benchmark, not the package, decides what is traced.
TRACED = (
    ("optibase", None, "find_base", "search.find_base"),
    ("optibase.encoder", None, "find_base", "search.find_base"),
    ("optibase.encoder", None, "cost_of", "cost.cost_of"),
    ("optibase.cost", "BaseEval", "extend", "cost.extend"),
    ("optibase.cost", "BaseEval", "child_metrics", "cost.child_metrics"),
    ("optibase.cli", None, "load_instance", "opb.load_instance"),
    ("optibase.cli", None, "encode_instance", "encoder.encode_instance"),
    ("optibase.cli", None, "to_dimacs", "encoder.to_dimacs"),
    ("optibase.encoder", None, "encode_constraint", "encoder.encode_constraint"),
    ("optibase.encoder", None, "sorting_network", "encoder.sorting_network"),
    ("optibase.encoder", None, "normalizer", "encoder.normalizer"),
    ("optibase.satcheck", "Solver", "__init__", "satcheck.build"),
    ("optibase.satcheck", "Solver", "solve", "satcheck.solve"),
)

LAYERS = ("opb", "search", "cost", "encoder", "satcheck", "cli", "bench")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        # counts taken from arguments and results at the span boundary
        self.counts = defaultdict(int)
        self.search_results: list = []
        self.instances: list = []
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def _close(self) -> None:
        t = time.perf_counter()
        idx, children = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        name = self.names[self.name[idx]]
        self.total[name] += dur
        self.self_time[name] += dur - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def operation(self, op_id: int, name: str, fn, *args):
        """Run one benchmark operation as a root span."""
        self.op_id = op_id
        self._open(self._id(name))
        try:
            return fn(*args)
        finally:
            self._close()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = _BEFORE[name](args) if name in _BEFORE else None
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                tracer.counts[f"{name}.raised.{type(e).__name__}"] += 1
                raise
            finally:
                tracer._close()
            if after is not None:
                after(tracer, args, result, before)
            return result

        return traced

    def install(self) -> None:
        for module, cls, attr, name in TRACED:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32))


def _child_metrics_after(tr, args, result, before):
    tr.counts["cost.children_evaluated"] += len(args[1])


def _find_base_after(tr, args, result, before):
    tr.search_results.append(result)


def _load_after(tr, args, result, before):
    tr.instances.append(result)


def _emit_before(args):
    bld = args[2]
    return len(bld.clauses), bld.comparators


def _emit_after(tr, args, result, before):
    bld = args[2]
    tr.counts["encoder.clauses"] += len(bld.clauses) - before[0]
    tr.counts["encoder.comparators"] += bld.comparators - before[1]


def _dimacs_after(tr, args, result, before):
    tr.counts["encoder.dimacs_bytes"] += len(result)


_BEFORE = {"encoder.encode_constraint": _emit_before}
_AFTER = {
    "cost.child_metrics": _child_metrics_after,
    "search.find_base": _find_base_after,
    "opb.load_instance": _load_after,
    "encoder.encode_constraint": _emit_after,
    "encoder.to_dimacs": _dimacs_after,
}


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  A layer that did no work in
    the pass reports 0 for its counts, times and rates."""
    m: dict[str, float] = {}
    layer_self = defaultdict(float)
    for name, s in tr.self_time.items():
        layer_self[name.split(".")[0]] += s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    repeats = outs = 0
    for inst in tr.instances:
        seen = set()
        for pc in inst.constraints:
            key = tuple(sorted(c for c, _ in pc.terms))
            repeats += key in seen
            seen.add(key)
        outs += len(inst.constraints)
    m["opb.load_s"] = tr.total["opb.load_instance"]
    m["opb.constraints_out"] = outs
    m["opb.repeat_multiset_share"] = _per(repeats, outs)

    res = tr.search_results
    expanded = sum(r.nodes_expanded for r in res)
    m["search.calls"] = tr.calls["search.find_base"]
    m["search.s"] = tr.total["search.find_base"]
    m["search.nodes_expanded"] = expanded
    m["search.nodes_pruned"] = sum(r.nodes_pruned for r in res)
    m["search.us_per_expansion"] = _per(m["search.s"], expanded, 1e6)
    m["search.timeouts"] = sum(r.timed_out for r in res)
    m["search.optimal_guaranteed_share"] = _per(sum(r.optimal_guaranteed for r in res), len(res))

    m["cost.child_metrics_calls"] = tr.calls["cost.child_metrics"]
    m["cost.child_metrics_s"] = tr.total["cost.child_metrics"]
    m["cost.children_evaluated"] = tr.counts["cost.children_evaluated"]
    m["cost.extend_calls"] = tr.calls["cost.extend"]
    m["cost.extend_s"] = tr.total["cost.extend"]
    m["cost.useful_ratio"] = _per(expanded, m["cost.extend_calls"])
    m["cost.cost_of_s"] = tr.total["cost.cost_of"]

    m["encoder.encode_constraint_s"] = tr.total["encoder.encode_constraint"]
    m["encoder.sorting_network_s"] = tr.total["encoder.sorting_network"]
    m["encoder.normalizer_s"] = tr.total["encoder.normalizer"]
    m["encoder.comparators"] = tr.counts["encoder.comparators"]
    m["encoder.clauses"] = tr.counts["encoder.clauses"]
    m["encoder.clauses_per_s"] = _per(m["encoder.clauses"], m["encoder.encode_constraint_s"])
    m["encoder.dimacs_s"] = tr.total["encoder.to_dimacs"]
    m["encoder.dimacs_bytes"] = tr.counts["encoder.dimacs_bytes"]
    m["encoder.dimacs_mb_per_s"] = _per(m["encoder.dimacs_bytes"], m["encoder.dimacs_s"], 1e-6)

    m["satcheck.build_s"] = tr.total["satcheck.build"]
    m["satcheck.solve_calls"] = tr.calls["satcheck.solve"]
    m["satcheck.solve_s"] = tr.total["satcheck.solve"]
    m["satcheck.us_per_solve"] = _per(m["satcheck.solve_s"], m["satcheck.solve_calls"], 1e6)
    m["satcheck.budget_exceeded"] = tr.counts["satcheck.solve.raised.SolverBudgetExceeded"]
    return m
