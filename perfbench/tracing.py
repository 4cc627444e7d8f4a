"""Tracing from outside the program: wrap the names the layers import.

Nothing inside `src/` knows it is traced.  `install` replaces the module
attributes through which one layer calls another (the `astep`, `gc_store`,
`compact_worklist` and `RPDSOracle` that `pdcfa.analyses` imported, the
`singleton_count` that `compute_metrics` calls, and the `skey` methods of
the domain classes) with wrappers that time each call.

Every spanned call pushes a frame on one stack.  When it returns, its
duration is added to its parent's child time, and its self time is its
duration minus its children's.  Calls at layer boundaries become spans
(name, start, end, parent span, cell, self), kept in memory and handed to
the driver at the end of the child.  `skey` runs millions of times per
cell, so it is aggregated per cell (calls, time of outermost calls)
rather than spanned.
"""
from __future__ import annotations

import time
from collections import Counter

_clock = time.perf_counter

SKEY = "abstract.skey"


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, cell, self_s]
        self.agg = {}          # cell -> {name: [calls, self_s]}
        self.counts = Counter()
        self._depth = {}
        self.begin_cell("setup")
        # frames are [child_s, span index]; the bottom frame never pops, so
        # a wrapper always has a parent (also in forked check processes)
        self.stack = [[0.0, None]]

    def begin_cell(self, cell):
        self.cell = cell
        self.cell_agg = self.agg.setdefault(cell, {})

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a span named `name`."""
        stack = self.stack
        parent = stack[-1]
        idx = len(self.spans)
        self.spans.append(None)
        frame = [0.0, idx]
        stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            dur = t1 - t0
            parent[0] += dur
            self.spans[idx] = [name, t0, t1, parent[1], self.cell,
                               dur - frame[0]]

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def wrap_aggregated(self, name, fn):
        """Time a hot, recursive, leaf method without a span per call.

        Only the outermost call of a nest is timed; nested calls are
        counted.  The method must not call any other wrapped name."""
        stack = self.stack
        depth = self._depth.setdefault(name, [0])  # shared by all methods

        def wrapper(obj):
            tot = self.cell_agg.setdefault(name, [0, 0.0])
            tot[0] += 1
            if depth[0]:
                return fn(obj)
            depth[0] = 1
            t0 = _clock()
            try:
                return fn(obj)
            finally:
                dur = _clock() - t0
                depth[0] = 0
                stack[-1][0] += dur
                tot[1] += dur
        return wrapper

    def dump(self):
        return {"spans": self.spans, "agg": self.agg,
                "counts": dict(self.counts)}


def install(tracer):
    """Wrap the layer boundaries of an imported pdcfa in `tracer`."""
    from pdcfa import abstract, analyses, metrics

    step = tracer.wrap("abstract.astep", analyses.astep)
    step_finite = tracer.wrap("abstract.astep", analyses.astep_finite)
    analyses.astep, analyses.astep_finite = step, step_finite

    real_gc_store = analyses.gc_store

    def gc_store(env, store, extra_roots=frozenset()):
        out = tracer.call("gc.gc_store", real_gc_store, env, store,
                          extra_roots)
        tracer.counts["gc.addrs_in"] += len(store.items)
        tracer.counts["gc.addrs_out"] += len(out.items)
        return out
    analyses.gc_store = gc_store

    real_worklist = analyses.compact_worklist

    def compact_worklist(oracle, deadline=None, node_limit=None):
        graph, ecg, sat = tracer.call("pushdown.compact_worklist",
                                      real_worklist, oracle, deadline,
                                      node_limit)
        tracer.counts["pushdown.final_edges"] += len(graph.edges)
        tracer.counts["pushdown.ecg_pairs"] += len(ecg.pairs)
        return graph, ecg, sat
    analyses.compact_worklist = compact_worklist

    real_oracle = analyses.RPDSOracle

    def counted(fn):
        def delta(*args):
            out = tracer.call("pushdown.oracle", fn, *args)
            tracer.counts["pushdown.transitions"] += len(out)
            return out
        return delta

    def oracle(root, top_delta, nop_delta):
        return real_oracle(root, counted(top_delta), counted(nop_delta))
    analyses.RPDSOracle = oracle

    metrics.singleton_count = tracer.wrap("metrics.singleton_count",
                                          metrics.singleton_count)

    for module in (abstract, analyses):
        for obj in vars(module).values():
            if isinstance(obj, type) and "skey" in vars(obj) \
                    and obj.__module__ == module.__name__:
                obj.skey = tracer.wrap_aggregated(SKEY, vars(obj)["skey"])
