"""Generic pushdown reachability by entry-relative summaries.

A rooted pushdown system is given intensionally by an RPDSOracle:
`nop_delta(q)` enumerates push/no-change transitions (no stack needed) and
`top_delta(q, γ)` enumerates the pop transitions enabled when γ is on top.
`compact_worklist` computes the compacted system and ε-closure graph with
one resumable engine, `Worklist`, which every analysis runs:
RHS-style tabulation that keeps path edges (entry, q) from the root and
each push target, and the one-step same-level relation `same` (ε edges
plus push…pop summaries).
The reflexive-transitive ε-closure is never stored; `ECG` reads it from
`same` when a caller asks.  An analysis whose transfer function grows
(widened store, approximate GC roots, the finite baselines' continuation
store) re-steps the affected nodes, and the engine works them in.
"""
from __future__ import annotations

import time
from collections import deque

from .frozen import Frozen, setfield


class _Act(Frozen):
    """A stack action: a value, but Push(γ) and Pop(γ) are never equal."""

    def __init__(self, frame):
        setfield(self, "frame", frame)

    # not a Record: every edge-set lookup hashes an act, and this is faster
    def __eq__(self, other):
        return type(other) is type(self) and self.frame == other.frame

    def __hash__(self):
        return hash(self.frame)


class Push(_Act):
    pass


class Pop(_Act):
    pass


class _Unch(Frozen):
    def __repr__(self):
        return "Unch"


UNCH = _Unch()


class RPDSOracle:
    """Intensional rooted pushdown system.

    top_delta(q, γ) returns [(q', Pop(γ))...] — the pops enabled with γ on
    top; nop_delta(q) returns [(q', Push(γ') | UNCH)...].  Both must be
    repeatable, deterministic functions.
    """

    def __init__(self, root, top_delta, nop_delta):
        self.root, self.top_delta, self.nop_delta = root, top_delta, nop_delta


class CRPDS:
    """Compacted rooted pushdown system: explicit nodes and edges."""

    def __init__(self, root):
        self.root = root
        self.nodes = {root: None}  # insertion-ordered set
        self.edges = {}  # (src, act, dst) -> None
        self._push_into = {}  # q2 -> {(src, frame): None}

    def add_node(self, q):
        if q in self.nodes:
            return False
        self.nodes[q] = None
        return True

    def add_edge(self, edge):
        if edge in self.edges:
            return False
        s, act, d = edge
        self.edges[edge] = None
        self.add_node(s)
        self.add_node(d)
        if isinstance(act, Push):
            self._push_into.setdefault(d, {})[(s, act.frame)] = None
        return True

    def push_into(self, q):
        """All (src, frame) with an edge src --Push(frame)--> q."""
        return list(self._push_into.get(q, ()))


def _closure(q, step):
    """q and every state reachable from it through `step` (q -> {q2})."""
    seen = {q: None}
    stack = [q]
    while stack:
        for d in step.get(stack.pop(), ()):
            if d not in seen:
                seen[d] = None
                stack.append(d)
    return seen


class ECG:
    """ε-closure graph, read on demand from a one-step same-level relation.

    `same[q]` holds the states one same-level step after q.  (s, d) is a
    pair when s is a node and d is reachable from s in zero or more
    `same` steps; at the engine's fixpoint that is the reflexive,
    transitive ε-closure.  Nothing is built until a caller asks:
    `ancestors`/`has` search from one state (and keep what
    they found), `pair_count` counts the closure without storing it, and
    only `pairs` materializes it.
    """

    def __init__(self, nodes, same):
        self._nodes, self._same = nodes, same
        self._desc, self._anc, self._pred = {}, {}, None

    def _from(self, q):
        if q not in self._desc:
            self._desc[q] = _closure(q, self._same)
        return self._desc[q]

    def has(self, s, d):
        return s in self._nodes and d in self._from(s)

    def ancestors(self, q):
        if self._pred is None:
            self._pred = {}
            for s, ds in self._same.items():
                for d in ds:
                    self._pred.setdefault(d, {})[s] = None
        if q not in self._anc:
            self._anc[q] = [s for s in _closure(q, self._pred)
                            if s in self._nodes]
        return list(self._anc[q])

    def pair_count(self):
        """len(self.pairs), one closure at a time."""
        return sum(len(_closure(s, self._same)) for s in self._nodes)

    @property
    def pairs(self):
        return {(s, d): None for s in self._nodes
                for d in _closure(s, self._same)}


# ---------------------------------------------------------------------------
# worklist algorithm

CHECK_EVERY = 64  # work items between deadline / node-limit checks


class Worklist:
    """Pushdown reachability by entry-relative summaries (RHS tabulation),
    as a resumable worklist engine.

    An *entry* is the root or the target of a push edge.  The engine keeps
    - `paths[e]`: the states same-level reachable from entry e (its path
      edges), and the reverse index `entries_of[q]`;
    - `same[q]`: the one-step same-level successors of q: its ε edges, and
      a summary src → r for each push src --γ--> e, path (e, x) and pop
      x --pop γ--> r;
    - the graph's `push_into`.
    Each pop is tried once per path edge (e, x) and push into e, so the
    work grows with the path edges, not with the ε-closure; `ecg` is the
    closure as a view of `same`, built only when read.

    Work is taken ΔH (same pairs) before ΔE (edges) before ΔS (sprouts);
    a new path edge is followed at once through `same`.  `run` may be
    called again after it returns.  An oracle whose answers grow (a larger
    store, root set or continuation store) tells the engine with
    `restep`, between runs or from inside a call.  `on_record(item)`, if
    given, is called once each same pair (s, d) or edge (s, act, d) is
    recorded, before its consequences are worked out.  Limits are checked
    every CHECK_EVERY work items.
    """

    def __init__(self, oracle, on_record=None):
        self.oracle = oracle
        self.on_record = on_record
        self.graph = CRPDS(oracle.root)
        self.paths = {}  # entry -> {q: None}
        self.entries_of = {}  # q -> {entry: None}
        self.same = {}  # q -> {q2: None}
        self._dS, self._dE, self._dH = deque(), deque(), deque()
        self._queued_s, self._queued_e, self._queued_h = set(), set(), set()
        self._ticks = 0
        self._enq_sprout(oracle.root)
        self._enter(oracle.root)

    @property
    def ecg(self):
        """The ε-closure graph of what has been found so far."""
        return ECG(self.graph.nodes, self.same)

    def _enq_sprout(self, q):
        if q not in self._queued_s:
            self._queued_s.add(q)
            self._dS.append(q)

    def _enq_edge(self, e):
        if e not in self._queued_e and e not in self.graph.edges:
            self._queued_e.add(e)
            self._dE.append(e)

    def _enq_same(self, p):
        if p not in self._queued_h and p[1] not in self.same.get(p[0], ()):
            self._queued_h.add(p)
            self._dH.append(p)

    def _enter(self, e):
        """Make e an entry; False if it already was one."""
        if e in self.paths:
            return False
        self.paths[e] = {}
        self._reach(e, e)
        return True

    def _reach(self, e, q):
        """Path edge (e, q) and every path edge after it through `same`;
        each new one matches its state against the pushes into e."""
        path = self.paths[e]
        pushes = self.graph.push_into(e)
        stack = [q]
        while stack:
            x = stack.pop()
            if x in path:
                continue
            path[x] = None
            self.entries_of.setdefault(x, {})[e] = None
            for src, gamma in pushes:
                self._pops(src, gamma, x)
            stack.extend(self.same.get(x, ()))

    def _pops(self, src, gamma, q):
        """Pops of γ at q, for a push src --γ--> into an entry of q."""
        for q2, act in self.oracle.top_delta(q, gamma):
            if isinstance(act, Pop) and act.frame == gamma:
                self._enq_edge((q, act, q2))
                self._enq_same((src, q2))

    def restep(self, q):
        """q's transitions grew: sprout it again, and match it now against
        every frame pushed into its entries."""
        self._enq_sprout(q)
        for e in self.entries_of.get(q, ()):
            for src, gamma in self.graph.push_into(e):
                self._pops(src, gamma, q)

    def run(self, deadline: float | None = None,
            node_limit: int | None = None) -> bool:
        """Work until every queue is empty (True) or a limit hits (False)."""
        graph, oracle = self.graph, self.oracle
        dS, dE, dH = self._dS, self._dE, self._dH
        while dH or dE or dS:
            self._ticks += 1
            if self._ticks % CHECK_EVERY == 0:
                if deadline is not None and time.monotonic() > deadline:
                    return False
                if node_limit is not None and len(graph.nodes) > node_limit:
                    return False
            if dH:  # a same-level step s → d extends every path through s
                p = dH.popleft()
                self._queued_h.discard(p)
                s, d = p
                succ = self.same.setdefault(s, {})
                assert d not in succ, f"duplicate same pair {p}"
                succ[d] = None
                if self.on_record is not None:
                    self.on_record(p)
                for e in list(self.entries_of.get(s, ())):
                    self._reach(e, d)
            elif dE:
                e = dE.popleft()
                self._queued_e.discard(e)
                s, act, d = e
                new = d not in graph.nodes
                added = graph.add_edge(e)
                assert added, f"duplicate edge {e}"
                if self.on_record is not None:
                    self.on_record(e)
                # an ε edge's same pair was queued, and so recorded, first
                if isinstance(act, Push) and not self._enter(d):
                    for x in list(self.paths[d]):  # a new caller of d
                        self._pops(s, act.frame, x)
                if new:
                    self._enq_sprout(d)
            else:  # sprout: push/ε edges out of a state
                q = dS.popleft()
                self._queued_s.discard(q)
                for q2, act in oracle.nop_delta(q):
                    assert not isinstance(act, Pop), "nop_delta must not pop"
                    self._enq_edge((q, act, q2))
                    if act is UNCH:
                        self._enq_same((q, q2))
        return True


def compact_worklist(oracle, deadline: float | None = None,
                     node_limit: int | None = None):
    """Fixed point of the reachability engine.

    Returns (CRPDS, ECG, saturated); saturated is False only when a limit
    aborted the loop.
    """
    wl = Worklist(oracle)
    saturated = wl.run(deadline, node_limit)
    return wl.graph, wl.ecg, saturated
