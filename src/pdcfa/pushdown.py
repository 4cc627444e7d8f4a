"""Generic pushdown reachability over a continuation store.

A rooted pushdown system is given intensionally by an RPDSOracle:
`nop_delta(q)` enumerates push/no-change transitions (no stack needed) and
`top_delta(q, γ)` enumerates the pop transitions enabled when γ is on top.
`compact_worklist` computes the compacted system and ε-closure graph with
one resumable loop, `Worklist`, which every analysis runs.  As in the AAC
and P4F machines (Johnson & Van Horn, DLS 2014; Gilray et al., POPL 2016),
each pushed frame is stored at its push target with its pusher and the
pusher's entry, so a return reaches exactly the frames pushed on the way
to its entry: the loop computes the same-level summaries that pushdown
reachability needs and nothing more.  Work is a FIFO of (state, entry)
pairs, explored in the order the oracle answers; nothing is sorted here.
The result is `graph.paths` plus `graph.kstore` (see CRPDS); `ECG` reads
the ε-closure, never stored, from the one-step same-level relation.  An
analysis whose transfer function grows (widened store, approximate GC
roots, the finite baselines' continuation store) re-steps the affected
states, and the loop works them in.
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
    """Compacted rooted pushdown system: nodes, edges and the two relations
    Worklist fills, the states stepped under each entry (paths) and the
    callers stored at each (kstore).  q is reached with top-first frames
    γ1…γn when one of its entries is the root (n = 0) or stores under γ1
    a caller whose entry is reached with γ2…γn."""

    def __init__(self, root):
        self.root = root
        self.nodes = {root: None}  # insertion-ordered set
        self.edges = {}  # (src, act, dst) -> None
        self.paths = {root: {}}  # entry -> {q stepped under it: None}
        self.kstore = {}  # entry -> {γ: {(pusher, pusher's entry): None}}

    def add_edge(self, edge):
        """Record edge (src, act, dst) and, if they are new, its nodes."""
        self.edges[edge] = None
        self.nodes[edge[0]] = self.nodes[edge[2]] = None


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
    `pair_count` counts the closure without storing it, and `pairs`
    materializes it.
    """

    def __init__(self, nodes, same):
        self._nodes, self._same = nodes, same

    def pair_count(self):
        """len(self.pairs), one closure at a time."""
        return sum(len(_closure(s, self._same)) for s in self._nodes)

    @property
    def pairs(self):
        return {(s, d): None for s in self._nodes
                for d in _closure(s, self._same)}


# ---------------------------------------------------------------------------
# worklist algorithm

CHECK_EVERY = 64  # steps between deadline checks


class Worklist:
    """Pushdown reachability over a continuation store, as a resumable
    loop.

    An *entry* is the root or the target of a push edge.  The work list is
    a FIFO of (state, entry) pairs.  Stepping q under e records q in
    `graph.paths[e]`, pops q against every frame stored at e, and follows
    q's moves: an ε or tagged edge reaches its target under e, and a push
    q --γ--> t stores the caller (q, e) under γ at t in `graph.kstore`.
    A new caller pops the states already at t, and t is stepped under
    itself when it first becomes an entry.  A pop x --pop γ--> r for a
    caller (p, pe) adds the summary p → r to `same` and reaches r under
    pe.  So `same[q]` holds q's ε successors and its push…pop summaries,
    and `ecg` is their closure, built only when read.

    `run` may be called again after it returns.  An oracle whose answers
    grow (a larger store, root set or continuation store) tells the loop
    with `restep`, between runs or from inside a call; only states also
    stepped under a non-root entry are indexed for it.  `on_record(item)`,
    if given, is called once each same pair (s, d) or edge (s, act, d) is
    recorded, before its consequences are worked out.  The node limit is
    checked before every step, the deadline every CHECK_EVERY steps.
    """

    def __init__(self, oracle, on_record=None):
        self.oracle = oracle
        self.on_record = on_record
        self.graph = CRPDS(oracle.root)
        self.same = {}  # q -> {q2: None}
        self._entries = {}  # q -> its entry, or {entry: None} if several
        self._work = deque([(oracle.root, oracle.root)])

    @property
    def ecg(self):
        """The ε-closure graph of what has been found so far."""
        return ECG(self.graph.nodes, self.same)

    def _step(self, q, e):
        """q under entry e, unless it already was: its pops of the frames
        stored at e, then its moves."""
        path = self.graph.paths[e]
        if q in path:
            return
        path[q] = None
        root = self.graph.root
        if e is not root or q in self._entries:  # the index restep reads
            had = self._entries.setdefault(
                q, root if q in self.graph.paths[root] else e)
            if type(had) is dict:
                had[e] = None
            elif had is not e:
                self._entries[q] = {had: None, e: None}
        for gamma, callers in self.graph.kstore.get(e, {}).items():
            self._pop(q, gamma, callers)
        record, work = self._record, self._work
        for q2, act in self.oracle.nop_delta(q):
            if type(act) is Push:
                record(q, act, q2)
                self._push(q, act.frame, e, q2)
                continue
            if act is UNCH:
                self._same(q, q2)
            record(q, act, q2)
            if q2 not in path:
                work.append((q2, e))

    def _push(self, q, gamma, e, t):
        """Store the frame q pushed under e at t; a new caller pops the
        states already there."""
        kstore = self.graph.kstore
        frames = kstore.get(t)
        if frames is None:
            frames = kstore[t] = {}
        callers = frames.get(gamma)
        if callers is None:
            callers = frames[gamma] = {}
        if (q, e) in callers:
            return
        callers[q, e] = None
        if t in self.graph.paths:
            for x in list(self.graph.paths[t]):
                self._pop(x, gamma, ((q, e),))
        else:
            self.graph.paths[t] = {}
            self._work.append((t, t))

    def _pop(self, x, gamma, callers):
        """x's pops of γ for each (pusher, pusher's entry) in callers: a
        return is a summary of the pusher, reached under its entry."""
        paths, work = self.graph.paths, self._work
        for r, act in self.oracle.top_delta(x, gamma):
            for p, pe in callers:
                self._same(p, r)
                if r not in paths[pe]:
                    work.append((r, pe))
            self._record(x, act, r)

    def _same(self, s, d):
        succ = self.same.get(s)
        if succ is None:
            succ = self.same[s] = {}
        if d not in succ:
            succ[d] = None
            if self.on_record is not None:
                self.on_record((s, d))

    def _record(self, s, act, d):
        edge = (s, act, d)
        if edge not in self.graph.edges:
            self.graph.add_edge(edge)
            if self.on_record is not None:
                self.on_record(edge)

    def restep(self, q):
        """q's transitions grew: step it again under every entry it was
        stepped under (the root alone, if it is not indexed)."""
        es = self._entries.get(q, self.graph.root)
        for e in es if type(es) is dict else (es,):
            if self.graph.paths[e].pop(q, 0) is None:  # not already waiting
                self._work.append((q, e))

    def run(self, deadline: float | None = None,
            node_limit: int | None = None) -> bool:
        """Work until the work list is empty (True) or a limit hits
        (False)."""
        work, nodes, step = self._work, self.graph.nodes, self._step
        ticks = 0
        while work:
            if node_limit is not None and len(nodes) > node_limit:
                return False
            ticks += 1
            if (deadline is not None and ticks % CHECK_EVERY == 0
                    and time.monotonic() > deadline):
                return False
            step(*work.popleft())
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
