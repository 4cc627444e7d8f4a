"""Generic pushdown reachability over a continuation store.

A rooted pushdown system is given intensionally by an RPDSOracle:
`nop_delta(q, e)` enumerates push/no-change transitions (no stack needed)
and `top_delta(q, γ, e)` enumerates the pop transitions enabled when γ is
on top; e is the entry q is stepped under.
`compact_worklist` computes the compacted system and ε-closure graph with
one resumable loop, `Worklist`, which every analysis runs.  The loop's
continuation allocator decides what a push enters, and so which analysis
it is (Gilray et al., "Pushdown Control-Flow Analysis for Free", POPL
2016; Johnson & Van Horn, "Abstracting Abstract Control", DLS 2014).  By
default a pushed frame is stored at its push target with its pusher and
the pusher's entry, so a return reaches exactly the frames pushed on the
way to its entry: the loop computes the same-level summaries that
pushdown reachability needs and nothing more.  A return-point allocator
stores the frame at an address of the frame itself, which every caller
of it shares: that is finite k-CFA, and no summaries are kept.  Work is
a FIFO of (state, entry) pairs, explored in the order the oracle
answers; nothing is sorted here.  The result is `graph.paths` plus
`graph.kstore` (see CRPDS); `ECG` reads the ε-closure, never stored,
from the one-step same-level relation.  An analysis whose transfer
function grows (widened store, an entry's root set under approximate
GC) re-steps the affected (state, entry) pairs, and the loop works them
in.
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

    top_delta(q, γ, e) returns [(q', Pop(γ))...] — the pops enabled with γ
    on top; nop_delta(q, e) returns [(q', Push(γ') | UNCH)...].  e is the
    entry q is stepped under; only approximate GC reads it.  Both must be
    repeatable, deterministic functions.  An oracle that interns its nodes
    sets `nodes` to its node table, a dict that maps each node to itself:
    the loop fills that dict as `graph.nodes`, so a run keeps one node set.
    """
    nodes = None

    def __init__(self, root, top_delta, nop_delta):
        self.root, self.top_delta, self.nop_delta = root, top_delta, nop_delta


class CRPDS:
    """Compacted rooted pushdown system: nodes (a dict mapping each node
    to itself, in the order found), edges and the two relations Worklist
    fills, the states stepped under each entry (paths) and the callers
    stored at each (kstore).  q is reached with top-first frames
    γ1…γn when one of its entries is the root's (n = 0) or stores under
    γ1 a caller whose entry is reached with γ2…γn."""

    def __init__(self, root, root_entry, nodes=None):
        self.root, self.root_entry = root, root_entry
        self.nodes = {} if nodes is None else nodes
        self.nodes[root] = root
        self.edges = {}  # (src, act, dst) -> None
        self.paths = {root_entry: {}}  # entry -> {q stepped under it: None}
        # entry -> {γ: {(pusher or None, pusher's entry): None}}
        self.kstore = {}

    def add_edge(self, edge):
        """Record edge (src, act, dst) and, if they are new, its nodes."""
        self.edges[edge] = None
        src, _, dst = edge
        self.nodes[src] = src
        self.nodes[dst] = dst


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
        """len(self.pairs), one closure at a time, over integer ids: the
        nodes are numbered once so that no step hashes a state."""
        ids = {q: i for i, q in enumerate(self._nodes)}
        n = len(ids)
        succ = {ids.setdefault(s, len(ids)):
                [ids.setdefault(d, len(ids)) for d in ds]
                for s, ds in self._same.items()}
        succ = [succ.get(i, ()) for i in range(len(ids))]
        seen = [-1] * len(ids)  # seen[d] == s: d is in s's closure
        count = n
        for s in range(n):
            seen[s] = s
            stack = [s]
            while stack:
                for d in succ[stack.pop()]:
                    if seen[d] != s:
                        seen[d] = s
                        stack.append(d)
                        count += 1
        return count

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

    An *entry* is the root's or what a push enters.  The work list is a
    FIFO of (state, entry) pairs.  Stepping q under e records q in
    `graph.paths[e]`, pops q against every frame stored at e, and follows
    q's moves: an ε edge reaches its target under e, and a push
    q --γ--> t stores the caller (q, e) under γ at the entry t enters,
    which t is stepped under.  A new caller pops the states already under
    that entry.  A pop x --pop γ--> r for a caller (p, pe) adds the
    summary p → r to `same` and reaches r under pe.  So `same[q]` holds
    q's ε successors and its push…pop summaries, and `ecg` is their
    closure, built only when read.

    `enters` is the continuation allocator.  None: a push enters its
    target, and the root is its own entry (pushdown).  Otherwise a push
    into t, and the root, enter enters(t): a return point that every
    caller of the frame shares (finite k-CFA).  A caller is then stored
    as (None, its entry), since γ names what it returns to, and no `same`
    pairs are kept: a summary through a shared return point would join
    callers that no stack joins, so `ecg` is None.

    `run` may be called again after it returns.  An oracle whose answers
    grow (a larger store or root set) tells the loop with `restep`,
    between runs or from inside a call.  The node limit is checked before
    every step, the deadline every CHECK_EVERY steps.
    """

    def __init__(self, oracle, enters=None):
        self.oracle, self._enters = oracle, enters
        root = oracle.root
        entry = root if enters is None else enters(root)
        self.graph = CRPDS(root, entry, oracle.nodes)
        self.same = {} if enters is None else None  # q -> {q2: None}
        self._work = deque([(root, entry)])

    @property
    def ecg(self):
        """The ε-closure graph of what has been found so far."""
        return None if self.same is None else ECG(self.graph.nodes, self.same)

    def _step(self, q, e):
        """q under entry e, unless it already was: its pops of the frames
        stored at e, then its moves."""
        path = self.graph.paths[e]
        if q in path:
            return
        path[q] = None
        for gamma, callers in self.graph.kstore.get(e, {}).items():
            self._pop(q, gamma, callers, e)
        record, work, same = self.graph.add_edge, self._work, self.same
        for q2, act in self.oracle.nop_delta(q, e):
            record((q, act, q2))
            if type(act) is Push:
                self._push(q, act.frame, e, q2)
                continue
            if same is not None:
                self._same(q, q2)
            if q2 not in path:
                work.append((q2, e))

    def _push(self, q, gamma, e, t):
        """Store the frame q pushed under e at the entry t enters; a new
        caller pops the states already there."""
        if self._enters is None:
            entry, caller = t, (q, e)
        else:
            entry, caller = self._enters(t), (None, e)
        kstore, paths = self.graph.kstore, self.graph.paths
        frames = kstore.get(entry)
        if frames is None:
            frames = kstore[entry] = {}
        callers = frames.get(gamma)
        if callers is None:
            callers = frames[gamma] = {}
        path = paths.get(entry)
        if caller not in callers:
            callers[caller] = None
            for x in list(path or ()):
                self._pop(x, gamma, (caller,), entry)
        if path is None:
            paths[entry] = {}
            self._work.append((t, entry))
        elif entry is not t and t not in path:  # a return point's new state
            self._work.append((t, entry))

    def _pop(self, x, gamma, callers, e):
        """x's pops of γ, stepped under e, for each (pusher, pusher's
        entry) in callers: a return is a summary of the pusher, reached
        under its entry."""
        paths, work, same = self.graph.paths, self._work, self.same
        for r, act in self.oracle.top_delta(x, gamma, e):
            for p, pe in callers:
                if same is not None:
                    self._same(p, r)
                if r not in paths[pe]:
                    work.append((r, pe))
            self.graph.add_edge((x, act, r))

    def _same(self, s, d):
        succ = self.same.get(s)
        if succ is None:
            succ = self.same[s] = {}
        succ[d] = None

    def restep(self, q, e):
        """q's transitions under entry e grew: step it again under e."""
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
