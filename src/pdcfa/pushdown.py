"""Generic pushdown reachability via ε-closure graphs.

A rooted pushdown system is given intensionally by an RPDSOracle:
`nop_delta(q)` enumerates push/no-change transitions (no stack needed) and
`top_delta(q, γ)` enumerates the pop transitions enabled when γ is on top.
`compact_naive` explores (state, stack) configurations breadth-first within
bounds and serves as a test oracle; `compact_worklist` computes the same
compacted system and ε-closure graph with the sprout/addPush/addPop/addEmpty
worklist algorithm, processing ΔH before ΔE before ΔS.  That algorithm is
one resumable engine, `Worklist`, which every pushdown analysis runs: an
analysis whose transfer function grows between runs (widened store,
approximate GC roots) re-steps the affected nodes and resumes it.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Push:
    frame: object


@dataclass(frozen=True)
class Pop:
    frame: object


class _Unch:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unch"


UNCH = _Unch()


def net(actions):
    """Unique normal form: cancel adjacent Push(γ)·Pop(γ), drop Unch."""
    out = []
    for a in actions:
        if a is UNCH:
            continue
        if isinstance(a, Pop) and out and isinstance(out[-1], Push) \
                and out[-1].frame == a.frame:
            out.pop()
        else:
            out.append(a)
    return out


def stackify(actions):
    """The stack left by a push-only net form, top first; None otherwise."""
    n = net(actions)
    if any(isinstance(a, Pop) for a in n):
        return None
    return tuple(reversed([a.frame for a in n]))


@dataclass
class RPDSOracle:
    """Intensional rooted pushdown system.

    top_delta(q, γ) returns [(q', Pop(γ))...] — the pops enabled with γ on
    top; nop_delta(q) returns [(q', Push(γ') | UNCH)...].  Both must be
    repeatable, deterministic functions.
    """
    root: object
    top_delta: Callable
    nop_delta: Callable


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

    def has_edge(self, edge):
        return edge in self.edges

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


class ECG:
    """ε-closure graph: reflexive, transitive at fixpoint."""

    def __init__(self):
        self._fwd = {}
        self._bwd = {}
        self.pairs = {}

    def has(self, s, d):
        return (s, d) in self.pairs

    def add(self, s, d):
        if (s, d) in self.pairs:
            return False
        self.pairs[(s, d)] = None
        self._fwd.setdefault(s, {})[d] = None
        self._bwd.setdefault(d, {})[s] = None
        return True

    def fwd(self, q):
        return list(self._fwd.get(q, ()))

    def descendants(self, q):
        """ε-reachable states including q itself."""
        out = {q: None}
        out.update(self._fwd.get(q, {}))
        return list(out)

    def ancestors(self, q):
        out = {q: None}
        out.update(self._bwd.get(q, {}))
        return list(out)


# ---------------------------------------------------------------------------
# worklist algorithm


class Worklist:
    """The ε-closure-graph worklist (sprout/addPush/addPop/addEmpty) as a
    resumable engine; ΔH before ΔE before ΔS.

    `run` may be called again after it returns.  An oracle whose answers
    grow between runs (a larger store, a larger root set) tells the engine
    with `restep`.  `on_record(item)`, if given, is called once each ε
    pair (s, d) or edge (s, act, d) is recorded, before its pops are
    computed.  Limits are checked every `check_every` work items.
    """

    def __init__(self, oracle, on_record=None, check_every=256):
        self.oracle = oracle
        self.on_record = on_record
        self.check_every = check_every
        self.graph = CRPDS(oracle.root)
        self.ecg = ECG()
        self._dS, self._dE, self._dH = deque(), deque(), deque()
        self._queued_s, self._queued_e, self._queued_h = set(), set(), set()
        self._seen = set()  # states given a first sprout and (q, q)
        self._ticks = 0
        self._add_state(oracle.root)

    def _add_state(self, q):
        if q not in self._seen:
            self._seen.add(q)
            self.graph.add_node(q)
            self._enq_sprout(q)
            self._enq_pair((q, q))  # ε-closure graphs are reflexive

    def _enq_sprout(self, q):
        if q not in self._queued_s:
            self._queued_s.add(q)
            self._dS.append(q)

    def _enq_edge(self, e):
        if e not in self._queued_e and not self.graph.has_edge(e):
            self._queued_e.add(e)
            self._dE.append(e)

    def _enq_pair(self, p):
        if p not in self._queued_h and not self.ecg.has(*p):
            self._queued_h.add(p)
            self._dH.append(p)

    def _pops(self, src, gamma, q):
        """Pops of γ at q, for a push src --γ--> into an ε-ancestor of q."""
        for q2, act in self.oracle.top_delta(q, gamma):
            if isinstance(act, Pop) and act.frame == gamma:
                self._enq_edge((q, act, q2))
                self._enq_pair((src, q2))

    def restep(self, q):
        """q's transitions grew: sprout it again, and match it now against
        every frame pushed into its ε-ancestors."""
        self._enq_sprout(q)
        for s1 in self.ecg.ancestors(q):
            for src, gamma in self.graph.push_into(s1):
                self._pops(src, gamma, q)

    def run(self, deadline: Optional[float] = None,
            node_limit: Optional[int] = None) -> bool:
        """Work until every queue is empty (True) or a limit hits (False)."""
        graph, ecg, oracle = self.graph, self.ecg, self.oracle
        dS, dE, dH = self._dS, self._dE, self._dH
        while dH or dE or dS:
            self._ticks += 1
            if self._ticks % self.check_every == 0:
                if deadline is not None and time.monotonic() > deadline:
                    return False
                if node_limit is not None and len(graph.nodes) > node_limit:
                    return False
            if dH:  # addEmpty: transitive pairs, pops across the bridge
                p = dH.popleft()
                self._queued_h.discard(p)
                added = ecg.add(*p)
                assert added, f"duplicate ε pair {p}"
                if self.on_record is not None:
                    self.on_record(p)
                s2, s3 = p
                anc, desc = ecg.ancestors(s2), ecg.descendants(s3)
                for s1 in anc:
                    for src, gamma in graph.push_into(s1):
                        for s4 in desc:
                            self._pops(src, gamma, s4)
                for s1 in anc:
                    for s4 in desc:
                        self._enq_pair((s1, s4))
            elif dE:
                e = dE.popleft()
                self._queued_e.discard(e)
                added = graph.add_edge(e)
                assert added, f"duplicate edge {e}"
                if self.on_record is not None:
                    self.on_record(e)
                s, act, d = e
                if act is UNCH:
                    self._enq_pair((s, d))
                elif isinstance(act, Push):  # addPush
                    for q1 in ecg.descendants(d):
                        self._pops(s, act.frame, q1)
                else:  # addPop: close pairs through matching pushes
                    for s1 in ecg.ancestors(s):
                        for src, frame in graph.push_into(s1):
                            if frame == act.frame:
                                self._enq_pair((src, d))
                self._add_state(d)
            else:  # sprout: push/ε edges out of a state
                q = dS.popleft()
                self._queued_s.discard(q)
                for q2, act in oracle.nop_delta(q):
                    assert not isinstance(act, Pop), "nop_delta must not pop"
                    self._enq_edge((q, act, q2))
                    if act is UNCH:
                        self._enq_pair((q, q2))
        return True


def compact_worklist(oracle, deadline: Optional[float] = None,
                     node_limit: Optional[int] = None):
    """Fixed point of the ε-closure-graph worklist.

    Returns (CRPDS, ECG, saturated); saturated is False only when a limit
    aborted the loop.
    """
    wl = Worklist(oracle)
    saturated = wl.run(deadline, node_limit)
    return wl.graph, wl.ecg, saturated


# ---------------------------------------------------------------------------
# bounded configuration-space search (test oracle only)


def compact_naive(oracle, depth_bound: int, step_bound: int):
    """Explicit (state, stack) BFS from (root, ⟨⟩).

    Records traversed edges and all balanced (equal entry/exit stack) pairs.
    saturated=True only if no frontier was truncated and the step budget was
    not exhausted — in that case the result is exact.
    """
    root = oracle.root
    graph = CRPDS(root)
    ecg = ECG()
    saturated = True
    steps = 0

    def transitions(q, stack):
        out = list(oracle.nop_delta(q))
        if stack:
            for q2, act in oracle.top_delta(q, stack[0]):
                if isinstance(act, Pop) and act.frame == stack[0]:
                    out.append((q2, act))
        return out

    # main reachability BFS
    visited = {(root, ())}
    queue = deque(visited)
    while queue:
        steps += 1
        if steps > step_bound:
            saturated = False
            break
        q, stack = queue.popleft()
        for q2, act in transitions(q, stack):
            if isinstance(act, Push):
                if len(stack) >= depth_bound:
                    saturated = False
                    continue
                stack2 = (act.frame,) + stack
            elif isinstance(act, Pop):
                stack2 = stack[1:]
            else:
                stack2 = stack
            graph.add_edge((q, act, q2))
            if (q2, stack2) not in visited:
                visited.add((q2, stack2))
                queue.append((q2, stack2))

    # balanced pairs: from each reachable state, explore never-below paths
    for s in list(graph.nodes):
        sub_seen = {(s, ())}
        sub_q = deque(sub_seen)
        while sub_q:
            steps += 1
            if steps > step_bound:
                saturated = False
                break
            q, rel = sub_q.popleft()
            if not rel:
                ecg.add(s, q)
            for q2, act in transitions(q, rel):
                if isinstance(act, Push):
                    if len(rel) >= depth_bound:
                        saturated = False
                        continue
                    rel2 = (act.frame,) + rel
                elif isinstance(act, Pop):
                    rel2 = rel[1:]
                else:
                    rel2 = rel
                if (q2, rel2) not in sub_seen:
                    sub_seen.add((q2, rel2))
                    sub_q.append((q2, rel2))
    return graph, ecg, saturated
