"""End-to-end analysis drivers.

Six analyses over one normalized program:

- analyze_pdcfa:          per-state-store pushdown reachability
- analyze_gc_precise:     pushdown + abstract GC, root sets carried on nodes
- analyze_gc_approx:      pushdown + abstract GC with a per-node root cache
- analyze_pdcfa_widened:  single-threaded (widened) store, partial states
- analyze_finite:         store-allocated continuations (plain k-CFA baseline),
                          with or without GC

All reuse the abstract stepper; the pushdown ones embed it into an
RPDSOracle by running astep with an empty stack (push/ε transitions) or a
singleton stack (pop transitions), and run it on the one reachability
engine, pushdown.Worklist, which keeps path edges per entry and one-step
same-level summaries; their ε-closure graph is a view of those, built
only when read.  The widened and approximate-GC oracles read state that
grows while the engine runs (the global store, the root cache); they
re-step the nodes whose input grew and resume the engine.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .syntax import Exp, Let1
from .abstract import (AConf, AEnv, AStore, EMPTY_ENV, EMPTY_STORE, FState,
                       K_HALT, astep, astep_finite, finject, store_join,
                       _intern, _keyed)
from .gc import gc_store, touches
from .pushdown import (CHECK_EVERY, Push, Pop, UNCH, RPDSOracle, CRPDS, ECG,
                       Worklist, compact_worklist)


@dataclass(frozen=True, eq=False)
class ControlState:
    exp: Exp
    env: AEnv
    store: AStore
    ctx: tuple = ()

    @classmethod
    def make(cls, exp, env, store, ctx=()):
        return _intern(cls, (id(exp), env, store, ctx), exp, env, store, ctx)

    @_keyed
    def skey(self):
        return (self.exp.label, self.env.skey(), self.store.skey(), self.ctx)

    def __repr__(self):
        return f"q(e{self.exp.label})"


@dataclass(frozen=True, eq=False)
class PState:
    exp: Exp
    env: AEnv
    ctx: tuple = ()

    @classmethod
    def make(cls, exp, env, ctx=()):
        return _intern(cls, (id(exp), env, ctx), exp, env, ctx)

    @_keyed
    def skey(self):
        return (self.exp.label, self.env.skey(), self.ctx)

    def __repr__(self):
        return f"ψ(e{self.exp.label})"


def _roots_key(roots):
    return tuple(sorted(a.skey() for a in roots))


@dataclass(frozen=True, eq=False)
class OPState:
    state: ControlState
    roots: frozenset

    @classmethod
    def make(cls, state, roots):
        return _intern(cls, (state, roots), state, roots)

    @_keyed
    def skey(self):
        return (self.state.skey(), _roots_key(self.roots))

    def __repr__(self):
        return f"Ω(e{self.state.exp.label},|A|={len(self.roots)})"


def act_skey(act):
    if act is UNCH:
        return (0,)
    frame = act.frame
    if isinstance(frame, tuple):  # GC-precise stack character (frame, roots)
        fk = (frame[0].skey(), _roots_key(frame[1]))
    elif isinstance(frame, str):
        fk = (frame,)
    else:
        fk = frame.skey()
    return ((1,) if isinstance(act, Push) else (2,)) + fk


@dataclass
class AnalysisResult:
    kind: str
    policy: object
    gc_mode: bool
    graph: CRPDS
    ecg: Optional[ECG]
    exp: Exp
    saturated: bool = True
    global_store: Optional[AStore] = None
    root_cache: Optional[dict] = None
    guarded_edges: Optional[list] = None
    kstore: Optional[dict] = None
    extras: dict = field(default_factory=dict)

    @property
    def nodes(self):
        return list(self.graph.nodes)

    @property
    def edges(self):
        return list(self.graph.edges)

    def stores(self):
        """Every abstract store the analysis reached (for precision metrics)."""
        if self.kind == "pdcfa-widened":
            return [self.global_store]
        out = []
        for n in self.graph.nodes:
            if isinstance(n, OPState):
                out.append(n.state.store)
            else:
                out.append(n.store)
        return out


# ---------------------------------------------------------------------------
# per-state-store pushdown analysis


def _cs_of(c: AConf) -> ControlState:
    return ControlState.make(c.exp, c.env, c.store, c.ctx)


def analyze_pdcfa(e: Exp, policy, deadline=None, node_limit=None) -> AnalysisResult:
    root = ControlState.make(e, EMPTY_ENV, EMPTY_STORE, ())

    def nop_delta(q):
        c = AConf.make(q.exp, q.env, q.store, (), q.ctx)
        out = []
        for c2 in astep(c, policy):
            if c2.kont:
                out.append((_cs_of(c2), Push(c2.kont[0])))
            else:
                out.append((_cs_of(c2), UNCH))
        return out

    def top_delta(q, gamma):
        c = AConf.make(q.exp, q.env, q.store, (gamma,), q.ctx)
        out = []
        for c2 in astep(c, policy):
            if not c2.kont:
                out.append((_cs_of(c2), Pop(gamma)))
        return out

    oracle = RPDSOracle(root, top_delta, nop_delta)
    graph, ecg, sat = compact_worklist(oracle, deadline, node_limit)
    return AnalysisResult("pdcfa", policy, False, graph, ecg, e, sat)


# ---------------------------------------------------------------------------
# precise GC pushdown analysis


def analyze_gc_precise(e: Exp, policy, deadline=None, node_limit=None) -> AnalysisResult:
    """Pushdown + GC: nodes carry the stack-root set A; push edges extend A
    by the pushed frame's touches; the popped stack character carries the
    pusher's root set so pops restore it."""
    root = OPState.make(ControlState.make(e, EMPTY_ENV, EMPTY_STORE, ()),
                        frozenset())

    def _collected(om: OPState):
        q = om.state
        return gc_store(q.env, q.store, om.roots)

    def nop_delta(om):
        q = om.state
        c = AConf.make(q.exp, q.env, _collected(om), (), q.ctx)
        out = []
        for c2 in astep(c, policy):
            if c2.kont:
                fr = c2.kont[0]
                tgt = OPState.make(_cs_of(c2), om.roots | touches(fr))
                out.append((tgt, Push((fr, om.roots))))
            else:
                out.append((OPState.make(_cs_of(c2), om.roots), UNCH))
        return out

    def top_delta(om, gamma):
        fr, below = gamma
        q = om.state
        c = AConf.make(q.exp, q.env, _collected(om), (fr,), q.ctx)
        out = []
        for c2 in astep(c, policy):
            if not c2.kont:
                out.append((OPState.make(_cs_of(c2), below), Pop(gamma)))
        return out

    oracle = RPDSOracle(root, top_delta, nop_delta)
    graph, ecg, sat = compact_worklist(oracle, deadline, node_limit)
    return AnalysisResult("pdcfa-gc", policy, True, graph, ecg, e, sat)


# ---------------------------------------------------------------------------
# store-widened pushdown analysis


def _ps_of(c: AConf) -> PState:
    return PState.make(c.exp, c.env, c.ctx)


def analyze_pdcfa_widened(e: Exp, policy, deadline=None,
                          node_limit=None) -> AnalysisResult:
    """Least fixed point of the widened transfer function: a single global
    store and partial (exp, env) states.  The engine saturates under the
    current store; if the successor stores grew it, every node is
    re-stepped under the joined store and the engine resumes."""
    root = PState.make(e, EMPTY_ENV, ())
    store = EMPTY_STORE
    out_stores = {}  # successor stores reached under `store`

    def stepped(psi, kont):
        c = AConf.make(psi.exp, psi.env, store, kont, psi.ctx)
        return astep(c, policy)

    def nop_delta(psi):
        out = []
        for c2 in stepped(psi, ()):
            out_stores[c2.store] = None
            act = Push(c2.kont[0]) if c2.kont else UNCH
            out.append((_ps_of(c2), act))
        return out

    def top_delta(psi, fr):
        out = []
        for c2 in stepped(psi, (fr,)):
            if not c2.kont:
                out_stores[c2.store] = None
                out.append((_ps_of(c2), Pop(fr)))
        return out

    wl = Worklist(RPDSOracle(root, top_delta, nop_delta))
    while True:
        saturated = wl.run(deadline, node_limit)
        grown = store
        for s in out_stores:
            grown = store_join(grown, s)
        if not saturated or grown is store:
            break
        store = grown
        out_stores.clear()
        for psi in list(wl.graph.nodes):
            wl.restep(psi)
    return AnalysisResult("pdcfa-widened", policy, False, wl.graph, wl.ecg,
                          e, saturated, global_store=store)


# ---------------------------------------------------------------------------
# approximate GC pushdown analysis (per-node root cache)


def compute_root_cache(nodes, guarded_edges, hpairs) -> dict:
    """From-scratch least fixed point of the root-transfer equations:
    R(ψ) = ⋃ {touches(φ) ∪ R(ψ′) : ψ′ --φ+--> ψ} ∪ {R(ψ′) : (ψ′,ψ) ∈ H}.

    H may be the engine's one-step same-level pairs (ε edges and push…pop
    summaries) or their transitive closure, the ε-closure graph: R flows
    along both alike, so the least fixed point is the same."""
    R = {n: frozenset() for n in nodes}
    for (src, _g, act, dst) in guarded_edges:
        R.setdefault(src, frozenset())
        R.setdefault(dst, frozenset())
    for (a, b) in hpairs:
        R.setdefault(a, frozenset())
        R.setdefault(b, frozenset())
    changed = True
    while changed:
        changed = False
        for (src, _g, act, dst) in guarded_edges:
            if isinstance(act, Push):
                new = R[dst] | touches(act.frame) | R[src]
                if new != R[dst]:
                    R[dst] = new
                    changed = True
        for (a, b) in hpairs:
            new = R[b] | R[a]
            if new != R[b]:
                R[b] = new
                changed = True
    return R


def analyze_gc_approx(e: Exp, policy, deadline=None, node_limit=None,
                      snapshot_cb=None) -> AnalysisResult:
    """GC pushdown analysis over plain control states: each node caches an
    over-approximate root set R, the least solution of compute_root_cache's
    equations over what the engine has recorded so far (its edges and
    one-step same-level pairs).  Each edge records
    one guard, R of its source when the edge lands.  When R grows the node
    is re-stepped; its old successors and guards stay in the graph, and a
    guard below the final R is counted as stale."""
    root = ControlState.make(e, EMPTY_ENV, EMPTY_STORE, ())
    R = {}
    guards = {}  # edge -> R of its source when it landed
    push_out = {}  # src -> {(frame, dst): None}, the push half of root flow

    def roots(q):
        return R.get(q, frozenset())

    def stepped(q, kont):
        c = AConf.make(q.exp, q.env, gc_store(q.env, q.store, roots(q)),
                       kont, q.ctx)
        return astep(c, policy)

    def nop_delta(q):
        return [(_cs_of(c2), Push(c2.kont[0]) if c2.kont else UNCH)
                for c2 in stepped(q, ())]

    def top_delta(q, fr):
        return [(_cs_of(c2), Pop(fr)) for c2 in stepped(q, (fr,))
                if not c2.kont]

    def grow(q, addrs):
        """Monotone root flow along same-level steps and push edges; every
        node whose R grows is re-stepped."""
        work = deque()

        def flow(y, addrs):
            if not addrs <= roots(y):
                R[y] = roots(y) | addrs
                work.append(y)

        flow(q, addrs)
        while work:
            x = work.popleft()
            wl.restep(x)
            for y in wl.same.get(x, ()):
                flow(y, R[x])
            for fr, y in push_out.get(x, ()):
                flow(y, R[x] | touches(fr))

    def on_record(item):
        if len(item) == 2:  # same pair: the source's roots reach the target
            grow(item[1], roots(item[0]))
        else:
            src, act, dst = item
            guards[item] = roots(src)
            if isinstance(act, Push):
                push_out.setdefault(src, {})[(act.frame, dst)] = None
                grow(dst, roots(src) | touches(act.frame))
        if snapshot_cb is not None:
            snapshot_cb(guarded_edges(), same_pairs(), root_cache())

    def guarded_edges():
        return [(s, g, a, d) for (s, a, d), g in guards.items()]

    def same_pairs():
        return [(s, d) for s, ds in wl.same.items() for d in ds]

    def root_cache():
        return {q: roots(q) for q in (*wl.graph.nodes, *R)}

    wl = Worklist(RPDSOracle(root, top_delta, nop_delta), on_record)
    saturated = wl.run(deadline, node_limit)
    res = AnalysisResult("pdcfa-gc-approx", policy, True, wl.graph, wl.ecg,
                         e, saturated,
                         root_cache=root_cache(),
                         guarded_edges=guarded_edges())
    res.extras["stale_guards"] = sum(1 for (s, g, a, d) in res.guarded_edges
                                     if g != roots(s))
    return res


# ---------------------------------------------------------------------------
# finite baseline (plain k-CFA, optionally GC-composed)


def analyze_finite(e: Exp, policy, gc: bool = False, deadline=None,
                   node_limit=None) -> AnalysisResult:
    root = finject(e)
    graph = CRPDS(root)
    kstore = {}
    deps = {}  # kaddr -> {state: None}
    queue = deque([root])
    queued = {root}
    saturated = True
    ticks = 0
    while queue:
        ticks += 1
        if ticks % CHECK_EVERY == 0:
            if deadline is not None and time.monotonic() > deadline:
                saturated = False
                break
            if node_limit is not None and len(graph.nodes) > node_limit:
                saturated = False
                break
        st = queue.popleft()
        queued.discard(st)
        used_kas = {st.kaddr}
        stepped = st
        if gc:
            roots = set()
            work = [st.kaddr]
            while work:
                ka = work.pop()
                if ka is K_HALT:
                    continue
                for fr, ka2 in kstore.get(ka, ()):
                    roots |= touches(fr)
                    if ka2 not in used_kas:
                        used_kas.add(ka2)
                        work.append(ka2)
            store2 = gc_store(st.env, st.store, frozenset(roots))
            stepped = FState.make(st.exp, st.env, store2, st.ctx, st.kaddr)
        for ka in used_kas:
            deps.setdefault(ka, {})[st] = None
        grew_ka = None
        if isinstance(st.exp, Let1):
            before = {ka: len(v) for ka, v in kstore.items()}
        succs, _ = astep_finite(stepped, kstore, policy)
        if isinstance(st.exp, Let1):
            for ka, v in kstore.items():
                if len(v) != before.get(ka, 0):
                    grew_ka = ka
        for s2 in succs:
            if isinstance(st.exp, Let1):
                act = "push"
            elif s2.kaddr is not st.kaddr:
                act = "pop"
            else:
                act = "eps"
            new = s2 not in graph.nodes
            graph.add_edge((st, act, s2))
            if new and s2 not in queued:
                queued.add(s2)
                queue.append(s2)
        if grew_ka is not None:
            # a new continuation landed at grew_ka: every state whose pops or
            # (under GC) roots depended on it must be revisited
            for dep in list(deps.get(grew_ka, ())):
                if dep not in queued:
                    queued.add(dep)
                    queue.append(dep)
    kind = "plain-gc" if gc else "plain"
    return AnalysisResult(kind, policy, gc, graph, None, e, saturated,
                          kstore=kstore)
