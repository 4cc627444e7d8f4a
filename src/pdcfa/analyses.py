"""End-to-end analysis drivers.

Six analyses over one normalized program:

- analyze_pdcfa:          per-state-store pushdown reachability
- analyze_gc_precise:     pushdown + abstract GC, root sets carried on nodes
- analyze_gc_approx:      pushdown + abstract GC with a per-node root cache
- analyze_pdcfa_widened:  single-threaded (widened) store, partial states
- analyze_finite:         store-allocated continuations (plain k-CFA baseline),
                          with or without GC

Every node is one State(exp, env, store, ctx, kaddr, roots), the machine
state of AAC (Johnson & Van Horn, "Abstracting Abstract Control", DLS
2014) plus a stack-root set.  An analysis leaves the parts it does not
use None on all its nodes: pdcfa-widened has no store, only the finite
baselines have a continuation address and only pdcfa-gc has roots.
Nothing here orders nodes: metrics alone defines that order.

No two analyses share a node, so each run interns its nodes in a table
of its own (_node_table) and leaves no reference cycle: its nodes go
with its result.  Domain objects, and their memos, stay process-wide.

All run the one transfer function, abstract.astep, which leaves the
continuation to its caller.  Every analysis runs on the one reachability
loop, pushdown.Worklist, through an RPDSOracle, and explores successors
in the order astep returns them.
The pushdown ones build theirs with _oracle: nop_delta takes astep's
moves (push or ε transitions), top_delta(q, γ) binds its returns into γ
with areturn (pop transitions).  Each steps through _stepper, which
keeps one astep result per input (exp, env, store, ctx): a node's moves
under each of its entries, all its pops, and every node whose (collected)
store is the same, share one call; widened and approximate-GC re-steps
call astep again only when the node's store changed.  A result carries
the loop's own facts: the states stepped under each entry (graph.paths),
the callers stored at each (graph.kstore), and the ε-closure graph, a
view of the one-step same-level summaries built only when
read.  The widened and approximate-GC oracles read state that grows
while the loop runs (the global store, the root cache); they re-step the
nodes whose input grew and resume the loop.  The finite baselines keep
their continuations in a store of their own: each pushed frame is joined
into it, a return goes through every frame stored at the state's
continuation address, and the states that read an address are re-stepped
when it grows.  Their edges carry plain tags, so the loop stores no
frames or same pairs for them, and all their states are stepped under
the root.
"""
from __future__ import annotations

from collections import deque
from functools import partial

from .frozen import Frozen, setfield
from .syntax import Exp, Let1
from .abstract import (EMPTY_ENV, EMPTY_STORE, K_HALT, KAddr, areturn,
                       astep, store_join)
from .gc import gc_store, touches
from .pushdown import (Push, Pop, UNCH, RPDSOracle, Worklist,
                       compact_worklist)

# perfbench/tracing.py wraps the astep of this module and also reads the
# name astep_finite; the alias goes when that tracer stops reading it.
astep_finite = astep


class State(Frozen):
    """A node of every analysis (see the module docstring): kaddr is a
    KAddr or K_HALT, roots a frozenset of stack-root AAddrs."""
    __slots__ = ("exp", "env", "store", "ctx", "kaddr", "roots")

    def __init__(self, exp, env, store, ctx, kaddr, roots):
        setfield(self, "exp", exp)
        setfield(self, "env", env)
        setfield(self, "store", store)
        setfield(self, "ctx", ctx)
        setfield(self, "kaddr", kaddr)
        setfield(self, "roots", roots)

    def __repr__(self):
        return f"q(e{self.exp.label})"


def _node_table():
    """A run's node constructor: one State per parts tuple."""
    table = {}

    def node(exp, env, store=None, ctx=(), kaddr=None, roots=None):
        # no analysis uses both kaddr and roots, so one slot keys either
        key = (exp, env, store, ctx, kaddr if roots is None else roots)
        q = table.get(key)
        if q is None:
            q = table[key] = State(exp, env, store, ctx, kaddr, roots)
        return q
    return node


class AnalysisResult:
    def __init__(self, kind, graph, ecg, exp, saturated=True,
                 global_store=None, root_cache=None, guarded_edges=None,
                 stale_guards=None, kstore=None):
        self.kind = kind
        self.gc_mode = "-gc" in kind  # plain-gc, pdcfa-gc, pdcfa-gc-approx
        self.graph, self.ecg, self.exp = graph, ecg, exp
        self.saturated = saturated
        self.global_store = global_store  # pdcfa-widened
        self.root_cache = root_cache  # pdcfa-gc-approx
        self.guarded_edges = guarded_edges  # pdcfa-gc-approx
        self.stale_guards = stale_guards  # pdcfa-gc-approx
        self.kstore = kstore  # plain, plain-gc

    def stores(self):
        """Every abstract store the analysis reached (for precision metrics)."""
        if self.kind == "pdcfa-widened":
            return [self.global_store]
        return [n.store for n in self.graph.nodes]


# ---------------------------------------------------------------------------
# per-state-store pushdown analysis


def _stepper(policy):
    """astep under policy, run once per input (exp, env, store, ctx)."""
    steps = {}

    def step(e, env, store, ctx):
        key = (e, env, store, ctx)
        out = steps.get(key)
        if out is None:
            out = steps[key] = astep(e, env, store, ctx, policy)
        return out

    return step


def _oracle(root, store_of, node, policy):
    """The pushdown system whose node q steps as (q.exp, q.env,
    store_of(q), q.ctx) and whose successors are node(exp, env, store,
    ctx, None, roots): moves for nop_delta, returns into γ for top_delta.
    Under pdcfa-gc, where q.roots is a set, a push extends the roots by
    the pushed frame's touches and its stack character (frame, roots)
    keeps the pusher's, which the pop restores."""
    step = _stepper(policy)

    def nop_delta(q):
        moves, _ = step(q.exp, q.env, store_of(q), q.ctx)
        out = []
        for fr, e2, env2, s2, ctx2 in moves:
            roots = q.roots
            if fr is None:
                act = UNCH
            elif roots is None:
                act = Push(fr)
            else:  # pdcfa-gc
                act, roots = Push((fr, roots)), roots | touches(fr)
            out.append((node(e2, env2, s2, ctx2, None, roots), act))
        return out

    def top_delta(q, gamma):
        fr, roots = (gamma, None) if q.roots is None else gamma
        _, returns = step(q.exp, q.env, store_of(q), q.ctx)
        act = Pop(gamma)
        return [(node(*areturn(fr, vals, s, q.exp, q.ctx, policy), q.ctx,
                      None, roots), act) for vals, s in returns]

    return RPDSOracle(root, top_delta, nop_delta)


def analyze_pdcfa(e: Exp, policy, deadline=None, node_limit=None) -> AnalysisResult:
    node = _node_table()
    oracle = _oracle(node(e, EMPTY_ENV, EMPTY_STORE), lambda q: q.store,
                     node, policy)
    graph, ecg, sat = compact_worklist(oracle, deadline, node_limit)
    return AnalysisResult("pdcfa", graph, ecg, e, sat)


# ---------------------------------------------------------------------------
# precise GC pushdown analysis


def analyze_gc_precise(e: Exp, policy, deadline=None, node_limit=None) -> AnalysisResult:
    """Pushdown + GC: nodes carry the stack-root set A and step on their
    store collected under it (see _oracle for how A flows)."""
    node = _node_table()
    oracle = _oracle(node(e, EMPTY_ENV, EMPTY_STORE, roots=frozenset()),
                     lambda q: gc_store(q.env, q.store, q.roots), node,
                     policy)
    graph, ecg, sat = compact_worklist(oracle, deadline, node_limit)
    return AnalysisResult("pdcfa-gc", graph, ecg, e, sat)


# ---------------------------------------------------------------------------
# store-widened pushdown analysis


def analyze_pdcfa_widened(e: Exp, policy, deadline=None,
                          node_limit=None) -> AnalysisResult:
    """Least fixed point of the widened transfer function: a single global
    store and partial (exp, env) states.  The engine saturates under the
    current store; if the successor stores grew it, the nodes whose
    environment maps to a grown address (a step reads the store only
    there) are re-stepped under the joined store and the engine resumes."""
    make = _node_table()
    store = EMPTY_STORE
    out_stores = {}  # successor stores reached under `store`

    def node(e2, env2, s2, ctx2, *_):
        out_stores[s2] = None
        return make(e2, env2, None, ctx2)

    wl = Worklist(_oracle(make(e, EMPTY_ENV), lambda psi: store, node,
                          policy))
    while True:
        saturated = wl.run(deadline, node_limit)
        grown = store
        for s in out_stores:
            grown = store_join(grown, s)
        if not saturated or grown is store:
            break
        changed = {a for a, vs in grown.items if store.lookup(a) is not vs}
        store = grown
        out_stores.clear()
        for psi in list(wl.graph.nodes):
            if not psi.env.addrs().isdisjoint(changed):
                wl.restep(psi)
    return AnalysisResult("pdcfa-widened", wl.graph, wl.ecg, e, saturated,
                          global_store=store)


# ---------------------------------------------------------------------------
# approximate GC pushdown analysis (per-node root cache)


def analyze_gc_approx(e: Exp, policy, deadline=None, node_limit=None,
                      snapshot_cb=None) -> AnalysisResult:
    """GC pushdown analysis over plain control states: each node caches an
    over-approximate root set R, the least solution of
        R(ψ) = ⋃ {touches(φ) ∪ R(ψ′) : ψ′ --φ+--> ψ} ∪ {R(ψ′) : (ψ′,ψ) ∈ H}
    over what the engine has recorded so far: its push edges and its
    one-step same-level pairs H.  Each edge records one guard, R of its
    source when the edge lands.  When R grows the node
    is re-stepped; its old successors and guards stay in the graph, and a
    guard below the final R is counted as stale."""
    node = _node_table()
    R = {}
    guards = {}  # edge -> R of its source when it landed
    push_out = {}  # src -> {(frame, dst): None}, the push half of root flow

    def roots(q):
        return R.get(q, frozenset())

    def grow(q, addrs):
        """Monotone root flow along same-level steps and push edges; a node
        is re-stepped when its collection roots (env range ∪ R) grow."""
        work, grown = deque(), {}

        def flow(y, addrs):
            if not addrs <= roots(y):
                if not addrs <= roots(y) | y.env.addrs():
                    grown[y] = True
                R[y] = roots(y) | addrs
                work.append(y)

        flow(q, addrs)
        while work:
            x = work.popleft()
            if grown.pop(x, False):
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

    wl = Worklist(_oracle(node(e, EMPTY_ENV, EMPTY_STORE),
                          lambda q: gc_store(q.env, q.store, roots(q)),
                          node, policy), on_record)
    saturated = wl.run(deadline, node_limit)
    wl.on_record = None  # on_record refers to wl: break the cycle
    guarded = guarded_edges()
    return AnalysisResult("pdcfa-gc-approx", wl.graph, wl.ecg, e, saturated,
                          root_cache=root_cache(), guarded_edges=guarded,
                          stale_guards=sum(1 for (s, g, a, d) in guarded
                                           if g != roots(s)))


# ---------------------------------------------------------------------------
# finite baseline (plain k-CFA, optionally GC-composed)


def analyze_finite(e: Exp, policy, gc: bool = False, deadline=None,
                   node_limit=None) -> AnalysisResult:
    """The finite machine as an oracle whose continuation store lives
    beside it; a state that read a kaddr (to pop, or under GC for its
    roots) is re-stepped when that kaddr grows."""
    node = _node_table()
    kstore = {}  # kaddr -> {(frame, kaddr below): None}
    deps = {}  # kaddr -> {state: None}

    def nop_delta(st):
        used_kas = {st.kaddr}
        store = st.store
        if gc:
            roots, work = set(), [st.kaddr]
            while work:  # K_HALT holds no frames
                for fr, ka2 in kstore.get(work.pop(), ()):
                    roots |= touches(fr)
                    if ka2 not in used_kas:
                        used_kas.add(ka2)
                        work.append(ka2)
            store = gc_store(st.env, st.store, frozenset(roots))
        for ka in used_kas:
            deps.setdefault(ka, {})[st] = None
        moves, returns = astep(st.exp, st.env, store, st.ctx, policy)
        out = []
        tag = "push" if isinstance(st.exp, Let1) else "eps"
        for fr, e2, env2, s2, ctx2 in moves:
            ka2 = st.kaddr
            if fr is not None:  # allocate the frame's continuation
                ka2 = KAddr.make(fr.exp, fr.env)
                entries = kstore.setdefault(ka2, {})
                if (fr, st.kaddr) not in entries:
                    entries[(fr, st.kaddr)] = None
                    # every state whose pops or roots read ka2 steps again
                    for dep in deps.get(ka2, ()):
                        wl.restep(dep)
            out.append((node(e2, env2, s2, ctx2, ka2), tag))
        for vals, s in returns:
            for fr, ka2 in kstore.get(st.kaddr, ()):
                e2, env2, s2 = areturn(fr, vals, s, st.exp, st.ctx, policy)
                out.append((node(e2, env2, s2, st.ctx, ka2),
                            "eps" if ka2 is st.kaddr else "pop"))
        return out

    def top_delta(st, gamma):
        return ()  # nothing is pushed on the engine's stack

    wl = Worklist(RPDSOracle(node(e, EMPTY_ENV, EMPTY_STORE, (), K_HALT),
                             top_delta, nop_delta))
    saturated = wl.run(deadline, node_limit)
    wl.oracle = None  # nop_delta refers to wl: break the cycle
    return AnalysisResult("plain-gc" if gc else "plain", wl.graph, None, e,
                          saturated, kstore=kstore)


# kind -> driver(e, policy, deadline=None, node_limit=None), in the order
# `pdcfa run --analysis all` runs them
ANALYSES = {
    "plain": partial(analyze_finite, gc=False),
    "plain-gc": partial(analyze_finite, gc=True),
    "pdcfa": analyze_pdcfa,
    "pdcfa-gc": analyze_gc_precise,
    "pdcfa-gc-approx": analyze_gc_approx,
    "pdcfa-widened": analyze_pdcfa_widened,
}
