"""End-to-end analysis drivers.

Six analyses over one normalized program:

- analyze_pdcfa:          per-state-store pushdown reachability
- analyze_gc_precise:     pushdown + abstract GC, root sets carried on nodes
- analyze_gc_approx:      pushdown + abstract GC, one root set per entry
- analyze_pdcfa_widened:  single-threaded (widened) store, partial states
- analyze_finite:         plain k-CFA: continuations at return points,
                          with or without GC

Every node is one State(exp, env, store, ctx, kaddr, roots), the tuple of
the parts of a machine state of AAC (Johnson & Van Horn, "Abstracting
Abstract Control", DLS 2014) plus a stack-root set.  An analysis leaves
the parts it does not use None on all its nodes: pdcfa-widened has no
store, only the finite baselines have a continuation address and only
pdcfa-gc has roots.
Nothing here orders nodes: metrics alone defines that order.

No two analyses share a node, so each run interns its nodes in a table
of its own (_node_table), which maps each node to itself and is the
run's graph.nodes, and leaves no reference cycle: its nodes go with its
result.  Domain objects, and their memos, stay process-wide.

All run the one transfer function, abstract.astep, which leaves the
continuation to its caller, through _oracle: nop_delta takes astep's
moves (push or ε transitions), top_delta(q, γ) binds its returns into γ
with areturn (pop transitions), and answers a Let1 or an If, from which
astep returns nothing, without stepping it.  All run on the one
reachability loop, pushdown.Worklist, and explore successors in the
order astep returns them.  The loop's continuation allocator is what
makes the finite baselines finite (Gilray et al., POPL 2016): a push
enters the frame's return point KAddr(frame.exp, frame.env), which every
caller of the frame shares, instead of its target, and a node carries
that entry as its kaddr.  plain-gc collects per entry as pdcfa-gc-approx
does.
The pushdown analyses step through _stepper's whole-run memo, one astep
result per input (exp, env, store, ctx): a node's moves under each of
its entries, all its pops, and every node whose (collected) store is the
same, share one call; widened and approximate-GC re-steps call astep
again only when the node's store changed.  The finite ones keep only the
last result.  A result carries the loop's own facts: the states stepped
under each entry (graph.paths), the callers stored at each
(graph.kstore), and, for the pushdown analyses, the ε-closure graph, a
view of the one-step same-level summaries built only when read.  The
widened and GC-per-entry oracles read state that grows while the loop
runs (the global store, each entry's root set); they re-step the
(node, entry) pairs whose input grew and resume the loop.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cache, partial
from operator import attrgetter

from .syntax import Exp, If, Let1
from .abstract import (EMPTY_ENV, EMPTY_STORE, K_HALT, KAddr, areturn,
                       astep, store_join)
from .gc import gc_store, touches
from .pushdown import (Push, Pop, UNCH, RPDSOracle, Worklist,
                       compact_worklist)

# perfbench/tracing.py wraps the astep of this module and also reads the
# name astep_finite; the alias goes when that tracer stops reading it.
astep_finite = astep


class State(namedtuple("State", "exp env store ctx kaddr roots")):
    """A node of every analysis (see the module docstring): kaddr is a
    KAddr or K_HALT, roots a frozenset of stack-root AAddrs.  A State is
    the tuple of its parts and compares by them; within a run, which makes
    one State per parts tuple, equal States are the same object."""
    __slots__ = ()

    def __repr__(self):
        return f"q(e{self.exp.label})"


def _node_table():
    """A run's node set and its constructor, which makes one State per
    parts tuple: the set maps each node to itself, so a lookup by parts
    finds the node without a key kept beside it.  It is the run's
    graph.nodes."""
    table = {}
    new = tuple.__new__

    def node(exp, env, store=None, ctx=(), kaddr=None, roots=None):
        parts = (exp, env, store, ctx, kaddr, roots)
        q = table.get(parts)
        if q is None:
            q = new(State, parts)
            table[q] = q
        return q
    return table, node


class AnalysisResult:
    def __init__(self, kind, graph, ecg, exp, saturated=True,
                 global_store=None, entry_roots=None):
        self.kind = kind
        self.gc_mode = "-gc" in kind  # plain-gc, pdcfa-gc, pdcfa-gc-approx
        self.graph, self.ecg, self.exp = graph, ecg, exp
        self.saturated = saturated
        self.global_store = global_store  # pdcfa-widened
        self.entry_roots = entry_roots  # plain-gc, approx: entry -> Rk

    def stores(self):
        """Every abstract store the analysis reached (for precision metrics)."""
        if self.kind == "pdcfa-widened":
            return [self.global_store]
        return [n.store for n in self.graph.nodes]


# ---------------------------------------------------------------------------
# per-state-store pushdown analysis


def _stepper(policy, memo=True):
    """astep under policy, run once per input (exp, env, store, ctx); or,
    without memo, only when the input is not the last one's."""
    steps = {}

    def step(e, env, store, ctx):
        key = (e, env, store, ctx)
        out = steps.get(key)
        if out is None:
            if not memo:
                steps.clear()
            out = steps[key] = astep(e, env, store, ctx, policy)
        return out

    return step


def _oracle(root, store_of, node, policy, nodes):
    """The pushdown system whose node q, stepped under entry e, steps as
    (q.exp, q.env, store_of(q, e), q.ctx) and whose successors are
    node(exp, env, store, ctx, kaddr, roots), made in the node table
    `nodes`: moves for nop_delta, returns into γ for top_delta.  The
    root's parts fix the kind:
    - pdcfa-gc (q.roots a set): a push extends the roots by the pushed
      frame's touches, and its stack character (frame, roots) keeps the
      pusher's, which the pop restores;
    - finite (q.kaddr set): a push from under entry ka makes the
      character (frame, ka) and a successor at the frame's return point
      KAddr(frame.exp, frame.env); the pop goes back to ka.  Here astep
      keeps only its last result: the pops of a state come just before
      its moves.
    """
    finite = root.kaddr is not None
    step = _stepper(policy, memo=not finite)
    push, pop = cache(Push), cache(Pop)  # one act per stack character

    def nop_delta(q, e):
        moves, _ = step(q.exp, q.env, store_of(q, e), q.ctx)
        out = []
        for fr, e2, env2, s2, ctx2 in moves:
            ka, roots = q.kaddr, q.roots
            if fr is None:
                act = UNCH
            elif finite:
                act, ka = push((fr, ka)), KAddr.make(fr.exp, fr.env)
            elif roots is None:
                act = push(fr)
            else:  # pdcfa-gc
                act, roots = push((fr, roots)), roots | touches(fr)
            out.append((node(e2, env2, s2, ctx2, ka, roots), act))
        return out

    def top_delta(q, gamma, e):
        if isinstance(q.exp, (Let1, If)):  # astep returns nothing here
            return ()
        _, returns = step(q.exp, q.env, store_of(q, e), q.ctx)
        if not returns:
            return ()
        fr, ka, roots = gamma, None, None
        if finite:
            fr, ka = gamma
        elif q.roots is not None:
            fr, roots = gamma
        act = pop(gamma)
        return [(node(*areturn(fr, vals, s, q.exp, q.ctx, policy), q.ctx,
                      ka, roots), act) for vals, s in returns]

    oracle = RPDSOracle(root, top_delta, nop_delta)
    oracle.nodes = nodes
    return oracle


def analyze_pdcfa(e: Exp, policy, deadline=None, node_limit=None) -> AnalysisResult:
    nodes, node = _node_table()
    oracle = _oracle(node(e, EMPTY_ENV, EMPTY_STORE), lambda q, _: q.store,
                     node, policy, nodes)
    graph, ecg, sat = compact_worklist(oracle, deadline, node_limit)
    return AnalysisResult("pdcfa", graph, ecg, e, sat)


# ---------------------------------------------------------------------------
# precise GC pushdown analysis


def analyze_gc_precise(e: Exp, policy, deadline=None, node_limit=None) -> AnalysisResult:
    """Pushdown + GC: nodes carry the stack-root set A and step on their
    store collected under it (see _oracle for how A flows)."""
    nodes, node = _node_table()
    oracle = _oracle(node(e, EMPTY_ENV, EMPTY_STORE, roots=frozenset()),
                     lambda q, _: gc_store(q.env, q.store, q.roots), node,
                     policy, nodes)
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
    nodes, make = _node_table()
    store = EMPTY_STORE
    out_stores = {}  # successor stores reached under `store`

    def node(e2, env2, s2, ctx2, *_):
        out_stores[s2] = None
        return make(e2, env2, None, ctx2)

    wl = Worklist(_oracle(make(e, EMPTY_ENV), lambda psi, _: store, node,
                          policy, nodes))
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
        for psi, entry in [(psi, entry)
                           for entry, path in wl.graph.paths.items()
                           for psi in path
                           if not psi.env.addrs().isdisjoint(changed)]:
            wl.restep(psi, entry)
    return AnalysisResult("pdcfa-widened", wl.graph, wl.ecg, e, saturated,
                          global_store=store)


# ---------------------------------------------------------------------------
# GC per entry (pdcfa-gc-approx, plain-gc) and the finite baselines


def _per_entry(kind, e, policy, deadline, node_limit, gc, enters=None):
    """The loop under allocator `enters` over nodes without roots.  Under
    gc, a state stepped under entry e steps on its store collected under
    Rk(e), one root set that covers every stack reaching e, read from the
    continuation store:
        Rk(t) = ⋃ {touches(γ) ∪ Rk(pe) : (p, pe) stored under γ at t},
    where a finite character (frame, ka) touches what its frame does.  A
    push of γ from under e joins touches(γ) ∪ Rk(e) into Rk of the entry
    t it enters; when Rk(t) grows, the states under t are re-stepped
    under t, and the pushes they emit again carry the growth on."""
    (nodes, node), Rk, none = _node_table(), {}, frozenset()
    kaddr = None if enters is None else K_HALT  # the root's
    oracle = _oracle(
        node(e, EMPTY_ENV, EMPTY_STORE, (), kaddr),
        (lambda q, pe: gc_store(q.env, q.store, Rk.get(pe, none))) if gc
        else (lambda q, _: q.store), node, policy, nodes)
    moves = oracle.nop_delta

    def nop_delta(q, pe):
        out = moves(q, pe)
        for t, act in out:
            if type(act) is Push:
                fr = act.frame
                if enters is not None:
                    fr, t = fr[0], enters(t)
                roots = touches(fr) | Rk.get(pe, none)
                old = Rk.get(t, none)
                if not roots <= old:
                    Rk[t] = old | roots
                    for x in list(wl.graph.paths.get(t, ())):
                        wl.restep(x, t)
        return out

    if gc:
        oracle.nop_delta = nop_delta
    wl = Worklist(oracle, enters)
    saturated = wl.run(deadline, node_limit)
    wl.oracle = None  # nop_delta refers to wl: break the cycle
    return AnalysisResult(kind, wl.graph, wl.ecg, e, saturated,
                          entry_roots=Rk if gc else None)


def analyze_gc_approx(e: Exp, policy, deadline=None,
                      node_limit=None) -> AnalysisResult:
    """GC pushdown analysis over plain control states, collected under
    one root set per entry (see _per_entry)."""
    return _per_entry("pdcfa-gc-approx", e, policy, deadline, node_limit,
                      True)


def analyze_finite(e: Exp, policy, gc: bool = False, deadline=None,
                   node_limit=None) -> AnalysisResult:
    """Plain k-CFA, optionally GC-composed: the loop under the return-point
    allocator, where a state's entry is its kaddr and a push of frame f
    enters KAddr(f.exp, f.env) (see _oracle).  Under gc a state is
    collected per entry, as under approximate GC."""
    return _per_entry("plain-gc" if gc else "plain", e, policy, deadline,
                      node_limit, gc, attrgetter("kaddr"))


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
