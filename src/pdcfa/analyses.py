"""End-to-end analysis drivers.

run_one(kind, e, policy) is the one way to start an analysis: it runs
the kind's row of ANALYSES on one of three drivers, one per way the loop
runs.  _pushdown runs pdcfa and pdcfa-gc once; _per_entry runs plain,
plain-gc (k-CFA) and pdcfa-gc-approx, and under GC re-steps the states
whose entry's root set grew; _widened runs pdcfa-widened, a loop per
round of its global store.

Every node is one State(exp, env, store, ctx, stack), the parts of a
machine state of AAC (Johnson & Van Horn, "Abstracting Abstract Control",
DLS 2014); pdcfa-widened leaves store None.  Each run interns its nodes
in a table of its own (_node_table), which is its graph.nodes and holds
no reference cycle, so a run's nodes go with its result; domain objects
and their memos stay process-wide.  Nothing here orders nodes: metrics
alone defines that order.

All run the one transfer function, abstract.astep, through _oracle, on
the one reachability loop, pushdown.Worklist, and explore successors in
the order astep returns them.  nop_delta takes astep's moves (ε or
push); top_delta(q, γ) binds its returns into γ with areturn (pop), and
answers a Let1 or an If, from which astep returns nothing, without
stepping it.  A push of frame f from q pushes the character (f, q.stack)
to a node whose stack is enter(q.stack, f); a pop of (f, below) returns
with below.  The continuation allocator `enter` is all the kinds differ
in (Gilray et al., POPL 2016).  _return_point, the frame's return point
KAddr(f.exp, f.env), which all its callers share, makes plain and
plain-gc finite, and they step a state under its stack; _add_roots
grows pdcfa-gc's stack-root set by what f touches; elsewhere _no_stack
keeps None.

The pushdown analyses step through _stepper's whole-run memo, one astep
result per input (exp, env, store, ctx): a node's moves under each of
its entries, all its pops, and every node whose (collected) store is the
same share one call, and a re-step calls astep again only when the store
it steps on changed.  The finite ones keep only the last result.  A
result carries the loop's own facts: the states stepped under each entry
(graph.paths), the callers stored at each (graph.kstore), and, for the
pushdown analyses, the ε-closure graph, built only when read.  The
widened and GC-per-entry oracles read state that grows while the loop
runs (the global store, each entry's root set); they re-step the (node,
entry) pairs whose input grew and resume the loop.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cache, partial
from operator import attrgetter

from .syntax import If, Let1
from .abstract import (EMPTY_ENV, EMPTY_STORE, K_HALT, KAddr, areturn,
                       astep, store_join)
from .gc import gc_store, touches
from .pushdown import (Push, Pop, UNCH, RPDSOracle, Worklist,
                       compact_worklist)

# perfbench/tracing.py wraps the astep of this module and also reads the
# name astep_finite; the alias goes when that tracer stops reading it.
astep_finite = astep


class State(namedtuple("State", "exp env store ctx stack")):
    """A node of every analysis (see the module docstring): stack is a
    KAddr or K_HALT, a frozenset of stack-root AAddrs, or None.  A State is
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

    def node(exp, env, store=None, ctx=(), stack=None):
        parts = (exp, env, store, ctx, stack)
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


# The continuation allocators: the stack part of the node that a push of
# frame reaches from a node whose stack part is `stack`.
def _return_point(stack, frame):  # plain, plain-gc
    return KAddr.make(frame.exp, frame.env)


def _add_roots(roots, frame):  # pdcfa-gc
    return roots | touches(frame)


def _no_stack(stack, frame):
    return None


def _oracle(root, store_of, node, policy, nodes, enter):
    """The pushdown system whose node q, stepped under entry e, steps as
    (q.exp, q.env, store_of(q, e), q.ctx), its successors made by node in
    the table `nodes`, their stack parts by the allocator enter (see the
    module docstring).  Under _return_point astep keeps only its last
    result: the pops of a state come just before its moves."""
    step = _stepper(policy, memo=enter is not _return_point)
    push, pop = cache(Push), cache(Pop)  # one act per stack character

    def nop_delta(q, e):
        moves, _ = step(q.exp, q.env, store_of(q, e), q.ctx)
        stack = q.stack
        return [(node(e2, env2, s2, ctx2, stack), UNCH) if fr is None else
                (node(e2, env2, s2, ctx2, enter(stack, fr)),
                 push((fr, stack)))
                for fr, e2, env2, s2, ctx2 in moves]

    def top_delta(q, gamma, e):
        if isinstance(q.exp, (Let1, If)):  # astep returns nothing here
            return ()
        _, returns = step(q.exp, q.env, store_of(q, e), q.ctx)
        if not returns:
            return ()
        fr, below = gamma
        act = pop(gamma)
        return [(node(*areturn(fr, vals, s, q.exp, q.ctx, policy), q.ctx,
                      below), act) for vals, s in returns]

    oracle = RPDSOracle(root, top_delta, nop_delta)
    oracle.nodes = nodes
    return oracle


def _pushdown(kind, e, policy, deadline, node_limit, stack, store_of, enter):
    """The summary loop from a root whose stack part is `stack`, its nodes
    stepped on store_of(q, entry), its pushes entering enter(q.stack, f)."""
    nodes, node = _node_table()
    oracle = _oracle(node(e, EMPTY_ENV, EMPTY_STORE, (), stack), store_of,
                     node, policy, nodes, enter)
    graph, ecg, sat = compact_worklist(oracle, deadline, node_limit)
    return AnalysisResult(kind, graph, ecg, e, sat)


# ---------------------------------------------------------------------------
# store-widened pushdown analysis


def _widened(kind, e, policy, deadline, node_limit):
    """pdcfa-widened, the widened transfer function's least fixed point
    (one global store, partial states): saturate under the store; if the
    successor stores grew it, re-step the nodes whose environment maps to
    a grown address (a step reads the store only there) under the joined
    store, and resume."""
    nodes, make = _node_table()
    store = EMPTY_STORE
    out_stores = {}  # successor stores reached under `store`

    def node(e2, env2, s2, ctx2, *_):
        out_stores[s2] = None
        return make(e2, env2, None, ctx2)

    wl = Worklist(_oracle(make(e, EMPTY_ENV), lambda psi, _: store, node,
                          policy, nodes, _no_stack))
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
    return AnalysisResult(kind, wl.graph, wl.ecg, e, saturated,
                          global_store=store)


# ---------------------------------------------------------------------------
# GC per entry (pdcfa-gc-approx, plain-gc) and the finite baselines


def _per_entry(kind, e, policy, deadline, node_limit, gc, enters=None):
    """The loop over nodes without roots: pdcfa-gc-approx (enters None)
    or, under the return-point allocator, a finite baseline whose states
    enter their stack (enters).  Under gc, a state stepped under entry e
    steps on its store collected under Rk(e), one root set that covers
    every stack reaching e, read from the continuation store:
        Rk(t) = ⋃ {touches(f) ∪ Rk(pe) : (p, pe) stored under (f, _) at t}.
    A push of (f, _) from under e joins touches(f) ∪ Rk(e) into Rk of the
    entry t it enters; when Rk(t) grows, the states under t are re-stepped
    under t, and the pushes they emit again carry the growth on."""
    (nodes, node), Rk, none = _node_table(), {}, frozenset()
    finite = enters is not None
    oracle = _oracle(
        node(e, EMPTY_ENV, EMPTY_STORE, (), K_HALT if finite else None),
        (lambda q, pe: gc_store(q.env, q.store, Rk.get(pe, none))) if gc
        else (lambda q, _: q.store), node, policy, nodes,
        _return_point if finite else _no_stack)
    moves = oracle.nop_delta

    def nop_delta(q, pe):
        out = moves(q, pe)
        for t, act in out:
            if type(act) is Push:
                fr, t = act.frame[0], enters(t) if finite else t
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


# kind -> its driver(kind, e, policy, deadline, node_limit), in the order
# `pdcfa run --analysis all` runs them.  A finite baseline's entry is its
# state's stack, the return point of the last frame pushed.
ANALYSES = {
    "plain": partial(_per_entry, gc=False, enters=attrgetter("stack")),
    "plain-gc": partial(_per_entry, gc=True, enters=attrgetter("stack")),
    "pdcfa": partial(_pushdown, stack=None, store_of=lambda q, _: q.store,
                     enter=_no_stack),
    "pdcfa-gc": partial(
        _pushdown, stack=frozenset(), enter=_add_roots,
        store_of=lambda q, _: gc_store(q.env, q.store, q.stack)),
    "pdcfa-gc-approx": partial(_per_entry, gc=True),
    "pdcfa-widened": _widened,
}


def run_one(kind, e, policy, deadline=None, node_limit=None):
    """The AnalysisResult of `kind` on e under policy, unsaturated if the
    time.monotonic() deadline passed or it reached node_limit nodes."""
    if kind not in ANALYSES:
        raise ValueError(kind)
    return ANALYSES[kind](kind, e, policy, deadline, node_limit)
