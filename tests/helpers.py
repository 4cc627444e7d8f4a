"""Shared oracles for the test suite.

Everything here is a reference the library is checked against, kept out
of the library because only tests call it:

- the abstract configuration machine (`AConf`, `step_conf`, `gc`) that
  steps a whole configuration, continuation included;
- the partial orders `leq` and the abstraction map `alpha`, with
  `run_abstracted`, the concrete run instrumented to mirror every
  abstract allocation;
- the stack-action normal form (`net`, `stackify`) and `compact_naive`,
  a bounded explicit-stack search for pushdown reachability;
- `least_entry_roots`, the from-scratch fixpoint of approximate GC's
  per-entry root sets, and `alpha_equiv` on ANF terms;
- the AAC and P4F machines, which reach exactly what `pdcfa`, `pdcfa-gc`
  and `pdcfa-widened` must reach, with no depth bound;
- the soundness and containment checks of the acceptance gate, shared
  with the generated-program tests (whose generator is in strategies.py,
  so that importing this module does not import hypothesis).

The soundness checks compare an instrumented concrete run against each
analysis: every trace configuration must be covered (⊑) by a reached
node, and its continuation must be realizable as a chain through the
loop's continuation store, whichever allocator filled it.

For the GC analyses the concrete configuration is garbage-collected
first: the collected machine is the thing those analyses abstract, and
a raw trace store carries dead bindings the analysis rightly dropped.
"""
import time
from collections import deque
from functools import reduce
from typing import NamedTuple

from pdcfa import concrete
from pdcfa.bench import load
from pdcfa.cli import policy_for_k, run_one
from pdcfa.concrete import Clo, PrimVal, Conf, UnboundVariableError
from pdcfa.abstract import (K_HALT, AScalarTop, ABool, AClo, APrim, AAddr,
                            AEnv, AStore, AFrame, KAddr,
                            EMPTY_ENV, EMPTY_STORE, SCALAR_TOP,
                            aalloc, abool, areturn, astep, push_ctx,
                            skey, store_join, vset, _intern, _keyed)
from pdcfa.frozen import Frozen, setfield
from pdcfa.gc import gc_store, touches
from pdcfa.analyses import State
from pdcfa.metrics import _PARTS
from pdcfa.pushdown import CRPDS, ECG, Pop, Push, UNCH
from pdcfa.syntax import binders, If, Lambda, Let1, Ret, TailCall, Var


# ---------------------------------------------------------------------------
# the abstract configuration machine: astep with the continuation in the
# configuration


class AConf(Frozen):
    __slots__ = ("exp", "env", "store", "kont", "ctx", "_skey")

    def __init__(self, exp, env, store, kont, ctx=()):
        setfield(self, "exp", exp)
        setfield(self, "env", env)
        setfield(self, "store", store)
        setfield(self, "kont", kont)  # of AFrame, top first
        setfield(self, "ctx", ctx)  # last-k call-site labels (KCFA only)

    @classmethod
    def make(cls, exp, env, store, kont, ctx=()):
        return _intern(cls, (exp, env, store, kont, ctx),
                       exp, env, store, kont, ctx)

    @_keyed
    def skey(self):
        return (self.exp.label, self.env.skey(), self.store.skey(),
                tuple(f.skey() for f in self.kont), self.ctx)


def ainject(e) -> AConf:
    return AConf.make(e, EMPTY_ENV, EMPTY_STORE, ())


def step_conf(c: AConf, policy):
    """All abstract successors of a configuration, in canonical order."""
    moves, returns = astep(c.exp, c.env, c.store, c.ctx, policy)
    succs = [AConf.make(e2, env2, s2, c.kont if fr is None else (fr,) + c.kont,
                        ctx2)
             for fr, e2, env2, s2, ctx2 in moves]
    if c.kont:
        for vals, s in returns:
            e2, env2, s2 = areturn(c.kont[0], vals, s, c.exp, c.ctx, policy)
            succs.append(AConf.make(e2, env2, s2, c.kont[1:], c.ctx))
    return sorted(dict.fromkeys(succs), key=skey)


def stack_root(kont):
    return frozenset().union(*(touches(f) for f in kont))


def gc(c: AConf) -> AConf:
    """Collect a configuration: store restricted to env and stack roots."""
    return AConf.make(c.exp, c.env, gc_store(c.env, c.store, stack_root(c.kont)),
                      c.kont, c.ctx)


def gc_step(c: AConf, policy):
    """The GC-composed transition: step the collected configuration."""
    return step_conf(gc(c), policy)


# ---------------------------------------------------------------------------
# partial orders


class IncomparableKinds(Exception):
    pass


def _val_leq(v1, v2):
    if v1 is v2:
        return True
    if isinstance(v1, ABool) and isinstance(v2, ABool):
        return v2.value is None
    if isinstance(v1, APrim) and isinstance(v2, APrim):
        return (v1.op == v2.op and len(v1.args) == len(v2.args)
                and all(_val_leq(a, b) for a, b in zip(v1.args, v2.args)))
    if isinstance(v1, AClo) and isinstance(v2, AClo):
        return v1.lam is v2.lam and _env_leq(v1.env, v2.env)
    return False


def _vals_leq(d1, d2):
    return all(any(_val_leq(v1, v2) for v2 in d2) for v1 in d1)


def _env_leq(r1: AEnv, r2: AEnv):
    # §-order: equal mappings over the left env's domain
    d2 = dict(r2.items)
    return all(v in d2 and d2[v] is a for v, a in r1.items)


def leq(x, y) -> bool:
    """The lifted partial orders (envs, value sets, stores, frames, konts, configs)."""
    if isinstance(x, AEnv) and isinstance(y, AEnv):
        return _env_leq(x, y)
    if isinstance(x, AStore) and isinstance(y, AStore):
        return all(_vals_leq(vs, y.lookup(a)) for a, vs in x.items)
    if isinstance(x, AFrame) and isinstance(y, AFrame):
        return (x.var == y.var and x.exp is y.exp and _env_leq(x.env, y.env))
    if isinstance(x, tuple) and isinstance(y, tuple):
        if all(isinstance(f, AFrame) for f in x) and all(isinstance(f, AFrame) for f in y):
            return len(x) == len(y) and all(leq(a, b) for a, b in zip(x, y))
        return _vals_leq(x, y)
    if isinstance(x, AConf) and isinstance(y, AConf):
        return (x.exp is y.exp and _env_leq(x.env, y.env)
                and leq(x.store, y.store) and leq(x.kont, y.kont)
                and x.ctx == y.ctx)
    if isinstance(x, (AClo, ABool, APrim, AScalarTop)) and \
            isinstance(y, (AClo, ABool, APrim, AScalarTop)):
        return _val_leq(x, y)
    raise IncomparableKinds(f"{type(x).__name__} vs {type(y).__name__}")


# ---------------------------------------------------------------------------
# abstraction map


class UnmappedAddress(Exception):
    pass


def _alpha_val(v, addr_map):
    if isinstance(v, bool):
        return abool(v)
    if isinstance(v, int):
        return SCALAR_TOP
    if isinstance(v, Clo):
        return AClo.make(v.lam, _alpha_env(v.env, addr_map))
    if isinstance(v, PrimVal):
        return APrim.make(v.op, tuple(_alpha_val(a, addr_map) for a in v.args))
    raise TypeError(v)


def _alpha_env(env, addr_map):
    pairs = []
    for var, a in env:
        if a not in addr_map:
            raise UnmappedAddress(str(a))
        pairs.append((var, addr_map[a]))
    return AEnv.make(pairs)


def alpha(c: Conf, policy, addr_map, ctx=()) -> AConf:
    """Structural abstraction of a concrete configuration.

    addr_map records, for every concrete allocation in the trace, the
    abstract address the policy would have produced at that step.
    """
    entries = {}
    for a, v in c.store:
        if a not in addr_map:
            raise UnmappedAddress(str(a))
        aa = addr_map[a]
        entries.setdefault(aa, []).append(_alpha_val(v, addr_map))
    store = AStore.make((aa, vset(vs)) for aa, vs in entries.items())
    kont = tuple(AFrame.make(f.var, f.exp, _alpha_env(f.env, addr_map))
                 for f in c.kont)
    return AConf.make(c.exp, _alpha_env(c.env, addr_map), store, kont, ctx)


def run_abstracted(e, policy, fuel: int = 10 ** 5):
    """Concrete run instrumented for alpha: returns (trace, outcome,
    addr_map, ctxs) where ctxs[i] is the abstract call-site context of
    trace[i] and addr_map maps every allocated concrete address to the
    AAddr the policy produces at the mirroring abstract step."""
    c = concrete.inject(e)
    trace, ctxs = [c], [()]
    addr_map = {}
    outcome = ("fuel",)
    ctx = ()
    for _ in range(fuel):
        s = concrete.step(c)
        label = c.exp.label
        if s.applied_call_label is not None:
            # closure application: context advances, parameter binds under it
            ctx2 = push_ctx(policy, ctx, s.applied_call_label)
            (var, addr), = s.allocs
            addr_map[addr] = aalloc(policy, var, label, ctx2)
            ctx = ctx2
        else:
            allocs = list(s.allocs)
            # a 'next' step out of Ret/TailCall-prim ends with the frame
            # binding; any earlier allocation is rec's self-binding
            ret_alloc = None
            if s.kind == "next" and allocs and isinstance(c.exp, (Ret, TailCall)):
                ret_alloc = allocs.pop()
            for var, addr in allocs:
                addr_map[addr] = aalloc(policy, var, label, ctx)
            if ret_alloc is not None:
                var, addr = ret_alloc
                addr_map[addr] = aalloc(policy, var, label, ctx)
        if s.kind == "halt":
            outcome = ("halt", s.value)
            break
        if s.kind == "stuck":
            outcome = ("stuck", s.reason)
            break
        c = s.conf
        trace.append(c)
        ctxs.append(ctx)
    return trace, outcome, addr_map, ctxs


# ---------------------------------------------------------------------------
# stack actions and a bounded configuration-space search


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


def compact_naive(oracle, depth_bound: int, step_bound: int):
    """Explicit (state, stack) BFS from (root, ⟨⟩).

    Records traversed edges and all balanced (equal entry/exit stack) pairs.
    saturated=True only if no frontier was truncated and the step budget was
    not exhausted — in that case the result is exact.
    """
    root = oracle.root
    graph = CRPDS(root, root)
    balanced = {}  # s -> {q: None}, already transitive
    saturated = True
    steps = 0

    def transitions(q, stack):
        out = list(oracle.nop_delta(q, None))  # no entries here
        if stack:
            for q2, act in oracle.top_delta(q, stack[0], None):
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
                balanced.setdefault(s, {})[q] = None
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
    return graph, ECG(graph.nodes, balanced), saturated


# ---------------------------------------------------------------------------
# the approximate-GC entry roots, from scratch


def least_entry_roots(result) -> dict:
    """From-scratch least solution, over result.graph.kstore, of
        Rk(t) = ⋃ {touches(γ) ∪ Rk(pe) : (p, pe) stored under γ at t},
    the root set approximate GC and plain-gc collect the states under
    entry t with; a character (f, below) touches what f does.
    Entries whose Rk is empty are left out, the root's among them."""
    kstore, Rk = result.graph.kstore, {}
    changed = True
    while changed:
        changed = False
        for t, frames in kstore.items():
            old = new = Rk.get(t, frozenset())
            for (fr, _), callers in frames.items():
                for _p, pe in callers:
                    new = new | touches(fr) | Rk.get(pe, frozenset())
            if new != old:
                Rk[t] = new
                changed = True
    return Rk


# ---------------------------------------------------------------------------
# α-equivalence of ANF terms

_SCOPE, _UNSCOPE = object(), object()  # alpha_equiv's scope markers


def alpha_equiv(e1, e2) -> bool:
    """Structural equality modulo labels and variable identities."""
    m = {}  # e1's bound Var -> e2's, over the scopes open on the stack
    stack = [(e1, e2)]
    while stack:
        a, b = stack.pop()
        if a is _SCOPE:  # b: (e1's binder, e2's binder, e1's body, e2's body)
            va, vb, body_a, body_b = b
            stack.append((_UNSCOPE, (va, m.get(va))))
            stack.append((body_a, body_b))
            m[va] = vb
        elif a is _UNSCOPE:  # b: (e1's binder, what it mapped to before)
            va, before = b
            if before is None:
                del m[va]
            else:
                m[va] = before
        elif type(a) is not type(b):
            return False
        elif isinstance(a, Var):
            if m.get(a) != b:
                return False
        elif isinstance(a, (int, str)):  # a literal or a primitive's name
            if a != b:
                return False
        elif isinstance(a, Lambda):
            stack.append((_SCOPE, (a.param, b.param, a.body, b.body)))
        elif isinstance(a, Ret):
            stack.append((a.atom, b.atom))
        elif isinstance(a, TailCall):
            stack += ((a.arg, b.arg), (a.fun, b.fun))
        elif isinstance(a, Let1):
            stack += ((_SCOPE, (a.var, b.var, a.body, b.body)), (a.rhs, b.rhs))
        elif isinstance(a, If):
            stack += ((a.els, b.els), (a.then, b.then), (a.cond, b.cond))
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# AAC and P4F: the pushdown analyses as finite machines whose continuations
# live in a store, each pushed frame at its push target (Johnson & Van
# Horn, "Abstracting Abstract Control", DLS 2014; Gilray et al., "Pushdown
# Control-Flow Analysis for Free", POPL 2016)


def _kstore_machine(root, step, node, policy, collect=False):
    """The states (node, roots, kaddr) reachable from (root, ∅, K_HALT).

    node(exp, env, store, ctx) builds a node, and step(node, roots) is
    astep's (moves, returns) for it.  A frame pushed on the way to target
    node q2 is stored at kaddr (q2, roots2), with the pusher's roots and
    kaddr: a return then reaches exactly the frames pushed on the way to
    its entry, as on an unbounded stack.  A new entry pops the returns
    already waiting at its address, and a pop restores the pusher's roots.
    Roots grow by a pushed frame's touches only when collecting.
    """
    kstore = {}  # kaddr -> {(frame, pusher's roots, pusher's kaddr): None}
    waiting = {}  # kaddr -> [(node, its returns)]
    seen, work = set(), []

    def reach(*state):
        if state not in seen:
            seen.add(state)
            work.append(state)

    def pop(q, fr, vals, s):
        return node(*areturn(fr, vals, s, q.exp, q.ctx, policy), q.ctx)

    reach(root, frozenset(), K_HALT)
    while work:
        q, roots, ka = work.pop()
        moves, returns = step(q, roots)
        for fr, *succ in moves:
            q2 = node(*succ)
            if fr is None:
                reach(q2, roots, ka)
                continue
            ka2 = (q2, roots | touches(fr) if collect else roots)
            entries = kstore.setdefault(ka2, {})
            if (fr, roots, ka) not in entries:
                entries[(fr, roots, ka)] = None
                for w, rets in waiting.get(ka2, ()):
                    for vals, s in rets:
                        reach(pop(w, fr, vals, s), roots, ka)
            reach(*ka2, ka2)
        if returns:
            waiting.setdefault(ka, []).append((q, returns))
            for fr, below, ka2 in kstore.get(ka, ()):
                for vals, s in returns:
                    reach(pop(q, fr, vals, s), below, ka2)
    return seen


class Node(NamedTuple):
    """An analyses.State's parts as a value, defaulted as an analysis
    leaves them.  A run makes one State per parts tuple, so comparing
    parts is as strict as comparing one run's States by identity."""
    exp: object
    env: object
    store: object = None
    ctx: tuple = ()
    stack: object = None


def parts(q):
    """The parts of State q, as a Node."""
    return Node(q.exp, q.env, q.store, q.ctx, q.stack)


def node_parts(r):
    """The parts of every node of result r: one Node per node."""
    out = {parts(n) for n in r.graph.nodes}
    assert len(out) == len(r.graph.nodes)
    return out


def aac_nodes(e, policy, collect=False):
    """The nodes pdcfa reaches (collecting: pdcfa-gc), from the AAC
    machine: Nodes without roots, or (collecting) the same Nodes with
    the roots they step under, their store collected under those."""
    def step(q, roots):
        store = gc_store(q.env, q.store, roots) if collect else q.store
        return astep(q.exp, q.env, store, q.ctx, policy)

    root = Node(e, EMPTY_ENV, EMPTY_STORE)
    states = _kstore_machine(root, step, Node, policy, collect)
    if collect:
        return {q._replace(stack=roots) for q, roots, _ in states}
    return {q for q, _, _ in states}


def p4f(e, policy):
    """pdcfa-widened's nodes and global store, from the P4F machine: its
    store-less Nodes under one store, run again from scratch under the join
    of every store its steps produced until that join stops growing."""
    store = EMPTY_STORE
    while True:
        produced = {}

        def node(e2, env2, s2, ctx2):
            produced[s2] = None
            return Node(e2, env2, None, ctx2)

        def step(psi, _roots):
            return astep(psi.exp, psi.env, store, psi.ctx, policy)

        states = _kstore_machine(Node(e, EMPTY_ENV), step, node, policy)
        grown = reduce(store_join, produced, store)
        if grown is store:
            return {psi for psi, _, _ in states}, store
        store = grown


def matches_machine(e, policy, r):
    """Whether a pdcfa, pdcfa-gc or pdcfa-widened result reached exactly
    the nodes (and, widened, the very global store) of its machine."""
    if r.kind == "pdcfa-widened":
        nodes, store = p4f(e, policy)
        return node_parts(r) == nodes and r.global_store is store
    return node_parts(r) == aac_nodes(e, policy, r.kind == "pdcfa-gc")


# ---------------------------------------------------------------------------
# soundness against instrumented concrete runs


def concrete_gc(c: Conf) -> Conf:
    """Restrict a concrete store to addresses reachable from env and
    stack roots (the concrete analogue of the abstract collector)."""
    roots = set(a for _, a in c.env)
    for fr in c.kont:
        roots |= set(a for _, a in fr.env)
    store = dict(c.store)
    seen = set()
    work = list(roots)
    while work:
        a = work.pop()
        if a in seen:
            continue
        seen.add(a)
        vs = [store.get(a)]
        while vs:
            v = vs.pop()
            if isinstance(v, Clo):
                for _, a2 in v.env:
                    work.append(a2)
            elif isinstance(v, PrimVal):
                vs.extend(v.args)
    kept = tuple(sorted((a, v) for a, v in store.items() if a in seen))
    return Conf(c.exp, c.env, kept, c.kont)


def frame_leq(fa, gamma):
    """fa (an α-image frame) against the frame of a stack character
    (frame, below) of the analysis."""
    fr, _ = gamma
    if fa.var is not fr.var or fa.exp is not fr.exp:
        return False
    try:
        return leq(fa.env, fr.env)
    except IncomparableKinds:
        return False


def make_push_realizable(result):
    """Decides whether a node is reached with a top-first frame sequence
    f1…fn, chained through the loop's two relations (pushdown.CRPDS):
    some entry the node was stepped under is the root's (n = 0), or
    stores a frame γ ⊒ f1 with a caller whose entry realizes f2…fn."""
    graph, memo = result.graph, {}
    entries = {}  # node -> the entries it was stepped under
    for entry, stepped in graph.paths.items():
        for q in stepped:
            entries.setdefault(q, []).append(entry)

    def realizes(entry, frames):
        key = (entry, frames)
        if key in memo:
            return memo[key]
        memo[key] = False  # cycle guard
        if not frames:
            ok = entry == graph.root_entry
        else:
            ok = any(frame_leq(frames[0], gamma) and realizes(pe, frames[1:])
                     for gamma, callers in graph.kstore.get(entry, {}).items()
                     for _, pe in callers)
        memo[key] = ok
        return ok

    return lambda node, frames: any(realizes(e, frames)
                                    for e in entries.get(node, ()))


# ---------------------------------------------------------------------------
# the bundled matrix, each result computed once per test session

CAPPED = {("kcfa2", "plain", 1), ("kcfa3", "plain", 1)}  # intended blowups

_cache = {}
_programs = {}


def program(name):
    # states match by expression identity, so parse each program once
    if name not in _programs:
        _programs[name] = load(name)
    return _programs[name]


def result_for(name, kind, k):
    key = (name, kind, k)
    if key not in _cache:
        e = program(name)
        if key in CAPPED:
            r = run_one(kind, e, policy_for_k(k),
                        deadline=time.monotonic() + 60, node_limit=10_000)
        else:
            r = run_one(kind, e, policy_for_k(k),
                        deadline=time.monotonic() + 120)
        _cache[key] = r
    return _cache[key]


def kcfa2n_source(n):
    """kcfa2.scm's shape nested n deep; n=2 is kcfa2 up to names.  At k=0
    pdcfa-gc keeps 2n singletons, against n+1 for pdcfa and plain-gc."""
    body = f"(let* ((z (lambda (y) (if y x1 x{n}))) (u (z x1))) (z x{n}))"
    for i in range(n, 0, -1):
        body = (f"(let* ((f{i} (lambda (x{i}) {body})) (c{i} (f{i} #t))) "
                f"(f{i} #f))")
    return body


def coverage_violations(e, policy, result, fuel=10 ** 5):
    """(uncovered, checked): the configurations of e's concrete run, up to
    fuel steps, that `result` does not cover, and the run's length."""
    trace, outcome, addr_map, ctxs = run_abstracted(e, policy, fuel)
    realizable = make_push_realizable(result)
    by_exp = {}
    for n in result.graph.nodes:
        by_exp.setdefault(n.exp, []).append(n)
    bad = 0
    for c, ctx in zip(trace, ctxs):
        if result.gc_mode:
            c = concrete_gc(c)
        ac = alpha(c, policy, addr_map, ctx)
        if result.gc_mode:
            ac = gc(ac)
        ok = False
        for n in by_exp.get(ac.exp, []):
            if n.ctx != ac.ctx:
                continue
            try:
                if not leq(ac.env, n.env):
                    continue
                target = (result.global_store
                          if result.kind == "pdcfa-widened" else n.store)
                if not leq(ac.store, target):
                    continue
            except IncomparableKinds:
                continue
            if realizable(n, ac.kont):
                ok = True
                break
        if not ok:
            bad += 1
    return bad, len(trace)


def approx_uncovered(precise, approx):
    """(uncovered, checked): pdcfa-gc nodes whose state no pdcfa-gc-approx
    node with the same exp and ctx covers in env and store."""
    index = {}
    for m in approx.graph.nodes:
        index.setdefault((m.exp, m.ctx), []).append(m)
    bad = sum(1 for n in precise.graph.nodes if not any(
        leq(n.env, m.env) and leq(n.store, m.store)
        for m in index.get((n.exp, n.ctx), ())))
    return bad, len(precise.graph.nodes)


def finite_uncovered(pushdown, finite):
    """(uncovered, checked): nodes of pdcfa (pdcfa-gc) that the finite
    baseline plain (plain-gc) does not cover.  Without GC, plain must reach
    the node's (exp, env, store, ctx); with GC, some plain-gc node with the
    same (exp, env, ctx) must have a store above the node's, as plain-gc
    collects under the frames of every stack its return point stands for."""
    index = {}
    for m in finite.graph.nodes:
        index.setdefault((m.exp, m.env, m.ctx), []).append(m.store)
    bad = 0
    for n in pushdown.graph.nodes:
        stores = index.get((n.exp, n.env, n.ctx), ())
        if not (any(leq(n.store, s) for s in stores) if finite.gc_mode
                else n.store in stores):
            bad += 1
    return bad, len(pushdown.graph.nodes)


def widened_uncovered(pd, wide):
    """(uncovered, checked): pdcfa nodes whose (exp, env, ctx) pdcfa-widened
    did not reach, or whose store is not below its global store."""
    wnodes = node_parts(wide)
    bad = sum(1 for n in pd.graph.nodes
              if Node(n.exp, n.env, None, n.ctx) not in wnodes
              or not leq(n.store, wide.global_store))
    return bad, len(pd.graph.nodes)


def state_key(n):
    """A State's canonical sort key from its parts' stored keys, in
    metrics._PARTS order: the order to_json and to_dot list nodes in."""
    return (n.exp.label, *(x if key is None else key(x)
                           for part, key in _PARTS
                           if (x := getattr(n, part)) is not None))


def ref_skey(x):
    """The canonical sort key rebuilt from fields on every call, never from
    a stored key: the reference for the keys domain objects keep."""
    if isinstance(x, AScalarTop):
        return ("num",)
    if isinstance(x, ABool):
        return ("bool", {False: 0, True: 1, None: 2}[x.value])
    if isinstance(x, AClo):
        return ("clo", x.lam.skey(), ref_skey(x.env))
    if isinstance(x, APrim):
        return ("prim", x.op, tuple(ref_skey(a) for a in x.args))
    if isinstance(x, AAddr):
        return ("addr", x.tag, x.var.skey(), x.extra)
    if isinstance(x, AEnv):
        return tuple((v.skey(), ref_skey(a)) for v, a in x.items)
    if isinstance(x, AStore):
        return tuple((ref_skey(a), tuple(ref_skey(v) for v in vs))
                     for a, vs in x.items)
    if isinstance(x, AFrame):
        return ("frame", x.var.skey(), x.exp.label, ref_skey(x.env))
    if isinstance(x, AConf):
        return (x.exp.label, ref_skey(x.env), ref_skey(x.store),
                tuple(ref_skey(f) for f in x.kont), x.ctx)
    if x is K_HALT:
        return ("kaddr-halt",)
    if isinstance(x, KAddr):
        return ("kaddr", x.exp.label, ref_skey(x.env))
    if isinstance(x, State):  # the parts its analysis uses, in order
        key = (x.exp.label, ref_skey(x.env))
        if x.store is not None:
            key += (ref_skey(x.store),)
        key += (x.ctx,)
        if isinstance(x.stack, frozenset):
            key += (tuple(sorted(ref_skey(a) for a in x.stack)),)
        elif x.stack is not None:
            key += (ref_skey(x.stack),)
        return key
    raise TypeError(x)


# ---------------------------------------------------------------------------
# from-scratch store and environment operations: every result is rebuilt by
# the from-scratch constructors, the reference for the indexed ones


def ref_vset(vals):
    return tuple(sorted(dict.fromkeys(vals), key=ref_skey))


def ref_lookup(store, a):
    for addr, vs in store.items:
        if addr is a:
            return vs
    return ()


def ref_get(env, v):
    for var, a in env.items:
        if var == v:
            return a
    raise UnboundVariableError(repr(v))


def ref_bind(store, a, vals):
    if not vals:
        return store
    d = dict(store.items)
    d[a] = ref_vset(d.get(a, ()) + tuple(vals))
    return AStore.make(d.items())


def ref_store_join(s1, s2):
    d = dict(s1.items)
    for a, vs in s2.items:
        d[a] = ref_vset(d.get(a, ()) + vs)
    return AStore.make(d.items())


def ref_extend(env, v, a):
    return AEnv.make([(x, y) for x, y in env.items if x != v] + [(v, a)])


def ref_restrict(env, keep):
    return AEnv.make([(x, y) for x, y in env.items if x in keep])


def ref_gc_store(env, store, extra_roots=frozenset()):
    """The collected store rebuilt from scratch: reachability by linear
    lookups, the result by AStore.make, nothing memoized."""
    seen = ref_reachable_addrs([a for _, a in env.items] + list(extra_roots),
                               store)
    return AStore.make((a, vs) for a, vs in store.items if a in seen)


def _ref_val_addrs(v):
    if isinstance(v, AClo):
        return [a for _, a in v.env.items]
    if isinstance(v, APrim):
        return [a for arg in v.args for a in _ref_val_addrs(arg)]
    return []


def ref_reachable_addrs(roots, store):
    """Address reachability one address and one value at a time, with
    nothing kept between calls: the oracle for gc's set walk."""
    seen = set(roots)
    work = list(roots)
    while work:
        for v in ref_lookup(store, work.pop()):
            for a in _ref_val_addrs(v):
                if a not in seen:
                    seen.add(a)
                    work.append(a)
    return frozenset(seen)


def ref_singleton_count(r):
    """metrics.singleton_count as a union over every entry of every
    distinct store, shared entries included: its oracle."""
    table = {v: set() for v in binders(r.exp)}
    for store in dict.fromkeys(r.stores()):
        for addr, vals in store.items:
            if addr.var in table:
                table[addr.var].update(vals)
    return sum(1 for vals in table.values() if len(vals) == 1), table
