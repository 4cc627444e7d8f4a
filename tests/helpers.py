"""Shared oracles for the test suite.

The soundness checks compare an instrumented concrete run against each
analysis: every trace configuration must be covered (⊑) by a reached
node, and its continuation must be realizable as a push-path (pushdown
analyses) or a continuation-store chain (finite baselines).

For the GC analyses the concrete configuration is garbage-collected
first: the collected machine is the thing those analyses abstract, and
a raw trace store carries dead bindings the analysis rightly dropped.
"""
import time

from hypothesis import strategies as st

from pdcfa.bench import load
from pdcfa.cli import run_one
from pdcfa.concrete import Clo, PrimVal, Conf, UnboundVariableError
from pdcfa.abstract import (alpha, leq, run_abstracted, IncomparableKinds,
                            AConf, K_HALT, Mono, OneCFA, AScalarTop, ABool,
                            AClo, APrim, AAddr, AEnv, AStore, AFrame, KAddr,
                            FState)
from pdcfa.gc import gc
from pdcfa.analyses import OPState, ControlState, PState
from pdcfa.syntax import PRIM_ARITY, binders


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
    """fa (an α-image frame) against a stack character of the analysis;
    GC-precise characters are (frame, roots) pairs."""
    if isinstance(gamma, tuple):
        gamma = gamma[0]
    if fa.var is not gamma.var or fa.exp is not gamma.exp:
        return False
    try:
        return leq(fa.env, gamma.env)
    except IncomparableKinds:
        return False


def make_push_realizable(result):
    """Decides whether a top-first frame sequence is realizable as a
    rooted push-path ending in an ε-descent into the node."""
    memo = {}

    def go(node, frames):
        key = (node, frames)
        if key in memo:
            return memo[key]
        memo[key] = False  # cycle guard
        if not frames:
            ok = result.ecg.has(result.graph.root, node)
        else:
            ok = False
            for anc in result.ecg.ancestors(node):
                for (src, fr) in result.graph.push_into(anc):
                    if frame_leq(frames[0], fr) and go(src, frames[1:]):
                        ok = True
                        break
                if ok:
                    break
        memo[key] = ok
        return ok

    return go


def make_kont_realizable(kstore):
    """Same, but chained through the finite baseline's continuation store."""
    memo = {}

    def go(ka, frames):
        key = (ka, frames)
        if key in memo:
            return memo[key]
        memo[key] = False
        if not frames:
            ok = ka is K_HALT
        else:
            ok = any(frame_leq(frames[0], fr) and go(ka2, frames[1:])
                     for fr, ka2 in kstore.get(ka, ()))
        memo[key] = ok
        return ok

    return go


GC_KINDS = {"plain-gc", "pdcfa-gc", "pdcfa-gc-approx"}


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
            r = run_one(kind, e, policy_for(k),
                        deadline=time.monotonic() + 60, node_limit=10_000)
        else:
            r = run_one(kind, e, policy_for(k),
                        deadline=time.monotonic() + 120)
        _cache[key] = r
    return _cache[key]


def coverage_violations(e, policy, result):
    """Number of concrete trace configurations NOT covered by `result`."""
    trace, outcome, addr_map, ctxs = run_abstracted(e, policy)
    gc_mode = result.kind in GC_KINDS
    if result.kind in ("plain", "plain-gc"):
        realizable = make_kont_realizable(result.kstore)
    else:
        realizable = make_push_realizable(result)
    by_exp = {}
    for n in result.graph.nodes:
        st = n.state if isinstance(n, OPState) else n
        by_exp.setdefault(st.exp, []).append((n, st))
    bad = 0
    for c, ctx in zip(trace, ctxs):
        if gc_mode:
            c = concrete_gc(c)
        ac = alpha(c, policy, addr_map, ctx)
        if gc_mode:
            ac = gc(ac)
        ok = False
        for n, st in by_exp.get(ac.exp, []):
            if st.ctx != ac.ctx:
                continue
            try:
                if not leq(ac.env, st.env):
                    continue
                target = (result.global_store
                          if result.kind == "pdcfa-widened" else st.store)
                if not leq(ac.store, target):
                    continue
            except IncomparableKinds:
                continue
            if result.kind in ("plain", "plain-gc"):
                if realizable(n.kaddr, ac.kont):
                    ok = True
                    break
            elif realizable(n, ac.kont):
                ok = True
                break
        if not ok:
            bad += 1
    return bad, len(trace)


def policy_for(k):
    return Mono() if k == 0 else OneCFA()


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
    if isinstance(x, FState):
        return (x.exp.label, ref_skey(x.env), ref_skey(x.store), x.ctx,
                ref_skey(x.kaddr))
    if isinstance(x, ControlState):
        return (x.exp.label, ref_skey(x.env), ref_skey(x.store), x.ctx)
    if isinstance(x, PState):
        return (x.exp.label, ref_skey(x.env), x.ctx)
    if isinstance(x, OPState):
        return (ref_skey(x.state), tuple(sorted(ref_skey(a) for a in x.roots)))
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


# ---------------------------------------------------------------------------
# generated surface programs

_NAMES = ("a", "b", "f", "g", "x", "y")  # few, so that shadowing is common
_FORMS = ("lambda", "apply", "prim", "if", "cond", "and", "or", "let",
          "let*")


@st.composite
def surface_exprs(draw, scope, depth):
    """A well-scoped expression over the whole surface: only names in
    scope are referenced, so it stays closed."""
    leaves = [st.integers(-2, 9).map(str), st.sampled_from(("#t", "#f")),
              st.sampled_from(sorted(PRIM_ARITY))]
    if scope:
        leaves.append(st.sampled_from(sorted(scope)))
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(leaves))

    def sub(inner=scope):
        return draw(surface_exprs(frozenset(inner), depth - 1))

    def subs(lo, hi):
        return " ".join(sub() for _ in range(draw(st.integers(lo, hi))))

    form = draw(st.sampled_from(_FORMS))
    if form == "lambda":
        ps = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3,
                           unique=True))
        return f"(lambda ({' '.join(ps)}) {sub(scope | set(ps))})"
    if form == "apply":
        return f"({sub()} {subs(1, 3)})"
    if form == "prim":
        op = draw(st.sampled_from(sorted(PRIM_ARITY)))
        return f"({op} {subs(PRIM_ARITY[op], PRIM_ARITY[op])})"
    if form == "if":
        return f"(if {sub()} {sub()} {sub()})"
    if form == "cond":
        clauses = [f"[{sub()} {sub()}]"
                   for _ in range(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            clauses.append(f"(else {sub()})")
        return f"(cond {' '.join(clauses)})"
    if form in ("and", "or"):
        return f"({form} {subs(0, 3)})"
    names = draw(st.lists(st.sampled_from(_NAMES), max_size=3,
                          unique=form == "let"))
    inner, binds = set(scope), []
    for name in names:  # let*'s right-hand sides see the earlier names
        binds.append(f"({name} {sub(inner if form == 'let*' else scope)})")
        inner.add(name)
    return f"({form} ({' '.join(binds)}) {sub(inner)})"


@st.composite
def surface_programs(draw, depth=3):
    """Source text of a closed program: up to two defines, in either
    shape, then one top expression."""
    scope, lines = frozenset(), []
    for name in draw(st.lists(st.sampled_from(("f", "g", "h")), max_size=2,
                              unique=True)):
        ps = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=2,
                           unique=True))
        body = draw(surface_exprs(scope | {name} | set(ps), depth - 1))
        if draw(st.booleans()):
            lines.append(f"(define ({name} {' '.join(ps)}) {body})")
        else:
            lines.append(f"(define {name} (lambda ({' '.join(ps)}) {body}))")
        scope |= {name}
    lines.append(draw(surface_exprs(scope, depth)))
    return "\n".join(lines)
