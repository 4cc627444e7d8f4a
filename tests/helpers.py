"""Shared oracles for the test suite.

The soundness checks compare an instrumented concrete run against each
analysis: every trace configuration must be covered (⊑) by a reached
node, and its continuation must be realizable as a push-path (pushdown
analyses) or a continuation-store chain (finite baselines).

For the GC analyses the concrete configuration is garbage-collected
first: the collected machine is the thing those analyses abstract, and
a raw trace store carries dead bindings the analysis rightly dropped.
"""
from pdcfa.concrete import Clo, PrimVal, Conf
from pdcfa.abstract import (alpha, leq, run_abstracted, IncomparableKinds,
                            AConf, K_HALT, Mono, OneCFA, AScalarTop, ABool,
                            AClo, APrim, AAddr, AEnv, AStore, AFrame, KAddr,
                            FState)
from pdcfa.gc import gc
from pdcfa.analyses import OPState, ControlState, PState


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
