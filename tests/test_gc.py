"""Root computation, address reachability, and store collection."""
from hypothesis import given, settings, strategies as st

from pdcfa.syntax import Var, parse_and_normalize
from pdcfa.abstract import (
    A_TRUE,
    AAddr,
    AClo,
    AEnv,
    AFrame,
    APrim,
    AStore,
    EMPTY_ENV,
    EMPTY_STORE,
    Mono,
    SCALAR_TOP,
)
from pdcfa.gc import gc_store, reachable_addrs, touches

from helpers import (ainject, gc, gc_step, leq, ref_gc_store, ref_skey,
                     stack_root, step_conf)


def addr(name, uid):
    return AAddr.make("mono", Var(name, uid))


def lam_of(src):
    e = parse_and_normalize(src)
    return e.atom  # (lambda ...) normalizes to Ret(Lambda(...))


A1, A2, A3, A4 = addr("a", 1), addr("b", 2), addr("c", 3), addr("d", 4)


def test_touches_is_frame_env_range():
    env = AEnv.make(((Var("x", 9), A1), (Var("y", 10), A2)))
    fr = AFrame.make(Var("r", 11), None, env)
    assert touches(fr) == {A1, A2}


def test_stack_root_unions_frames():
    f1 = AFrame.make(Var("r", 1), None, AEnv.make(((Var("x", 2), A1),)))
    f2 = AFrame.make(Var("s", 3), None, AEnv.make(((Var("y", 4), A2),)))
    assert stack_root(()) == frozenset()
    assert stack_root((f1, f2)) == {A1, A2}


def test_reachable_through_closure_env():
    lam = lam_of("(lambda (x) x)")
    clo = AClo.make(lam, AEnv.make(((Var("z", 7), A2),)))
    store = AStore.make([(A1, (clo,)), (A2, (A_TRUE,)), (A3, (SCALAR_TOP,))])
    assert reachable_addrs({A1}, store) == {A1, A2}


def test_reachable_through_prim_args():
    lam = lam_of("(lambda (x) x)")
    clo = AClo.make(lam, AEnv.make(((Var("z", 7), A3),)))
    prim = APrim.make("+", (clo,))
    store = AStore.make([(A1, (prim,)), (A3, (A_TRUE,))])
    assert reachable_addrs({A1}, store) == {A1, A3}


def test_reachable_handles_cycles():
    lam = lam_of("(lambda (x) x)")
    c1 = AClo.make(lam, AEnv.make(((Var("p", 1), A2),)))
    c2 = AClo.make(lam, AEnv.make(((Var("q", 2), A1),)))
    store = AStore.make([(A1, (c1,)), (A2, (c2,)), (A4, (A_TRUE,))])
    assert reachable_addrs({A1}, store) == {A1, A2}


def test_gc_store_drops_dead_bindings():
    env = AEnv.make(((Var("x", 1), A1),))
    store = AStore.make([(A1, (A_TRUE,)), (A2, (SCALAR_TOP,))])
    out = gc_store(env, store)
    assert dict(out.items) == {A1: (A_TRUE,)}


def test_gc_store_keeps_extra_roots():
    env = EMPTY_ENV
    store = AStore.make([(A2, (SCALAR_TOP,))])
    out = gc_store(env, store, extra_roots=frozenset({A2}))
    assert dict(out.items) == {A2: (SCALAR_TOP,)}


def test_gc_idempotent_and_below_identity():
    e = parse_and_normalize("(let ((f (lambda (x) x))) (f #t))")
    c = ainject(e)
    seen = [c]
    # walk a few steps and collect every configuration we meet
    for _ in range(12):
        nxt = []
        for s in seen[-4:]:
            nxt.extend(step_conf(s, Mono()))
        if not nxt:
            break
        seen.extend(nxt)
    for s in seen:
        g = gc(s)
        assert gc(g) is g  # interned: idempotence is identity
        assert leq(g.store, s.store)
        assert g.exp is s.exp and g.env is s.env and g.kont == s.kont


def test_gc_of_injected_config_is_identity():
    e = parse_and_normalize("((lambda (x) x) (lambda (y) y))")
    c = ainject(e)
    assert gc(c) is c  # nothing allocated yet, nothing to collect


def test_gc_collects_dead_let_binding():
    # x is bound, then never referenced by the continuation or env
    e = parse_and_normalize("(let ((x ((lambda (a) a) #t))) ((lambda (y) y) 1))")
    c = ainject(e)
    policy = Mono()
    frontier = [c]
    found_dead = False
    for _ in range(40):
        nxt = []
        for s in frontier:
            nxt.extend(step_conf(s, policy))
        if not nxt:
            break
        for s in nxt:
            if len(dict(gc(s).store.items)) < len(dict(s.store.items)):
                found_dead = True
        frontier = nxt
    assert found_dead


def test_gc_step_agrees_with_astep_when_no_garbage():
    # single-variable program: every binding stays reachable until halt
    e = parse_and_normalize("((lambda (x) x) 42)")
    c = ainject(e)
    policy = Mono()
    frontier = [c]
    for _ in range(10):
        nxt = []
        for s in frontier:
            assert gc(s) is s
            assert set(gc_step(s, policy)) == set(step_conf(s, policy))
            nxt.extend(step_conf(s, policy))
        frontier = nxt
        if not frontier:
            break


def test_collection_monotone_in_roots():
    env = AEnv.make(((Var("x", 1), A1),))
    store = AStore.make([(A1, (A_TRUE,)), (A2, (SCALAR_TOP,)), (A3, (A_TRUE,))])
    small = gc_store(env, store)
    big = gc_store(env, store, extra_roots=frozenset({A2}))
    assert leq(small, big)
    assert leq(big, store)


# ---------------------------------------------------------------------------
# the memoized collector against a from-scratch one

G_VARS = [Var(n, i) for i, n in enumerate("pqrst", start=20)]
G_ADDRS = [addr(n, i) for i, n in enumerate("ghijkl", start=30)]
_LAM = lam_of("(lambda (x) x)")
_CLOS = [AClo.make(_LAM, AEnv.make(((G_VARS[0], a),))) for a in G_ADDRS[:4]]
G_VALS = [SCALAR_TOP, A_TRUE, *_CLOS,
          AClo.make(_LAM, AEnv.make(((G_VARS[1], G_ADDRS[4]),
                                     (G_VARS[2], G_ADDRS[0])))),
          APrim.make("+", (_CLOS[3],))]
G_ENVS = [EMPTY_ENV] + [AEnv.make(zip(G_VARS, G_ADDRS[i:i + 2]))
                        for i in range(5)]

_pick = st.integers(0, 63)  # an earlier store, taken modulo the pool size
# keyed: build the store's key first, so that what is derived inherits it
gc_ops = st.lists(st.one_of(
    st.tuples(st.just("bind"), _pick, st.booleans(), st.sampled_from(G_ADDRS),
              st.lists(st.sampled_from(G_VALS), min_size=1, max_size=3)),
    st.tuples(st.just("gc"), _pick, st.booleans(), st.sampled_from(G_ENVS),
              st.frozensets(st.sampled_from(G_ADDRS), max_size=2)),
), max_size=40)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gc_ops)
def test_gc_store_matches_from_scratch_reference(ops):
    stores = [EMPTY_STORE]
    for op, i, keyed, *args in ops:
        s = stores[i % len(stores)]
        if keyed:
            s.skey()
        if op == "bind":
            stores.append(s.bind(args[0], tuple(args[1])))
        else:
            env, extra = args
            out = gc_store(env, s, extra)
            assert out is ref_gc_store(env, s, extra)
            assert gc_store(env, s, extra) is out  # a memo hit
            assert out.skey() == ref_skey(out)
            stores.append(out)
    for s in stores:
        assert s.skey() == ref_skey(s)
