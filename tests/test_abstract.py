import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pdcfa.syntax import (parse_and_normalize, Var, Let1, Ret, TailCall,
                          PRIM_ARITY)
from pdcfa.concrete import inject, run
from pdcfa.abstract import (Mono, OneCFA, KCFA, aalloc, aeval,
                            store_join, AEnv, AStore, AClo, AAddr,
                            A_TRUE, A_FALSE, EMPTY_ENV, EMPTY_STORE,
                            SCALAR_TOP, A_BOOL_TOP, K_HALT, vset, APrim,
                            AFrame, KAddr)
from pdcfa.analyses import ANALYSES, State
from pdcfa.pushdown import UNCH, Pop, Push
from pdcfa.cli import policy_for_k, run_one
from pdcfa.concrete import UnboundVariableError
from pdcfa import abstract, bench
from pdcfa.frozen import fields

from helpers import (AConf, IncomparableKinds, _alpha_val, ainject, alpha,
                     leq, parts,
                     ref_bind, ref_extend, ref_get, ref_lookup,
                     ref_restrict, ref_skey, ref_store_join, run_abstracted,
                     step_conf)

ID_ON_ID = "((lambda (x) x) (lambda (y) y))"
KINDS = tuple(ANALYSES)
X = Var("x", 1)


def test_aalloc_policies():
    ctx = (7, (7,))  # exp label, history
    a_mono = aalloc(Mono(), X, *ctx)
    assert a_mono.tag == "mono" and a_mono.var == X and a_mono.extra == ()
    assert aalloc(Mono(), X, *ctx) is a_mono  # interned
    # another binder with X's name and id is another Var, so another address
    assert aalloc(Mono(), Var("x", 1), *ctx) is not a_mono
    a_1cfa = aalloc(OneCFA(), X, *ctx)
    assert a_1cfa.extra == (7,)
    a_k = aalloc(KCFA(2), X, 7, (7, 9, 11))
    assert a_k.extra == (7, 9)
    assert aalloc(KCFA(2), X, 7, ()).extra == ()
    assert aalloc(OneCFA(), X, 3, ()) is AAddr.make("1cfa", X, (3,))
    with pytest.raises(TypeError):
        aalloc(object(), X, *ctx)


def test_policies_are_values():
    assert Mono() == Mono() and OneCFA() == OneCFA() and KCFA(1) == KCFA(1)
    assert KCFA(1) != KCFA(2) and Mono() != OneCFA() != KCFA(1)
    assert hash(KCFA(2)) == hash(KCFA(2)) and hash(Mono()) == hash(Mono())
    assert len({Mono(), Mono(), OneCFA(), OneCFA(), KCFA(1), KCFA(1),
                KCFA(2)}) == 4


def test_aeval_closure_and_lookup():
    e = parse_and_normalize("(lambda (x) x)")
    lam = e.atom
    vals = aeval(lam, EMPTY_ENV, EMPTY_STORE)
    assert vals == (AClo.make(lam, EMPTY_ENV),)
    a = AAddr.make("mono", X)
    env = EMPTY_ENV.extend(X, a)
    store = EMPTY_STORE.bind(a, vals)
    assert aeval(X, env, store) == vals
    # empty image → bottom
    assert aeval(X, env, EMPTY_STORE) == ()


def test_astep_let_pushes_one_frame():
    e = parse_and_normalize("((lambda (f) (f (f 1))) (lambda (x) x))")
    # drive until a Let1 is the control
    c = ainject(e)
    pol = Mono()
    seen = [c]
    while not isinstance(seen[-1].exp, Let1):
        succs = step_conf(seen[-1], pol)
        assert succs
        seen.append(succs[0])
    lc = seen[-1]
    succs = step_conf(lc, pol)
    assert len(succs) == 1
    assert len(succs[0].kont) == len(lc.kont) + 1
    assert succs[0].kont[0].var is lc.exp.var


def test_astep_forks_on_two_closures():
    # a tail call whose callee address holds two closures forks
    e = parse_and_normalize("(lambda (f) (f 1))")
    lam = e.atom
    call = lam.body
    assert isinstance(call, TailCall)
    lam1 = parse_and_normalize("(lambda (y) y)").atom
    lam2 = parse_and_normalize("(lambda (z) z)").atom
    a = AAddr.make("mono", lam.param)
    env = EMPTY_ENV.extend(lam.param, a)
    store = EMPTY_STORE.bind(
        a, (AClo.make(lam1, EMPTY_ENV), AClo.make(lam2, EMPTY_ENV)))
    c = AConf.make(call, env, store, ())
    succs = step_conf(c, Mono())
    assert len(succs) == 2
    assert {s.exp for s in succs} == {lam1.body, lam2.body}


def test_astep_final_state_no_successors():
    e = parse_and_normalize("42")
    c = ainject(e)
    assert isinstance(c.exp, Ret)
    assert step_conf(c, Mono()) == []


def test_astep_if_on_bool_top_forks():
    e = parse_and_normalize("(lambda (b) (if b 1 2))")
    lam = e.atom
    a = AAddr.make("mono", lam.param)
    env = EMPTY_ENV.extend(lam.param, a)
    store = EMPTY_STORE.bind(a, (A_BOOL_TOP,))
    c = AConf.make(lam.body, env, store, ())
    succs = step_conf(c, Mono())
    assert len(succs) == 2


def _aprim(op, args, arg):
    return abstract._apply_aprim(APrim.make(op, args), vset([arg]),
                                 EMPTY_STORE, Mono(), 0, ())


@pytest.mark.parametrize("arg, want", [
    (A_FALSE, A_TRUE), (A_TRUE, A_FALSE), (A_BOOL_TOP, A_BOOL_TOP),
    (SCALAR_TOP, A_FALSE), (APrim.make("+"), A_FALSE),
])
def test_abstract_not(arg, want):
    """Only #f is false, so `not` of anything but a boolean is #f."""
    assert _aprim("not", (), arg) == [((want,), EMPTY_STORE)]


PRIM_ARGS = {"0": 0, "1": 1, "-3": -3, "7": 7, "#t": True, "#f": False}


@pytest.mark.parametrize("op", sorted(PRIM_ARITY))
def test_abstract_primitives_cover_the_concrete_ones(op):
    """α of every concrete result is below a value of the abstract result
    for the α of the arguments; a stuck application has none to cover."""
    for args in itertools.product(PRIM_ARGS, repeat=PRIM_ARITY[op]):
        _, outcome = run(parse_and_normalize(f"({op} {' '.join(args)})"))
        if outcome[0] == "stuck":
            continue
        assert outcome[0] == "halt", (op, args)
        avals = [_alpha_val(PRIM_ARGS[a], {}) for a in args]
        out = _aprim(op, tuple(avals[:-1]), avals[-1])
        assert any(leq(_alpha_val(outcome[1], {}), v)
                   for vals, _ in out for v in vals), (op, args)


# ---------------------------------------------------------------------------
# store lattice properties

VARS = [Var(n, i) for i, n in enumerate("abc", start=1)]
ADDRS = [AAddr.make("mono", v) for v in VARS]
LAM = parse_and_normalize("(lambda (q) q)").atom
VALS = [SCALAR_TOP, A_TRUE, A_FALSE,
        AClo.make(LAM, EMPTY_ENV)]

def _mk_store(entries):
    merged = {}
    for a, vs in entries:
        merged[a] = merged.get(a, ()) + tuple(vs)
    return AStore.make([(a, vset(vs)) for a, vs in merged.items()])


stores = st.lists(
    st.tuples(st.sampled_from(ADDRS),
              st.lists(st.sampled_from(VALS), min_size=0, max_size=3)),
    max_size=4,
).map(_mk_store)


@given(stores, stores)
@settings(max_examples=200, deadline=None)
def test_store_join_commutative_and_bounding(s1, s2):
    j = store_join(s1, s2)
    assert j is store_join(s2, s1)
    assert leq(s1, j) and leq(s2, j)


@given(stores, stores, stores)
@settings(max_examples=100, deadline=None)
def test_store_join_associative_idempotent(s1, s2, s3):
    assert store_join(store_join(s1, s2), s3) is store_join(s1, store_join(s2, s3))
    assert store_join(s1, s1) is s1


def test_store_join_examples():
    assert store_join(EMPTY_STORE, EMPTY_STORE) is EMPTY_STORE
    a = ADDRS[0]
    s1 = EMPTY_STORE.bind(a, (VALS[1],))
    s2 = EMPTY_STORE.bind(a, (VALS[2],))
    j = store_join(s1, s2)
    assert set(j.lookup(a)) == {VALS[1], VALS[2]}


def test_leq_kont_lengths_and_errors():
    e = parse_and_normalize(ID_ON_ID)
    c = ainject(e)
    from pdcfa.abstract import AFrame
    f = AFrame.make(X, e, EMPTY_ENV)
    assert not leq((), (f,))
    assert leq((f,), (f,))
    with pytest.raises(IncomparableKinds):
        leq(EMPTY_ENV, EMPTY_STORE)


def test_leq_reflexive_on_reached_confs():
    e = bench.load("mj09")
    pol = Mono()
    frontier = [ainject(e)]
    seen = set()
    while frontier:
        c = frontier.pop()
        if c in seen:
            continue
        seen.add(c)
        assert leq(c, c)
        frontier.extend(step_conf(c, pol))


def test_bool_top_orders():
    assert leq(A_TRUE, A_BOOL_TOP)
    assert not leq(A_BOOL_TOP, A_TRUE)


# ---------------------------------------------------------------------------
# alpha and the simulation property


def test_alpha_of_injection():
    e = parse_and_normalize(ID_ON_ID)
    assert alpha(inject(e), Mono(), {}, ()) is ainject(e)


def test_alpha_mono_collision_joins():
    # two concrete bindings of the same variable collide under Mono
    src = "(let* ((f (lambda (x) x)) (u (f 1)) (w (f (lambda (y) y)))) w)"
    e = parse_and_normalize(src)
    pol = Mono()
    trace, outcome, addr_map, ctxs = run_abstracted(e, pol)
    final = alpha(trace[-1], pol, addr_map, ctxs[-1])
    widths = {len(vals) for _, vals in final.store.items}
    assert 2 in widths  # some image joined two values


@pytest.mark.parametrize("name", ["mj09", "eta", "loop2", "sat"])
@pytest.mark.parametrize("k", [0, 1])
def test_single_step_simulation(name, k):
    pol = Mono() if k == 0 else OneCFA()
    e = bench.load(name)
    trace, outcome, addr_map, ctxs = run_abstracted(e, pol)
    for i in range(len(trace) - 1):
        ac = alpha(trace[i], pol, addr_map, ctxs[i])
        ac2 = alpha(trace[i + 1], pol, addr_map, ctxs[i + 1])
        succs = step_conf(ac, pol)
        assert any(_leq_conf(ac2, s) for s in succs), (name, i)


def _leq_conf(c1, c2):
    try:
        return leq(c1, c2)
    except IncomparableKinds:
        return False


def test_astep_monotone_in_store():
    e = bench.load("eta")
    pol = Mono()
    frontier = [ainject(e)]
    seen = set()
    extra = EMPTY_STORE.bind(ADDRS[0], (VALS[0],))
    while frontier:
        c = frontier.pop()
        if c in seen:
            continue
        seen.add(c)
        succs = step_conf(c, pol)
        big = AConf.make(c.exp, c.env, store_join(c.store, extra), c.kont,
                         c.ctx)
        bsuccs = step_conf(big, pol)
        for s in succs:
            assert any(_leq_conf(s, b) for b in bsuccs)
        frontier.extend(succs)


def test_astep_stack_discipline():
    e = bench.load("fig1")
    pol = Mono()
    frontier = [ainject(e)]
    seen = set()
    while frontier:
        c = frontier.pop()
        if c in seen or len(seen) > 500:
            continue
        seen.add(c)
        for s in step_conf(c, pol):
            assert len(s.kont) - len(c.kont) in (-1, 0, 1)
            frontier.append(s)


# ---------------------------------------------------------------------------
# finite-baseline stepper


def test_finite_no_let_no_kstore_growth():
    e = parse_and_normalize(ID_ON_ID)
    r = run_one("plain", e, Mono())
    assert r.saturated
    assert r.graph.kstore == {}
    assert all(act is UNCH for _, act, _ in r.graph.edges)


def test_finite_let_roundtrip():
    src = "(let* ((u ((lambda (x) x) 1))) u)"
    e = parse_and_normalize(src)
    r = run_one("plain", e, Mono())
    assert r.saturated
    # the Let1 stored its frame at the frame's return point, with the
    # halt address below it
    (ka, frames), = r.graph.kstore.items()
    (gamma, callers), = frames.items()
    assert isinstance(ka, KAddr) and gamma[1] is K_HALT
    assert callers == {(None, K_HALT): None}
    pushes = [(s, act, d) for s, act, d in r.graph.edges
              if isinstance(act, Push)]
    assert [(s.stack, act.frame, d.stack) for s, act, d in pushes] == [
        (K_HALT, gamma, ka)]
    # and the Ret popped back out through it, to a halting Ret
    pops = [(s, d) for s, act, d in r.graph.edges if act == Pop(gamma)]
    assert pops and all(isinstance(act, (Push, Pop)) or act is UNCH
                        for _, act, _ in r.graph.edges)
    assert all(s.stack is ka and d.stack is K_HALT for s, d in pops)
    assert any(isinstance(d.exp, Ret)
               and not any(s is d for s, _, _ in r.graph.edges)
               for _, d in pops)


# ---------------------------------------------------------------------------
# indexed stores and environments: the same interned objects the
# from-scratch constructors build

D_VARS = VARS + [Var("a", 9), Var("d", 4)]
D_ADDRS = ADDRS + [AAddr.make("1cfa", v, (site,))
                   for v in D_VARS for site in (3, 8)]
D_VALS = VALS + [A_BOOL_TOP, APrim.make("+"), APrim.make("+", (SCALAR_TOP,)),
                 AClo.make(LAM, EMPTY_ENV.extend(VARS[0], ADDRS[0]))]

_pick = st.integers(0, 63)  # an earlier result, taken modulo the pool size
d_ops = st.lists(st.one_of(
    st.tuples(st.just("bind"), _pick, st.sampled_from(D_ADDRS),
              st.lists(st.sampled_from(D_VALS), max_size=3)),
    st.tuples(st.just("join"), _pick, _pick),
    st.tuples(st.just("lookup"), _pick, st.sampled_from(D_ADDRS)),
    st.tuples(st.just("extend"), _pick, st.sampled_from(D_VARS),
              st.sampled_from(D_ADDRS)),
    st.tuples(st.just("restrict"), _pick,
              st.frozensets(st.sampled_from(D_VARS))),
    st.tuples(st.just("get"), _pick, st.sampled_from(D_VARS)),
), max_size=40)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(d_ops)
def test_store_and_env_ops_match_from_scratch_reference(ops):
    stores, envs = [EMPTY_STORE], [EMPTY_ENV]
    for op, i, *args in ops:
        s, env = stores[i % len(stores)], envs[i % len(envs)]
        if op == "bind":
            a, vals = args
            stores.append(s.bind(a, tuple(vals)))
            assert stores[-1] is ref_bind(s, a, tuple(vals))
            # a repeated bind is the memoized object, with a sound key
            assert s.bind(a, tuple(vals)) is stores[-1]
            assert stores[-1].skey() == ref_skey(stores[-1])
        elif op == "join":
            s2 = stores[args[0] % len(stores)]
            stores.append(store_join(s, s2))
            assert stores[-1] is ref_store_join(s, s2)
        elif op == "lookup":
            assert s.lookup(args[0]) is ref_lookup(s, args[0])
        elif op == "extend":
            envs.append(env.extend(*args))
            assert envs[-1] is ref_extend(env, *args)
            assert env.extend(*args) is envs[-1]
            assert envs[-1].skey() == ref_skey(envs[-1])
        elif op == "restrict":
            envs.append(env.restrict(args[0]))
            assert envs[-1] is ref_restrict(env, args[0])
            assert env.restrict(args[0]) is envs[-1]
        else:
            try:
                want = ref_get(env, args[0])
            except UnboundVariableError:
                with pytest.raises(UnboundVariableError):
                    env.get(args[0])
            else:
                assert env.get(args[0]) is want


def test_insert_matches_make_with_and_without_a_built_parent_key():
    """A new entry goes where make puts it, whether or not the parent's
    key is built, and the child's key is the one built from scratch."""
    names = [Var(f"put{n}", 90 + n) for n in range(6)]
    addrs = [AAddr.make("mono", v) for v in names]
    for keyed in (False, True):  # fresh parents: their keys are unbuilt
        own = addrs[keyed::2]  # a different parent each round
        s = AStore.make((a, (A_TRUE,)) for a in own)
        env = AEnv.make(zip(names[keyed::2], own))
        if keyed:
            s.skey(), env.skey()
        assert hasattr(s, "_skey") is keyed
        assert hasattr(env, "_skey") is keyed
        for a, v in zip(addrs[1 - keyed::2], names[1 - keyed::2]):
            bound = s.bind(a, (SCALAR_TOP,))
            assert bound is AStore.make(s.items + ((a, (SCALAR_TOP,)),))
            assert bound.skey() == ref_skey(bound)
            assert s.bind(a, (SCALAR_TOP,)) is bound
            extended = env.extend(v, a)
            assert extended is AEnv.make(env.items + ((v, a),))
            assert extended.skey() == ref_skey(extended)
            assert env.extend(v, a) is extended


def test_a_repeated_run_derives_no_map_anew(monkeypatch):
    """Every env and store a run derives by extend or bind is memoized on
    the interned map it came from, so running the same cell again in one
    process builds none of them: abstract._put is never called."""
    e, policy = bench.load("kcfa2"), policy_for_k(0)
    first = run_one("plain", e, policy)
    calls = []
    put = abstract._put
    monkeypatch.setattr(abstract, "_put",
                        lambda *args: calls.append(args) or put(*args))
    again = run_one("plain", e, policy)
    assert list(map(parts, again.graph.nodes)) == list(map(parts,
                                                        first.graph.nodes))
    assert calls == []


def _reached_maps(r):
    """Every store and env an analysis result holds: node stores and envs,
    frame and continuation-address envs, closure envs
    inside stored values, and the widened global store."""
    stores, envs, frames, vals = [], [], [], []
    for n in r.graph.nodes:
        envs.append(n.env)
        if isinstance(n.stack, KAddr):
            envs.append(n.stack.env)
        if n.store is not None:
            stores.append(n.store)
    for _, act, _ in r.graph.edges:
        if act is not UNCH:
            frames.append(act.frame[0])
    if r.global_store is not None:
        stores.append(r.global_store)
    envs += [fr.env for fr in frames]
    for s in stores:
        for _, vs in s.items:
            vals += vs
    while vals:
        v = vals.pop()
        if isinstance(v, AClo):
            envs.append(v.env)
        elif isinstance(v, APrim):
            vals += v.args
    return stores, envs


def _reached_objects(r):
    """Nodes, edge actions, frames, continuation addresses, stack roots
    and their parts: every kind of domain object an analysis builds."""
    out = []
    for n in r.graph.nodes:
        stack = n.stack
        out += [n, n.env, n.store,
                *(stack if isinstance(stack, frozenset) else (stack,))]
    for _, act, _ in r.graph.edges:
        out.append(act)
        if act is not UNCH:
            out.append(act.frame[0])
    for s in [r.global_store] + [x for x in out if isinstance(x, AStore)]:
        for a, vs in getattr(s, "items", ()):
            out += [a, *vs]
    return [x for x in dict.fromkeys(out) if x is not None
            and x is not UNCH]


@pytest.mark.parametrize("kind", KINDS)
def test_domain_objects_are_immutable_and_compare_by_identity(kind):
    """Domain objects equal only themselves.  A State is the tuple of its
    parts, so it equals, and hashes like, a twin with the same parts: a run
    makes one State per parts tuple, so within the run that is identity."""
    r = run_one(kind, bench.load("fig1"), policy_for_k(1))
    objs = _reached_objects(r)
    assert {type(x).__name__ for x in objs} >= {"AEnv", "AAddr", "AClo"}
    for x in objs:
        for field in [*fields(x), "new_field"]:
            with pytest.raises(AttributeError):
                setattr(x, field, None)
        for field in fields(x):
            with pytest.raises(AttributeError):
                delattr(x, field)
        if type(x).__name__ in ("Push", "Pop"):
            continue  # stack actions are values (see test_pushdown)
        twin = copy.copy(x)  # every field the same, another object
        assert twin is not x and fields(twin) == fields(x), type(x)
        if type(x) is State:
            assert x == twin and hash(x) == hash(twin)
        else:
            assert x == x and x != twin, type(x)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("kind", KINDS)
def test_reached_objects_carry_no_instance_dict(kind, k):
    """Nodes and interned domain objects keep their fields in slots; the
    boolean, scalar and halt singletons and stack actions keep a dict."""
    r = run_one(kind, bench.load("fig1"), policy_for_k(k))
    objs = [x for x in _reached_objects(r)
            if x not in (A_TRUE, A_FALSE, A_BOOL_TOP, SCALAR_TOP, K_HALT)
            and not isinstance(x, (Push, Pop))]
    assert {type(x).__name__ for x in objs} >= {"State", "AEnv", "AAddr"}
    for x in objs:
        assert not hasattr(x, "__dict__"), type(x)


def test_every_interned_class_declares_its_slots():
    """A class interned through _intern, and State, which each run
    interns in a table of its own, must not bring the instance dict back:
    it declares __slots__ itself."""
    for kind in KINDS:
        run_one(kind, bench.load("fig1"), policy_for_k(1))
    ainject(bench.load("fig1"))
    assert {c.__name__ for c in abstract._TABLES} >= {
        "AEnv", "AStore", "AClo", "APrim", "AAddr", "AFrame", "KAddr",
        "AConf"}
    for cls in (State, *abstract._TABLES):
        assert "__slots__" in vars(cls), cls
        assert all("__dict__" not in vars(c) for c in cls.__mro__), cls


def test_fields_lists_exactly_the_set_slots():
    lam = parse_and_normalize("(lambda (z) z)").atom
    clo = AClo(lam, EMPTY_ENV)  # not interned: no cached field yet
    assert list(fields(clo)) == ["lam", "env"]
    assert fields(clo)["lam"] is lam and fields(clo)["env"] is EMPTY_ENV
    key = clo.skey()
    assert fields(clo) == {"lam": lam, "env": EMPTY_ENV, "_skey": key}
    env = AEnv(((X, aalloc(Mono(), X, 0, ())),))
    assert list(fields(env)) == ["items"]
    env.skey()
    env.addrs()
    env.get(X)
    # listed in declaration order, not in the order they were cached
    assert list(fields(env)) == ["items", "_pos", "_addrs", "_skey"]
    for x in (clo, env):
        assert set(fields(x)) == {f for f in type(x).__slots__
                                  if hasattr(x, f)}
        assert fields(copy.copy(x)) == fields(x)


def test_kaddr_repr_shows_its_init_fields_only():
    e = parse_and_normalize("(let ((y (+ 1 2))) y)")
    env = AEnv.make([(X, aalloc(Mono(), X, 0, ()))])
    ka = KAddr.make(e.body, env)
    ka.skey()  # a cached field, which repr leaves out
    assert repr(ka) == (
        "KAddr(exp=Let1(var=y_2, rhs=TailCall(fun=t_1, "
        "arg=2, label=2, free=frozenset({t_1})), "
        "body=Ret(atom=y_2, label=3, free=frozenset({y_2})), "
        "label=4, free=frozenset({t_1}), frame_free=frozenset()), "
        "env={x_1↦⟨x_1⟩})")


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("prog", ["fig1", "kcfa2"])
def test_reached_stores_and_envs_are_canonical(prog, k):
    e = bench.load(prog)
    for kind in KINDS:
        r = run_one(kind, e, policy_for_k(k), node_limit=2_000)
        stores, envs = _reached_maps(r)
        assert stores and envs
        for s in dict.fromkeys(stores):
            assert AStore.make(s.items) is s, (kind, s)
        for env in dict.fromkeys(envs):
            assert AEnv.make(env.items) is env, (kind, env)
