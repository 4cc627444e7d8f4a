"""Abstracted CESK machine.

Abstract values are closures over abstract environments, a single integer
top element, a three-point boolean domain, and (partially applied)
primitives.  Stores map abstract addresses to finite value sets and update
by join.  Transitions are nondeterministic: tail calls fork over the
callee's closure set, If forks on boolean top.

All abstract domain objects are hash-consed (interned), so equality is
pointer equality; every container used for iteration is kept in a canonical
sort order (see skey) to make analyses deterministic across processes.
Each interned object builds its sort key once (see _keyed).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (Exp, Let1, TailCall, Ret, If, Ref, Lam, Lit, PrimRef,
                     Lambda, Var, PRIM_ARITY)
from . import concrete


class IncomparableKinds(Exception):
    pass


class UnmappedAddress(Exception):
    pass


# ---------------------------------------------------------------------------
# interning

_TABLES = {}


def _intern(cls, key, *args):
    tab = _TABLES.setdefault(cls, {})
    obj = tab.get(key)
    if obj is None:
        obj = cls(*args)
        tab[key] = obj
    return obj


def _keyed(build):
    """Make build(self) the body of a class's skey method, run once.

    Interned domain objects are immutable, so the key is built on first
    use, from the children's stored keys, and kept on the instance; shared
    sub-keys are then one tuple, not a copy per caller.
    """
    def skey(self):
        try:
            return self._skey
        except AttributeError:
            key = build(self)
            object.__setattr__(self, "_skey", key)
            return key
    return skey


def skey(x):
    """Canonical, process-independent sort key for any domain object."""
    return x.skey()


def vset(vals):
    """Canonical value set: deduplicated tuple sorted by skey."""
    seen = {}
    for v in vals:
        seen[v] = None
    return tuple(sorted(seen, key=skey))


# ---------------------------------------------------------------------------
# abstract values


@dataclass(frozen=True, eq=False)
class AScalarTop:
    def skey(self):
        return ("num",)

    def __repr__(self):
        return "Int⊤"


SCALAR_TOP = AScalarTop()


@dataclass(frozen=True, eq=False)
class ABool:
    value: Optional[bool]  # None is ⊤

    def skey(self):
        return ("bool", {False: 0, True: 1, None: 2}[self.value])

    def __repr__(self):
        return {False: "#f", True: "#t", None: "Bool⊤"}[self.value]


A_TRUE = ABool(True)
A_FALSE = ABool(False)
A_BOOL_TOP = ABool(None)


def abool(b):
    return A_TRUE if b else A_FALSE


@dataclass(frozen=True, eq=False)
class AClo:
    lam: Lambda
    env: "AEnv"

    @classmethod
    def make(cls, lam, env):
        return _intern(cls, (id(lam), env), lam, env)

    @_keyed
    def skey(self):
        return ("clo", self.lam.skey(), self.env.skey())

    def __repr__(self):
        return f"Clo(λ{self.lam.param}@{self.lam.skey()})"


@dataclass(frozen=True, eq=False)
class APrim:
    op: str
    args: tuple = ()

    @classmethod
    def make(cls, op, args=()):
        return _intern(cls, (op, args), op, args)

    @_keyed
    def skey(self):
        return ("prim", self.op, tuple(a.skey() for a in self.args))

    def __repr__(self):
        return f"Prim({self.op}{list(self.args)})"


# ---------------------------------------------------------------------------
# addresses, environments, stores


@dataclass(frozen=True, eq=False)
class AAddr:
    tag: str  # 'mono' | '1cfa' | 'kcfa' | 'poly'
    var: Var
    extra: tuple = ()

    @classmethod
    def make(cls, tag, var, extra=()):
        return _intern(cls, (tag, var, extra), tag, var, extra)

    @_keyed
    def skey(self):
        return ("addr", self.tag, self.var.skey(), self.extra)

    def __repr__(self):
        ex = f":{list(self.extra)}" if self.extra else ""
        return f"⟨{self.var}{ex}⟩"


@dataclass(frozen=True, eq=False)
class AEnv:
    items: tuple  # of (Var, AAddr), sorted by var skey

    @classmethod
    def make(cls, pairs):
        items = tuple(sorted(dict(pairs).items(), key=lambda p: p[0].skey()))
        return _intern(cls, items, items)

    def get(self, v):
        for var, a in self.items:
            if var == v:
                return a
        raise concrete.UnboundVariableError(repr(v))

    def extend(self, v, a):
        return AEnv.make([(x, y) for x, y in self.items if x != v] + [(v, a)])

    def restrict(self, keep):
        return AEnv.make([(x, y) for x, y in self.items if x in keep])

    def range(self):
        return [a for _, a in self.items]

    @_keyed
    def skey(self):
        return tuple((v.skey(), a.skey()) for v, a in self.items)

    def __repr__(self):
        return "{" + ", ".join(f"{v}↦{a}" for v, a in self.items) + "}"


EMPTY_ENV = AEnv.make([])


@dataclass(frozen=True, eq=False)
class AStore:
    items: tuple  # of (AAddr, valtuple), sorted by addr skey, ∅ entries dropped

    @classmethod
    def make(cls, entries):
        items = tuple(sorted(((a, vs) for a, vs in entries if vs),
                             key=lambda p: p[0].skey()))
        return _intern(cls, items, items)

    def lookup(self, a):
        for addr, vs in self.items:
            if addr is a:
                return vs
        return ()

    def bind(self, a, vals):
        if not vals:
            return self
        d = dict(self.items)
        d[a] = vset(d.get(a, ()) + tuple(vals))
        return AStore.make(d.items())

    def restrict(self, keep):
        return AStore.make((a, vs) for a, vs in self.items if a in keep)

    @_keyed
    def skey(self):
        return tuple((a.skey(), tuple(v.skey() for v in vs))
                     for a, vs in self.items)

    def __repr__(self):
        return "[" + ", ".join(f"{a}↦{list(vs)}" for a, vs in self.items) + "]"


EMPTY_STORE = AStore.make([])


def store_join(s1: AStore, s2: AStore) -> AStore:
    """Pointwise union of store images."""
    d = dict(s1.items)
    for a, vs in s2.items:
        d[a] = vset(d.get(a, ()) + vs)
    return AStore.make(d.items())


@dataclass(frozen=True, eq=False)
class AFrame:
    var: Var
    exp: Exp
    env: AEnv

    @classmethod
    def make(cls, var, exp, env):
        return _intern(cls, (var, id(exp), env), var, exp, env)

    @_keyed
    def skey(self):
        return ("frame", self.var.skey(), self.exp.label, self.env.skey())

    def __repr__(self):
        return f"({self.var}, e{self.exp.label})"


@dataclass(frozen=True, eq=False)
class AConf:
    exp: Exp
    env: AEnv
    store: AStore
    kont: tuple  # of AFrame, top first
    ctx: tuple = ()  # last-k call-site labels (KCFA only)

    @classmethod
    def make(cls, exp, env, store, kont, ctx=()):
        return _intern(cls, (id(exp), env, store, kont, ctx),
                       exp, env, store, kont, ctx)

    @_keyed
    def skey(self):
        return (self.exp.label, self.env.skey(), self.store.skey(),
                tuple(f.skey() for f in self.kont), self.ctx)


def ainject(e: Exp) -> AConf:
    return AConf.make(e, EMPTY_ENV, EMPTY_STORE, ())


# ---------------------------------------------------------------------------
# allocation policies


@dataclass(frozen=True)
class Mono:
    pass


@dataclass(frozen=True)
class OneCFA:
    pass


@dataclass(frozen=True)
class KCFA:
    k: int


@dataclass(frozen=True)
class PolySplit:
    pass


@dataclass(frozen=True)
class AllocCtx:
    exp_label: int
    call_label: Optional[int]
    let_bound: bool
    hist: tuple  # call-site history, most recent first, already truncated


def aalloc(policy, v: Var, ctx: AllocCtx) -> AAddr:
    if isinstance(policy, Mono):
        return AAddr.make("mono", v)
    if isinstance(policy, OneCFA):
        return AAddr.make("1cfa", v, (ctx.exp_label,))
    if isinstance(policy, KCFA):
        return AAddr.make("kcfa", v, ctx.hist[: policy.k])
    if isinstance(policy, PolySplit):
        site = ctx.call_label if ctx.let_bound else None
        return AAddr.make("poly", v, (site,))
    raise TypeError(policy)


def push_ctx(policy, ctx: tuple, call_label: int) -> tuple:
    if isinstance(policy, KCFA):
        return ((call_label,) + ctx)[: policy.k]
    return ()


# ---------------------------------------------------------------------------
# atomic evaluation and transition


def aeval(ae, env: AEnv, store: AStore):
    if isinstance(ae, Ref):
        return store.lookup(env.get(ae.var))
    if isinstance(ae, Lam):
        return (AClo.make(ae.lam, env.restrict(ae.lam.free)),)
    if isinstance(ae, Lit):
        if isinstance(ae.value, bool):
            return (abool(ae.value),)
        return (SCALAR_TOP,)
    if isinstance(ae, PrimRef):
        return (APrim.make(ae.op),)
    raise TypeError(ae)


def _apply_aprim(p: APrim, avals, store, policy, actx):
    """Abstract primitive application.

    Returns a list of (result value set, store') entries; `rec` forks per
    wrapper closure because each allocates and stores a recursive closure.
    """
    op = p.op
    if len(p.args) + 1 < PRIM_ARITY[op]:
        return [(vset(APrim.make(op, p.args + (a,)) for a in avals), store)]
    if op == "rec":
        out = []
        for w in avals:
            if not (isinstance(w, AClo) and isinstance(w.lam.body, Ret)
                    and isinstance(w.lam.body.atom, Lam)):
                continue
            inner = w.lam.body.atom.lam
            addr = aalloc(policy, w.lam.param, actx)
            env2 = w.env.extend(w.lam.param, addr).restrict(inner.free)
            clo = AClo.make(inner, env2)
            out.append(((clo,), store.bind(addr, (clo,))))
        return out
    if op == "not":
        res = []
        for a in avals:
            if a is A_TRUE:
                res.append(A_FALSE)
            elif a is A_FALSE:
                res.append(A_TRUE)
            elif a is A_BOOL_TOP:
                res.append(A_BOOL_TOP)
            else:
                res.append(A_FALSE)  # everything non-#f is truthy
        return [(vset(res), store)] if res else []
    # binary scalar primitive: both arguments must be abstract integers
    args_ok = all(x is SCALAR_TOP for x in p.args)
    some_int = any(a is SCALAR_TOP for a in avals)
    if not (args_ok and some_int):
        return []
    if op in ("+", "-", "*", "quotient", "remainder"):
        return [((SCALAR_TOP,), store)]
    if op in ("<=", "<", "="):
        return [((A_BOOL_TOP,), store)]
    return []


def astep(c: AConf, policy):
    """All abstract successors of c, in canonical order."""
    e, env, store, kont, ctx = c.exp, c.env, c.store, c.kont, c.ctx
    succs = []

    def do_return(vals, store2):
        if not kont:
            return
        fr = kont[0]
        actx = AllocCtx(e.label, None, False, ctx)
        addr = aalloc(policy, fr.var, actx)
        env2 = fr.env.extend(fr.var, addr).restrict(fr.exp.free)
        succs.append(AConf.make(fr.exp, env2, store2.bind(addr, vals),
                                kont[1:], ctx))

    if isinstance(e, Ret):
        do_return(aeval(e.atom, env, store), store)
    elif isinstance(e, If):
        branches = {}
        for v in aeval(e.cond, env, store):
            if v is A_TRUE:
                branches[e.then] = None
            elif v is A_FALSE:
                branches[e.els] = None
            elif v is A_BOOL_TOP:
                branches[e.then] = None
                branches[e.els] = None
        for t in sorted(branches, key=lambda x: x.label):
            succs.append(AConf.make(t, env.restrict(t.free), store, kont, ctx))
    elif isinstance(e, Let1):
        fr = AFrame.make(e.var, e.body, env.restrict(e.body.free - {e.var}))
        succs.append(AConf.make(e.rhs, env.restrict(e.rhs.free), store,
                                (fr,) + kont, ctx))
    elif isinstance(e, TailCall):
        fvals = aeval(e.call.fun, env, store)
        avals = aeval(e.call.arg, env, store)
        for f in fvals:
            if isinstance(f, AClo):
                ctx2 = push_ctx(policy, ctx, e.label)
                actx = AllocCtx(e.label, e.label, e.call.let_bound_callee, ctx2)
                addr = aalloc(policy, f.lam.param, actx)
                body = f.lam.body
                env2 = f.env.extend(f.lam.param, addr).restrict(body.free)
                succs.append(AConf.make(body, env2, store.bind(addr, avals),
                                        kont, ctx2))
            elif isinstance(f, APrim):
                actx = AllocCtx(e.label, None, False, ctx)
                for vals, store2 in _apply_aprim(f, avals, store, policy, actx):
                    do_return(vals, store2)
    else:
        raise TypeError(e)
    # canonical order, deduplicated (interning makes dict dedup exact)
    return sorted(dict.fromkeys(succs), key=skey)


# ---------------------------------------------------------------------------
# partial orders


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


def _alpha_val(v, addr_map):
    if isinstance(v, bool):
        return abool(v)
    if isinstance(v, int):
        return SCALAR_TOP
    if isinstance(v, concrete.Clo):
        return AClo.make(v.lam, _alpha_env(v.env, addr_map))
    if isinstance(v, concrete.PrimVal):
        return APrim.make(v.op, tuple(_alpha_val(a, addr_map) for a in v.args))
    raise TypeError(v)


def _alpha_env(env, addr_map):
    pairs = []
    for var, a in env:
        if a not in addr_map:
            raise UnmappedAddress(str(a))
        pairs.append((var, addr_map[a]))
    return AEnv.make(pairs)


def alpha(c: concrete.Conf, policy, addr_map, ctx=()) -> AConf:
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


def run_abstracted(e: Exp, policy, fuel: int = 10 ** 5):
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
            actx = AllocCtx(label, label, c.exp.call.let_bound_callee, ctx2)
            addr_map[addr] = aalloc(policy, var, actx)
            ctx = ctx2
        else:
            allocs = list(s.allocs)
            # a 'next' step out of Ret/TailCall-prim ends with the frame
            # binding; any earlier allocation is rec's self-binding
            ret_alloc = None
            if s.kind == "next" and allocs and isinstance(c.exp, (Ret, TailCall)):
                ret_alloc = allocs.pop()
            for var, addr in allocs:
                addr_map[addr] = aalloc(
                    policy, var, AllocCtx(label, None, False, ctx))
            if ret_alloc is not None:
                var, addr = ret_alloc
                addr_map[addr] = aalloc(
                    policy, var, AllocCtx(label, None, False, ctx))
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
# finite baseline: store-allocated continuations


K_HALT = ("halt-kont",)


@dataclass(frozen=True, eq=False)
class KAddr:
    exp: Exp
    env: AEnv

    @classmethod
    def make(cls, exp, env):
        return _intern(cls, (id(exp), env), exp, env)

    @_keyed
    def skey(self):
        return ("kaddr", self.exp.label, self.env.skey())


def kaddr_skey(ka):
    return ("kaddr-halt",) if ka is K_HALT else ka.skey()


@dataclass(frozen=True, eq=False)
class FState:
    exp: Exp
    env: AEnv
    store: AStore
    ctx: tuple
    kaddr: object  # KAddr or K_HALT

    @classmethod
    def make(cls, exp, env, store, ctx, kaddr):
        return _intern(cls, (id(exp), env, store, ctx, id(kaddr)),
                       exp, env, store, ctx, kaddr)

    @_keyed
    def skey(self):
        return (self.exp.label, self.env.skey(), self.store.skey(), self.ctx,
                kaddr_skey(self.kaddr))


def finject(e: Exp) -> FState:
    return FState.make(e, EMPTY_ENV, EMPTY_STORE, (), K_HALT)


def astep_finite(state: FState, kstore: dict, policy):
    """Finite-state baseline step: continuations live in kstore.

    Mutates kstore by joining new (frame, return-kaddr) entries; returns
    (successors, kstore).
    """
    e, env, store, ctx, ka = (state.exp, state.env, state.store, state.ctx,
                              state.kaddr)
    succs = []

    def do_return(vals, store2):
        if ka is K_HALT:
            return
        for fr, ka2 in kstore.get(ka, ()):
            actx = AllocCtx(e.label, None, False, ctx)
            addr = aalloc(policy, fr.var, actx)
            env2 = fr.env.extend(fr.var, addr).restrict(fr.exp.free)
            succs.append(FState.make(fr.exp, env2, store2.bind(addr, vals),
                                     ctx, ka2))

    if isinstance(e, Ret):
        do_return(aeval(e.atom, env, store), store)
    elif isinstance(e, If):
        branches = {}
        for v in aeval(e.cond, env, store):
            if v is A_TRUE:
                branches[e.then] = None
            elif v is A_FALSE:
                branches[e.els] = None
            elif v is A_BOOL_TOP:
                branches[e.then] = None
                branches[e.els] = None
        for t in sorted(branches, key=lambda x: x.label):
            succs.append(FState.make(t, env.restrict(t.free), store, ctx, ka))
    elif isinstance(e, Let1):
        fr = AFrame.make(e.var, e.body, env.restrict(e.body.free - {e.var}))
        ka2 = KAddr.make(e.body, fr.env)
        cur = kstore.get(ka2, ())
        entry = (fr, ka)
        if entry not in cur:
            kstore[ka2] = tuple(sorted(
                cur + (entry,),
                key=lambda p: (p[0].skey(), kaddr_skey(p[1]))))
        succs.append(FState.make(e.rhs, env.restrict(e.rhs.free), store, ctx,
                                 ka2))
    elif isinstance(e, TailCall):
        fvals = aeval(e.call.fun, env, store)
        avals = aeval(e.call.arg, env, store)
        for f in fvals:
            if isinstance(f, AClo):
                ctx2 = push_ctx(policy, ctx, e.label)
                actx = AllocCtx(e.label, e.label, e.call.let_bound_callee, ctx2)
                addr = aalloc(policy, f.lam.param, actx)
                body = f.lam.body
                env2 = f.env.extend(f.lam.param, addr).restrict(body.free)
                succs.append(FState.make(body, env2, store.bind(addr, avals),
                                         ctx2, ka))
            elif isinstance(f, APrim):
                actx = AllocCtx(e.label, None, False, ctx)
                for vals, store2 in _apply_aprim(f, avals, store, policy, actx):
                    do_return(vals, store2)
    else:
        raise TypeError(e)
    return sorted(dict.fromkeys(succs), key=skey), kstore
