"""Abstracted CESK machine.

Abstract values are closures over abstract environments, a single integer
top element, a three-point boolean domain, and (partially applied)
primitives.  Stores map abstract addresses to finite value sets and update
by join.  Transitions are nondeterministic: tail calls fork over the
callee's closure set, If forks on boolean top.

astep is the one transfer function of every analysis.  It steps (exp, env,
store, ctx) and leaves the continuation to its caller: it returns the moves
(each pushing at most one frame) and the values returned to whatever frame
is on top, which areturn binds into a frame.  The pushdown analyses keep
the continuation as an exact stack, the finite baselines allocate it in a
continuation store.

All abstract domain objects are hash-consed (interned), so equality is
pointer equality; every container used for iteration is kept in a canonical
sort order (see skey) to make analyses deterministic across processes.
The tables are process-wide, so the analyses of one program share its
domain objects and their memos; each run interns its nodes (analyses).
Each interned object builds its sort key once (see _keyed).

Stores and environments are updated in place of one entry, not rebuilt:
each keeps a key -> position index built on first use (see _positions),
so lookup and get are O(1); bind and extend return self when nothing
changes and otherwise replace one entry or insert it at its sorted
position; restrict returns self when it keeps every entry.  Each map
memoizes what it derives (see _memo): an environment its extend per (var,
addr) and its restrict per keep-set, a store its bind per (addr, vals), so
a repeated update is one dict hit.  No update builds a sort key: a map's
key is built only when something asks for it (a closure's environment,
when value sets are sorted).  make builds one from scratch (the empty
ones).
"""
from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict

from .frozen import Frozen, Record, setfield
from .syntax import (Exp, Let1, TailCall, Ret, If, Lambda, Var, PRIM_ARITY,
                     UnboundVariableError)


# ---------------------------------------------------------------------------
# interning

# class -> {intern key: object}; keys hold the syntax objects (Exp, Lambda,
# Var) themselves, which hash and compare by identity
_TABLES = defaultdict(dict)


def _intern(cls, key, *args):
    tab = _TABLES[cls]
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
            setfield(self, "_skey", key)
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


class AScalarTop(Frozen):
    def skey(self):
        return ("num",)

    def __repr__(self):
        return "Int⊤"


SCALAR_TOP = AScalarTop()


class ABool(Frozen):
    def __init__(self, value):
        setfield(self, "value", value)  # a bool, or None for ⊤

    def skey(self):
        return ("bool", {False: 0, True: 1, None: 2}[self.value])

    def __repr__(self):
        return {False: "#f", True: "#t", None: "Bool⊤"}[self.value]


A_TRUE = ABool(True)
A_FALSE = ABool(False)
A_BOOL_TOP = ABool(None)


def abool(b):
    return A_TRUE if b else A_FALSE


class AClo(Frozen):
    __slots__ = ("lam", "env", "_skey")

    def __init__(self, lam, env):
        setfield(self, "lam", lam)
        setfield(self, "env", env)

    @classmethod
    def make(cls, lam, env):
        return _intern(cls, (lam, env), lam, env)

    @_keyed
    def skey(self):
        return ("clo", self.lam.skey(), self.env.skey())

    def __repr__(self):
        return f"Clo(λ{self.lam.param}@{self.lam.skey()})"


class APrim(Frozen):
    __slots__ = ("op", "args", "_skey")

    def __init__(self, op, args=()):
        setfield(self, "op", op)
        setfield(self, "args", args)

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


class AAddr(Frozen):
    __slots__ = ("tag", "var", "extra", "_skey")

    def __init__(self, tag, var, extra=()):
        setfield(self, "tag", tag)  # 'mono' | '1cfa' | 'kcfa'
        setfield(self, "var", var)
        setfield(self, "extra", extra)

    @classmethod
    def make(cls, tag, var, extra=()):
        return _intern(cls, (tag, var, extra), tag, var, extra)

    @_keyed
    def skey(self):
        return ("addr", self.tag, self.var.skey(), self.extra)

    def __repr__(self):
        ex = f":{list(self.extra)}" if self.extra else ""
        return f"⟨{self.var}{ex}⟩"


def _positions(m):
    """key -> position in the items of an interned map (AEnv, AStore),
    built on first use and kept on the instance."""
    try:
        return m._pos
    except AttributeError:
        pos = {k: i for i, (k, _) in enumerate(m.items)}
        setfield(m, "_pos", pos)
        return pos


def _memo(m, name):
    """The memo dict an interned object keeps under name, made on first
    use."""
    try:
        return getattr(m, name)
    except AttributeError:
        memo = {}
        setfield(m, name, memo)
        return memo


def _put(m, i, k, v):
    """m (an AEnv or AStore) with entry i replaced by (k, v), or, when i is
    None, with (k, v) inserted at its place in skey order.  Distinct
    interned keys have distinct skeys, so this is the map make would
    build."""
    items = m.items
    if i is None:
        i = j = bisect_left(items, k.skey(), key=lambda p: p[0].skey())
    else:
        j = i + 1
    new = items[:i] + ((k, v),) + items[j:]
    return _intern(type(m), new, new)


def _select(m, keep):
    """m (an AEnv or AStore) on the keys in keep; m itself when keep
    covers every key."""
    idx = [i for i, (k, _) in enumerate(m.items) if k in keep]
    if len(idx) == len(m.items):
        return m
    items = tuple(m.items[i] for i in idx)  # still sorted
    return _intern(type(m), items, items)


class AEnv(Frozen):
    __slots__ = ("items", "_pos", "_extended", "_restricted", "_addrs",
                 "_skey")

    def __init__(self, items):
        setfield(self, "items", items)  # of (Var, AAddr), sorted by var skey

    @classmethod
    def make(cls, pairs):
        items = tuple(sorted(dict(pairs).items(), key=lambda p: p[0].skey()))
        return _intern(cls, items, items)

    def get(self, v):
        i = _positions(self).get(v)
        if i is None:
            raise UnboundVariableError(repr(v))
        return self.items[i][1]

    def extend(self, v, a):
        """self with v bound to a; memoized per env, var and address."""
        memo = _memo(self, "_extended")
        out = memo.get((v, a))
        if out is None:
            i = _positions(self).get(v)
            same = i is not None and self.items[i][1] is a
            out = memo[v, a] = self if same else _put(self, i, v, a)
        return out

    def restrict(self, keep):
        """The env on the vars in keep; memoized per env and keep-set."""
        memo = _memo(self, "_restricted")
        out = memo.get(keep)
        if out is None:
            out = memo[keep] = _select(self, keep)
        return out

    def addrs(self):
        """The addresses the env maps to, as a frozenset built once."""
        try:
            return self._addrs
        except AttributeError:
            out = frozenset([a for _, a in self.items])
            setfield(self, "_addrs", out)
            return out

    @staticmethod
    def entry_key(v, a):
        return (v.skey(), a.skey())

    @_keyed
    def skey(self):
        return tuple(AEnv.entry_key(v, a) for v, a in self.items)

    def __repr__(self):
        return "{" + ", ".join(f"{v}↦{a}" for v, a in self.items) + "}"


EMPTY_ENV = AEnv.make([])


class AStore(Frozen):
    __slots__ = ("items", "_pos", "_bound", "_collected", "_skey")

    def __init__(self, items):
        setfield(self, "items", items)  # (AAddr, vals) by addr skey, no ∅

    @classmethod
    def make(cls, entries):
        items = tuple(sorted(((a, vs) for a, vs in entries if vs),
                             key=lambda p: p[0].skey()))
        return _intern(cls, items, items)

    def lookup(self, a):
        i = _positions(self).get(a)
        return () if i is None else self.items[i][1]

    def bind(self, a, vals):
        """Join the tuple vals into a's entry; self when every value is
        already there.  Memoized per store, address and vals."""
        memo = _memo(self, "_bound")
        out = memo.get((a, vals))
        if out is None:
            i = _positions(self).get(a)
            old = () if i is None else self.items[i][1]
            new = tuple(v for v in vals if v not in old)
            out = memo[a, vals] = (_put(self, i, a, vset(old + new))
                                   if new else self)
        return out

    def restrict(self, keep):
        return _select(self, keep)

    @staticmethod
    def entry_key(a, vs):
        return (a.skey(), tuple(v.skey() for v in vs))

    @_keyed
    def skey(self):
        return tuple(AStore.entry_key(a, vs) for a, vs in self.items)

    def __repr__(self):
        return "[" + ", ".join(f"{a}↦{list(vs)}" for a, vs in self.items) + "]"


EMPTY_STORE = AStore.make([])


def store_join(s1: AStore, s2: AStore) -> AStore:
    """Pointwise union of store images."""
    for a, vs in s2.items:
        s1 = s1.bind(a, vs)
    return s1


class AFrame(Frozen):
    __slots__ = ("var", "exp", "env", "_skey")

    def __init__(self, var, exp, env):
        setfield(self, "var", var)
        setfield(self, "exp", exp)
        setfield(self, "env", env)

    @classmethod
    def make(cls, var, exp, env):
        return _intern(cls, (var, exp, env), var, exp, env)

    @_keyed
    def skey(self):
        return ("frame", self.var.skey(), self.exp.label, self.env.skey())

    def __repr__(self):
        return f"({self.var}, e{self.exp.label})"


# ---------------------------------------------------------------------------
# allocation policies: values, equal when of one class (and, for KCFA, k)


class Mono(Record):
    pass


class OneCFA(Record):
    pass


class KCFA(Record):
    def __init__(self, k):
        setfield(self, "k", k)


def aalloc(policy, v: Var, exp_label, hist) -> AAddr:
    """The address policy gives v, bound by the step from exp_label; hist
    is the call sites, latest first."""
    if isinstance(policy, Mono):
        return AAddr.make("mono", v)
    if isinstance(policy, OneCFA):
        return AAddr.make("1cfa", v, (exp_label,))
    if isinstance(policy, KCFA):
        return AAddr.make("kcfa", v, hist[: policy.k])
    raise TypeError(policy)


def push_ctx(policy, ctx: tuple, call_label: int) -> tuple:
    if isinstance(policy, KCFA):
        return ((call_label,) + ctx)[: policy.k]
    return ()


# ---------------------------------------------------------------------------
# atomic evaluation and transition


def aeval(ae, env: AEnv, store: AStore):
    if isinstance(ae, Var):
        return store.lookup(env.get(ae))
    if isinstance(ae, Lambda):
        return (AClo.make(ae, env.restrict(ae.free)),)
    if isinstance(ae, bool):  # before int: True is an int
        return (abool(ae),)
    if isinstance(ae, int):
        return (SCALAR_TOP,)
    if isinstance(ae, str):
        return (APrim.make(ae),)
    raise TypeError(ae)


def _apply_aprim(p: APrim, avals, store, policy, label, ctx):
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
                    and isinstance(w.lam.body.atom, Lambda)):
                continue
            inner = w.lam.body.atom
            addr = aalloc(policy, w.lam.param, label, ctx)
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
    if op in ("<=", "<", "="):
        return [((A_BOOL_TOP,), store)]
    return [((SCALAR_TOP,), store)]  # +, -, *, quotient, remainder


def astep(e: Exp, env: AEnv, store: AStore, ctx: tuple, policy):
    """The abstract transfer function; the continuation is the caller's.

    Returns (moves, returns).  A move is (pushed AFrame or None, exp',
    env', store', ctx'); a return is (vals, store') for whatever frame is
    on top of the caller's continuation (see areturn).  Either list may
    repeat an entry; callers deduplicate the nodes they build.
    """
    moves, returns = [], []
    if isinstance(e, Ret):
        returns.append((aeval(e.atom, env, store), store))
    elif isinstance(e, If):
        vals = aeval(e.cond, env, store)
        for t, v in ((e.then, A_TRUE), (e.els, A_FALSE)):
            if v in vals or A_BOOL_TOP in vals:
                moves.append((None, t, env.restrict(t.free), store, ctx))
    elif isinstance(e, Let1):
        fr = AFrame.make(e.var, e.body, env.restrict(e.frame_free))
        moves.append((fr, e.rhs, env.restrict(e.rhs.free), store, ctx))
    elif isinstance(e, TailCall):
        fvals = aeval(e.fun, env, store)
        avals = aeval(e.arg, env, store)
        for f in fvals:
            if isinstance(f, AClo):
                ctx2 = push_ctx(policy, ctx, e.label)
                addr = aalloc(policy, f.lam.param, e.label, ctx2)
                body = f.lam.body
                env2 = f.env.extend(f.lam.param, addr).restrict(body.free)
                moves.append((None, body, env2, store.bind(addr, avals), ctx2))
            elif isinstance(f, APrim):
                returns.extend(_apply_aprim(f, avals, store, policy,
                                            e.label, ctx))
    else:
        raise TypeError(e)
    return moves, returns


def areturn(fr: AFrame, vals, store: AStore, e: Exp, ctx: tuple, policy):
    """Bind vals, returned by a step from e, into frame fr: (exp', env',
    store'), under the same ctx."""
    addr = aalloc(policy, fr.var, e.label, ctx)
    env2 = fr.env.extend(fr.var, addr).restrict(fr.exp.free)
    return fr.exp, env2, store.bind(addr, vals)


# ---------------------------------------------------------------------------
# finite baseline: store-allocated continuations


class KHalt(Frozen):
    """The halt continuation's address, which holds no frames."""

    def skey(self):
        return ("kaddr-halt",)


K_HALT = KHalt()


class KAddr(Frozen):
    __slots__ = ("exp", "env", "_skey")

    def __init__(self, exp, env):
        setfield(self, "exp", exp)
        setfield(self, "env", env)

    @classmethod
    def make(cls, exp, env):
        return _intern(cls, (exp, env), exp, env)

    @_keyed
    def skey(self):
        return ("kaddr", self.exp.label, self.env.skey())
