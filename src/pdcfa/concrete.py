"""Concrete CESK machine: the deterministic ground-truth evaluator.

Configurations are (exp, env, store, kont).  Environments map variables to
natural-number store addresses; `alloc` returns 1 + max(dom(store)), 0 on an
empty store.  Three core rules (tail call, Let1 push, Ret pop) plus If
branching on a concrete boolean and primitive application, which behaves
like a return of the computed value.  Values, frames and configurations
compare by their fields.
"""
from __future__ import annotations

from .frozen import Record, setfield
from .syntax import (Exp, Let1, TailCall, Ret, If, Ref, Lit, PrimRef, Lambda,
                     Var, PRIM_ARITY)


class UnboundVariableError(Exception):
    pass


class DanglingAddressError(Exception):
    pass


class Clo(Record):
    def __init__(self, lam, env):
        setfield(self, "lam", lam)
        setfield(self, "env", env)  # sorted tuple of (Var, Addr)

    def __repr__(self):  # its lambda's parameter and body label
        return f"#<closure {self.lam.param} e{self.lam.body.label}>"


class PrimVal(Record):
    def __init__(self, op, args=()):
        setfield(self, "op", op)
        setfield(self, "args", args)


class Frame(Record):
    def __init__(self, var, exp, env):
        setfield(self, "var", var)
        setfield(self, "exp", exp)
        setfield(self, "env", env)


def env_lookup(env, v):
    for var, a in env:
        if var == v:
            return a
    raise UnboundVariableError(repr(v))


def env_make(pairs):
    return tuple(sorted(pairs, key=lambda p: p[0].skey()))


def env_extend(env, v, a):
    return env_make([(var, x) for var, x in env if var != v] + [(v, a)])


def env_trim(env, keep):
    return tuple(p for p in env if p[0] in keep)


class Conf(Record):
    def __init__(self, exp, env, store, kont):
        setfield(self, "exp", exp)
        setfield(self, "env", env)
        setfield(self, "store", store)  # sorted tuple of (Addr, Value)
        setfield(self, "kont", kont)  # of Frame, top first


def store_make(d):
    return tuple(sorted(d.items()))


def alloc(v: Var, c: Conf) -> int:
    """Fresh address: 1 + max(dom(store)); 0 for the empty store."""
    if not c.store:
        return 0
    return 1 + max(a for a, _ in c.store)


def inject(e: Exp) -> Conf:
    return Conf(e, (), (), ())


def atomic_eval(ae, env, store):
    if isinstance(ae, Ref):
        a = env_lookup(env, ae.var)
        d = dict(store)
        if a not in d:
            raise DanglingAddressError(str(a))
        return d[a]
    if isinstance(ae, Lambda):
        return Clo(ae, env_trim(env, ae.free))
    if isinstance(ae, Lit):
        return ae.value
    if isinstance(ae, PrimRef):
        return PrimVal(ae.op)
    raise TypeError(ae)


class Step:
    def __init__(self, kind, conf=None, value=None, reason="", allocs=(),
                 applied_call_label=None):
        self.kind = kind  # 'next' | 'halt' | 'stuck'
        self.conf, self.value, self.reason = conf, value, reason
        # instrumentation for the abstraction map: (var, addr) allocations
        # and the call-site label when this step applied a closure
        self.allocs = allocs
        self.applied_call_label = applied_call_label

    def __eq__(self, other):
        return type(other) is Step and vars(self) == vars(other)


def _apply_prim(pv: PrimVal, arg, c: Conf):
    """Returns ('val', value, store, allocs) or ('stuck', reason)."""
    op = pv.op
    args = pv.args + (arg,)
    if len(args) < PRIM_ARITY[op]:
        return ("val", PrimVal(op, args), c.store, ())
    if op == "rec":
        (w,) = args
        if not (isinstance(w, Clo) and isinstance(w.lam.body, Ret)
                and isinstance(w.lam.body.atom, Lambda)):
            return ("stuck", "rec applied to a non-recursive wrapper")
        inner = w.lam.body.atom
        a = alloc(w.lam.param, c)
        env2 = env_trim(env_extend(w.env, w.lam.param, a), inner.free)
        clo = Clo(inner, env2)
        d = dict(c.store)
        d[a] = clo
        return ("val", clo, store_make(d), ((w.lam.param, a),))
    if op == "not":
        return ("val", args[0] is False, c.store, ())  # only #f is false
    x, y = args
    if not (isinstance(x, int) and not isinstance(x, bool)
            and isinstance(y, int) and not isinstance(y, bool)):
        return ("stuck", f"primitive {op} applied to non-integers")
    if op == "+":
        return ("val", x + y, c.store, ())
    if op == "-":
        return ("val", x - y, c.store, ())
    if op == "*":
        return ("val", x * y, c.store, ())
    if op == "quotient":
        if y == 0:
            return ("stuck", "division by zero")
        q = x // y if (x < 0) == (y < 0) else -((-x) // y)  # truncate toward 0
        return ("val", q, c.store, ())
    if op == "remainder":
        if y == 0:
            return ("stuck", "division by zero")
        q = x // y if (x < 0) == (y < 0) else -((-x) // y)
        return ("val", x - y * q, c.store, ())
    if op == "<=":
        return ("val", x <= y, c.store, ())
    if op == "<":
        return ("val", x < y, c.store, ())
    if op == "=":
        return ("val", x == y, c.store, ())
    return ("stuck", f"unknown primitive {op}")


def _do_return(v, store, c: Conf, allocs):
    if not c.kont:
        return Step("halt", value=v, allocs=allocs)
    fr = c.kont[0]
    c2 = Conf(c.exp, c.env, store, c.kont)
    a = alloc(fr.var, c2)
    d = dict(store)
    d[a] = v
    env2 = env_trim(env_extend(fr.env, fr.var, a), fr.exp.free)
    return Step("next", Conf(fr.exp, env2, store_make(d), c.kont[1:]),
                allocs=allocs + ((fr.var, a),))


def step(c: Conf) -> Step:
    e = c.exp
    if isinstance(e, Ret):
        v = atomic_eval(e.atom, c.env, c.store)
        return _do_return(v, c.store, c, ())
    if isinstance(e, If):
        v = atomic_eval(e.cond, c.env, c.store)
        if v is True:
            t = e.then
        elif v is False:
            t = e.els
        else:
            return Step("stuck", reason="branch on a non-boolean")
        return Step("next", Conf(t, env_trim(c.env, t.free), c.store, c.kont))
    if isinstance(e, Let1):
        fr = Frame(e.var, e.body, env_trim(c.env, e.frame_free))
        return Step("next", Conf(e.rhs, env_trim(c.env, e.rhs.free), c.store,
                                 (fr,) + c.kont))
    if isinstance(e, TailCall):
        f = atomic_eval(e.fun, c.env, c.store)
        arg = atomic_eval(e.arg, c.env, c.store)
        if isinstance(f, Clo):
            a = alloc(f.lam.param, c)
            d = dict(c.store)
            d[a] = arg
            env2 = env_trim(env_extend(f.env, f.lam.param, a), f.lam.body.free)
            return Step("next", Conf(f.lam.body, env2, store_make(d), c.kont),
                        allocs=((f.lam.param, a),), applied_call_label=e.label)
        if isinstance(f, PrimVal):
            r = _apply_prim(f, arg, c)
            if r[0] == "stuck":
                return Step("stuck", reason=r[1])
            _, v, store2, allocs = r
            return _do_return(v, store2, c, allocs)
        return Step("stuck", reason="apply a non-function")
    raise TypeError(e)


def run(e: Exp, fuel: int = 10 ** 5):
    """Run to completion or fuel exhaustion; returns (trace, outcome).

    outcome is ('halt', value), ('stuck', reason), or ('fuel',).
    """
    c = inject(e)
    trace = [c]
    for _ in range(fuel):
        s = step(c)
        if s.kind == "halt":
            return trace, ("halt", s.value)
        if s.kind == "stuck":
            return trace, ("stuck", s.reason)
        c = s.conf
        trace.append(c)
    return trace, ("fuel",)
