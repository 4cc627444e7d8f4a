"""Concrete CESK machine: the deterministic ground-truth evaluator.

Configurations are (exp, env, store, kont).  Environments map variables to
store addresses, which a run writes once each, in allocation order: its
stores are prefixes of one log, `alloc` is a prefix's length, and a run is
linear in its steps.  Three core rules (tail call, Let1 push, Ret pop) plus
If branching on a concrete boolean and primitive application, which behaves
like a return of the computed value.  Values, frames and configurations
compare by their fields.
"""
from __future__ import annotations

import operator
import time

from .frozen import Frozen, Record, setfield
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


class Store(Frozen):
    """The first n values of a run's allocation log, address a at cells[a];
    iterates as (address, value) pairs."""
    __slots__ = ("cells", "n")

    def __init__(self, cells, n):
        setfield(self, "cells", cells)  # shared by every store of the run
        setfield(self, "n", n)

    def __iter__(self):
        return zip(range(self.n), self.cells)

    def __eq__(self, other):
        return (type(other) is Store and self.n == other.n
                and self.cells[:self.n] == other.cells[:other.n])

    def __hash__(self):
        return self.n

    def lookup(self, a):
        if not 0 <= a < self.n:
            raise DanglingAddressError(str(a))
        return self.cells[a]

    def add(self, v):
        """v at address n; copies the log only if a longer store extends
        it, as when an older configuration is stepped again."""
        cells = self.cells if len(self.cells) == self.n else self.cells[:self.n]
        cells.append(v)
        return Store(cells, self.n + 1)


class Conf(Record):
    def __init__(self, exp, env, store, kont):
        setfield(self, "exp", exp)
        setfield(self, "env", env)
        setfield(self, "store", store)
        setfield(self, "kont", kont)  # of Frame, top first


def alloc(v: Var, c: Conf) -> int:
    return c.store.n  # a run's stores are dense: 1 + max(dom(store))


def inject(e: Exp) -> Conf:
    return Conf(e, (), Store([], 0), ())


def atomic_eval(ae, env, store):
    if isinstance(ae, Ref):
        return store.lookup(env_lookup(env, ae.var))
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


def _quotient(x, y):
    return x // y if (x < 0) == (y < 0) else -((-x) // y)  # truncate toward 0


_INT_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "quotient": _quotient,
    "remainder": lambda x, y: x - y * _quotient(x, y),
    "<=": operator.le, "<": operator.lt, "=": operator.eq,
}


def _apply_prim(pv: PrimVal, arg, c: Conf) -> Step:
    op, args = pv.op, pv.args + (arg,)
    if len(args) < PRIM_ARITY[op]:
        return _do_return(PrimVal(op, args), c.store, c.kont)
    if op == "rec":
        (w,) = args
        if not (isinstance(w, Clo) and isinstance(w.lam.body, Ret)
                and isinstance(w.lam.body.atom, Lambda)):
            return Step("stuck", reason="rec applied to a non-recursive wrapper")
        inner = w.lam.body.atom
        a = alloc(w.lam.param, c)
        clo = Clo(inner, env_trim(env_extend(w.env, w.lam.param, a), inner.free))
        return _do_return(clo, c.store.add(clo), c.kont, ((w.lam.param, a),))
    if op == "not":
        return _do_return(args[0] is False, c.store, c.kont)  # only #f is false
    x, y = args
    if not type(x) is type(y) is int:  # bool is not an integer here
        return Step("stuck", reason=f"primitive {op} applied to non-integers")
    try:
        v = _INT_OPS[op](x, y)
    except ZeroDivisionError:
        return Step("stuck", reason="division by zero")
    return _do_return(v, c.store, c.kont)


def _do_return(v, store, kont, allocs=()):
    if not kont:
        return Step("halt", value=v, allocs=allocs)
    fr = kont[0]
    a = store.n
    env2 = env_trim(env_extend(fr.env, fr.var, a), fr.exp.free)
    return Step("next", Conf(fr.exp, env2, store.add(v), kont[1:]),
                allocs=allocs + ((fr.var, a),))


def step(c: Conf) -> Step:
    e = c.exp
    if isinstance(e, Ret):
        return _do_return(atomic_eval(e.atom, c.env, c.store), c.store, c.kont)
    if isinstance(e, If):
        v = atomic_eval(e.cond, c.env, c.store)
        if v is not True and v is not False:
            return Step("stuck", reason="branch on a non-boolean")
        t = e.then if v else e.els
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
            env2 = env_trim(env_extend(f.env, f.lam.param, a), f.lam.body.free)
            return Step("next", Conf(f.lam.body, env2, c.store.add(arg), c.kont),
                        allocs=((f.lam.param, a),), applied_call_label=e.label)
        if isinstance(f, PrimVal):
            return _apply_prim(f, arg, c)
        return Step("stuck", reason="apply a non-function")
    raise TypeError(e)


def run(e: Exp, fuel: int = 10 ** 5, deadline: float | None = None):
    """Run to completion, fuel exhaustion or the time.monotonic()
    deadline, checked before every step; returns (trace, outcome).

    outcome is ('halt', value), ('stuck', reason), ('fuel',) or ('timeout',).
    """
    c = inject(e)
    trace = [c]
    for _ in range(fuel):
        if deadline is not None and time.monotonic() >= deadline:
            return trace, ("timeout",)
        s = step(c)
        if s.kind == "halt":
            return trace, ("halt", s.value)
        if s.kind == "stuck":
            return trace, ("stuck", s.reason)
        c = s.conf
        trace.append(c)
    return trace, ("fuel",)
