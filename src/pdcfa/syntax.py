"""Scheme-subset front end.

Reads s-expressions, scope-checks a small direct-style language
(define / lambda / let / let* / if / cond / and / or, integer and boolean
literals, a fixed primitive table) and lowers it to uniquely-labeled,
uniquely-bound A-normal form:

    Exp  ::= Let1(v, call, e) | TailCall(call) | Ret(ae) | If(ae, e, e)
    AExp ::= Ref(v) | Lam(lam) | Lit(int|bool) | PrimRef(op)

Lambdas are unary; multi-parameter lambdas and multi-argument calls are
curried at parse time.  Recursion from `define` is encoded with an internal
unary primitive `rec`: `(define (f x) B)` binds f to `(rec (lambda (f)
(lambda (x) B)))`; at run time `rec` allocates f's address before storing the
inner closure so the closure's environment can reference itself.
"""
from __future__ import annotations

from .frozen import Frozen, setfield


# arity of every surface primitive; `rec` is internal (emitted by normalize,
# but accepted by the parser so printed ANF round-trips)
PRIM_ARITY = {
    "+": 2, "-": 2, "*": 2, "quotient": 2, "remainder": 2,
    "<=": 2, "<": 2, "=": 2, "not": 1, "rec": 1,
}

KEYWORDS = {"define", "lambda", "let", "let*", "if", "cond", "and", "or", "else"}


class ParseError(Exception):
    def __init__(self, span, message):
        super().__init__(f"{span[0]}:{span[1]}: {message}")
        self.span = span
        self.message = message


class UnboundVariable(Exception):
    def __init__(self, name, span):
        super().__init__(f"{span[0]}:{span[1]}: unbound variable {name!r}")
        self.name = name
        self.span = span


# ---------------------------------------------------------------------------
# s-expressions


class SExpr(Frozen):
    def __init__(self, atom, items, span):
        setfield(self, "atom", atom)  # str, or None for a list
        setfield(self, "items", items)  # tuple of SExpr, or None for an atom
        setfield(self, "span", span)  # (line, column)

    @property
    def is_atom(self):
        return self.atom is not None


def _tokenize(text):
    line, col = 1, 1
    i, n = 0, len(text)
    toks = []
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()[]":
            toks.append((ch, (line, col)))
            col += 1
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n()[];":
                j += 1
            toks.append((text[i:j], (line, col)))
            col += j - i
            i = j
    return toks


def read_sexprs(text: str) -> list:
    """Parse source text into a list of top-level SExprs."""
    toks = _tokenize(text)
    pos = 0

    def read_one():
        nonlocal pos
        if pos >= len(toks):
            raise ParseError((0, 0), "unexpected end of input")
        tok, span = toks[pos]
        pos += 1
        if tok in "([":
            closer = ")" if tok == "(" else "]"
            items = []
            while True:
                if pos >= len(toks):
                    raise ParseError(span, "unclosed parenthesis")
                if toks[pos][0] in ")]":
                    if toks[pos][0] != closer:
                        raise ParseError(toks[pos][1], "mismatched bracket")
                    pos += 1
                    return SExpr(None, tuple(items), span)
                items.append(read_one())
        if tok in ")]":
            raise ParseError(span, "unexpected closing bracket")
        if tok.startswith("'"):
            raise ParseError(span, "quote is not supported")
        return SExpr(tok, None, span)

    out = []
    while pos < len(toks):
        out.append(read_one())
    return out


# ---------------------------------------------------------------------------
# ANF syntax


class Var(Frozen):
    def __init__(self, name, id):
        setfield(self, "name", name)
        setfield(self, "id", id)
        setfield(self, "_hash", hash((name, id)))  # Vars key every table

    def __eq__(self, other):
        return (type(other) is Var and self.name == other.name
                and self.id == other.id)

    def __hash__(self):
        return self._hash

    def skey(self):
        return (self.name, self.id)

    def __repr__(self):
        return f"{self.name}_{self.id}"


class AExp(Frozen):
    __slots__ = ()


class Ref(AExp):
    def __init__(self, var):
        setfield(self, "var", var)


class Lit(AExp):
    def __init__(self, value):
        setfield(self, "value", value)  # int or bool


class PrimRef(AExp):
    def __init__(self, op):
        setfield(self, "op", op)


class Lambda(AExp):
    def __init__(self, param, body):
        setfield(self, "param", param)
        setfield(self, "body", body)
        setfield(self, "free", body.free - {param})

    def skey(self):
        return self.body.label


class Lam(AExp):
    def __init__(self, lam):
        setfield(self, "lam", lam)


class Call(Frozen):
    def __init__(self, fun, arg, let_bound_callee=False):
        setfield(self, "fun", fun)
        setfield(self, "arg", arg)
        setfield(self, "let_bound_callee", let_bound_callee)


def _aexp_free(ae: AExp) -> frozenset:
    if isinstance(ae, Ref):
        return frozenset((ae.var,))
    if isinstance(ae, Lam):
        return ae.lam.free
    return frozenset()


class Exp(Frozen):
    __slots__ = ()


class Ret(Exp):
    def __init__(self, atom, label):
        setfield(self, "atom", atom)
        setfield(self, "label", label)
        setfield(self, "free", _aexp_free(atom))


class TailCall(Exp):
    def __init__(self, call, label):
        setfield(self, "call", call)
        setfield(self, "label", label)
        setfield(self, "free", _aexp_free(call.fun) | _aexp_free(call.arg))


class Let1(Exp):
    def __init__(self, var, rhs, body, label):
        frame_free = body.free - {var}  # what the return frame keeps
        setfield(self, "var", var)
        setfield(self, "rhs", rhs)  # the Let1 steps into it for its call
        setfield(self, "body", body)
        setfield(self, "label", label)
        setfield(self, "free", rhs.free | frame_free)
        setfield(self, "frame_free", frame_free)

    @property
    def call(self) -> Call:
        return self.rhs.call


class If(Exp):
    def __init__(self, cond, then, els, label):
        setfield(self, "cond", cond)
        setfield(self, "then", then)
        setfield(self, "els", els)
        setfield(self, "label", label)
        setfield(self, "free", _aexp_free(cond) | then.free | els.free)


class Program(Frozen):
    def __init__(self, defines, top):
        setfield(self, "defines", defines)  # tuple of (Var, Lambda)
        setfield(self, "top", top)


def free_vars(e: Exp) -> frozenset:
    """Variables occurring free in e (cached bottom-up at construction)."""
    return e.free


# ---------------------------------------------------------------------------
# parsing + ANF conversion

_TAIL = object()  # sentinel continuation: "this expression is in tail position"


class _Frontend:
    def __init__(self):
        self.var_counter = 0
        self.label_counter = 0

    def fresh_var(self, name):
        self.var_counter += 1
        return Var(name, self.var_counter)

    def label(self):
        self.label_counter += 1
        return self.label_counter

    # -- atoms

    def _literal(self, tok):
        if tok == "#t":
            return True
        if tok == "#f":
            return False
        try:
            return int(tok)
        except ValueError:
            return None

    def to_atom(self, sx: SExpr, env) -> AExp:
        if sx.is_atom:
            lit = self._literal(sx.atom)
            if lit is not None or sx.atom in ("#t", "#f"):
                return Lit(lit)
            if sx.atom in env:
                return Ref(env[sx.atom])
            if sx.atom in PRIM_ARITY:
                return PrimRef(sx.atom)
            if sx.atom in KEYWORDS:
                raise ParseError(sx.span, f"misplaced keyword {sx.atom!r}")
            raise UnboundVariable(sx.atom, sx.span)
        if not sx.is_atom and sx.items and sx.items[0].atom == "lambda":
            return Lam(self.lam(sx, env))
        raise ParseError(sx.span, "expected an atomic expression")

    def _atomish(self, sx: SExpr) -> bool:
        return sx.is_atom or (bool(sx.items) and sx.items[0].atom == "lambda")

    def lam(self, sx: SExpr, env) -> Lambda:
        if len(sx.items) != 3 or sx.items[1].is_atom:
            raise ParseError(sx.span, "lambda expects (lambda (params...) body)")
        params = self.params(sx.items[1].items)
        if not params:
            raise ParseError(sx.span, "lambdas take at least one parameter")
        return self._curry(params, sx.items[2], env)

    def params(self, sxs) -> list:
        """The names a parameter list binds, each once."""
        names = {}
        for p in sxs:
            if not p.is_atom or self._literal(p.atom) is not None:
                raise ParseError(p.span, "bad parameter")
            name = self.name(p)
            if name in names:
                raise ParseError(p.span, f"duplicate parameter {name!r}")
            names[name] = None
        return list(names)

    def name(self, sx: SExpr) -> str:
        """The name the atom sx binds; `.` (no rest parameters) and a
        literal, which always reads as itself, are none."""
        if sx.atom == "." or self._literal(sx.atom) is not None:
            raise ParseError(sx.span, f"{sx.atom!r} is not a name")
        return sx.atom

    def _curry(self, params, body_sx, env) -> Lambda:
        name = params[0]
        v = self.fresh_var(name)
        env2 = dict(env)
        env2[name] = v
        if len(params) == 1:
            body = self.anf(body_sx, env2, _TAIL)
        else:
            body = Ret(Lam(self._curry(params[1:], body_sx, env2)), self.label())
        return Lambda(v, body)

    # -- continuations: k is _TAIL or (hint_var_or_None, fn(atom)->Exp)

    def _apply_k(self, k, atom: AExp) -> Exp:
        if k is _TAIL:
            return Ret(atom, self.label())
        _, fn = k
        return fn(atom)

    def _finish_call(self, call: Call, k) -> Exp:
        if k is _TAIL:
            return TailCall(call, self.label())
        hint, fn = k
        v = hint if hint is not None else self.fresh_var("t")
        rhs = TailCall(call, self.label())
        return Let1(v, rhs, fn(Ref(v)), self.label())

    def anf(self, sx: SExpr, env, k) -> Exp:
        if self._atomish(sx):
            return self._apply_k(k, self.to_atom(sx, env))
        if not sx.items:
            raise ParseError(sx.span, "empty application")
        head = sx.items[0].atom

        if head == "if":
            if len(sx.items) != 4:
                raise ParseError(sx.span, "if expects 3 parts")
            _, c, t, e = sx.items
            return self.anf_atom(c, env, lambda ca: self._if(ca, t, e, env, k))
        if head == "cond":
            return self.anf(self._desugar_cond(sx), env, k)
        if head in ("and", "or"):
            return self.anf(self._desugar_andor(sx), env, k)
        if head in ("let", "let*"):
            if len(sx.items) != 3 or sx.items[1].is_atom:
                raise ParseError(sx.span, "let expects (let (bindings) body)")
            bindings = list(sx.items[1].items)
            if head == "let":  # parallel: every rhs sees the enclosing scope
                self._distinct_names(bindings)
                return self._let(bindings, sx.items[2], env, k, env)
            return self._let(bindings, sx.items[2], env, k)
        if head == "define":
            raise ParseError(sx.span, "define only allowed at top level")

        # application, curried left-to-right
        if len(sx.items) < 2:
            raise ParseError(sx.span, "application needs an argument")

        def chain(fatom, arg_sxs):
            def with_arg(aatom, rest):
                call = Call(fatom, aatom)  # let_bound_callee is set by normalize
                if rest:
                    # intermediate application: bind to a temp, keep currying
                    def kk(res_atom):
                        return chain(res_atom, rest)

                    return self._finish_call(call, (None, kk))
                return self._finish_call(call, k)

            return self.anf_atom(arg_sxs[0], env, lambda a: with_arg(a, arg_sxs[1:]))

        return self.anf_atom(sx.items[0], env, lambda f: chain(f, list(sx.items[1:])))

    def anf_atom(self, sx: SExpr, env, k2) -> Exp:
        """Convert sx and hand its value to k2 as an atomic expression."""
        if self._atomish(sx):
            return k2(self.to_atom(sx, env))
        return self.anf(sx, env, (None, k2))

    def _if(self, ca: AExp, t_sx, e_sx, env, k) -> Exp:
        if k is _TAIL:
            return If(ca, self.anf(t_sx, env, _TAIL), self.anf(e_sx, env, _TAIL),
                      self.label())
        # non-tail if: wrap in a join lambda applied to the (atomic) condition,
        # so both branches return into one Let1 frame
        cv = self.fresh_var("c")
        env2 = dict(env)
        body = If(Ref(cv), self.anf(t_sx, env, _TAIL), self.anf(e_sx, env, _TAIL),
                  self.label())
        join = Lambda(cv, body)
        return self._finish_call(Call(Lam(join), ca), k)

    def _distinct_names(self, bindings):
        seen = set()
        for b in bindings:
            if not b.is_atom and b.items and b.items[0].is_atom:
                name = b.items[0].atom
                if name in seen:
                    raise ParseError(b.span, f"duplicate let binding {name!r}")
                seen.add(name)

    def _let(self, bindings, body_sx, env, k, rhs_env=None) -> Exp:
        """Bind left to right; each rhs is read in rhs_env (let's enclosing
        scope), or, when it is None, in env with the earlier bindings
        (let*)."""
        if not bindings:
            return self.anf(body_sx, env, k)
        b = bindings[0]
        if b.is_atom or len(b.items) != 2 or not b.items[0].is_atom:
            raise ParseError(b.span, "bad let binding")
        name, rhs = self.name(b.items[0]), b.items[1]
        scope = env if rhs_env is None else rhs_env
        v = self.fresh_var(name)
        env2 = dict(env)
        env2[name] = v
        if self._atomish(rhs):
            # beta-redex: ((lambda (name) rest) rhs) — Let1 can only bind calls
            return self._beta(v, self.to_atom(rhs, scope), bindings[1:],
                              body_sx, env2, k, rhs_env)

        def fn(atom):
            if isinstance(atom, Ref) and atom.var is v:
                # the rhs call was Let1-bound directly to v via the hint
                return self._let(bindings[1:], body_sx, env2, k, rhs_env)
            # rhs collapsed to some other atom (e.g. nested let over an atom)
            return self._beta(v, atom, bindings[1:], body_sx, env2, k,
                              rhs_env)

        return self.anf(rhs, scope, (v, fn))

    def _beta(self, v, ratom, rest_bindings, body_sx, env2, k,
              rhs_env) -> Exp:
        lam = Lambda(v, self._let(rest_bindings, body_sx, env2, _TAIL,
                                  rhs_env))
        return self._finish_call(Call(Lam(lam), ratom), k)

    def _desugar_cond(self, sx: SExpr) -> SExpr:
        span = sx.span
        clauses = list(sx.items[1:])
        if not clauses:
            return SExpr("#f", None, span)
        cl = clauses[0]
        if cl.is_atom or len(cl.items) != 2:
            raise ParseError(cl.span, "cond clause expects (test expr)")
        test, expr = cl.items
        if test.is_atom and test.atom == "else":
            return expr
        rest = SExpr(None, tuple([SExpr("cond", None, span)] + clauses[1:]), span)
        return SExpr(None, (SExpr("if", None, span), test, expr, rest), span)

    def _desugar_andor(self, sx: SExpr) -> SExpr:
        head = sx.items[0].atom
        span = sx.span
        args = list(sx.items[1:])
        if not args:
            return SExpr("#t" if head == "and" else "#f", None, span)
        if len(args) == 1:
            return args[0]
        rest = SExpr(None, tuple([sx.items[0]] + args[1:]), span)
        iff = SExpr("if", None, span)
        if head == "and":
            return SExpr(None, (iff, args[0], rest, SExpr("#f", None, span)), span)
        return SExpr(None, (iff, args[0], SExpr("#t", None, span), rest), span)


def parse_program(text: str) -> Program:
    """Parse source text to a scope-checked Program (defines + top expression)."""
    fe = _Frontend()
    forms = read_sexprs(text)
    defines = []
    env = {}
    top_sx = None
    for sx in forms:
        if not sx.is_atom and sx.items and sx.items[0].atom == "define":
            if top_sx is not None:
                raise ParseError(sx.span, "define after top expression")
            if len(sx.items) != 3:
                raise ParseError(sx.span, "define expects 2 parts")
            sig = sx.items[1]
            if sig.is_atom:
                name = fe.name(sig)
                v = fe.fresh_var(name)
                env2 = dict(env)
                env2[name] = v  # self-reference allowed
                body = sx.items[2]
                if not (not body.is_atom and body.items and body.items[0].atom == "lambda"):
                    raise ParseError(body.span, "define value must be a lambda")
                lam = fe.lam(body, env2)
            else:
                if not sig.items or not sig.items[0].is_atom:
                    raise ParseError(sig.span, "bad define signature")
                name = fe.name(sig.items[0])
                params = fe.params(sig.items[1:])
                if not params:
                    raise ParseError(sig.span, "define needs at least one parameter")
                v = fe.fresh_var(name)
                env2 = dict(env)
                env2[name] = v
                lam = fe._curry(params, sx.items[2], env2)
            if name in env:
                raise ParseError(sx.span, f"duplicate define {name!r}")
            env[name] = v
            defines.append((v, lam))
        else:
            if top_sx is not None:
                raise ParseError(sx.span, "multiple top-level expressions")
            top_sx = sx
    if top_sx is None:
        raise ParseError((0, 0), "program has no top-level expression")
    top = fe.anf(top_sx, env, _TAIL)
    return Program(tuple(defines), top)


# ---------------------------------------------------------------------------
# normalize: assemble defines + top into one Exp, freshen labels/binders,
# mark let-bound callees


class _Uniquifier:
    def __init__(self):
        self.var_counter = 0
        self.label_counter = 0

    def fresh(self, v: Var) -> Var:
        self.var_counter += 1
        return Var(v.name, self.var_counter)

    def label(self) -> int:
        self.label_counter += 1
        return self.label_counter

    def exp(self, e: Exp, sub, letbound) -> Exp:
        if isinstance(e, Ret):
            return Ret(self.aexp(e.atom, sub, letbound), self.label())
        if isinstance(e, TailCall):
            return TailCall(self.call(e.call, sub, letbound), self.label())
        if isinstance(e, Let1):
            rhs = TailCall(self.call(e.call, sub, letbound), self.label())
            v2 = self.fresh(e.var)
            sub2 = dict(sub)
            sub2[e.var] = v2
            lb2 = letbound | {v2}
            return Let1(v2, rhs, self.exp(e.body, sub2, lb2), self.label())
        if isinstance(e, If):
            return If(self.aexp(e.cond, sub, letbound),
                      self.exp(e.then, sub, letbound),
                      self.exp(e.els, sub, letbound), self.label())
        raise TypeError(e)

    def call(self, c: Call, sub, letbound) -> Call:
        fun = self.aexp(c.fun, sub, letbound)
        arg = self.aexp(c.arg, sub, letbound)
        flag = isinstance(fun, Ref) and fun.var in letbound
        return Call(fun, arg, flag)

    def aexp(self, ae: AExp, sub, letbound) -> AExp:
        if isinstance(ae, Ref):
            return Ref(sub[ae.var])
        if isinstance(ae, Lam):
            lam = ae.lam
            p2 = self.fresh(lam.param)
            sub2 = dict(sub)
            sub2[lam.param] = p2
            return Lam(Lambda(p2, self.exp(lam.body, sub2, letbound)))
        return ae


def normalize(p: Program) -> Exp:
    """Lower a Program to a single closed ANF Exp with unique labels/binders."""
    fe = _Frontend()
    result = p.top
    for v, lam in reversed(p.defines):
        # f = (rec (lambda (f) (lambda ...)));  the duplicate binder for f is
        # resolved by the uniquify pass below
        wrapper = Lambda(v, Ret(Lam(lam), fe.label()))
        rhs = TailCall(Call(PrimRef("rec"), Lam(wrapper)), fe.label())
        result = Let1(v, rhs, result, fe.label())
    uq = _Uniquifier()
    out = uq.exp(result, {}, frozenset())
    assert not out.free, f"normalize produced open term: {out.free}"
    return out


# ---------------------------------------------------------------------------
# queries / printing


def binders(e: Exp) -> list:
    """All binder Vars (Let1 variables and lambda parameters) in order."""
    out = []

    def go_exp(x):
        if isinstance(x, Let1):
            out.append(x.var)
            go_call(x.call)
            go_exp(x.body)
        elif isinstance(x, TailCall):
            go_call(x.call)
        elif isinstance(x, Ret):
            go_aexp(x.atom)
        elif isinstance(x, If):
            go_aexp(x.cond)
            go_exp(x.then)
            go_exp(x.els)

    def go_call(c):
        go_aexp(c.fun)
        go_aexp(c.arg)

    def go_aexp(ae):
        if isinstance(ae, Lam):
            out.append(ae.lam.param)
            go_exp(ae.lam.body)

    go_exp(e)
    return out


def count_let1(e: Exp) -> int:
    return sum(1 for _ in _walk(e) if isinstance(_, Let1))


def _walk(e: Exp):
    yield e
    if isinstance(e, Let1):
        yield e.rhs
        for ae in (e.call.fun, e.call.arg):
            if isinstance(ae, Lam):
                yield from _walk(ae.lam.body)
        yield from _walk(e.body)
    elif isinstance(e, TailCall):
        for ae in (e.call.fun, e.call.arg):
            if isinstance(ae, Lam):
                yield from _walk(ae.lam.body)
    elif isinstance(e, Ret):
        if isinstance(e.atom, Lam):
            yield from _walk(e.atom.lam.body)
    elif isinstance(e, If):
        if isinstance(e.cond, Lam):
            yield from _walk(e.cond.lam.body)
        yield from _walk(e.then)
        yield from _walk(e.els)


def print_anf(e: Exp) -> str:
    """Deterministic pretty-printer; output re-parses to an alpha-equivalent Exp."""

    def pv(v: Var) -> str:
        return f"{v.name}_{v.id}"

    def pa(ae: AExp) -> str:
        if isinstance(ae, Ref):
            return pv(ae.var)
        if isinstance(ae, Lit):
            if ae.value is True:
                return "#t"
            if ae.value is False:
                return "#f"
            return str(ae.value)
        if isinstance(ae, PrimRef):
            return ae.op
        if isinstance(ae, Lam):
            return f"(lambda ({pv(ae.lam.param)}) {pe(ae.lam.body)})"
        raise TypeError(ae)

    def pc(c: Call) -> str:
        return f"({pa(c.fun)} {pa(c.arg)})"

    def pe(x: Exp) -> str:
        if isinstance(x, Ret):
            return pa(x.atom)
        if isinstance(x, TailCall):
            return pc(x.call)
        if isinstance(x, Let1):
            return f"(let (({pv(x.var)} {pc(x.call)})) {pe(x.body)})"
        if isinstance(x, If):
            return f"(if {pa(x.cond)} {pe(x.then)} {pe(x.els)})"
        raise TypeError(x)

    return pe(e)


def alpha_equiv(e1: Exp, e2: Exp) -> bool:
    """Structural equality modulo labels and variable identities."""

    def go_exp(a, b, m):
        if type(a) is not type(b):
            return False
        if isinstance(a, Ret):
            return go_aexp(a.atom, b.atom, m)
        if isinstance(a, TailCall):
            return go_call(a.call, b.call, m)
        if isinstance(a, Let1):
            if not go_call(a.call, b.call, m):
                return False
            m2 = dict(m)
            m2[a.var] = b.var
            return go_exp(a.body, b.body, m2)
        if isinstance(a, If):
            return (go_aexp(a.cond, b.cond, m) and go_exp(a.then, b.then, m)
                    and go_exp(a.els, b.els, m))
        return False

    def go_call(a, b, m):
        return go_aexp(a.fun, b.fun, m) and go_aexp(a.arg, b.arg, m)

    def go_aexp(a, b, m):
        if type(a) is not type(b):
            return False
        if isinstance(a, Ref):
            return m.get(a.var) == b.var
        if isinstance(a, Lit):
            return a.value == b.value and type(a.value) is type(b.value)
        if isinstance(a, PrimRef):
            return a.op == b.op
        if isinstance(a, Lam):
            m2 = dict(m)
            m2[a.lam.param] = b.lam.param
            return go_exp(a.lam.body, b.lam.body, m2)
        return False

    return go_exp(e1, e2, {})


def parse_and_normalize(text: str) -> Exp:
    return normalize(parse_program(text))
