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

No function here recurses on program structure, so nesting depth is
bounded by memory, not by Python's call stack.  The reader keeps a stack of
open lists.  `parse_program` lowers into mutable blocks by running tasks
from one stack.  `normalize` then builds each frozen node once, in one
stack pass that numbers variables in binding order and labels in
post-order.  The queries, `print_anf` and `alpha_equiv` are loops.
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
    out = items = []
    open_lists = []  # (enclosing items, span, closer) of each open list
    for tok, span in _tokenize(text):
        if tok in "([":
            open_lists.append((items, span, ")" if tok == "(" else "]"))
            items = []
        elif tok in ")]":
            if not open_lists:
                raise ParseError(span, "unexpected closing bracket")
            outer, start, closer = open_lists.pop()
            if tok != closer:
                raise ParseError(span, "mismatched bracket")
            outer.append(SExpr(None, tuple(items), start))
            items = outer
        elif tok.startswith("'"):
            raise ParseError(span, "quote is not supported")
        else:
            items.append(SExpr(tok, None, span))
    if open_lists:
        raise ParseError(open_lists[-1][1], "unclosed parenthesis")
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
    """A parsed program, lowered but not yet numbered: `defines` pairs each
    defined Var f with the lowered `(lambda (f) (lambda ...))` that `rec`
    ties into f's closure, and `top` is the top expression's block (see
    below).  `normalize` builds the ANF Exp from it."""

    def __init__(self, defines, top):
        setfield(self, "defines", defines)
        setfield(self, "top", top)


def free_vars(e: Exp) -> frozenset:
    """Variables occurring free in e (cached bottom-up at construction)."""
    return e.free


# ---------------------------------------------------------------------------
# parsing + lowering to blocks
#
# A block is a mutable [param, lets, tail]: `lets` lists the (var, fun, arg)
# calls it binds in order, and `tail` is ("ret", atom), ("call", fun, arg)
# or ("if", atom, block, block).  An atom is a Var (a reference), a Lit, a
# PrimRef, or a block whose param is a Var (a lambda).  Lowering runs tasks
# from one stack, and an expression in value position leaves its atom on a
# second one.  A destination is _TAIL (the expression is its block's tail),
# None (a value; a call is bound to a fresh temporary) or a Var (a value a
# `let` binds; a call is bound to that Var).

_TAIL = object()


class _Frontend:
    def __init__(self):
        self.var_counter = 0
        self.tasks = []  # (method, args...), run last-pushed first
        self.values = []  # atoms of expressions lowered in value position

    def fresh_var(self, name):
        self.var_counter += 1
        return Var(name, self.var_counter)

    def run(self):
        tasks = self.tasks
        while tasks:
            task = tasks.pop()
            task[0](*task[1:])

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

    def atom(self, sx: SExpr, env):
        tok = sx.atom
        lit = self._literal(tok)
        if lit is not None:
            return Lit(lit)
        if tok in env:
            return env[tok]
        if tok in PRIM_ARITY:
            return PrimRef(tok)
        if tok in KEYWORDS:
            raise ParseError(sx.span, f"misplaced keyword {tok!r}")
        raise UnboundVariable(tok, sx.span)

    def lam(self, sx: SExpr, env) -> list:
        if len(sx.items) != 3 or sx.items[1].is_atom:
            raise ParseError(sx.span, "lambda expects (lambda (params...) body)")
        params = self.params(sx.items[1].items)
        if not params:
            raise ParseError(sx.span, "lambdas take at least one parameter")
        return self.curry(params, sx.items[2], env)

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

    def curry(self, params, body_sx, env) -> list:
        """The block of (lambda (p1) ... (lambda (pn) body)); a task pushed
        here lowers the body."""
        env = dict(env)
        vs = []
        for name in params:
            env[name] = v = self.fresh_var(name)
            vs.append(v)
        blk = [vs.pop(), [], None]
        self.tasks.append((self.lower, body_sx, env, blk, _TAIL))
        for v in reversed(vs):
            blk = [v, [], ("ret", blk)]
        return blk

    # -- tasks

    def lower(self, sx: SExpr, env, blk, dest):
        if sx.is_atom:
            self._deliver(blk, dest, self.atom(sx, env))
            return
        items = sx.items
        if not items:
            raise ParseError(sx.span, "empty application")
        head = items[0].atom
        tasks = self.tasks
        if head == "lambda":
            self._deliver(blk, dest, self.lam(sx, env))
        elif head == "if":
            if len(items) != 4:
                raise ParseError(sx.span, "if expects 3 parts")
            tasks.append((self._if, items[2], items[3], env, blk, dest))
            tasks.append((self.lower, items[1], env, blk, None))
        elif head == "cond":
            tasks.append((self.lower, self._desugar_cond(sx), env, blk, dest))
        elif head in ("and", "or"):
            tasks.append((self.lower, self._desugar_andor(sx), env, blk, dest))
        elif head in ("let", "let*"):
            if len(items) != 3 or items[1].is_atom:
                raise ParseError(sx.span, "let expects (let (bindings) body)")
            rhs_env = None
            if head == "let":  # parallel: every rhs sees the enclosing scope
                self._distinct_names(items[1].items)
                rhs_env = env
            self._bind(None, items[1].items, 0, items[2], env, blk, dest,
                       rhs_env)
        elif head == "define":
            raise ParseError(sx.span, "define only allowed at top level")
        else:  # application, curried left to right
            if len(items) < 2:
                raise ParseError(sx.span, "application needs an argument")
            last = len(items) - 1
            for i in range(last, 0, -1):
                tasks.append((self._apply, blk, dest if i == last else None))
                tasks.append((self.lower, items[i], env, blk, None))
            tasks.append((self.lower, items[0], env, blk, None))

    def _deliver(self, blk, dest, atom):
        if dest is _TAIL:
            blk[2] = ("ret", atom)
        else:
            self.values.append(atom)

    def _call(self, blk, fun, arg, dest):
        if dest is _TAIL:
            blk[2] = ("call", fun, arg)
        else:
            v = self.fresh_var("t") if dest is None else dest
            blk[1].append((v, fun, arg))
            self.values.append(v)

    def _apply(self, blk, dest):
        arg = self.values.pop()
        self._call(blk, self.values.pop(), arg, dest)

    def _if(self, t_sx, e_sx, env, blk, dest):
        cond = self.values.pop()
        then, els = [None, [], None], [None, [], None]
        if dest is _TAIL:
            blk[2] = ("if", cond, then, els)
        else:
            # non-tail if: a join lambda applied to the condition, so both
            # branches return into one Let1 frame
            c = self.fresh_var("c")
            self._call(blk, [c, [], ("if", c, then, els)], cond, dest)
        self.tasks.append((self.lower, e_sx, env, els, _TAIL))
        self.tasks.append((self.lower, t_sx, env, then, _TAIL))

    def _distinct_names(self, bindings):
        seen = set()
        for b in bindings:
            if not b.is_atom and b.items and b.items[0].is_atom:
                name = b.items[0].atom
                if name in seen:
                    raise ParseError(b.span, f"duplicate let binding {name!r}")
                seen.add(name)

    def _bind(self, v, bindings, i, body_sx, env, blk, dest, rhs_env):
        """Bind left to right; each rhs is read in rhs_env (let's enclosing
        scope), or, when it is None, in env with the earlier bindings
        (let*).  v is the previous binding's Var, whose rhs value is on
        the value stack."""
        if v is not None:
            atom = self.values.pop()
            if atom is not v:
                # the rhs was not a call bound to v: bind its atom with the
                # beta-redex ((lambda (v) rest) atom); Let1 binds only calls
                rest = [v, [], None]
                self._call(blk, rest, atom, dest)
                blk, dest = rest, _TAIL
        if i == len(bindings):
            self.tasks.append((self.lower, body_sx, env, blk, dest))
            return
        b = bindings[i]
        if b.is_atom or len(b.items) != 2 or not b.items[0].is_atom:
            raise ParseError(b.span, "bad let binding")
        name = self.name(b.items[0])
        v = self.fresh_var(name)
        env2 = dict(env)
        env2[name] = v
        self.tasks.append((self._bind, v, bindings, i + 1, body_sx, env2, blk,
                           dest, rhs_env))
        self.tasks.append((self.lower, b.items[1],
                           env if rhs_env is None else rhs_env, blk, v))

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
    defines = []
    env = {}
    top_sx = None
    for sx in read_sexprs(text):
        if sx.is_atom or not sx.items or sx.items[0].atom != "define":
            if top_sx is not None:
                raise ParseError(sx.span, "multiple top-level expressions")
            top_sx = sx
            continue
        if top_sx is not None:
            raise ParseError(sx.span, "define after top expression")
        if len(sx.items) != 3:
            raise ParseError(sx.span, "define expects 2 parts")
        sig, body = sx.items[1], sx.items[2]
        env2 = dict(env)  # f's own body sees f: `rec` binds it
        if sig.is_atom:
            name = fe.name(sig)
            if (body.is_atom or not body.items
                    or body.items[0].atom != "lambda"):
                raise ParseError(body.span, "define value must be a lambda")
            env2[name] = me = fe.fresh_var(name)
            lam = fe.lam(body, env2)
        else:
            if not sig.items or not sig.items[0].is_atom:
                raise ParseError(sig.span, "bad define signature")
            name = fe.name(sig.items[0])
            params = fe.params(sig.items[1:])
            if not params:
                raise ParseError(sig.span, "define needs at least one parameter")
            env2[name] = me = fe.fresh_var(name)
            lam = fe.curry(params, body, env2)
        fe.run()  # lower the body now, so its errors precede later forms'
        if name in env:
            raise ParseError(sx.span, f"duplicate define {name!r}")
        env[name] = v = fe.fresh_var(name)
        defines.append((v, [me, [], ("ret", lam)]))
    if top_sx is None:
        raise ParseError((0, 0), "program has no top-level expression")
    top = [None, [], None]
    fe.lower(top_sx, env, top, _TAIL)
    fe.run()
    return Program(tuple(defines), top)


# ---------------------------------------------------------------------------
# normalize: build the ANF nodes, each once, from the defines and top block


def normalize(p: Program) -> Exp:
    """Lower a Program to a single closed ANF Exp with unique labels/binders.

    Each define f becomes `(let ((f (rec (lambda (f) (lambda ...))))) ...)`
    around the top expression.  Variable ids count binders in binding order
    (a Let1's after its call), labels count nodes in post-order, and a call
    whose callee is a Let1-bound variable is marked let-bound.
    """
    rec = [(v, PrimRef("rec"), lam) for v, lam in p.defines]
    todo = [("exp", [None, rec + p.top[1], p.top[2]])]
    out = []  # finished nodes, and the (Var, rhs) of Let1s awaiting a body
    numbered = {}  # lowered Var -> its Var in the result
    let_bound = set()
    label = 0

    def number(v):
        numbered[v] = Var(v.name, len(numbered) + 1)
        return numbered[v]

    while todo:
        op, x = todo.pop()
        if op == "atom":
            if type(x) is list:  # a lambda: its parameter, then its body
                todo.append(("lam", number(x[0])))
                todo.append(("exp", x))
            else:
                out.append(Ref(numbered[x]) if type(x) is Var else x)
        elif op == "exp":  # a block: its lets in order, its tail, the Let1s
            _, lets, tail = x
            todo.append(("wrap", len(lets)))
            todo.append((tail[0], None))
            if tail[0] == "if":
                todo += (("exp", tail[3]), ("exp", tail[2]), ("atom", tail[1]))
            else:
                todo += [("atom", a) for a in reversed(tail[1:])]
            for v, fun, arg in reversed(lets):
                todo += (("bind", v), ("call", None), ("atom", arg),
                         ("atom", fun))
        elif op == "lam":
            out.append(Lam(Lambda(x, out.pop())))
        elif op == "bind":
            v = number(x)
            let_bound.add(v)
            out.append((v, out.pop()))
        elif op == "wrap":  # innermost Let1 first
            body = out.pop()
            for _ in range(x):
                v, rhs = out.pop()
                label += 1
                body = Let1(v, rhs, body, label)
            out.append(body)
        else:
            label += 1
            if op == "ret":
                out.append(Ret(out.pop(), label))
            elif op == "call":
                arg, fun = out.pop(), out.pop()
                flag = type(fun) is Ref and fun.var in let_bound
                out.append(TailCall(Call(fun, arg, flag), label))
            else:
                els, then = out.pop(), out.pop()
                out.append(If(out.pop(), then, els, label))
    e = out.pop()
    assert not e.free, f"normalize produced open term: {e.free}"
    return e


# ---------------------------------------------------------------------------
# queries / printing


def _walk(e: Exp):
    """Every Exp and atom in e, in pre-order, left to right."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, Let1):
            stack += (x.body, x.rhs)
        elif isinstance(x, TailCall):
            stack += (x.call.arg, x.call.fun)
        elif isinstance(x, Ret):
            stack.append(x.atom)
        elif isinstance(x, If):
            stack += (x.els, x.then, x.cond)
        elif isinstance(x, Lam):
            stack.append(x.lam.body)


def binders(e: Exp) -> list:
    """All binder Vars (Let1 variables and lambda parameters) in order."""
    return [x.var if isinstance(x, Let1) else x.lam.param
            for x in _walk(e) if isinstance(x, (Let1, Lam))]


def count_let1(e: Exp) -> int:
    return sum(1 for x in _walk(e) if isinstance(x, Let1))


def print_anf(e: Exp) -> str:
    """Deterministic pretty-printer; output re-parses to an alpha-equivalent Exp."""
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        elif isinstance(x, Ref):
            out.append(repr(x.var))
        elif isinstance(x, Lit):
            v = x.value
            out.append("#t" if v is True else "#f" if v is False else str(v))
        elif isinstance(x, PrimRef):
            out.append(x.op)
        elif isinstance(x, Lam):
            stack += (")", x.lam.body, f"(lambda ({x.lam.param!r}) ")
        elif isinstance(x, Ret):
            stack.append(x.atom)
        elif isinstance(x, TailCall):
            stack += (")", x.call.arg, " ", x.call.fun, "(")
        elif isinstance(x, Let1):
            stack += (")", x.body, ")) ", x.rhs, f"(let (({x.var!r} ")
        elif isinstance(x, If):
            stack += (")", x.els, " ", x.then, " ", x.cond, "(if ")
        else:
            raise TypeError(x)
    return "".join(out)


_SCOPE, _UNSCOPE = object(), object()  # alpha_equiv's scope markers


def alpha_equiv(e1: Exp, e2: Exp) -> bool:
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
        elif isinstance(a, Ref):
            if m.get(a.var) != b.var:
                return False
        elif isinstance(a, Lit):
            if a.value != b.value or type(a.value) is not type(b.value):
                return False
        elif isinstance(a, PrimRef):
            if a.op != b.op:
                return False
        elif isinstance(a, Lam):
            stack.append((_SCOPE, (a.lam.param, b.lam.param, a.lam.body,
                                   b.lam.body)))
        elif isinstance(a, Ret):
            stack.append((a.atom, b.atom))
        elif isinstance(a, TailCall):
            stack += ((a.call.arg, b.call.arg), (a.call.fun, b.call.fun))
        elif isinstance(a, Let1):
            stack += ((_SCOPE, (a.var, b.var, a.body, b.body)), (a.rhs, b.rhs))
        elif isinstance(a, If):
            stack += ((a.els, b.els), (a.then, b.then), (a.cond, b.cond))
        else:
            return False
    return True


def parse_and_normalize(text: str) -> Exp:
    return normalize(parse_program(text))
