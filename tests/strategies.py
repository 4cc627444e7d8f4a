"""Hypothesis strategies for generated surface programs.

Kept out of helpers.py, which the benchmark's coverage check imports in
each child process, so that hypothesis adds nothing to a child's start-up
time or peak memory.
"""
from functools import lru_cache

from hypothesis import strategies as st

from pdcfa.syntax import PRIM_ARITY


_NAMES = ("a", "b", "f", "g", "x", "y")  # few, so that shadowing is common
_FORMS = ("lambda", "apply", "prim", "if", "cond", "and", "or", "let",
          "let*")


@lru_cache(maxsize=None)
def _leaves(scope):
    leaves = [st.integers(-2, 9).map(str), st.sampled_from(("#t", "#f")),
              st.sampled_from(sorted(PRIM_ARITY))]
    if scope:
        leaves.append(st.sampled_from(sorted(scope)))
    return st.one_of(leaves)


# one strategy object per (scope, depth): hypothesis validates each new
# strategy object, which costs more than drawing from it
@lru_cache(maxsize=None)
@st.composite
def surface_exprs(draw, scope, depth):
    """A well-scoped expression over the whole surface: only names in
    scope are referenced, so it stays closed."""
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        return draw(_leaves(scope))

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
