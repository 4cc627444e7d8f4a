"""Abstract garbage collection: roots, address reachability, store restriction.

The collected store maps unreachable addresses to the empty set; stores are
canonicalized by dropping empty entries, so collected states intern equal.
Stores are interned and immutable, so gc_store memoizes its result on the
store, per root set, as AEnv.restrict does per keep-set: a store that
several nodes, steps or re-steps collect under one root set is walked once.
Root sets and a value's addresses are sets kept on environments (AEnv.addrs).
"""
from __future__ import annotations

from .abstract import AClo, APrim, AStore, AFrame, _memo, _positions


def touches(f: AFrame):
    """Addresses a stack frame keeps live: the range of its trimmed env."""
    return f.env.addrs()


def _val_addrs(v):
    if isinstance(v, AClo):
        return v.env.addrs()
    if isinstance(v, APrim):
        return frozenset().union(*map(_val_addrs, v.args))
    return frozenset()  # scalars touch nothing


def reachable_addrs(roots, store: AStore):
    """Transitive closure of the store-adjacency from the root set, a
    level at a time."""
    pos, items = _positions(store), store.items
    seen, level = set(roots), roots
    while level:
        step = set()
        for a in level:
            i = pos.get(a)
            if i is not None:
                for v in items[i][1]:
                    step |= _val_addrs(v)
        level = step - seen
        seen |= level
    return frozenset(seen)


def gc_store(env, store, extra_roots=frozenset()):
    """Restrict store to what env plus extra roots can reach; memoized per
    store and root set."""
    roots = env.addrs() | extra_roots if extra_roots else env.addrs()
    memo = _memo(store, "_collected")
    out = memo.get(roots)
    if out is None:
        out = memo[roots] = store.restrict(reachable_addrs(roots, store))
    return out
