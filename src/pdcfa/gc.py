"""Abstract garbage collection: roots, address reachability, store restriction.

The collected store maps unreachable addresses to the empty set; stores are
canonicalized by dropping empty entries, so collected states intern equal.
Stores are interned and immutable, so gc_store memoizes its result on the
store, per root set, as AEnv.restrict does per keep-set: a store that
several nodes, steps or re-steps collect under one root set is walked once.
"""
from __future__ import annotations

from .abstract import AClo, APrim, AConf, AStore, AFrame, step_conf


def touches(f: AFrame):
    """Addresses a stack frame keeps live: the range of its trimmed env."""
    return frozenset(f.env.range())


def stack_root(kont):
    roots = set()
    for f in kont:
        roots |= touches(f)
    return frozenset(roots)


def _val_addrs(v):
    if isinstance(v, AClo):
        return v.env.range()
    if isinstance(v, APrim):
        out = []
        for a in v.args:
            out.extend(_val_addrs(a))
        return out
    return ()  # scalars touch nothing


def reachable_addrs(roots, store: AStore):
    """Transitive closure of the store-adjacency from the root set."""
    seen = set(roots)
    work = list(roots)
    while work:
        a = work.pop()
        for v in store.lookup(a):
            for a2 in _val_addrs(v):
                if a2 not in seen:
                    seen.add(a2)
                    work.append(a2)
    return frozenset(seen)


def gc_store(env, store, extra_roots=frozenset()):
    """Restrict store to what env plus extra roots can reach; memoized per
    store and root set."""
    roots = frozenset(env.range()) | extra_roots
    try:
        memo = store._collected
    except AttributeError:
        memo = {}
        object.__setattr__(store, "_collected", memo)
    out = memo.get(roots)
    if out is None:
        out = memo[roots] = store.restrict(reachable_addrs(roots, store))
    return out


def gc(c: AConf) -> AConf:
    """Collect a configuration: store restricted to env and stack roots."""
    return AConf.make(c.exp, c.env, gc_store(c.env, c.store, stack_root(c.kont)),
                      c.kont, c.ctx)


def gc_step(c: AConf, policy):
    """The GC-composed transition: step the collected configuration."""
    return step_conf(gc(c), policy)
