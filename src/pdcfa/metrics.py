"""Precision metrics and graph serialization (JSON / DOT).

Canonical order is defined here alone.  Both formats list a graph's
nodes in key order (a State's exp label, then each part its analysis
uses, in _PARTS order) and its edges in (src, act_skey, dst) order,
sorted on ranks: each distinct ctx, continuation address, root set and
act is ranked once by its key, and each distinct env and store by the
ranks of its entries, so no map builds its key; equal keys share a rank.
Nodes and edges are put in order by stable sorts, least significant key
first, each keyed on an int that already exists (a rank, a position or
an exp label), so no sort builds a key per node or edge."""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _escape

from .syntax import binders
from .abstract import AEnv, AStore, skey
from .analyses import AnalysisResult
from .pushdown import Push, UNCH


class Metrics:
    """One analysis's record; to_json writes the fields in this order."""
    __slots__ = ("program", "analysis", "k", "gc", "control_states", "edges",
                 "singleton_vars", "variables_total", "wall_time_ms",
                 "saturated")

    def __init__(self, program, analysis, k, gc, control_states, edges,
                 singleton_vars, variables_total, wall_time_ms, saturated):
        self.program, self.analysis, self.k, self.gc = program, analysis, k, gc
        self.control_states, self.edges = control_states, edges
        self.singleton_vars = singleton_vars
        self.variables_total = variables_total
        self.wall_time_ms, self.saturated = wall_time_ms, saturated


def singleton_count(r: AnalysisResult):
    """Per-variable flow sets: union the value sets bound at every address
    derived from a variable across all reached stores.  A variable is a
    singleton when exactly one abstract value flows to it.  Closures are
    compared as (lambda, environment) pairs, so one lambda seen under two
    environments counts as two values.

    Returns (singleton count, {Var: value set}).
    """
    table = {v: set() for v in binders(r.exp)}
    entries = set()  # stores share their unchanged (addr, vals) entries
    for store in dict.fromkeys(r.stores()):
        entries.update(store.items)
    for addr, vals in entries:
        if addr.var in table:
            table[addr.var].update(vals)
    count = sum(1 for vals in table.values() if len(vals) == 1)
    return count, table


def compute_metrics(name, r: AnalysisResult, k: int, wall_ms: float) -> Metrics:
    single, table = singleton_count(r)
    return Metrics(program=name, analysis=r.kind, k=k, gc=r.gc_mode,
                   control_states=len(r.graph.nodes),
                   edges=len(r.graph.edges),
                   singleton_vars=single, variables_total=len(table),
                   wall_time_ms=round(wall_ms, 3), saturated=r.saturated)


# ---------------------------------------------------------------------------
# serialization


def _node_label(n):
    lbl = f"e{n.exp.label}"
    if n.ctx:
        lbl += " @" + ",".join(str(c) for c in n.ctx)
    if n.env.items:
        lbl += " [" + ",".join(v.name for v, _ in n.env.items) + "]"
    if n.roots is not None:
        lbl += f" |A|={len(n.roots)}"
    return lbl


def _frame_label(frame):
    if isinstance(frame, tuple):
        label = _frame_label(frame[0])
        if isinstance(frame[1], frozenset):  # GC-precise: (frame, root set)
            label += f"/|A|={len(frame[1])}"
        return label  # finite: (frame, kaddr below)
    return f"{frame.var.name}:=e{frame.exp.label}"


def _act_label(act):
    if act is UNCH:
        return "ε"
    word = "push" if isinstance(act, Push) else "pop"
    return f"{word} {_frame_label(act.frame)}"


def _roots_key(roots):
    return tuple(sorted(a.skey() for a in roots))


# A State's parts after its exp, in the order its key compares them, each
# with its part's sort key (None: the part is its own key).
_PARTS = (("env", skey), ("store", skey), ("ctx", None), ("kaddr", skey),
          ("roots", _roots_key))


def act_skey(act):
    if act is UNCH:
        return (0,)
    frame = act.frame
    if isinstance(frame, tuple):  # (frame, roots) or finite (frame, kaddr)
        below = frame[1]
        fk = (frame[0].skey(), _roots_key(below)
              if isinstance(below, frozenset) else below.skey())
    else:
        fk = frame.skey()
    return ((1,) if isinstance(act, Push) else (2,)) + fk


def _ranks(xs, key):
    """{x: rank} over the distinct xs in key order; equal keys share a
    rank."""
    keys = {x: key(x) for x in dict.fromkeys(xs)}
    ranks, rank, prev = {}, 0, None
    for i, x in enumerate(sorted(keys, key=keys.__getitem__)):
        rank = rank if i and keys[x] == prev else i
        ranks[x], prev = rank, keys[x]
    return ranks


def _map_ranks(maps):
    """_ranks(maps, skey) for envs or stores, without building a map's
    key: that key is the tuple of its entries' keys, so a map ranks on the
    tuple of its entries' ranks."""
    maps = dict.fromkeys(maps)
    entry_key = type(next(iter(maps))).entry_key
    entries = _ranks((kv for m in maps for kv in m.items),
                     lambda kv: entry_key(*kv))
    return _ranks(maps, lambda m: tuple([entries[kv] for kv in m.items]))


def _order(r: AnalysisResult):
    """The nodes in canonical order, and each one's position in it, which
    is its rank: distinct interned nodes have distinct keys.  The parts
    ranked are those present on the root, as on every node."""
    nodes = list(r.graph.nodes)
    for part, key in reversed(_PARTS):  # stable sorts, last part first
        if (x := getattr(r.graph.root, part)) is not None:
            xs = (getattr(n, part) for n in nodes)
            ranks = (_map_ranks(xs) if isinstance(x, (AEnv, AStore))
                     else _ranks(xs, key or (lambda c: c)))
            nodes.sort(key=lambda n: ranks[getattr(n, part)])
    nodes.sort(key=lambda n: n.exp.label)
    return nodes, {n: i for i, n in enumerate(nodes)}


def _sorted_edges(edges, pos):
    """The edges (src, act, dst) in canonical order:
    stable sorts on dst, act and src ranks, ints that already exist."""
    acts = _ranks((e[1] for e in edges), act_skey)
    out = sorted(edges, key=lambda e: pos[e[2]])
    out.sort(key=lambda e: acts[e[1]])
    out.sort(key=lambda e: pos[e[0]])
    return out


def to_dot(r: AnalysisResult) -> str:
    """Deterministic DOT rendering of the reachable transition graph."""
    nodes, pos = _order(r)
    lines = ["digraph pdcfa {", '  rankdir="LR";']
    for i, n in enumerate(nodes):
        shape = "doublecircle" if n is r.graph.root else "circle"
        lines.append(f'  n{i} [label="{_node_label(n)}", shape={shape}];')
    for src, act, dst in _sorted_edges(r.graph.edges, pos):
        lines.append(f'  n{pos[src]} -> n{pos[dst]} '
                     f'[label="{_act_label(act)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_NODE = '    {\n      "id": %d,\n      "label": %s\n    }'
_EDGE = '    {\n      "src": %d,\n      "act": %s,\n      "dst": %d\n    }'
_CHUNK = 256  # rows joined into one piece of the document


def to_json(obj) -> str:
    """Stable-order JSON for a Metrics record or a full AnalysisResult.

    A result is written exactly as json.dumps(doc, indent=2) writes it,
    but row by row: with indent= json.dumps runs its pure-Python encoder,
    so each distinct label is escaped once by the C one instead.  Rows are
    joined _CHUNK at a time onto the one document string, which CPython
    grows in place, so neither a list of pieces nor many row strings are
    alive beside it."""
    if isinstance(obj, Metrics):
        doc = {"schema": 1, "metrics": {f: getattr(obj, f)
                                        for f in Metrics.__slots__}}
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    r = obj
    nodes, pos = _order(r)
    edges = _sorted_edges(r.graph.edges, pos)
    labels = {}  # (exp label, env, ctx, |roots|) -> escaped node label
    acts = {a: _escape(_act_label(a))
            for a in dict.fromkeys(e[1] for e in edges)}

    def node_row(i):
        n = nodes[i]
        key = (n.exp.label, n.env, n.ctx, len(n.roots or ()))  # all it reads
        if key not in labels:
            labels[key] = _escape(_node_label(n))
        return _NODE % (i, labels[key])

    fields = {"schema": 1, "kind": r.kind, "saturated": r.saturated,
              "node_count": len(nodes), "edge_count": len(edges),
              "nodes": (range(len(nodes)), node_row),
              "edges": (edges, lambda e: _EDGE % (pos[e[0]], acts[e[1]],
                                                  pos[e[2]]))}
    if r.ecg is not None:
        fields["ecg_pairs"] = r.ecg.pair_count()
    doc = ""
    for k, v in fields.items():
        doc += (",\n" if doc else "{\n") + f'  "{k}": '
        if not isinstance(v, tuple):
            doc += json.dumps(v)
            continue
        items, row = v  # an array, _CHUNK rows to a piece
        for lo in range(0, len(items), _CHUNK):
            doc += (",\n" if lo else "[\n") + ",\n".join(
                map(row, items[lo:lo + _CHUNK]))
        doc += "\n  ]" if items else "[]"
    doc += "\n}\n"
    return doc
