"""Precision metrics and graph serialization (JSON / DOT).

Both formats list nodes and edges in canonical (skey) order, sorted on
ranks: each distinct env, store, continuation address, root set and act
is ranked once by its key, and equal keys share a rank.  A node, an
analyses.State, sorts on its exp label, its ctx and the ranks of the
other parts its analysis uses, in the order its skey compares them
(analyses._PARTS); an edge on one int packed from its src, act and dst
ranks."""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _escape

from .syntax import binders
from .analyses import _PARTS, AnalysisResult, act_skey
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
    if isinstance(frame, tuple):  # GC-precise character: (frame, root set)
        return f"{_frame_label(frame[0])}/|A|={len(frame[1])}"
    return f"{frame.var.name}:=e{frame.exp.label}"


def _act_label(act):
    if act is UNCH:
        return "ε"
    if isinstance(act, str):  # finite-baseline edges use plain tags
        return act
    word = "push" if isinstance(act, Push) else "pop"
    return f"{word} {_frame_label(act.frame)}"


def _ranks(xs, key):
    """{x: rank} over the distinct xs in key order; equal keys share a
    rank."""
    keys = {x: key(x) for x in dict.fromkeys(xs)}
    ranks, rank, prev = {}, 0, None
    for i, x in enumerate(sorted(keys, key=keys.__getitem__)):
        rank = rank if i and keys[x] == prev else i
        ranks[x], prev = rank, keys[x]
    return ranks


def _order(r: AnalysisResult):
    """The nodes in canonical order, and each one's position in it, which
    is its rank: distinct interned nodes have distinct keys.  The parts
    ranked are those present on the root, as on every node."""
    nodes = list(r.graph.nodes)
    cols = [[n.exp.label for n in nodes]]
    for part, key in _PARTS:
        if getattr(nodes[0], part) is not None:
            xs = [getattr(n, part) for n in nodes]
            cols.append(xs if key is None else [*map(_ranks(xs, key).get, xs)])
    keys = list(zip(*cols))
    nodes = [nodes[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]
    return nodes, {n: i for i, n in enumerate(nodes)}


def _edge_key(edges, pos):
    """Sort key of an edge (src, act, dst, ...) in canonical (src, act,
    dst) order: one int packed from their ranks."""
    acts = _ranks((e[1] for e in edges), act_skey)
    na, nn = len(acts), len(pos)
    return lambda e: (pos[e[0]] * na + acts[e[1]]) * nn + pos[e[2]]


def to_dot(r: AnalysisResult) -> str:
    """Deterministic DOT rendering of the reachable transition graph."""
    nodes, pos = _order(r)
    lines = ["digraph pdcfa {", '  rankdir="LR";']
    for i, n in enumerate(nodes):
        shape = "doublecircle" if n is r.graph.root else "circle"
        lines.append(f'  n{i} [label="{_node_label(n)}", shape={shape}];')
    if r.guarded_edges is not None:  # one guard per edge
        rendered = [(src, act, dst, len(guard))
                    for (src, guard, act, dst) in r.guarded_edges]
    else:
        rendered = r.graph.edges
    for src, act, dst, *gsize in sorted(rendered,
                                        key=_edge_key(rendered, pos)):
        lbl = _act_label(act) + "".join(f" ⟨{g}⟩" for g in gsize)
        lines.append(f'  n{pos[src]} -> n{pos[dst]} [label="{lbl}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_NODE = '    {\n      "id": %d,\n      "label": %s\n    }'
_EDGE = '    {\n      "src": %d,\n      "act": %s,\n      "dst": %d\n    }'
_CHUNK = 2048  # rows joined into one piece of the document


def to_json(obj) -> str:
    """Stable-order JSON for a Metrics record or a full AnalysisResult.

    A result is written exactly as json.dumps(doc, indent=2) writes it,
    but row by row: with indent= json.dumps runs its pure-Python encoder,
    so each distinct label is escaped once by the C one instead.  Rows are
    joined _CHUNK at a time, so few row strings are alive at once."""
    if isinstance(obj, Metrics):
        doc = {"schema": 1, "metrics": {f: getattr(obj, f)
                                        for f in Metrics.__slots__}}
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    r = obj
    nodes, pos = _order(r)
    edges = sorted(r.graph.edges, key=_edge_key(r.graph.edges, pos))
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
    if r.guarded_edges is not None:
        fields["guarded_edge_count"] = len(r.guarded_edges)
        fields["stale_guards"] = r.stale_guards
    if r.ecg is not None:
        fields["ecg_pairs"] = r.ecg.pair_count()
    out = []
    for k, v in fields.items():
        out.append((",\n" if out else "{\n") + f'  "{k}": ')
        if not isinstance(v, tuple):
            out.append(json.dumps(v))
            continue
        items, row = v  # an array, _CHUNK rows to a piece
        for lo in range(0, len(items), _CHUNK):
            out += [",\n" if lo else "[\n",
                    ",\n".join(map(row, items[lo:lo + _CHUNK]))]
        out.append("\n  ]" if items else "[]")
    out.append("\n}\n")
    return "".join(out)
