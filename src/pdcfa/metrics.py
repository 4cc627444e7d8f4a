"""Precision metrics and graph serialization (JSON / DOT)."""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict

from .syntax import binders
from .analyses import AnalysisResult, OPState, act_skey
from .pushdown import Push, UNCH


@dataclass
class Metrics:
    program: str
    analysis: str
    k: int
    gc: bool
    control_states: int
    edges: int
    singleton_vars: int
    variables_total: int
    wall_time_ms: float
    saturated: bool


def singleton_count(r: AnalysisResult):
    """Per-variable flow sets: union the value sets bound at every address
    derived from a variable across all reached stores.  A variable is a
    singleton when exactly one abstract value flows to it.  Closures are
    compared as (lambda, environment) pairs, so one lambda seen under two
    environments counts as two values.

    Returns (singleton count, {Var: value set}).
    """
    table = {v: set() for v in binders(r.exp)}
    for store in dict.fromkeys(r.stores()):
        for addr, vals in store.items:
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
    if isinstance(n, OPState):
        inner = _node_label(n.state)
        return f"{inner} |A|={len(n.roots)}"
    lbl = f"e{n.exp.label}"
    ctx = getattr(n, "ctx", ())
    if ctx:
        lbl += " @" + ",".join(str(c) for c in ctx)
    env = getattr(n, "env", None)
    if env is not None and env.items:
        lbl += " [" + ",".join(v.name for v, _ in env.items) + "]"
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


def _sorted_nodes(r: AnalysisResult):
    """Nodes in canonical order, and each node's rank in it (equal keys
    share one), so that edges sort on ints rather than on deep keys.

    The distinct stores are sorted once; a node then sorts on its key with
    the store's key replaced by the store's rank, which keeps the order."""
    stores = sorted({q.store for q in map(_state, r.graph.nodes)
                     if hasattr(q, "store")}, key=lambda s: s.skey())
    srank = {s: i for i, s in enumerate(stores)}

    def key(q):  # ControlState and FState keys hold the store's key third
        k = q.skey()
        return k[:2] + (srank[q.store],) + k[3:] if hasattr(q, "store") else k

    keys = {n: (key(n.state), n.skey()[1]) if isinstance(n, OPState)
            else key(n) for n in r.graph.nodes}  # OPState: (state, roots)
    nodes = sorted(keys, key=keys.__getitem__)
    rank = {}
    for i, n in enumerate(nodes):
        same = i and keys[n] == keys[nodes[i - 1]]
        rank[n] = rank[nodes[i - 1]] if same else i
    return nodes, rank


def _state(n):
    return n.state if isinstance(n, OPState) else n


def _edge_key(rank):
    """Sort key of an edge: the canonical order of (src, act, dst)."""
    def key(e):
        src, act, dst = e
        ak = (act,) if isinstance(act, str) else act_skey(act)
        return (rank[src], ak, rank[dst])
    return key


def to_dot(r: AnalysisResult) -> str:
    """Deterministic DOT rendering of the reachable transition graph."""
    nodes, rank = _sorted_nodes(r)
    edge_key = _edge_key(rank)
    ids = {n: f"n{i}" for i, n in enumerate(nodes)}
    lines = ["digraph pdcfa {", '  rankdir="LR";']
    for n in nodes:
        shape = "doublecircle" if n is r.graph.root else "circle"
        lines.append(f'  {ids[n]} [label="{_node_label(n)}", shape={shape}];')
    if r.guarded_edges is not None:
        rendered = sorted(
            ((src, act, dst, len(guard))
             for (src, guard, act, dst) in r.guarded_edges),
            key=lambda t: (edge_key(t[:3]), t[3]))
        for src, act, dst, gsize in rendered:
            lbl = f"{_act_label(act)} ⟨{gsize}⟩"
            lines.append(f'  {ids[src]} -> {ids[dst]} [label="{lbl}"];')
    else:
        for src, act, dst in sorted(r.graph.edges, key=edge_key):
            lines.append(
                f'  {ids[src]} -> {ids[dst]} [label="{_act_label(act)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_NODE = '    {\n      "id": %d,\n      "label": %s\n    }'
_EDGE = '    {\n      "src": %d,\n      "act": %s,\n      "dst": %d\n    }'


def to_json(obj) -> str:
    """Stable-order JSON for a Metrics record or a full AnalysisResult.

    A result is written exactly as json.dumps(doc, indent=2) writes it,
    but row by row: with indent= json.dumps runs its pure-Python encoder,
    so each value is encoded on its own by the C one instead."""
    if isinstance(obj, Metrics):
        doc = {"schema": 1, "metrics": asdict(obj)}
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    r = obj
    nodes, rank = _sorted_nodes(r)
    ids = {n: i for i, n in enumerate(nodes)}
    edges = sorted(r.graph.edges, key=_edge_key(rank))
    head = {
        "schema": 1,
        "kind": r.kind,
        "saturated": r.saturated,
        "node_count": len(nodes),
        "edge_count": len(edges),
    }
    tail = {}
    if r.guarded_edges is not None:
        tail["guarded_edge_count"] = len(r.guarded_edges)
        tail["stale_guards"] = r.extras.get("stale_guards", 0)
    if r.ecg is not None:
        tail["ecg_pairs"] = r.ecg.pair_count()
    dumps = json.dumps
    rows = [f"  {dumps(k)}: {dumps(v)}" for k, v in head.items()]
    rows.append('  "nodes": ' + _array(
        [_NODE % (i, dumps(_node_label(n))) for i, n in enumerate(nodes)]))
    rows.append('  "edges": ' + _array(
        [_EDGE % (ids[s], dumps(_act_label(a)), ids[d])
         for (s, a, d) in edges]))
    rows += [f"  {dumps(k)}: {dumps(v)}" for k, v in tail.items()]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def _array(items):
    """A top-level field's JSON array of rendered items, as indent=2."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
