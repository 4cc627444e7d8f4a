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
    for store in r.stores():
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
    return sorted(r.graph.nodes, key=lambda n: n.skey())


def _edge_key(e):
    src, act, dst = e
    ak = (act,) if isinstance(act, str) else act_skey(act)
    return (src.skey(), ak, dst.skey())


def to_dot(r: AnalysisResult) -> str:
    """Deterministic DOT rendering of the reachable transition graph."""
    nodes = _sorted_nodes(r)
    ids = {n: f"n{i}" for i, n in enumerate(nodes)}
    lines = ["digraph pdcfa {", '  rankdir="LR";']
    for n in nodes:
        shape = "doublecircle" if n is r.graph.root else "circle"
        lines.append(f'  {ids[n]} [label="{_node_label(n)}", shape={shape}];')
    if r.guarded_edges is not None:
        rendered = sorted(
            ((src, act, dst, len(guard))
             for (src, guard, act, dst) in r.guarded_edges),
            key=lambda t: (_edge_key(t[:3]), t[3]))
        for src, act, dst, gsize in rendered:
            lbl = f"{_act_label(act)} ⟨{gsize}⟩"
            lines.append(f'  {ids[src]} -> {ids[dst]} [label="{lbl}"];')
    else:
        for src, act, dst in sorted(r.graph.edges, key=_edge_key):
            lines.append(
                f'  {ids[src]} -> {ids[dst]} [label="{_act_label(act)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(obj) -> str:
    """Stable-order JSON for a Metrics record or a full AnalysisResult."""
    if isinstance(obj, Metrics):
        doc = {"schema": 1, "metrics": asdict(obj)}
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    r = obj
    nodes = _sorted_nodes(r)
    ids = {n: i for i, n in enumerate(nodes)}
    edges = sorted(r.graph.edges, key=_edge_key)
    doc = {
        "schema": 1,
        "kind": r.kind,
        "saturated": r.saturated,
        "node_count": len(nodes),
        "edge_count": len(edges),
        "nodes": [{"id": ids[n], "label": _node_label(n)} for n in nodes],
        "edges": [{"src": ids[s], "act": _act_label(a), "dst": ids[d]}
                  for (s, a, d) in edges],
    }
    if r.guarded_edges is not None:
        doc["guarded_edge_count"] = len(r.guarded_edges)
        doc["stale_guards"] = r.extras.get("stale_guards", 0)
    if r.ecg is not None:
        doc["ecg_pairs"] = len(r.ecg.pairs)
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
