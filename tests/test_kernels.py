"""Abstract GC and the result counts against from-scratch oracles, and a
guard on how often abstract GC walks a store."""
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pdcfa import analyses
from pdcfa.bench import load
from pdcfa.cli import policy_for_k, run_one
from pdcfa.metrics import singleton_count
from pdcfa.pushdown import ECG
from pdcfa.syntax import parse_and_normalize

from helpers import ref_reachable_addrs, ref_singleton_count, result_for

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the fused pool the benchmark draws from)

KINDS = tuple(analyses.ANALYSES)
GC_KINDS = ("plain-gc", "pdcfa-gc", "pdcfa-gc-approx")
POOL = (0, 8, 16, 24)


def _program(name):
    if name.startswith("fused"):
        return parse_and_normalize(workloads.fused_source(int(name[5:])))
    return load(name)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", [*workloads.BUNDLED,
                                  *(f"fused{i}" for i in POOL)])
def test_gc_store_matches_from_scratch_reachability(name, k, monkeypatch):
    """Every (store, root set) the three GC analyses collect: the store
    restricted to what the one-address-at-a-time walk reaches."""
    collected = {}  # (store, roots) -> the store gc_store returned
    real_gc_store = analyses.gc_store

    def gc_store(env, store, extra_roots=frozenset()):
        out = real_gc_store(env, store, extra_roots)
        roots = frozenset(a for _, a in env.items) | extra_roots
        assert collected.setdefault((store, roots), out) is out
        return out
    monkeypatch.setattr(analyses, "gc_store", gc_store)
    e = _program(name)
    for kind in GC_KINDS:
        assert run_one(kind, e, policy_for_k(k)).saturated
    assert collected
    for (store, roots), out in collected.items():
        assert out is store.restrict(ref_reachable_addrs(roots, store))


def test_the_analyses_run_in_the_benchmark_order():
    # perfbench runs its analyses in the order `--analysis all` uses
    assert tuple(analyses.ANALYSES) == workloads.KINDS


@pytest.mark.parametrize("name", workloads.BUNDLED)
def test_singleton_count_matches_per_store_union(name):
    for k in (0, 1):
        for kind in KINDS:
            r = result_for(name, kind, k)
            assert singleton_count(r) == ref_singleton_count(r), (kind, k)


_graphs = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=3 * n),  # self-loops and cycles included
    st.sets(st.integers(0, n - 1), min_size=1)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_graphs)
def test_pair_count_counts_the_closure(graph):
    """Counting equals the materialized ε-closure, also when `same` reaches
    states that are not nodes."""
    edges, nodes = graph
    same = {}
    for s, d in edges:
        same.setdefault(s, {})[d] = None
    ecg = ECG(dict.fromkeys(sorted(nodes)), same)
    assert ecg.pair_count() == len(ecg.pairs)


_COUNT_WALKS = r"""
import importlib, json, sys
sys.path[:0] = sys.argv[1:3]
import workloads
from pdcfa.cli import policy_for_k, run_one
from pdcfa.syntax import parse_and_normalize
gc = importlib.import_module("pdcfa.gc")
walk = gc.reachable_addrs
counts, kind = {}, None

def count(what):
    n = counts.setdefault(kind, {})
    n[what] = n.get(what, 0) + 1

def reachable_addrs(roots, store):
    seen = walk(roots, store)
    count("walks")
    if all(a in seen for a, _ in store.items):
        count("whole")  # the walk reached every entry
    return seen
gc.reachable_addrs = reachable_addrs
e = parse_and_normalize(workloads.fused_source(5))
for kind in workloads.FUSED_KINDS:
    run_one(kind, e, policy_for_k(1))
print(json.dumps(counts))
"""


def test_gc_walks_each_store_once_per_root_set():
    """The three GC analyses of one fused program at k=1, in one fresh
    process: plain-gc, which runs first, makes every walk; the other two
    find each (store, root set) in its memo.  125 walks reach every entry,
    so collecting gives back the store as it is."""
    p = subprocess.run([sys.executable, "-c", _COUNT_WALKS,
                        str(ROOT / "src"), str(ROOT / "perfbench")],
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == {
        "plain-gc": {"walks": 280, "whole": 125}}
