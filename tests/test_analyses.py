"""End-to-end behavior of the six analyses on small programs and benchmarks."""
import gc
import time
import tracemalloc
from collections import Counter
from functools import partial

import pytest

from pdcfa.syntax import If, Let1, Ret, Var, parse_and_normalize
from pdcfa.abstract import (AAddr, AEnv, AFrame, EMPTY_STORE, K_HALT, KAddr,
                            Mono, OneCFA)
from pdcfa.analyses import (
    AnalysisResult,
    State,
    analyze_finite,
    analyze_gc_approx,
    analyze_gc_precise,
    analyze_pdcfa,
    analyze_pdcfa_widened,
)
from pdcfa.bench import load
from pdcfa.cli import policy_for_k, run_one
from pdcfa import analyses, pushdown
from pdcfa.gc import gc_store, touches
from pdcfa.metrics import singleton_count
from pdcfa.pushdown import (CRPDS, Pop, Push, RPDSOracle, UNCH,
                            compact_worklist)

from helpers import (AConf, Node, approx_uncovered, coverage_violations,
                     kcfa2n_source, least_entry_roots, leq, node_parts,
                     parts, step_conf)


@pytest.fixture(scope="module")
def fig1():
    return load("fig1")


# ---------------------------------------------------------------------------
# small programs with countable state spaces


def test_identity_applied_to_identity_is_two_states():
    e = parse_and_normalize("((lambda (x) x) (lambda (y) y))")
    r = analyze_pdcfa(e, Mono())
    assert r.saturated
    assert len(r.graph.nodes) == 2  # tail call, then the returned reference
    assert len(r.graph.edges) == 1
    assert not any(isinstance(a, Push) for (_, a, _) in r.graph.edges)


def test_finite_matches_pushdown_on_tail_call_program():
    e = parse_and_normalize("((lambda (x) x) (lambda (y) y))")
    rp = analyze_pdcfa(e, Mono())
    rf = analyze_finite(e, Mono())
    assert ({n.exp.label for n in rp.graph.nodes}
            == {n.exp.label for n in rf.graph.nodes})
    assert len(rf.graph.nodes) == 2


def test_all_analyses_saturate_on_fig1(fig1):
    for run in (
        lambda: analyze_finite(fig1, Mono()),
        lambda: analyze_finite(fig1, Mono(), gc=True),
        lambda: analyze_pdcfa(fig1, Mono()),
        lambda: analyze_gc_precise(fig1, Mono()),
        lambda: analyze_pdcfa_widened(fig1, Mono()),
        lambda: analyze_gc_approx(fig1, Mono()),
    ):
        assert run().saturated


# The State parts each analysis leaves None.  metrics serializes the parts
# its root carries, so every node must carry the same ones.
NONE_PARTS = {
    "plain": {"roots"},
    "plain-gc": {"roots"},
    "pdcfa": {"kaddr", "roots"},
    "pdcfa-gc": {"kaddr"},
    "pdcfa-gc-approx": {"kaddr", "roots"},
    "pdcfa-widened": {"store", "kaddr", "roots"},
}


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("kind", NONE_PARTS)
def test_each_analysis_uses_the_same_parts_on_every_node(fig1, kind, k):
    r = run_one(kind, fig1, policy_for_k(k))
    parts = ("exp", "env", "store", "ctx", "kaddr", "roots")
    assert len(r.graph.nodes) > 20
    for n in r.graph.nodes:
        assert type(n) is State
        assert {p for p in parts if getattr(n, p) is None} == NONE_PARTS[kind]
        assert n.kaddr is None or n.kaddr is K_HALT or type(n.kaddr) is KAddr
        assert n.roots is None or type(n.roots) is frozenset


def test_state_count_ordering_on_fig1(fig1):
    plain = len(analyze_finite(fig1, Mono()).graph.nodes)
    plain_gc = len(analyze_finite(fig1, Mono(), gc=True).graph.nodes)
    pd = len(analyze_pdcfa(fig1, Mono()).graph.nodes)
    fused = len(analyze_gc_precise(fig1, Mono()).graph.nodes)
    # each refinement strictly helps on this program
    assert fused < plain_gc < pd < plain


def test_fused_gc_beats_plain_by_wide_margin_at_k1():
    e = load("kcfa2")
    fused = analyze_gc_precise(e, OneCFA())
    assert fused.saturated and len(fused.graph.nodes) < 100
    plain = analyze_finite(e, OneCFA(), node_limit=2000,
                           deadline=time.monotonic() + 30)
    count = len(plain.graph.nodes)
    assert not plain.saturated or count >= 3 * len(fused.graph.nodes)
    assert count >= 3 * len(fused.graph.nodes)


def test_engine_keeps_entry_relative_facts_not_the_closure(monkeypatch):
    # blur k=0 has 21,229 ε-closure pairs; the engine stores only its path
    # edges (entry, q) and one-step same-level pairs
    engines = []

    class Kept(pushdown.Worklist):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)
    monkeypatch.setattr(pushdown, "Worklist", Kept)
    r = analyze_pdcfa(load("blur"), Mono())
    (wl,) = engines
    assert r.saturated
    assert r.ecg.pair_count() == 21_229
    stored = (sum(len(p) for p in wl.graph.paths.values())
              + sum(len(s) for s in wl.same.values()))
    assert stored < 1_500


@pytest.mark.parametrize("gc", [False, True])
def test_finite_baselines_keep_no_restep_index(gc, monkeypatch):
    """A finite baseline steps each state under its own kaddr alone, from
    the halt address, and keeps no same-level pairs: a summary through a
    return point that callers share would join them.  Each caller is
    stored as its entry alone, which its stack character names."""
    engines = []

    class Kept(pushdown.Worklist):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)
    monkeypatch.setattr(analyses, "Worklist", Kept)
    r = analyze_finite(load("fig1"), OneCFA(), gc=gc)
    (wl,) = engines
    assert r.saturated and r.ecg is None and wl.same is None
    assert r.graph.root_entry is K_HALT and len(r.graph.paths) > 1
    stepped = [(q, e) for e, path in r.graph.paths.items() for q in path]
    assert len(stepped) == len(r.graph.nodes)
    assert all(e is q.kaddr for q, e in stepped)
    assert r.graph.kstore and all(
        callers == {(None, gamma[1]): None}
        for frames in r.graph.kstore.values()
        for gamma, callers in frames.items())


# perfbench's caps on the k=1 blowups (workloads.CAPS)
BENCH_CAPS = {("kcfa2", "plain"): 10_000, ("kcfa3", "plain"): 10_000,
              ("kcfa3", "pdcfa"): 2_000}


@pytest.mark.parametrize("prog, most", [("kcfa2", 8_851), ("kcfa3", 7_740)])
def test_capped_plain_cells_read_pops_and_moves_from_one_astep(
        prog, most, monkeypatch):
    """The capped plain k=1 cells run astep at most 8,851 and 7,740
    times: a finite state's pops and then its moves read one astep
    result, kept until the next input."""
    calls = []
    real_astep = analyses.astep

    def astep(*args):
        calls.append(None)
        return real_astep(*args)
    monkeypatch.setattr(analyses, "astep", astep)
    r = run_one("plain", load(prog), policy_for_k(1),
                node_limit=BENCH_CAPS[prog, "plain"])
    assert not r.saturated and len(calls) <= most


@pytest.mark.parametrize("kind", tuple(analyses.ANALYSES))
@pytest.mark.parametrize("prog", ["kcfa2", "kcfa3"])
def test_a_dropped_result_frees_its_run_without_the_collector(prog, kind):
    """A run interns its nodes in a table of its own, graph.nodes, which
    maps each node to itself, and makes no State outside it.  It leaves
    no reference cycle, so dropping its result frees every State by
    reference counting alone: the cyclic collector finds nothing.
    (Other tests' cached results keep their States: count this run's.)"""
    def states():
        return sum(1 for x in gc.get_objects() if type(x) is State)
    e = load(prog)
    gc.collect()
    gc.disable()
    try:
        before = states()
        r = run_one(kind, e, policy_for_k(1),
                    node_limit=BENCH_CAPS.get((prog, kind)))
        nodes = r.graph.nodes
        assert all(v is q for q, v in nodes.items())
        assert states() == before + len(nodes) > before
        del r, nodes
        assert states() == before
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_capped_plain_cell_peaks_at_what_it_holds():
    """With one node table per run, the capped kcfa2 plain k=1 cell's
    traced heap peak during the run is within 5% of what it holds when
    the run returns (a key tuple kept per node beside the table put the
    peak at 5.30 MB over 4.35 MB held)."""
    e = load("kcfa2")
    tracemalloc.start()
    try:
        r = run_one("plain", e, policy_for_k(1),
                    node_limit=BENCH_CAPS["kcfa2", "plain"])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not r.saturated
    assert peak <= 1.05 * held, (peak, held)


@pytest.mark.soak
def test_largest_cell_peaks_under_55_mib():
    """Uncapped kcfa3 pdcfa k=1 (48,824 nodes): its traced heap peak
    during the run stays at or under 55 MiB (53.0 MiB in a fresh
    process)."""
    e = load("kcfa3")
    tracemalloc.start()
    try:
        r = run_one("pdcfa", e, policy_for_k(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.saturated and len(r.graph.nodes) == 48_824
    assert peak <= 55 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("kind", tuple(analyses.ANALYSES))
def test_states_that_cannot_return_pop_without_a_step(fig1, kind,
                                                      monkeypatch):
    """astep returns nothing from a Let1 or an If, so top_delta answers
    such a state with no pops before it reads its store (for GC, a
    gc_store call) or steps it."""
    r = run_one(kind, fig1, policy_for_k(1))
    gammas = {act.frame for _, act, _ in r.graph.edges if type(act) is Push}
    silent = [q for q in r.graph.nodes if isinstance(q.exp, (Let1, If))]
    assert gammas and silent

    def store_of(q, e):
        assert not isinstance(q.exp, (Let1, If)), q
        return q.store if q.store is not None else EMPTY_STORE
    nodes, node = analyses._node_table()
    oracle = analyses._oracle(r.graph.root, store_of, node,
                              policy_for_k(1), nodes)
    calls = []
    real_astep = analyses.astep

    def astep(*args):
        calls.append(args[0])
        return real_astep(*args)
    monkeypatch.setattr(analyses, "astep", astep)
    for q in silent:
        for gamma in gammas:
            assert oracle.top_delta(q, gamma, None) == ()
    assert calls == [] and nodes == {}
    # a state that can return still steps
    ret = next(q for q in r.graph.nodes if isinstance(q.exp, Ret))
    oracle.top_delta(ret, next(iter(gammas)), None)
    assert calls == [ret.exp]


# ---------------------------------------------------------------------------
# store widening


def test_widened_visits_same_expressions_as_pushdown():
    e = load("kcfa3")
    rw = analyze_pdcfa_widened(e, Mono())
    rp = analyze_pdcfa(e, Mono())
    assert rw.saturated and rp.saturated
    assert ({id(n.exp) for n in rw.graph.nodes}
            == {id(n.exp) for n in rp.graph.nodes})
    assert len(rw.graph.nodes) <= len(rp.graph.nodes)


def test_widened_has_single_global_store(fig1):
    r = analyze_pdcfa_widened(fig1, Mono())
    assert r.global_store is not None
    assert r.stores() == [r.global_store]


def _let_chain(n):
    """A straight-line let* whose n bindings all call one identity."""
    binds = ["(f (lambda (x) x))", "(v0 (f 0))"]
    binds += [f"(v{i} (f v{i - 1}))" for i in range(1, n)]
    return parse_and_normalize(f"(let* ({' '.join(binds)}) v{n - 1})")


def test_widened_is_fixpoint_under_its_global_store(fig1):
    # one more pass under the final store must find nothing new: every
    # node was re-stepped after the last time the store grew
    for e in (fig1, _let_chain(8)):
        r = analyze_pdcfa_widened(e, Mono())
        assert r.saturated
        store = r.global_store
        succ_stores = []

        def successors(psi, kont):
            c = AConf.make(psi.exp, psi.env, store, kont, psi.ctx)
            for c2 in step_conf(c, Mono()):
                if not (kont and c2.kont):  # under a frame, pops only
                    succ_stores.append(c2.store)
                    yield Node(c2.exp, c2.env, None, c2.ctx), c2.kont

        def nop_delta(psi, _):
            return [(q, Push(k[0]) if k else UNCH)
                    for q, k in successors(psi, ())]

        def top_delta(psi, fr, _):
            return [(q, Pop(fr)) for q, _ in successors(psi, (fr,))]

        g, _, sat = compact_worklist(RPDSOracle(parts(r.graph.root),
                                                top_delta, nop_delta))
        assert sat
        assert set(g.nodes) == node_parts(r)
        assert set(g.edges) == {(parts(s), a, parts(d))
                                for s, a, d in r.graph.edges}
        assert all(leq(s, store) for s in succ_stores)


def test_widened_resteps_only_nodes_that_read_a_grown_address(monkeypatch):
    # a deep chain of primitive calls: each round grows one address, which
    # one node reads, so re-stepping every node made this quadratic
    calls = []
    real_astep = analyses.astep

    def astep(*args):
        calls.append(args)
        return real_astep(*args)
    monkeypatch.setattr(analyses, "astep", astep)
    r = analyze_pdcfa_widened(
        parse_and_normalize("(+ 1 " * 100 + "0" + ")" * 100), Mono())
    assert r.saturated
    assert len(calls) <= 3 * len(r.graph.nodes)


# ---------------------------------------------------------------------------
# finite baselines


@pytest.mark.parametrize("gc", [False, True], ids=["plain", "plain-gc"])
@pytest.mark.parametrize("prog", ["fig1", "kcfa2"])
def test_finite_is_fixpoint_under_its_kstore(prog, gc):
    # one more pass against the final continuation store must find nothing
    # new: every state was re-stepped after the frames or, under GC, the
    # root set of its kaddr last grew
    r = analyze_finite(load(prog), Mono(), gc=gc)
    assert r.saturated
    kstore, Rk = r.graph.kstore, least_entry_roots(r)
    assert r.entry_roots == (Rk if gc else None)
    nodes = node_parts(r)
    edges = {(parts(s), parts(d)) for s, _, d in r.graph.edges}
    for st in r.graph.nodes:
        roots = Rk.get(st.kaddr, frozenset())
        store = st.store
        if gc:
            store = gc_store(st.env, st.store, roots)
        succs = []
        for c2 in step_conf(AConf.make(st.exp, st.env, store, (), st.ctx),
                            Mono()):
            ka = st.kaddr
            if c2.kont:  # a pushed frame is already stored at its kaddr
                (fr,) = c2.kont
                ka = KAddr.make(fr.exp, fr.env)
                assert (fr, st.kaddr) in kstore.get(ka, ())
            succs.append((c2, ka))
        for fr, ka in kstore.get(st.kaddr, ()):
            c = AConf.make(st.exp, st.env, store, (fr,), st.ctx)
            succs += [(c2, ka) for c2 in step_conf(c, Mono()) if not c2.kont]
        for c2, ka in succs:
            s2 = Node(c2.exp, c2.env, c2.store, c2.ctx, ka)
            assert s2 in nodes and (parts(st), s2) in edges


# ---------------------------------------------------------------------------
# approximate GC analysis


def test_approx_root_set_of_root_is_empty(fig1):
    r = analyze_gc_approx(fig1, Mono())
    assert r.graph.root not in r.entry_roots  # only non-empty Rk are kept
    assert r.entry_roots and all(r.entry_roots.values())


def test_approx_root_cache_is_fixpoint_of_recorded_structure(fig1):
    """Each entry's roots are the least solution of their equation over
    the continuation store the loop recorded."""
    for e in (fig1, load("eta"), load("blur"),
              parse_and_normalize(PUSH_FLOW_WITNESS)):
        r = analyze_gc_approx(e, Mono())
        assert r.saturated
        assert r.entry_roots == least_entry_roots(r)
        pairs = r.ecg.pairs
        assert all((q, q) in pairs for q in r.graph.nodes)


def test_approx_equals_precise_on_eta():
    # no reuse of a state under distinct root sets here, so approximation
    # loses nothing: same (exp, env, ctx) projections on both sides
    e = load("eta")
    ra = analyze_gc_approx(e, Mono())
    rp = analyze_gc_precise(e, Mono())
    proj_a = {(n.exp.label, n.env, n.ctx) for n in ra.graph.nodes}
    proj_p = {(n.exp.label, n.env, n.ctx) for n in rp.graph.nodes}
    assert proj_a == proj_p


# A generated program on which roots reach an entry only after states
# were stepped under it: the only one found on which approx re-steps.
PUSH_FLOW_WITNESS = """
(define (h0 n f x) (if (<= n 0) x (f (h0 (- n 1) f x))))
(define (m1 n x) (lambda (y) (let ((v0 (let* ((v1 (let* ((v2 x) (v3 1)) (lambda (v4) 3))) (v5 (h0 3 (lambda (v6) 2) y))) (not #t)))) (+ ((lambda (v7) 2) y) (let ((v8 (lambda (v9) 0))) 0)))))
((lambda (v5) (if (< v5 1) ((lambda (v10) 0) v5) (let* ((v11 (lambda (v12) 3)) (v13 v5)) 0))) (h0 0 (let ((v14 (lambda (v9) v9))) (m1 2 1)) (if (or #t #t) (+ 3 2) (+ 0 0))))
"""


@pytest.mark.parametrize("k", [0, 1])
def test_approx_roots_flow_along_earlier_push_edges(k):
    e = parse_and_normalize(PUSH_FLOW_WITNESS)
    precise = run_one("pdcfa-gc", e, policy_for_k(k))
    approx = run_one("pdcfa-gc-approx", e, policy_for_k(k))
    assert precise.saturated and approx.saturated
    assert approx_uncovered(precise, approx)[0] == 0
    assert coverage_violations(e, policy_for_k(k), approx)[0] == 0


@pytest.mark.parametrize("k", [0, 1])
def test_approx_resteps_an_entry_when_its_roots_grow(k, monkeypatch):
    """A push that grows Rk(t) after states were stepped under t re-steps
    each of them under t alone.  Here that happens twice; on the bundled
    programs, the fused pool and the generated programs tried, never."""
    resteps = []

    class Worklist(pushdown.Worklist):
        def restep(self, q, e):
            assert q in self.graph.paths[e]
            resteps.append(e)
            super().restep(q, e)
    monkeypatch.setattr(analyses, "Worklist", Worklist)
    r = analyze_gc_approx(parse_and_normalize(PUSH_FLOW_WITNESS),
                          policy_for_k(k))
    assert r.saturated and len(resteps) == 2
    assert all(e in r.entry_roots for e in resteps)


@pytest.mark.parametrize("analyze", [
    analyze_finite, partial(analyze_finite, gc=True),
    analyze_pdcfa, analyze_gc_precise, analyze_gc_approx,
    analyze_pdcfa_widened],
    ids=["plain", "plain-gc", "pdcfa", "pdcfa-gc", "approx", "widened"])
def test_approx_within_node_limit_reports_unsaturated(fig1, analyze):
    r = analyze(fig1, Mono(), node_limit=5)
    assert not r.saturated
    # the loop checks the count before every step, so it stops at the first
    # step past the cap; that step adds at most its successors, and across
    # the bundled programs at caps 1 to 500 no cell ends more than 3 past
    assert len(r.graph.nodes) <= 5 + 3


# ---------------------------------------------------------------------------
# entry roots recomputed on a hand-built continuation store


def _approx_result():
    e = parse_and_normalize("(lambda (q) q)")
    return e, AnalysisResult("pdcfa-gc-approx", CRPDS("r", "r"), None, e)


def test_compute_root_cache_no_edges_is_all_empty():
    # no push recorded: every entry root set is empty, so none is kept
    _, result = _approx_result()
    assert least_entry_roots(result) == {}


def test_compute_root_cache_push_then_pair():
    e, result = _approx_result()
    addrs = [AAddr.make("mono", Var(f"v{i}", 90 + i)) for i in range(2)]
    f1, f2 = (AFrame.make(Var("r", 100), e.atom.body,
                          AEnv.make(((a.var, a),))) for a in addrs)
    # r pushes f1 to t1; p, under t1, pushes f2 to t2, which carries
    # t1's roots on to t2 along with f2's own
    result.graph.kstore.update({"t1": {f1: {("r", "r"): None}},
                                "t2": {f2: {("p", "t1"): None}}})
    assert least_entry_roots(result) == {
        "t1": touches(f1), "t2": touches(f1) | touches(f2)}
    assert touches(f1) == {addrs[0]} and touches(f2) == {addrs[1]}


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("prog", ["fig1", "kcfa2"])
def test_pushdown_analyses_step_each_input_once(prog, k, monkeypatch):
    """A node's sprout and pops, nodes that collect to one store, and
    re-steps under an unchanged store all share one astep call."""
    inputs = Counter()
    real_astep = analyses.astep

    def astep(e, env, store, ctx, policy):
        inputs[(e, env, store, ctx)] += 1
        return real_astep(e, env, store, ctx, policy)
    monkeypatch.setattr(analyses, "astep", astep)
    for kind in ("pdcfa", "pdcfa-gc", "pdcfa-gc-approx", "pdcfa-widened"):
        inputs.clear()
        r = run_one(kind, load(prog), policy_for_k(k))
        assert r.saturated and inputs
        assert max(inputs.values()) == 1, kind


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kcfa2n_fused_gains_grow_with_n(n):
    """The paper's better-than-both-worlds claim as a family: at k=0,
    pdcfa-gc keeps 2n singletons where pdcfa, plain-gc and plain keep
    n+1, in 12·2ⁿ − 4 states; approx covers it in no more."""
    e, policy = parse_and_normalize(kcfa2n_source(n)), policy_for_k(0)
    kinds = ("plain-gc", "pdcfa", "pdcfa-gc", "pdcfa-gc-approx")
    r = {kind: run_one(kind, e, policy)
         for kind in kinds + (("plain",) if n < 5 else ())}
    assert all(x.saturated for x in r.values())
    singletons = {kind: singleton_count(x)[0] for kind, x in r.items()}
    assert singletons.pop("pdcfa-gc") == singletons.pop("pdcfa-gc-approx") \
        == 2 * n
    assert set(singletons.values()) == {n + 1}
    precise, approx = r["pdcfa-gc"], r["pdcfa-gc-approx"]
    assert len(precise.graph.nodes) == 12 * 2 ** n - 4
    assert len(approx.graph.nodes) <= len(precise.graph.nodes)
    assert approx_uncovered(precise, approx)[0] == 0
    for kind in ("plain-gc", "pdcfa-gc", "pdcfa-gc-approx"):
        assert coverage_violations(e, policy, r[kind])[0] == 0, kind
