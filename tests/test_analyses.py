"""End-to-end behavior of the six analyses on small programs and benchmarks."""
import time
from collections import Counter
from functools import partial

import pytest

from pdcfa.syntax import Var, parse_and_normalize
from pdcfa.abstract import AAddr, AEnv, AFrame, K_HALT, KAddr, Mono, OneCFA
from pdcfa.analyses import (
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
from pdcfa.pushdown import Pop, Push, RPDSOracle, UNCH, compact_worklist

from helpers import (AConf, approx_uncovered, compute_root_cache, leq,
                     step_conf)


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
    stored = (sum(len(p) for p in wl.paths.values())
              + sum(len(s) for s in wl.same.values()))
    assert stored < 1_500


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
                    yield State.make(c2.exp, c2.env, None, c2.ctx), c2.kont

        def nop_delta(psi):
            return [(q, Push(k[0]) if k else UNCH)
                    for q, k in successors(psi, ())]

        def top_delta(psi, fr):
            return [(q, Pop(fr)) for q, _ in successors(psi, (fr,))]

        g, _, sat = compact_worklist(RPDSOracle(r.graph.root, top_delta,
                                                nop_delta))
        assert sat
        assert set(g.nodes) == set(r.graph.nodes)
        assert set(g.edges) == set(r.graph.edges)
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
    # new: every state that read a kaddr was re-stepped after it last grew
    r = analyze_finite(load(prog), Mono(), gc=gc)
    assert r.saturated
    kstore = r.kstore
    edges = {(s, d) for s, _, d in r.graph.edges}
    for st in r.graph.nodes:
        roots, seen, work = set(), {st.kaddr}, [st.kaddr]
        while work:
            for fr, ka in kstore.get(work.pop(), ()):
                roots |= touches(fr)
                if ka not in seen:
                    seen.add(ka)
                    work.append(ka)
        store = st.store
        if gc:
            store = gc_store(st.env, st.store, frozenset(roots))
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
            s2 = State.make(c2.exp, c2.env, c2.store, c2.ctx, ka)
            assert s2 in r.graph.nodes and (st, s2) in edges


# ---------------------------------------------------------------------------
# approximate GC analysis


def test_approx_root_set_of_root_is_empty(fig1):
    r = analyze_gc_approx(fig1, Mono())
    assert r.root_cache[r.graph.root] == frozenset()


def test_approx_guards_below_final_roots(fig1):
    r = analyze_gc_approx(fig1, Mono())
    for (src, guard, act, dst) in r.guarded_edges:
        assert frozenset(guard) <= r.root_cache.get(src, frozenset())


def test_approx_root_cache_is_fixpoint_of_recorded_structure(fig1):
    for e in (fig1, load("eta"), load("blur")):
        r = analyze_gc_approx(e, Mono())
        assert r.saturated
        rc = compute_root_cache(list(r.graph.nodes), r.guarded_edges,
                                list(r.ecg.pairs))
        for q in r.graph.nodes:
            assert rc.get(q, frozenset()) == r.root_cache.get(q, frozenset())
            assert r.ecg.has(q, q)


def test_approx_equals_precise_on_eta():
    # no reuse of a state under distinct root sets here, so approximation
    # loses nothing: same (exp, env, ctx) projections on both sides
    e = load("eta")
    ra = analyze_gc_approx(e, Mono())
    rp = analyze_gc_precise(e, Mono())
    proj_a = {(n.exp.label, n.env, n.ctx) for n in ra.graph.nodes}
    proj_p = {(n.exp.label, n.env, n.ctx) for n in rp.graph.nodes}
    assert proj_a == proj_p
    assert ra.stale_guards == 0


def test_approx_records_stale_guards_when_roots_grow(fig1):
    r = analyze_gc_approx(fig1, Mono())
    assert r.stale_guards > 0  # loops re-enter states with more roots


# A generated program on which roots reach a node only along a push edge
# recorded before its source's roots grew: without grow's push_out loop,
# 9 pdcfa-gc states at k=0 and 1 at k=1 go uncovered.
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


@pytest.mark.parametrize("analyze", [
    analyze_finite, partial(analyze_finite, gc=True),
    analyze_pdcfa, analyze_gc_precise, analyze_gc_approx,
    analyze_pdcfa_widened],
    ids=["plain", "plain-gc", "pdcfa", "pdcfa-gc", "approx", "widened"])
def test_approx_within_node_limit_reports_unsaturated(fig1, analyze):
    r = analyze(fig1, Mono(), node_limit=5)
    assert not r.saturated
    assert len(r.graph.nodes) <= 5 + 64  # limit is checked every 64 work items


# ---------------------------------------------------------------------------
# root cache recomputation on hand-built structure


def _mk_state(exp_label):
    e = parse_and_normalize("((lambda (x) x) 1)")
    return State.make(e, AEnv.make([]), None, (exp_label,))


def test_compute_root_cache_push_then_pair():
    e = parse_and_normalize("(lambda (q) q)")
    lam = e.atom
    v = Var("v", 99)
    addr = AAddr.make("mono", v)
    env = AEnv.make(((v, addr),))
    fr = AFrame.make(Var("r", 100), lam.body, env)
    a, b, c = _mk_state(1), _mk_state(2), _mk_state(3)
    guarded = [(a, frozenset(), Push(fr), b)]
    hpairs = [(a, a), (b, b), (c, c), (b, c)]
    rc = compute_root_cache([a, b, c], guarded, hpairs)
    assert rc[a] == frozenset()
    assert rc[b] == touches(fr) == frozenset({addr})
    assert rc[c] == rc[b]  # H pair forwards the pusher-side roots


def test_compute_root_cache_no_edges_is_all_empty():
    a, b = _mk_state(1), _mk_state(2)
    rc = compute_root_cache([a, b], [], [(a, a), (b, b)])
    assert rc[a] == rc[b] == frozenset()


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


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("prog", ["fig1", "kcfa2"])
def test_approx_resteps_only_when_collection_roots_grow(prog, k, monkeypatch):
    """Approx re-steps a node only when the roots it is collected under
    (its env's range and its cached R) grew since its last re-step."""
    collected = []  # the root set of each gc_store call
    real_gc_store = analyses.gc_store

    def gc_store(env, store, extra_roots=frozenset()):
        collected.append(env.addrs() | extra_roots)
        return real_gc_store(env, store, extra_roots)
    last = {}  # node -> roots it was collected under at its last re-step
    resteps = []

    class Worklist(pushdown.Worklist):
        def restep(self, q):
            self.oracle.nop_delta(q)  # collects q under its roots now
            before = last.get(q, q.env.addrs())
            assert collected[-1] > before, q
            last[q] = collected[-1]
            resteps.append(q)
            super().restep(q)
    monkeypatch.setattr(analyses, "gc_store", gc_store)
    monkeypatch.setattr(analyses, "Worklist", Worklist)
    r = analyze_gc_approx(load(prog), policy_for_k(k))
    assert r.saturated and resteps
