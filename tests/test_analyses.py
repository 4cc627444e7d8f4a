"""End-to-end behavior of the six analyses on small programs and benchmarks."""
import time
from collections import Counter
from functools import partial

import pytest

from pdcfa.syntax import Var, parse_and_normalize
from pdcfa.abstract import (AAddr, AEnv, AFrame, FState, KAddr, Mono,
                            OneCFA)
from pdcfa.analyses import (
    ControlState,
    PState,
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

from helpers import AConf, compute_root_cache, leq, step_conf


@pytest.fixture(scope="module")
def fig1():
    return load("fig1")


# ---------------------------------------------------------------------------
# small programs with countable state spaces


def test_identity_applied_to_identity_is_two_states():
    e = parse_and_normalize("((lambda (x) x) (lambda (y) y))")
    r = analyze_pdcfa(e, Mono())
    assert r.saturated
    assert len(r.nodes) == 2  # tail call, then the returned reference
    assert len(r.edges) == 1
    assert not any(isinstance(a, Push) for (_, a, _) in r.edges)


def test_finite_matches_pushdown_on_tail_call_program():
    e = parse_and_normalize("((lambda (x) x) (lambda (y) y))")
    rp = analyze_pdcfa(e, Mono())
    rf = analyze_finite(e, Mono())
    assert {n.exp.label for n in rp.nodes} == {n.exp.label for n in rf.nodes}
    assert len(rf.nodes) == 2


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


def test_state_count_ordering_on_fig1(fig1):
    plain = len(analyze_finite(fig1, Mono()).nodes)
    plain_gc = len(analyze_finite(fig1, Mono(), gc=True).nodes)
    pd = len(analyze_pdcfa(fig1, Mono()).nodes)
    fused = len(analyze_gc_precise(fig1, Mono()).nodes)
    # each refinement strictly helps on this program
    assert fused < plain_gc < pd < plain


def test_fused_gc_beats_plain_by_wide_margin_at_k1():
    e = load("kcfa2")
    fused = analyze_gc_precise(e, OneCFA())
    assert fused.saturated and len(fused.nodes) < 100
    plain = analyze_finite(e, OneCFA(), node_limit=2000,
                           deadline=time.monotonic() + 30)
    count = len(plain.nodes)
    assert not plain.saturated or count >= 3 * len(fused.nodes)
    assert count >= 3 * len(fused.nodes)


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
    assert {id(n.exp) for n in rw.nodes} == {id(n.exp) for n in rp.nodes}
    assert len(rw.nodes) <= len(rp.nodes)


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
                    yield PState.make(c2.exp, c2.env, c2.ctx), c2.kont

        def nop_delta(psi):
            return [(q, Push(k[0]) if k else UNCH)
                    for q, k in successors(psi, ())]

        def top_delta(psi, fr):
            return [(q, Pop(fr)) for q, _ in successors(psi, (fr,))]

        g, _, sat = compact_worklist(RPDSOracle(r.graph.root, top_delta,
                                                nop_delta))
        assert sat
        assert set(g.nodes) == set(r.nodes)
        assert set(g.edges) == set(r.edges)
        assert all(leq(s, store) for s in succ_stores)


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
    edges = {(s, d) for s, _, d in r.edges}
    for st in r.nodes:
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
            s2 = FState.make(c2.exp, c2.env, c2.store, c2.ctx, ka)
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
        rc = compute_root_cache(list(r.nodes), r.guarded_edges,
                                list(r.ecg.pairs))
        for q in r.nodes:
            assert rc.get(q, frozenset()) == r.root_cache.get(q, frozenset())
            assert r.ecg.has(q, q)


def test_approx_equals_precise_on_eta():
    # no reuse of a state under distinct root sets here, so approximation
    # loses nothing: same (exp, env, ctx) projections on both sides
    e = load("eta")
    ra = analyze_gc_approx(e, Mono())
    rp = analyze_gc_precise(e, Mono())
    proj_a = {(n.exp.label, n.env, n.ctx) for n in ra.nodes}
    proj_p = {(n.state.exp.label, n.state.env, n.state.ctx) for n in rp.nodes}
    assert proj_a == proj_p
    assert ra.stale_guards == 0


def test_approx_records_stale_guards_when_roots_grow(fig1):
    r = analyze_gc_approx(fig1, Mono())
    assert r.stale_guards > 0  # loops re-enter states with more roots


@pytest.mark.parametrize("analyze", [
    analyze_finite, partial(analyze_finite, gc=True),
    analyze_pdcfa, analyze_gc_precise, analyze_gc_approx,
    analyze_pdcfa_widened],
    ids=["plain", "plain-gc", "pdcfa", "pdcfa-gc", "approx", "widened"])
def test_approx_within_node_limit_reports_unsaturated(fig1, analyze):
    r = analyze(fig1, Mono(), node_limit=5)
    assert not r.saturated
    assert len(r.nodes) <= 5 + 64  # limit is checked every 64 work items


# ---------------------------------------------------------------------------
# root cache recomputation on hand-built structure


def _mk_state(exp_label):
    e = parse_and_normalize("((lambda (x) x) 1)")
    return ControlState.make(e, AEnv.make([]), None, (exp_label,))


def test_compute_root_cache_push_then_pair():
    e = parse_and_normalize("(lambda (q) q)")
    lam = e.atom.lam
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
