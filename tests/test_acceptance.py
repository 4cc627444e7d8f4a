"""Top-level acceptance gate: one test (and one printed PASS line) per
criterion.  Analysis results are cached across criteria; the two plain
k=1 runs on the kcfa benchmarks are capped at 10⁴ states on purpose —
demonstrating that blowup is itself one of the criteria."""
import random
import subprocess
import sys
import time
from operator import attrgetter

import conftest
from helpers import (approx_uncovered, compact_naive, coverage_violations,
                     least_entry_roots, net, program, result_for, stackify,
                     widened_uncovered)
from pdcfa import analyses
from pdcfa.abstract import EMPTY_ENV, EMPTY_STORE, K_HALT
from pdcfa.analyses import ANALYSES, AnalysisResult
from pdcfa.gc import gc_store, touches
from pdcfa.bench import BENCHMARKS
from pdcfa.cli import policy_for_k, run_one
from pdcfa.metrics import singleton_count, to_dot, to_json
from pdcfa.pushdown import (Pop, Push, RPDSOracle, UNCH, Worklist,
                            compact_worklist)

KINDS = tuple(ANALYSES)


def report(n, name, detail):
    # replayed by the conftest terminal-summary hook, past output capture
    line = f"criterion {n:>2}/10 {name}: PASS — {detail}"
    conftest.acceptance_lines.append(line)
    print(line)


# ---------------------------------------------------------------------------


def _random_oracle(rng):
    n_states = rng.randint(2, 6)
    frames = [f"g{i}" for i in range(rng.randint(1, 3))]
    states = list(range(n_states))
    nops, pops = {}, {}
    for _ in range(rng.randint(1, 10)):
        q, q2 = rng.choice(states), rng.choice(states)
        roll = rng.random()
        if roll < 0.4:
            nops.setdefault(q, []).append((q2, UNCH))
        elif roll < 0.7:
            nops.setdefault(q, []).append((q2, Push(rng.choice(frames))))
        else:
            g = rng.choice(frames)
            pops.setdefault((q, g), []).append((q2, Pop(g)))
    for k in nops:
        nops[k] = list(dict.fromkeys(nops[k]))
    for k in pops:
        pops[k] = list(dict.fromkeys(pops[k]))
    return RPDSOracle(0, lambda q, g, e: list(pops.get((q, g), ())),
                      lambda q, e: list(nops.get(q, ())))


def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(0xACCE55)
    compared = mismatches = 0
    for _ in range(200):
        oracle = _random_oracle(rng)
        gn, en, sat = compact_naive(oracle, depth_bound=8, step_bound=10_000)
        if not sat:
            continue
        gw, ew, satw = compact_worklist(oracle)
        assert satw
        if (set(gn.nodes) != set(gw.nodes)
                or set(gn.edges) != set(gw.edges)
                or set(en.pairs) != set(ew.pairs)):
            mismatches += 1
        compared += 1
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert compared >= 50  # enough saturating systems to mean something
    assert elapsed < 30
    report(1, "oracle-equivalence",
           f"{compared}/200 saturating systems identical, {elapsed:.1f}s")


def test_criterion_02_stack_action_algebra():
    rng = random.Random(0x57ACC)
    frames = "abc"
    strings = []
    for _ in range(1000):
        n = rng.randint(0, 20)
        s = []
        for _ in range(n):
            roll = rng.random()
            if roll < 0.34:
                s.append(UNCH)
            elif roll < 0.67:
                s.append(Push(rng.choice(frames)))
            else:
                s.append(Pop(rng.choice(frames)))
        strings.append(s)
    failures = 0
    for i, s in enumerate(strings):
        n = net(s)
        if net(n) != n:
            failures += 1
        st = stackify(s)
        if any(isinstance(a, Pop) for a in n):
            if st is not None:
                failures += 1
        elif st != tuple(reversed([a.frame for a in n])):
            failures += 1
        t = strings[(i + 1) % len(strings)]
        if net(s + t) != net(net(s) + net(t)):
            failures += 1
    assert failures == 0
    report(2, "stack-action-algebra", "1000 strings, 0 law violations")


def test_criterion_03_soundness_simulation():
    checked = skipped = violations = configs = 0
    skips = []
    for b in BENCHMARKS:
        e = program(b)
        for k in (0, 1):
            for kind in KINDS:
                r = result_for(b, kind, k)
                if not r.saturated:
                    skipped += 1
                    skips.append(f"{b}/{kind}/k={k}")
                    continue
                bad, total = coverage_violations(e, policy_for_k(k), r)
                violations += bad
                configs += total
                checked += 1
    assert violations == 0, f"uncovered concrete configurations: {violations}"
    assert checked >= 90
    assert all(s in (f"kcfa2/plain/k=1", f"kcfa3/plain/k=1") for s in skips), \
        f"unexpected unsaturated analyses skipped: {skips}"
    report(3, "soundness-simulation",
           f"{checked} benchmark×analysis×k combinations, {configs} concrete "
           f"configurations covered, {skipped} capped-blowup skips")


def test_criterion_04_state_count_ordering():
    t0 = time.monotonic()
    plain = len(result_for("fig1", "plain", 0).graph.nodes)
    gc_only = len(result_for("fig1", "plain-gc", 0).graph.nodes)
    pd_only = len(result_for("fig1", "pdcfa", 0).graph.nodes)
    fused = len(result_for("fig1", "pdcfa-gc", 0).graph.nodes)
    elapsed = time.monotonic() - t0
    assert fused < gc_only < pd_only < plain
    assert plain >= 4 * fused
    assert elapsed < 5
    report(4, "state-count-ordering",
           f"fig1 k=0: {fused} < {gc_only} < {pd_only} < {plain}, "
           f"ratio {plain / fused:.2f} ≥ 4")


def test_criterion_05_blowup_vs_fused():
    rows = []
    for name in ("kcfa2", "kcfa3"):
        plain = result_for(name, "plain", 1)
        blew_up = (not plain.saturated) and len(plain.graph.nodes) >= 10_000
        fused = result_for(name, "pdcfa-gc", 1)
        assert blew_up, f"{name} plain k=1 stayed under 10⁴ states"
        assert fused.saturated and len(fused.graph.nodes) < 500
        rows.append(f"{name} plain≥{len(plain.graph.nodes)} vs "
                    f"fused={len(fused.graph.nodes)}")
    report(5, "exponential-vs-fused", "; ".join(rows))


def test_criterion_06_precision_dominance():
    pairs = ge_max = ge_min = 0
    strict = []  # cells where pdcfa-gc beats both pdcfa and plain-gc
    for b in BENCHMARKS:
        for k in (0, 1):
            parts = {}
            for kind in ("pdcfa", "plain-gc", "pdcfa-gc"):
                r = result_for(b, kind, k)
                if not r.saturated:
                    parts = None
                    break
                parts[kind], _ = singleton_count(r)
            if parts is None:
                continue
            pairs += 1
            fused = parts["pdcfa-gc"]
            if fused >= max(parts["pdcfa"], parts["plain-gc"]):
                ge_max += 1
            if fused >= min(parts["pdcfa"], parts["plain-gc"]):
                ge_min += 1
            if fused > max(parts["pdcfa"], parts["plain-gc"]):
                strict.append((b, k))
    assert pairs >= 14
    assert ge_min == pairs
    assert ge_max >= 0.8 * pairs
    # the paper's better-than-both-worlds cell: 4 singletons against 3
    # (pdcfa) and 3 (plain-gc)
    assert ("kcfa2", 0) in strict
    report(6, "precision-dominance",
           f"fused ≥ max on {ge_max}/{pairs}, ≥ min on {ge_min}/{pairs}, "
           f"> both on {len(strict)}/{pairs}")


def test_criterion_07_approx_gc_soundness():
    violations = states = 0
    for b in BENCHMARKS:
        for k in (0, 1):
            precise = result_for(b, "pdcfa-gc", k)
            approx = result_for(b, "pdcfa-gc-approx", k)
            assert precise.saturated and approx.saturated
            bad, checked = approx_uncovered(precise, approx)
            violations += bad
            states += checked
    assert violations == 0
    report(7, "approx-gc-soundness",
           f"{states} precise states all covered by approx states")


def test_criterion_08_widened_containment():
    violations = states = 0
    for b in BENCHMARKS:
        for k in (0, 1):
            pd = result_for(b, "pdcfa", k)
            wide = result_for(b, "pdcfa-widened", k)
            assert wide.saturated
            bad, checked = widened_uncovered(pd, wide)
            violations += bad
            states += checked
    assert violations == 0
    report(8, "widened-containment",
           f"{states} per-state nodes contained in the widened result")


def _incremental_roots_hold(results):
    """Every result's entry roots are the least fixpoint over its store."""
    return all(r.entry_roots == least_entry_roots(r) for r in results)


def test_criterion_09_incremental_root_cache():
    results = [result_for(b, kind, k) for b in BENCHMARKS for k in (0, 1, 2)
               for kind in ("pdcfa-gc-approx", "plain-gc")]
    assert all(r.saturated for r in results)
    assert _incremental_roots_hold(results)
    entries = sum(len(r.entry_roots) for r in results)
    report(9, "incremental-root-cache",
           f"{entries} entry root sets in {len(results)} cells equal the "
           f"least fixpoint over the continuation store")


def _without_callers_roots(kind, e, policy):
    """analyze_gc_approx or plain-gc, broken: a push joins touches(γ) into
    the roots of the entry it enters, but not the roots of the pusher's
    entry."""
    (nodes, node), Rk = analyses._node_table(), {}
    finite = kind == "plain-gc"
    oracle = analyses._oracle(
        node(e, EMPTY_ENV, EMPTY_STORE, (), K_HALT if finite else None),
        lambda q, pe: gc_store(q.env, q.store, Rk.get(pe, frozenset())),
        node, policy, nodes)
    moves = oracle.nop_delta

    def nop_delta(q, pe):
        out = moves(q, pe)
        for t, act in out:
            if type(act) is Push:
                fr, t = (act.frame[0], t.kaddr) if finite else (act.frame, t)
                old = Rk.get(t, frozenset())
                if not touches(fr) <= old:
                    Rk[t] = old | touches(fr)
                    for x in list(wl.graph.paths.get(t, ())):
                        wl.restep(x, t)
        return out
    oracle.nop_delta = nop_delta
    wl = Worklist(oracle, attrgetter("kaddr") if finite else None)
    assert wl.run()
    return AnalysisResult(kind, wl.graph, wl.ecg, e, entry_roots=Rk)


def test_criterion_09_fails_roots_that_skip_the_callers_entry():
    policy = policy_for_k(0)
    for kind in ("pdcfa-gc-approx", "plain-gc"):
        broken = {b: _without_callers_roots(kind, program(b), policy)
                  for b in ("fig1", "kcfa2")}
        for b, r in broken.items():
            assert not _incremental_roots_hold([r]), (kind, b)
        bad, checked = coverage_violations(program("fig1"), policy,
                                           broken["fig1"])
        assert bad > 0, (kind, checked)


def test_criterion_10_determinism():
    def full_sweep():
        chunks = []
        for b in BENCHMARKS:
            e = program(b)
            for kind in KINDS:
                r = run_one(kind, e, policy_for_k(0),
                            deadline=time.monotonic() + 120)
                chunks.append(to_dot(r))
                chunks.append(to_json(r))
        return "".join(chunks).encode()
    first, second = full_sweep(), full_sweep()
    assert first == second
    # and across processes, where object identities differ
    cmd = [sys.executable, "-m", "pdcfa.cli", "run", "fig1",
           "--analysis", "pdcfa-gc-approx", "--format", "dot"]
    p1 = subprocess.run(cmd, capture_output=True, timeout=120)
    p2 = subprocess.run(cmd, capture_output=True, timeout=120)
    assert p1.returncode == p2.returncode == 0
    assert p1.stdout == p2.stdout
    report(10, "determinism",
           f"two sweeps byte-identical ({len(first)} bytes), "
           f"cross-process DOT identical")
