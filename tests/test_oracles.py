"""The pushdown analyses against machines that need no depth bound, and
generated programs through every check the acceptance gate makes.

`pdcfa` and `pdcfa-gc` must reach exactly the nodes of the AAC machine,
and `pdcfa-widened` exactly the nodes and the global store of the P4F
machine (see helpers).  The `soak` tests are deselected by default:

    PYTHONPATH=src python -m pytest -m soak tests/test_oracles.py
"""
import time

import pytest
from hypothesis import given, note, settings

from helpers import (approx_uncovered, coverage_violations, finite_uncovered,
                     matches_machine, program, result_for, widened_uncovered)
from pdcfa import pushdown
from pdcfa.analyses import ANALYSES
from pdcfa.bench import BENCHMARKS
from pdcfa.cli import policy_for_k, run_one
from pdcfa.metrics import singleton_count
from pdcfa.syntax import parse_and_normalize
from strategies import surface_programs

KINDS = tuple(ANALYSES)
MACHINE_KINDS = ("pdcfa", "pdcfa-gc", "pdcfa-widened")
# uncapped kcfa3 pdcfa k=1 (48,824 nodes): 3.4 s and 117 MB max RSS in a
# pytest process of its own, and it slows later tests in the same process:
# after it (its result cached by result_for), the six analyses of six other
# bundled programs at k=0,1 took 0.21-0.27 s, 0.09 s in a fresh process or
# after a gc.collect(), since the check's garbage brings on full collections
SOAK_CELLS = {("kcfa3", "pdcfa", 1)}


@pytest.mark.parametrize("name, kind, k", [
    pytest.param(b, kind, k, marks=[pytest.mark.soak]
                 if (b, kind, k) in SOAK_CELLS else [])
    for b in BENCHMARKS for kind in MACHINE_KINDS for k in (0, 1, 2)])
def test_pushdown_analyses_reach_what_their_machine_reaches(name, kind, k):
    r = result_for(name, kind, k)
    assert r.saturated
    assert matches_machine(program(name), policy_for_k(k), r)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", BENCHMARKS)
def test_finite_baselines_cover_the_pushdown_analyses(name, k):
    """Every saturated bundled pair: plain ⊒ pdcfa and plain-gc ⊒ pdcfa-gc
    (see finite_uncovered).  The capped plain cells are skipped before
    their pdcfa side is computed."""
    pairs = 0
    for pd, finite in (("pdcfa", "plain"), ("pdcfa-gc", "plain-gc")):
        rf = result_for(name, finite, k)
        if not rf.saturated:
            continue
        rp = result_for(name, pd, k)
        assert rp.saturated
        assert finite_uncovered(rp, rf)[0] == 0, (pd, finite)
        pairs += 1
    assert pairs >= 1


@pytest.mark.parametrize("name", BENCHMARKS)
def test_k2_cells_saturate_and_cover_the_concrete_run(name):
    """At k=2 (KCFA(2), by call-site history) no bundled cell needs a
    cap, and every analysis covers the program's concrete run."""
    e, policy = program(name), policy_for_k(2)
    for kind in KINDS:
        r = result_for(name, kind, 2)
        assert r.saturated, kind
        assert coverage_violations(e, policy, r)[0] == 0, kind


def check_generated(src, ks=(0, 1)):
    """Every analysis of src at each k in ks: covers the concrete run, and
    the orderings and machine equalities hold."""
    note(src)
    e = parse_and_normalize(src)
    for k in ks:
        policy = policy_for_k(k)
        rs = {kind: run_one(kind, e, policy, deadline=time.monotonic() + 60)
              for kind in KINDS}
        for kind, r in rs.items():
            assert r.saturated, (k, kind)
            assert coverage_violations(e, policy, r, fuel=1_000)[0] == 0, \
                (k, kind)
        for kind in MACHINE_KINDS:
            assert matches_machine(e, policy, rs[kind]), (k, kind)
        assert approx_uncovered(rs["pdcfa-gc"], rs["pdcfa-gc-approx"])[0] == 0
        assert widened_uncovered(rs["pdcfa"], rs["pdcfa-widened"])[0] == 0
        assert finite_uncovered(rs["pdcfa"], rs["plain"])[0] == 0
        assert finite_uncovered(rs["pdcfa-gc"], rs["plain-gc"])[0] == 0
        single = {kind: singleton_count(rs[kind])[0]
                  for kind in ("pdcfa", "plain-gc", "pdcfa-gc")}
        assert single["pdcfa-gc"] >= min(single["pdcfa"], single["plain-gc"])


# depth 4 keeps drawing 150 programs near 2 s; the soak run draws at depth 5
@settings(derandomize=True, max_examples=150, deadline=None)
@given(surface_programs(depth=4))
def test_generated_programs_pass_every_check(src):
    check_generated(src)


# k=2 allocates by call-site history (KCFA(2)), not by binding label; 100
# programs keep it under 2 s
@settings(derandomize=True, max_examples=100, deadline=None)
@given(surface_programs(depth=4))
def test_generated_programs_pass_every_check_at_k2(src):
    check_generated(src, ks=(2,))


@pytest.mark.soak
@settings(derandomize=True, max_examples=3_000, deadline=None)
@given(surface_programs(depth=5))
def test_generated_programs_pass_every_check_soak(src):
    check_generated(src)


# ---------------------------------------------------------------------------
# broken copies of the continuation-store loop, each caught by the checks


def _push_without_pops(self, q, gamma, e, t):
    """Worklist._push that stores a new caller of γ at t but pops none of
    the states already there."""
    self.graph.kstore.setdefault(t, {}).setdefault(gamma, {})[q, e] = None
    if t not in self.graph.paths:
        self.graph.paths[t] = {}
        self._work.append((t, t))


def _restep_under_none(self, q, e=None):
    pass


def _restep_under_one(self, q, e=None):
    """Worklist.restep that steps q again under only the first of its
    entries, the root included."""
    es = self._entries.get(q, self.graph.root) if e is None else e
    e = next(iter(es)) if type(es) is dict else es
    if self.graph.paths[e].pop(q, 0) is None:
        self._work.append((q, e))


# cells that a broken copy gets wrong: k=0, pdcfa-gc on fig1 and
# pdcfa-widened on eta, and plain-gc on fig1 for a copy that never re-steps
BROKEN_CELLS = (("fig1", "pdcfa-gc"), ("eta", "pdcfa-widened"),
                ("fig1", "plain-gc"))


def _caught(name, kind):
    e, policy = program(name), policy_for_k(0)
    r = run_one(kind, e, policy)
    assert r.saturated
    wrong_nodes = kind != "plain-gc" and not matches_machine(e, policy, r)
    return wrong_nodes or coverage_violations(e, policy, r)[0] > 0


@pytest.mark.parametrize("attr, broken", [
    ("_push", _push_without_pops), ("restep", _restep_under_none),
    ("restep", _restep_under_one)],
    ids=["push-without-pops", "restep-under-none", "restep-under-one"])
def test_checks_catch_a_broken_loop(attr, broken, monkeypatch):
    assert not any(_caught(name, kind) for name, kind in BROKEN_CELLS)
    monkeypatch.setattr(pushdown.Worklist, attr, broken)
    assert any(_caught(name, kind) for name, kind in BROKEN_CELLS)
