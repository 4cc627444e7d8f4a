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
                     matches_machine, policy_for, program, result_for,
                     widened_uncovered)
from pdcfa.analyses import ANALYSES
from pdcfa.bench import BENCHMARKS
from pdcfa.cli import run_one
from pdcfa.metrics import singleton_count
from pdcfa.syntax import parse_and_normalize
from strategies import surface_programs

KINDS = tuple(ANALYSES)
MACHINE_KINDS = ("pdcfa", "pdcfa-gc", "pdcfa-widened")
# uncapped kcfa3 pdcfa k=1: 48,824 nodes whose interned objects slow every
# later test in the same process
SOAK_CELLS = {("kcfa3", "pdcfa", 1)}


@pytest.mark.parametrize("name, kind, k", [
    pytest.param(b, kind, k, marks=[pytest.mark.soak]
                 if (b, kind, k) in SOAK_CELLS else [])
    for b in BENCHMARKS for kind in MACHINE_KINDS for k in (0, 1)])
def test_pushdown_analyses_reach_what_their_machine_reaches(name, kind, k):
    r = result_for(name, kind, k)
    assert r.saturated
    assert matches_machine(program(name), policy_for(k), r)


@pytest.mark.parametrize("k", [0, 1])
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


def check_generated(src):
    """Every analysis of src at k∈{0,1}: covers the concrete run, and the
    orderings and machine equalities hold."""
    note(src)
    e = parse_and_normalize(src)
    for k in (0, 1):
        policy = policy_for(k)
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


@pytest.mark.soak
@settings(derandomize=True, max_examples=3_000, deadline=None)
@given(surface_programs(depth=5))
def test_generated_programs_pass_every_check_soak(src):
    check_generated(src)
