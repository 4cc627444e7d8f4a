"""Self-checks of the benchmark itself (not of pdcfa).

    python3 -m pytest perfbench/tests -q
"""
import copy
import hashlib
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SMALL = next(j for j in workloads.children("bundled", 0)
             if j["id"] == "mj09/k0")


def _run(job, trace):
    return run.run_child(job, trace, time.monotonic() + 120)


def _digest(seed):
    text = "".join(j["source"] for j in workloads.children("fused", seed))
    return hashlib.sha256(text.encode()).hexdigest()


def test_same_seed_gives_byte_identical_programs():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_selfcheck import _digest; print(_digest(7))")
    fresh = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent)],
        capture_output=True, text=True, check=True, cwd=HERE.parent)
    assert fresh.stdout.strip() == _digest(7) == _digest(7)
    assert _digest(7) != _digest(8)


def test_fused_programs_stay_below_the_normalizer_limit():
    # the recursive normalizer fails near 100 straight-line bindings; every
    # pool program must normalize with half the usual recursion limit
    sys.path.insert(0, str(HERE.parent / "src"))
    from pdcfa.syntax import parse_and_normalize
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit // 2)
    try:
        for i in range(workloads.FUSED_POOL):
            parse_and_normalize(workloads.fused_source(i))
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture(scope="module")
def small_results():
    return [(SMALL, _run(SMALL, False))]


def test_reference_matches_this_commit(small_results):
    reference = json.loads(run.REFERENCE.read_text())
    attempted, failures = run.check("bundled", small_results, reference)
    assert attempted == len(workloads.KINDS) and failures == []


def test_perturbed_reference_count_shows_as_failure(small_results):
    reference = copy.deepcopy(json.loads(run.REFERENCE.read_text()))
    reference["bundled"]["mj09/k0"]["pdcfa"][0] += 1
    attempted, failures = run.check("bundled", small_results, reference)
    assert [(label, is_cell) for label, _, is_cell in failures] == \
        [("mj09/k0/pdcfa", True)]
    e2e = run.end_to_end([small_results], attempted, len(failures))
    assert e2e["pass_frac"] == 1 - 1 / attempted


@pytest.fixture(scope="module")
def traced():
    return [(SMALL, _run(SMALL, True))]


def test_self_times_add_up_to_the_cell_time(traced):
    trace = traced[0][1]["trace"]
    for kind in workloads.KINDS:
        cell = f"mj09/k0/{kind}"
        spans = [s for s in trace["spans"] if s[4] == cell]
        (root,) = [s for s in spans if s[0] == "cell"]
        self_total = sum(s[5] for s in spans)
        self_total += sum(t for _, t in trace["agg"][cell].values())
        assert math.isclose(self_total, root[2] - root[1],
                            rel_tol=1e-9, abs_tol=1e-9), cell


def test_metric_names_match_benchmark_json(traced):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = run.per_layer(traced, run.pass_wall(traced))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layer.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
