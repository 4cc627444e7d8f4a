"""pdcfa benchmark driver.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) from the root of a
checkout.  One child process at a time, each a fresh interpreter for one
(program, k); no pool, so timings do not compete for the two cores of the
reference machine.

--trace 0 repeats passes over the workload's children for --seconds (at
least one pass) and prints the end-to-end metrics, each cell and child
taken at its median over passes.
--trace 1 runs one untraced pass and one traced pass, prints the
per-layer metrics, and writes the spans to perfbench/traces/.

Every cell is checked: counts against reference.json, or, for a capped
cell, that it stopped unsaturated at its cap.  Coverage of the concrete
run is checked on the first pass of a run (later passes repeat the same
cells).  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
TRACES = HERE / "traces"
DEADLINE_S = 170.0  # the whole run, children included

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "saturated_frac": "ratio", "pass_frac": "ratio"}


class BenchmarkError(Exception):
    pass


def run_child(job, trace, deadline, coverage=True):
    """Run one job in a fresh interpreter; returns its result with the
    set-up time (spawn to first analysis call) added."""
    payload = json.dumps(dict(job, trace=trace, coverage=coverage))
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD)], input=payload,
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{job['id']}: still running at the run's deadline")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise BenchmarkError(f"{job['id']}: exit {proc.returncode}: {tail[0]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if "first_call" in out:
        out["setup_s"] = out["first_call"] - spawned
    return out


def run_pass(jobs, trace, deadline, coverage):
    return [(job, run_child(job, trace, deadline, coverage)) for job in jobs]


# ---------------------------------------------------------------------------
# checks


def cell_problem(workload, job, cell, reference):
    """Why a cell fails its checks, or None."""
    if "error" in cell:
        return cell["error"]
    cap = cell["cap"]
    if cap is not None:
        if cell["saturated"] or cell["states"] <= cap:
            return f"expected to stop unsaturated past {cap} states"
        return None
    if not cell["saturated"]:
        return "did not saturate"
    cov = cell.get("coverage", [0])
    if not (isinstance(cov, list) and cov[0] == 0):
        return f"coverage of the concrete run failed: {cov}"
    if cell["kind"] in workloads.EXACT_KINDS:
        want = reference.get(workload, {}).get(job["id"], {}).get(cell["kind"])
        got = [cell[f] for f in ("states", "edges", "singletons", "variables")]
        if want != got:
            return f"states/edges/singletons/variables {got}, reference {want}"
    return None


def check(workload, results, reference):
    """(attempted, failures) over every cell and probe; a failure is
    (label, reason, is_cell)."""
    attempted, failures = 0, []
    for job, out in results:
        if job.get("probe"):
            attempted += 1
            if not out["probe"]["ok"]:
                failures.append((job["id"], out["probe"]["error"], False))
            continue
        for cell in out["cells"]:
            attempted += 1
            why = cell_problem(workload, job, cell, reference)
            if why:
                failures.append((f"{job['id']}/{cell['kind']}", why, True))
    return attempted, failures


def analysis_cells(results):
    for job, out in results:
        if not job.get("probe"):
            yield from (c for c in out["cells"] if "error" not in c)


# ---------------------------------------------------------------------------
# metrics


def pass_wall(results):
    return sum(c["wall_s"] for c in analysis_cells(results))


def end_to_end(passes, attempted, failed):
    """Each child and cell is taken at its median over passes, so a load
    spike on the shared machine during one pass does not move the sum."""
    med = statistics.median
    children = [[out for job, out in p if not job.get("probe")]
                for p in passes]
    by_child = list(zip(*children))
    cells = [list(zip(*(c["cells"] for c in runs))) for runs in by_child]
    out = {
        "wall_s": sum(med(c.get("wall_s", 0.0) for c in runs)
                      for child in cells for runs in child),
        "setup_s": sum(med(c["setup_s"] for c in runs) for runs in by_child),
        "peak_rss_mb": max(med(c["peak_rss_mb"] for c in runs)
                           for runs in by_child),
    }
    flat = [c for child in cells for runs in child for c in runs]
    out["saturated_frac"] = sum(c.get("saturated", False)
                                for c in flat) / len(flat)
    out["pass_frac"] = (attempted - failed) / attempted
    return out


def per_layer(traced, untraced_wall):
    spans, agg, counts = [], {}, {}
    children = [out for job, out in traced if not job.get("probe")]
    for child in children:
        t = child["trace"]
        spans.extend(t["spans"])
        for per_name in t["agg"].values():
            for name, (calls, self_s) in per_name.items():
                a = agg.setdefault(name, [0, 0.0])
                a[0] += calls
                a[1] += self_s
        for name, v in t["counts"].items():
            counts[name] = counts.get(name, 0) + v

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def total(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    def self_time(name):
        return sum(s[5] for s in spans if s[0] == name)

    cells = list(analysis_cells(traced))
    states = sum(c["states"] for c in cells)
    traced_wall = pass_wall(traced)
    addrs_in = counts.get("gc.addrs_in", 0)
    transitions = counts.get("pushdown.transitions", 0)
    m = {
        "syntax.parse_normalize_s": (total("syntax.parse_and_normalize"), "s"),
        "syntax.let1_count": (sum(c["let1"] for c in children), "count"),
        "abstract.astep_calls": (calls("abstract.astep"), "count"),
        "abstract.astep_s": (self_time("abstract.astep"), "s"),
        "abstract.astep_per_state": (calls("abstract.astep") / states,
                                     "ratio"),
        "abstract.skey_calls": (agg.get("abstract.skey", [0, 0.0])[0],
                                "count"),
        "abstract.skey_s": (agg.get("abstract.skey", [0, 0.0])[1], "s"),
        "abstract.interned_objects": (max(c["interned"] for c in children),
                                      "count"),
        "gc.gc_store_calls": (calls("gc.gc_store"), "count"),
        "gc.gc_store_s": (self_time("gc.gc_store"), "s"),
        "gc.collected_ratio": (
            (addrs_in - counts.get("gc.addrs_out", 0)) / addrs_in
            if addrs_in else 0.0, "ratio"),
        "pushdown.engine_self_s": (self_time("pushdown.compact_worklist"),
                                   "s"),
        "pushdown.oracle_calls": (calls("pushdown.oracle"), "count"),
        "pushdown.useful_transition_ratio": (
            counts.get("pushdown.final_edges", 0) / transitions
            if transitions else 0.0, "ratio"),
        "pushdown.ecg_pairs": (counts.get("pushdown.ecg_pairs", 0), "count"),
    }
    for kind in workloads.KINDS:
        m[f"analyses.{kind}_s"] = (total(f"analyses.{kind}"), "s")
    m["analyses.states"] = (states, "count")
    m["analyses.edges"] = (sum(c["edges"] for c in cells), "count")
    m["metrics.singleton_s"] = (total("metrics.singleton_count"), "s")
    m["metrics.to_json_s"] = (total("metrics.to_json"), "s")
    m["metrics.json_bytes"] = (sum(c["json_bytes"] for c in cells), "count")
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return m


def dump_traces(workload, seed, traced):
    TRACES.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed,
           "span_fields": ["name", "start", "end", "parent", "cell", "self"],
           "children": [dict(out["trace"], id=job["id"])
                        for job, out in traced if not job.get("probe")]}
    path = TRACES / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------


def preflight():
    """The benchmark drives the checkout's own sources; without them there
    is nothing to measure."""
    missing = [p for p in ("src/pdcfa/__init__.py", "tests/helpers.py")
               if not (ROOT / p).is_file()]
    if missing:
        raise BenchmarkError(f"not a pdcfa checkout: missing {', '.join(missing)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        preflight()
        reference = json.loads(REFERENCE.read_text())
        jobs = workloads.children(args.workload, args.seed)
        if args.trace:
            untraced = run_pass(jobs, False, deadline, coverage=True)
            traced = run_pass(jobs, True, deadline, coverage=False)
            passes = [untraced, traced]
        else:
            passes = []
            start = time.monotonic()
            last = 0.0
            # start another pass only if it should end within --seconds
            while not passes or (time.monotonic() - start + last
                                 <= args.seconds):
                t0 = time.monotonic()
                passes.append(run_pass(jobs, False, deadline,
                                       coverage=not passes))
                last = time.monotonic() - t0
                print(f"pass {len(passes)}: {last:.2f} s, "
                      f"cells {pass_wall(passes[-1]):.3f} s")
    except BenchmarkError as ex:
        print(f"benchmark failed: {ex}", file=sys.stderr)
        return 1

    attempted, failures = 0, []
    for p in passes:
        a, f = check(args.workload, p, reference)
        attempted += a
        failures.extend(f)
    for label, why, _ in sorted(set(failures)):
        print(f"FAILED {label}: {why}")
    # a failed probe is a failed operation (the known normalizer depth
    # defect); a cell that fails its checks makes the run incorrect
    correct = not any(is_cell for _, _, is_cell in failures)

    if args.trace:
        metrics = per_layer(traced, pass_wall(untraced))
        print(f"spans written to {dump_traces(args.workload, args.seed, traced)}")
    else:
        values = end_to_end(passes, attempted, len(failures))
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
