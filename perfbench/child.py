"""One benchmark child: a fresh interpreter for one (program, k).

Reads one job (see workloads.children) as JSON on stdin, runs its cells
through pdcfa's public API the way `pdcfa run P --analysis all --k K`
does, and prints one JSON result line on stdout.  Run by run.py, not by
hand:

    python3 perfbench/child.py < job.json

The timed region of a cell runs from the analysis call until its metrics
record and JSON result document exist.  Coverage of the concrete run is
checked after each saturated cell in a forked process, so the check's own
interning neither slows later cells nor shows in this process's peak RSS.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import pdcfa from the checkout's src/ and the suite's coverage
    oracle from tests/, refusing any other installed copy."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import pdcfa
    if Path(pdcfa.__file__).resolve().parent != ROOT / "src" / "pdcfa":
        raise ImportError(f"pdcfa imported from {pdcfa.__file__}, "
                          f"not from {ROOT / 'src'}")


def _coverage(e, policy, result):
    """coverage_violations(...) in a forked process: (bad, trace length),
    or an error string."""
    from helpers import coverage_violations
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            msg = json.dumps(coverage_violations(e, policy, result))
        except Exception as ex:  # reported as a failed check, not a crash
            msg = json.dumps(f"{type(ex).__name__}: {ex}")
        with os.fdopen(wfd, "w") as f:
            f.write(msg)
        os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as f:
        data = f.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else "check process died"


def _probe(source, n):
    """Front-end-only probe: parse and normalize, nothing else."""
    from pdcfa.syntax import parse_and_normalize, count_let1
    try:
        e = parse_and_normalize(source)
        got = count_let1(e)
    except Exception as ex:  # RecursionError today: the probe's purpose
        return {"ok": False, "error": f"{type(ex).__name__}: {ex}"}
    if got != n:
        return {"ok": False, "error": f"{got} Let1 nodes, expected {n}"}
    return {"ok": True}


def run_job(job, tracer=None):
    from pdcfa import bench
    from pdcfa.abstract import _TABLES
    from pdcfa.cli import policy_for_k, run_one
    from pdcfa.metrics import compute_metrics, to_json
    from pdcfa.syntax import count_let1, parse_and_normalize

    if job.get("probe"):
        return {"probe": _probe(job["source"], job["n"])}

    name = job.get("program", job["id"])
    source = job["source"] if "source" in job else bench.source(name)
    span = tracer.call if tracer is not None else _direct
    e = span("syntax.parse_and_normalize", parse_and_normalize, source)
    k = job["k"]
    policy = policy_for_k(k)

    def timed_cell(kind, cap):
        """Analysis, metrics record and JSON documents of one cell."""
        t0 = time.perf_counter()
        r = span(f"analyses.{kind}", run_one, kind, e, policy, None, cap)
        ms = (time.perf_counter() - t0) * 1000.0
        m = span("metrics.compute_metrics", compute_metrics, name, r, k, ms)
        doc = (span("metrics.to_json", to_json, m)
               + span("metrics.to_json", to_json, r))
        return r, m, doc, time.perf_counter() - t0

    first_call = time.monotonic()
    cells = []
    for kind, cap in job["cells"]:
        cell = {"kind": kind, "cap": cap}
        if tracer is not None:
            tracer.begin_cell(f"{job['id']}/{kind}")
        try:
            r, m, doc, cell["wall_s"] = span("cell", timed_cell, kind, cap)
        except Exception as ex:  # one failed cell must not hide the others
            cell["error"] = f"{type(ex).__name__}: {ex}"
            cells.append(cell)
            continue
        cell.update(saturated=r.saturated, states=m.control_states,
                    edges=m.edges, singletons=m.singleton_vars,
                    variables=m.variables_total, json_bytes=len(doc))
        if r.saturated and job.get("coverage"):
            cell["coverage"] = _coverage(e, policy, r)
        cells.append(cell)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"first_call": first_call, "cells": cells,
           "peak_rss_mb": peak_kb / 1024.0,
           "interned": sum(len(t) for t in _TABLES.values()),
           "let1": count_let1(e)}
    if tracer is not None:
        out["trace"] = tracer.dump()
    return out


def _direct(_name, fn, *args):
    return fn(*args)


def main():
    job = json.loads(sys.stdin.read())
    _import_program()
    tracer = None
    if job.get("trace"):
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    out = run_job(job, tracer)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
