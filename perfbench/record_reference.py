"""Regenerate reference.json from the checkout's current pdcfa.

    python3 perfbench/record_reference.py

Records states, edges, singleton variables and total variables for every
saturated, uncapped cell whose result is a unique least fixpoint, over the
bundled matrix, the chain family and every program of the fused pool.
Refuses to write if any cell fails coverage of the concrete run.  Counts
may change only in a commit that says why.
"""
from __future__ import annotations

import json
import sys
import time

import workloads
from run import REFERENCE, cell_problem, run_child

FIELDS = ("states", "edges", "singletons", "variables")


def _format(reference):
    """One line per child, so a count change shows as a one-line diff."""
    lines = []
    for w, wjobs in sorted(reference.items()):
        body = ",\n".join(f"  {json.dumps(j)}: {json.dumps(cells, sort_keys=True)}"
                          for j, cells in sorted(wjobs.items()))
        lines.append(f" {json.dumps(w)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main():
    jobs = {"bundled": workloads.children("bundled", 0),
            "chain": workloads.children("chain", 0),
            "fused": workloads.fused_jobs(range(workloads.FUSED_POOL))}
    reference, problems = {}, []
    for workload, wjobs in jobs.items():
        for job in wjobs:
            if job.get("probe"):
                continue
            out = run_child(job, False, time.monotonic() + 600)
            for cell in out["cells"]:
                if cell.get("saturated") and cell["cap"] is None \
                        and cell["kind"] in workloads.EXACT_KINDS:
                    reference.setdefault(workload, {}).setdefault(
                        job["id"], {})[cell["kind"]] = [cell[f] for f in FIELDS]
                # with its own counts as reference, only coverage and caps
                # can fail
                why = cell_problem(workload, job, cell, reference)
                if why:
                    problems.append(f"{job['id']}/{cell['kind']}: {why}")
            print(job["id"], file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    REFERENCE.write_text(_format(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
