"""What each workload runs: its children, their analyses, caps and inputs.

A *child* is one fresh interpreter per (program, k).  It runs its
analyses in the order `pdcfa run P --analysis all --k K` uses, so the
intern tables that build up across analyses in one process show here as
they do for a user of the CLI.

Every cap is a state count (`node_limit`), never a wall-clock deadline, so
the work a capped cell does repeats exactly from run to run.
"""
from __future__ import annotations

import random

KINDS = ("plain", "plain-gc", "pdcfa", "pdcfa-gc", "pdcfa-gc-approx",
         "pdcfa-widened")

# Kinds whose saturated result is a unique least fixpoint, so its counts
# are checked against the recorded reference.  pdcfa-gc-approx graphs
# depend on exploration order by design: coverage only.
EXACT_KINDS = ("plain", "plain-gc", "pdcfa", "pdcfa-gc", "pdcfa-widened")

BUNDLED = ("fig1", "mj09", "eta", "kcfa2", "kcfa3", "blur", "loop2", "sat")

# Intended blowups.  The two plain cells use the acceptance gate's cap.
# Uncapped, pdcfa on kcfa3 at k=1 runs ~44 s; its cap keeps the cell to a
# few seconds, which leaves the bundled matrix inside one run.
CAPS = {
    ("kcfa2", "plain", 1): 10_000,
    ("kcfa3", "plain", 1): 10_000,
    ("kcfa3", "pdcfa", 1): 2_000,
}

FUSED_KINDS = ("plain-gc", "pdcfa-gc", "pdcfa-gc-approx")
FUSED_POOL = 32      # programs the seed draws from; reference.json covers all
FUSED_PER_RUN = 3    # programs drawn per seed

CHAIN_NS = (15, 30, 60)
# Parse-and-normalize only.  The recursive normalizer raises RecursionError
# near 100 bindings today (a known defect); this probe keeps it visible.
PROBE_N = 200


def chain_source(n: int) -> str:
    """A straight-line let* of n bindings, each a call through one shared
    closure: every binding is a new return point for the same callee."""
    binds = ["(f (lambda (x) x))", "(v0 (f 0))"]
    binds += [f"(v{i} (f v{i - 1}))" for i in range(1, n)]
    return "(let* (" + "\n       ".join(binds) + f")\n  v{n - 1})\n"


# ---------------------------------------------------------------------------
# fused: generated composites of the bundled idioms
#
# Each idiom is in the mix for what it stresses in the headline analyses:
#   funnel   one identity called from many sites (fig1, eta): return flow
#            merges unless the stack is exact
#   eta      wrappers that funnel through an identity (eta, blur): more
#            call/return crossings through the same callee
#   loop     non-tail recursion on integers (fig1, loop2): unbounded stack
#            depth, dead loop bindings for GC to collect
#   search   boolean search through a shared driver (sat): forks on #t/#f
#            with closures passed downward
#   nest     closures nested two deep (kcfa2): environments that 1CFA
#            splits by call site
# The seed draws FUSED_PER_RUN programs from a pool of FUSED_POOL, so every
# program a seed can pick has a recorded reference.  A program's index
# picks its constants and the order of its definitions; the number of
# instances is fixed, so programs cost about the same and a seed changes
# which variants run, not how much work a run is.  Each program stays a shallow
# sequence of top-level defines plus one let* well below the normalizer's
# recursion limit (see PROBE_N).

FUSED_INSTANCES = 2   # instances of every idiom per program


def _idioms(i: int, rng: random.Random):
    """Definitions and uses for the i-th instance of each idiom."""
    n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
    b = rng.choice(("#t", "#f"))
    defs = {
        "funnel": [f"(define (id{i} x) x)"],
        "eta": [f"(define (wrap{i} y) (id{i} y))",
                f"(define (blur{i} z) z)"],
        "loop": [f"(define (fact{i} n) (if (<= n 1) 1 "
                 f"(* n (fact{i} (- n 1)))))",
                 f"(define (count{i} j acc) (if (<= j 0) acc "
                 f"(count{i} (- j 1) (+ acc 1))))"],
        "search": [f"(define (try{i} f) (or (f #t) (f #f)))",
                   f"(define (phi{i} a c) (and (or a (not c)) c))",
                   f"(define (search{i} p) (try{i} (lambda (a) "
                   f"(try{i} (lambda (c) (p a c))))))"],
        "nest": [f"(define (mk{i} a) (lambda (b) (lambda (c) "
                 f"(if c a b))))"],
    }
    uses = {
        "funnel": [f"(f{i} ((id{i} fact{i}) {n1}))",
                   f"(g{i} (id{i} (id{i} {n2})))"],
        "eta": [f"(e{i} ((blur{i} wrap{i}) f{i}))",
                f"(h{i} ((blur{i} id{i}) {b}))"],
        "loop": [f"(l{i} ((id{i} count{i}) {n2} e{i}))"],
        "search": [f"(s{i} (search{i} phi{i}))"],
        "nest": [f"(m{i} (((mk{i} l{i}) g{i}) s{i}))",
                 f"(w{i} (wrap{i} m{i}))"],
    }
    return defs, uses


def fused_source(index: int) -> str:
    """The index-th program of the fused pool (deterministic)."""
    rng = random.Random(index)
    order = ["funnel", "eta", "loop", "search", "nest"]
    funnels, others, body, results = [], [], [], []
    for i in range(FUSED_INSTANCES):
        d, u = _idioms(i, rng)
        # a define sees only earlier ones: funnels go first, the rest in
        # any order (each idiom lists its own definitions in scope order)
        funnels.append(d["funnel"])
        others.extend(d[name] for name in order[1:])
        for name in order:  # uses keep their data dependencies in order
            body.extend(u[name])
        results.append(f"w{i}")
    rng.shuffle(funnels)
    rng.shuffle(others)
    defs = [line for group in funnels + others for line in group]
    total = results[0]
    for r in results[1:]:
        total = f"(+ {total} {r})"
    return ("\n".join(defs) + "\n(let* (" + "\n       ".join(body)
            + f")\n  {total})\n")


def fused_indices(seed: int):
    return sorted(random.Random(seed).sample(range(FUSED_POOL), FUSED_PER_RUN))


def fused_jobs(indices):
    return [{"id": f"fused{i}/k{k}", "source": fused_source(i), "k": k,
             "cells": [(kind, None) for kind in FUSED_KINDS]}
            for i in indices for k in (0, 1)]


# ---------------------------------------------------------------------------
# children


def children(workload: str, seed: int):
    """The jobs one pass of a workload runs, in order.  Each job is a dict
    sent to one child process; `cells` are (kind, cap) pairs."""
    if workload == "bundled":
        return [{"id": f"{p}/k{k}", "program": p, "k": k,
                 "cells": [(kind, CAPS.get((p, kind, k))) for kind in KINDS]}
                for p in BUNDLED for k in (0, 1)]
    if workload == "fused":
        return fused_jobs(fused_indices(seed))
    if workload == "chain":
        jobs = [{"id": f"chain{n}/k0", "source": chain_source(n), "k": 0,
                 "cells": [(kind, None) for kind in KINDS]}
                for n in CHAIN_NS]
        jobs.append({"id": f"probe{PROBE_N}", "source": chain_source(PROBE_N),
                     "n": PROBE_N, "probe": True})
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("bundled", "fused", "chain")
