"""Command-line front end.

    pdcfa run FILE --analysis pdcfa-gc --k 1 --format summary
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

from .syntax import parse_and_normalize, print_anf, ParseError, UnboundVariable
from .concrete import run as concrete_run
from .abstract import Mono, OneCFA, KCFA
from .analyses import ANALYSES
from .metrics import compute_metrics, to_dot, to_json
from . import bench


def policy_for_k(k: int):
    if k <= 0:
        return Mono()
    if k == 1:
        return OneCFA()
    return KCFA(k)


def _count(text: str) -> int:
    """argparse type: a non-negative integer."""
    if not text.isdecimal():
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"expected an integer >= 0, not {text!r}")
    return int(text)


def _seconds(text: str) -> float:
    """argparse type: a number of seconds >= 0; inf is no limit."""
    secs = float(text)  # a ValueError is argparse's usage error too
    if not secs >= 0:  # also refuses nan
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"expected seconds >= 0, not {text!r}")
    return secs


def run_one(kind, e, policy, deadline=None, node_limit=None):
    if kind not in ANALYSES:
        raise ValueError(kind)
    return ANALYSES[kind](e, policy, deadline=deadline, node_limit=node_limit)


def _summary_line(m, max_states):
    if m.saturated:
        mark = ""
    elif max_states is not None and m.control_states > max_states:
        mark = "  [max-states]"
    else:
        mark = "  [timeout]"
    return (f"{m.program:>10}  {m.analysis:<16} k={m.k} "
            f"states={m.control_states:<7} edges={m.edges:<7} "
            f"singletons={m.singleton_vars}/{m.variables_total} "
            f"time={m.wall_time_ms:.1f}ms" + mark)


def _emit(text, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_program(spec: str):
    p = Path(spec)
    if p.exists():
        return p.stem, parse_and_normalize(p.read_text())
    if spec in bench.BENCHMARKS:
        return spec, bench.load(spec)
    raise FileNotFoundError(spec)


def main(argv=None) -> int:
    import argparse  # here, not at import: only the command line needs it
    import gc  # the stdlib's, kept local: pdcfa.gc is the only attribute gc

    parser = argparse.ArgumentParser(prog="pdcfa")
    sub = parser.add_subparsers(dest="cmd", required=True)
    runp = sub.add_parser("run", help="analyze one program")
    runp.add_argument("file", help="path to a .scm program, or a bundled "
                                   "benchmark name (e.g. fig1)")
    runp.add_argument("--analysis", choices=("concrete", *ANALYSES, "all"),
                      default="pdcfa-gc")
    runp.add_argument("--k", type=_count, default=0)
    runp.add_argument("--fuel", type=_count, default=100_000,
                      help="step budget for --analysis concrete")
    runp.add_argument("--format", choices=("summary", "json", "dot"),
                      default="summary")
    runp.add_argument("--out", default=None)
    runp.add_argument("--timeout-secs", type=_seconds, default=None,
                      help="seconds for each analysis; inf is no limit")
    runp.add_argument("--max-states", type=_count, default=None,
                      help="states each analysis may reach before it stops")
    runp.add_argument("--dump-anf", action="store_true",
                      help="print the normalized program and exit")
    args = parser.parse_args(argv)
    if ((args.analysis == "concrete" and args.format != "summary")
            or (args.analysis == "all" and args.format == "dot")):
        print(f"pdcfa: --analysis {args.analysis} has no --format "
              f"{args.format} output", file=sys.stderr)
        return 2

    try:
        return _run(args)
    except MemoryError:
        pass  # reported below, once the traceback's frames are freed
    except RecursionError:
        # a guard, so that no input ends in a traceback: neither the front
        # end nor the analyses recurse on program depth
        print(f"pdcfa: {args.file}: program nested too deeply to analyze",
              file=sys.stderr)
        return 1
    except UnicodeDecodeError as ex:
        print(f"pdcfa: {args.file}: not UTF-8 text ({ex.reason} at byte "
              f"{ex.start})", file=sys.stderr)
        return 1
    except OSError as ex:  # a program we cannot read, an --out we cannot write
        print(f"pdcfa: {ex.filename}: {ex.strerror}", file=sys.stderr)
        return 1
    gc.collect()  # the analysis's reference cycles: printing needs memory
    print(f"pdcfa: {args.file}: out of memory", file=sys.stderr)
    return 1


def _run(args) -> int:
    try:
        name, e = _load_program(args.file)
    except FileNotFoundError as ex:
        print(f"pdcfa: no such program: {ex}", file=sys.stderr)
        return 1
    except (ParseError, UnboundVariable) as ex:
        print(f"pdcfa: {ex}", file=sys.stderr)
        return 1

    if args.dump_anf:
        _emit(print_anf(e), args.out)
        return 0

    policy = policy_for_k(args.k)

    if args.analysis == "concrete":
        deadline = (None if args.timeout_secs is None
                    else time.monotonic() + args.timeout_secs)
        trace, outcome = concrete_run(e, args.fuel, deadline)
        _emit(f"{name}: {' '.join(map(str, outcome))} "
              f"({len(trace)} configurations)", args.out)
        return 0 if outcome[0] == "halt" else 1

    kinds = list(ANALYSES) if args.analysis == "all" else [args.analysis]
    lines = []
    metrics = []
    for kind in kinds:
        t0 = time.monotonic()
        # each analysis gets the whole budget
        deadline = (None if args.timeout_secs is None
                    else t0 + args.timeout_secs)
        r = run_one(kind, e, policy, deadline, args.max_states)
        wall = (time.monotonic() - t0) * 1000.0
        m = compute_metrics(name, r, args.k, wall)
        metrics.append(m)
        lines.append(_summary_line(m, args.max_states))

    if args.format == "dot":
        _emit(to_dot(r), args.out)
    elif args.format == "json":
        if args.analysis == "all":
            _emit("[\n" + ",\n".join(to_json(mm).rstrip()
                                     for mm in metrics) + "\n]\n", args.out)
        else:
            _emit(to_json(m).rstrip() + "\n" + to_json(r), args.out)
    else:
        _emit("\n".join(lines), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
