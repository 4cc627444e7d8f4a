"""Precision metrics, serialization determinism, and the command line."""
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from pdcfa import analyses, cli
from pdcfa.syntax import parse_and_normalize
from pdcfa.abstract import KAddr, Mono
from pdcfa.analyses import run_one
from pdcfa.bench import BENCHMARKS, load
from pdcfa.cli import main
from pdcfa.metrics import (Metrics, _act_label, _node_label, act_skey,
                           compute_metrics, singleton_count, to_dot, to_json)

from helpers import kcfa2n_source, ref_skey, state_key

KINDS = tuple(analyses.ANALYSES)


# ---------------------------------------------------------------------------
# singleton counting


def test_all_singletons_on_monovariant_identity_chain():
    e = parse_and_normalize("((lambda (x) x) (lambda (y) y))")
    r = run_one("pdcfa", e, Mono())
    count, table = singleton_count(r)
    assert count == 1  # x sees exactly one closure; y is never bound
    x = next(v for v in table if v.name == "x")
    y = next(v for v in table if v.name == "y")
    assert len(table[x]) == 1 and len(table[y]) == 0


def test_shared_binder_is_not_singleton_under_plain_k0():
    # id applied to two different closures merges both into x's flow set
    e = parse_and_normalize(
        "(let ((id (lambda (x) x)))"
        " (let ((a (id (lambda (p) p))))"
        "  (id (lambda (q) q))))")
    r = run_one("plain", e, Mono())
    count, table = singleton_count(r)
    x = next(v for v in table if v.name == "x")
    assert len(table[x]) == 2


def test_no_variables_means_zero_of_zero():
    e = parse_and_normalize("42")
    r = run_one("pdcfa", e, Mono())
    count, table = singleton_count(r)
    assert (count, len(table)) == (0, 0)


def test_compute_metrics_fields():
    e = load("eta")
    r = run_one("pdcfa", e, Mono())
    m = compute_metrics("eta", r, 0, 12.3456)
    assert isinstance(m, Metrics)
    assert m.program == "eta" and m.analysis == "pdcfa" and m.k == 0
    assert m.control_states == len(r.graph.nodes)
    assert m.edges == len(r.graph.edges)
    assert m.wall_time_ms == 12.346
    assert m.saturated
    assert 0 <= m.singleton_vars <= m.variables_total


# ---------------------------------------------------------------------------
# serialization


def test_dot_edge_count_matches_metrics():
    e = load("eta")
    r = run_one("pdcfa", e, Mono())
    dot = to_dot(r)
    assert dot.count(" -> ") == len(r.graph.edges)
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("doublecircle") == 1  # exactly one root


def test_dot_of_approx_has_one_plain_line_per_edge():
    r = run_one("pdcfa-gc-approx", load("eta"), Mono())
    dot = to_dot(r)
    assert dot.count(" -> ") == len(r.graph.edges)
    assert "⟨" not in dot  # edges carry their act alone


# A DOT quoted string: any character but " and \, or a \-escape.
DOT_LABEL = re.compile(r'label="((?:[^"\\]|\\.)*)"')


@pytest.mark.parametrize("kind", KINDS)
def test_dot_labels_are_quoted_strings_for_any_name(kind):
    """Names holding " or \\ are escaped in node and edge labels; ε is
    left as it is."""
    e = parse_and_normalize('(let ((a"b (lambda (x) x)) (c\\d 1)) '
                            '(let ((y (a"b c\\d))) y))')
    dot = to_dot(run_one(kind, e, Mono()))
    lines = [ln for ln in dot.splitlines() if "label=" in ln]
    assert len(lines) > 4 and any(" -> " in ln for ln in lines)
    for ln in lines:
        (m,) = DOT_LABEL.finditer(ln)
        assert re.fullmatch(r'  n\d+ (-> n\d+ )?\[', ln[:m.start()]), ln
        assert re.fullmatch(r'(, shape=(double)?circle)?\];', ln[m.end():])
    labels = [re.sub(r"\\(.)", r"\1", m.group(1))
              for m in map(DOT_LABEL.search, lines)]
    assert any('a"b' in x and "c\\d" in x for x in labels)
    assert "ε" in labels and any(x.startswith("push y:=") for x in labels)


def test_serialization_is_deterministic_across_runs():
    def render():
        r = run_one("pdcfa-gc-approx", load("fig1"), Mono())
        return to_dot(r), to_json(r)
    d1, j1 = render()
    d2, j2 = render()
    assert d1 == d2
    assert j1 == j2


def test_json_result_roundtrip():
    e = load("eta")
    r = run_one("pdcfa", e, Mono())
    doc = json.loads(to_json(r))
    assert doc["schema"] == 1
    assert doc["kind"] == "pdcfa"
    assert doc["node_count"] == len(r.graph.nodes) == len(doc["nodes"])
    assert doc["edge_count"] == len(r.graph.edges) == len(doc["edges"])
    ids = {n["id"] for n in doc["nodes"]}
    for edge in doc["edges"]:
        assert edge["src"] in ids and edge["dst"] in ids


def _keyed_parts(n):
    """The environments, stores, continuation address and stack roots n
    holds."""
    parts = [n.env]
    if n.store is not None:
        parts.append(n.store)
    if isinstance(n.stack, frozenset):
        parts += n.stack
    elif n.stack is not None:
        parts.append(n.stack)
    if isinstance(n.stack, KAddr):
        parts.append(n.stack.env)
    return parts


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("prog", ["fig1", "kcfa2"])
def test_stored_skey_equals_reference_key(prog, k, monkeypatch):
    e = load(prog)
    collected = []  # every store gc_store returns: most inherit their keys
    real_gc_store = analyses.gc_store

    def gc_store(env, store, extra_roots=frozenset()):
        collected.append(real_gc_store(env, store, extra_roots))
        return collected[-1]
    monkeypatch.setattr(analyses, "gc_store", gc_store)
    for kind in KINDS:
        collected.clear()
        r = cli.run_one(kind, e, cli.policy_for_k(k), node_limit=2_000)
        parts = [p for n in r.graph.nodes for p in _keyed_parts(n)]
        if r.global_store is not None:
            parts.append(r.global_store)
        assert bool(collected) == r.gc_mode
        parts += collected
        for x in parts:
            assert x.skey() is x.skey()
            assert x.skey() == ref_skey(x), (kind, x)
        for n in r.graph.nodes:
            assert state_key(n) == ref_skey(n), (kind, n)
        # to_json numbers nodes in reference-key order
        order = sorted(r.graph.nodes, key=ref_skey)
        ids = {n: i for i, n in enumerate(order)}
        doc = json.loads(to_json(r))
        assert [d["id"] for d in doc["nodes"]] == list(range(len(order)))
        assert ({(d["src"], d["dst"]) for d in doc["edges"]}
                == {(ids[s], ids[d]) for s, _, d in r.graph.edges})
        assert [d["label"] for d in doc["nodes"]] == \
            [_node_label(n) for n in order]


@pytest.mark.parametrize("prog, kind, k, pairs", [
    ("fig1", "pdcfa", 0, 710),
    ("fig1", "pdcfa-gc", 0, 336),
    ("blur", "pdcfa", 0, 21_229),
    ("kcfa2", "pdcfa", 1, 27_348),
])
def test_json_ecg_pairs_counts_the_closure(prog, kind, k, pairs):
    r = cli.run_one(kind, load(prog), cli.policy_for_k(k))
    assert r.saturated
    assert r.ecg.pair_count() == pairs
    assert json.loads(to_json(r))["ecg_pairs"] == pairs
    assert len(r.ecg.pairs) == pairs


def _reference_json(r):
    """to_json's document as json.dumps(indent=2) writes it, nodes and
    edges ordered by their full keys."""
    nodes = sorted(r.graph.nodes, key=state_key)
    ids = {n: i for i, n in enumerate(nodes)}

    def edge_key(e):
        s, a, d = e
        return state_key(s), act_skey(a), state_key(d)
    edges = sorted(r.graph.edges, key=edge_key)
    doc = {
        "schema": 1,
        "kind": r.kind,
        "saturated": r.saturated,
        "node_count": len(nodes),
        "edge_count": len(edges),
        "nodes": [{"id": ids[n], "label": _node_label(n)} for n in nodes],
        "edges": [{"src": ids[s], "act": _act_label(a), "dst": ids[d]}
                  for (s, a, d) in edges],
    }
    if r.ecg is not None:
        doc["ecg_pairs"] = len(r.ecg.pairs)
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("prog", BENCHMARKS)
def test_to_json_equals_indented_json_dumps(prog, k):
    e = load(prog)
    for kind in KINDS:
        r = cli.run_one(kind, e, cli.policy_for_k(k), node_limit=2_000)
        assert to_json(r) == _reference_json(r), kind
    m = compute_metrics(prog, r, k, 1.5)
    fields = {"program": prog, "analysis": r.kind, "k": k, "gc": r.gc_mode,
              "control_states": m.control_states, "edges": m.edges,
              "singleton_vars": m.singleton_vars,
              "variables_total": m.variables_total, "wall_time_ms": 1.5,
              "saturated": r.saturated}
    assert to_json(m) == json.dumps({"schema": 1, "metrics": fields},
                                    indent=2) + "\n"


def test_to_json_peak_memory_is_a_small_multiple_of_the_document():
    """Writing the capped plain kcfa3 k=1 graph (10,001 nodes, a
    1,440,289-byte document) holds at most 1.72 bytes of traced heap per
    byte of the document (1.643 measured): the document grows in place a
    few hundred rows at a time, and the sorts key on ranks and positions
    that already exist, not on an int built per node or edge."""
    r = cli.run_one("plain", load("kcfa3"), cli.policy_for_k(1),
                    node_limit=10_000)
    tracemalloc.start()
    try:
        doc = to_json(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.72 * len(doc), f"{peak / len(doc):.3f}x"


def test_to_json_of_edgeless_result_equals_indented_json_dumps():
    r = run_one("pdcfa", parse_and_normalize("42"), Mono())
    assert not r.graph.edges
    assert to_json(r) == _reference_json(r)


def test_json_metrics_roundtrip():
    m = compute_metrics("eta", run_one("pdcfa", load("eta"), Mono()), 1, 5.0)
    doc = json.loads(to_json(m))
    assert doc["schema"] == 1
    assert doc["metrics"]["program"] == "eta"
    assert doc["metrics"]["k"] == 1
    assert doc["metrics"]["wall_time_ms"] >= 0


# ---------------------------------------------------------------------------
# CLI (in-process via main(), plus one real subprocess smoke test)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_summary_line(capsys):
    code, out, err = run_cli(["run", "eta", "--analysis", "pdcfa-gc"], capsys)
    assert code == 0
    assert "pdcfa-gc" in out and "states=" in out and "singletons=" in out


def test_cli_all_analyses_table(capsys):
    code, out, _ = run_cli(["run", "eta", "--analysis", "all", "--k", "0"],
                           capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 6
    for kind in ("plain", "plain-gc", "pdcfa", "pdcfa-gc", "pdcfa-gc-approx",
                 "pdcfa-widened"):
        assert any(f" {kind} " in ln for ln in lines)


def test_cli_concrete_outcome(capsys):
    code, out, _ = run_cli(["run", "fig1", "--analysis", "concrete"], capsys)
    assert code == 0
    assert "halt 36" in out


@pytest.mark.parametrize("src, shown", [
    ("(< 1 2)", "#t"), ("(cond)", "#f"), ("+", "#<primitive +>"),
    ("(+ 1)", "#<primitive + 1>"), ("(+ #t)", "#<primitive + #t>"),
    ("(+ (lambda (x) x))", "#<primitive + #<closure x_1 e1>>")])
def test_cli_concrete_prints_values_in_the_language(tmp_path, capsys, src,
                                                    shown):
    """Not Python's True or PrimVal(op='+', args=(1,))."""
    prog = tmp_path / "p.scm"
    prog.write_text(src)
    code, out, _ = run_cli(["run", str(prog), "--analysis", "concrete"],
                           capsys)
    assert code == 0 and out.startswith(f"p: halt {shown} (")


def test_cli_concrete_out_of_fuel(capsys):
    code, out, _ = run_cli(["run", "fig1", "--analysis", "concrete",
                            "--fuel", "0"], capsys)
    assert code == 1
    assert out == "fig1: fuel (1 configurations)\n"


# at the default fuel this loop runs for hours (the machine copies its
# whole store every step)
COUNT_LOOP = """(define (count n acc) (if (<= n 0) acc (count (- n 1) (+ acc 1))))
(count 100000 0)
"""


def test_cli_concrete_stops_at_the_timeout(tmp_path, capsys):
    prog = tmp_path / "count.scm"
    prog.write_text(COUNT_LOOP)
    code, out, _ = run_cli(["run", str(prog), "--analysis", "concrete",
                            "--timeout-secs", "0"], capsys)
    assert code == 1
    assert out == "count: timeout (1 configurations)\n"
    # without --timeout-secs only the fuel stops it, as before
    code, out, _ = run_cli(["run", str(prog), "--analysis", "concrete",
                            "--fuel", "50"], capsys)
    assert code == 1
    assert out == "count: fuel (51 configurations)\n"
    code, out, _ = run_cli(["run", "fig1", "--analysis", "concrete",
                            "--timeout-secs", "inf"], capsys)
    assert code == 0 and out.startswith("fig1: halt 36 (")


def test_cli_concrete_closure_result_is_the_same_under_any_hash_seed(
        tmp_path):
    prog = tmp_path / "clo.scm"
    prog.write_text("(let ((a 1) (b 2) (c 3)) (lambda (x) (+ a (+ b c))))")
    outs = set()
    for seed in ("1", "2", "3"):
        p = subprocess.run([sys.executable, "-m", "pdcfa.cli", "run",
                            str(prog), "--analysis", "concrete"],
                           capture_output=True, text=True, timeout=60,
                           env={**os.environ, "PYTHONHASHSEED": seed})
        assert p.returncode == 0, p.stderr
        outs.add(p.stdout)
    assert outs == {"clo: halt #<closure x_4 e7> (4 configurations)\n"}


def test_cli_dump_anf_reparses(capsys):
    code, out, _ = run_cli(["run", "eta", "--dump-anf"], capsys)
    assert code == 0
    parse_and_normalize(out)  # emitted ANF is valid input


def test_cli_json_format(capsys):
    code, out, _ = run_cli(
        ["run", "eta", "--analysis", "pdcfa", "--format", "json"], capsys)
    assert code == 0
    dec = json.JSONDecoder()
    mdoc, idx = dec.raw_decode(out)
    rdoc, _ = dec.raw_decode(out[idx:].lstrip())
    assert mdoc["schema"] == 1 and "metrics" in mdoc
    assert rdoc["kind"] == "pdcfa"


def test_cli_json_all_is_array(capsys):
    code, out, _ = run_cli(
        ["run", "eta", "--analysis", "all", "--format", "json"], capsys)
    assert code == 0
    docs = json.loads(out)
    assert isinstance(docs, list) and len(docs) == 6


def test_cli_dot_to_file(tmp_path, capsys):
    target = tmp_path / "g.dot"
    code, out, _ = run_cli(
        ["run", "eta", "--format", "dot", "--out", str(target)], capsys)
    assert code == 0
    assert target.read_text().startswith("digraph")


def test_cli_missing_program_exits_1(capsys):
    code, _, err = run_cli(["run", "/no/such/program.scm"], capsys)
    assert code == 1
    assert "no such program" in err


def test_cli_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.scm"
    bad.write_text("((")
    code, _, err = run_cli(["run", str(bad)], capsys)
    assert code == 1


def test_cli_all_gives_each_analysis_its_own_budget(monkeypatch, capsys):
    now = [100.0]
    calls = []
    real_run_one = cli.run_one

    def run_one(kind, e, policy, deadline=None, node_limit=None):
        calls.append((kind, now[0], deadline))
        now[0] += 7.0  # every analysis uses most of its budget
        return real_run_one(kind, e, policy)
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(cli, "run_one", run_one)
    code, _, _ = run_cli(["run", "eta", "--analysis", "all",
                          "--timeout-secs", "10"], capsys)
    assert code == 0
    assert [kind for kind, _, _ in calls] == list(KINDS)
    for kind, start, deadline in calls:
        assert deadline == start + 10.0, kind


def test_cli_max_states_and_timeout_markers(tmp_path, capsys):
    # kcfa3 plain k=1 is an intended blowup: it passes any small cap
    base = ["run", "kcfa3", "--analysis", "plain", "--k", "1"]
    code, out, _ = run_cli([*base, "--max-states", "500"], capsys)
    assert code == 0 and out.rstrip().endswith("  [max-states]")
    assert int(out.split("states=")[1].split()[0]) > 500
    code, out, _ = run_cli([*base, "--max-states", "500", "--timeout-secs",
                            "0"], capsys)
    assert code == 0 and out.rstrip().endswith("  [timeout]")
    # so is kcfa2-n at n=3: plain k=1 passes a cap of 20,000 states
    prog = tmp_path / "kcfa2n3.scm"
    prog.write_text(kcfa2n_source(3))
    code, out, _ = run_cli(["run", str(prog), "--analysis", "plain", "--k",
                            "1", "--max-states", "20000"], capsys)
    assert code == 0 and out.rstrip().endswith("  [max-states]")


def test_cli_all_gives_each_analysis_the_whole_state_budget(monkeypatch,
                                                            capsys):
    limits = []
    real_run_one = cli.run_one

    def run_one(kind, e, policy, deadline=None, node_limit=None):
        limits.append((kind, node_limit))
        return real_run_one(kind, e, policy, deadline, node_limit)
    monkeypatch.setattr(cli, "run_one", run_one)
    code, out, _ = run_cli(["run", "kcfa3", "--analysis", "all", "--k", "1",
                            "--max-states", "300"], capsys)
    assert code == 0
    assert limits == [(kind, 300) for kind in KINDS]
    marked = {}
    for line in out.splitlines():
        states = int(line.split("states=")[1].split()[0])
        marked[line.split()[1]] = line.endswith("[max-states]")
        assert marked[line.split()[1]] == (states > 300), line
        assert "[timeout]" not in line
    assert marked["plain"] and marked["pdcfa"] and not marked["pdcfa-gc"]


def test_cli_runs_a_200_binding_chain(tmp_path, capsys):
    # a 200-binding let* chain of calls through one shared closure
    n = 200
    binds = ["(f (lambda (x) x))", "(v0 (f 0))"]
    binds += [f"(v{i} (f v{i - 1}))" for i in range(1, n)]
    prog = tmp_path / "chain200.scm"
    prog.write_text("(let* (" + "\n".join(binds) + f")\n  v{n - 1})\n")
    code, out, err = run_cli(["run", str(prog), "--analysis", "all"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == len(KINDS)
    assert all(line.split()[0] == "chain200" and "states=" in line
               for line in lines)


def test_cli_recursion_error_is_one_line(monkeypatch, tmp_path, capsys):
    def too_deep(text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "parse_and_normalize", too_deep)
    prog = tmp_path / "p.scm"
    prog.write_text("(+ 1 2)")
    code, out, err = run_cli(["run", str(prog)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("pdcfa: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_memory_error_is_one_line(monkeypatch, capsys):
    def run_one(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_one", run_one)
    code, out, err = run_cli(["run", "fig1", "--analysis", "pdcfa"], capsys)
    assert code == 1 and out == ""
    assert err == "pdcfa: fig1: out of memory\n"


def test_cli_out_of_memory_in_a_child_is_one_line():
    """kcfa3's uncapped plain k=1 cell outgrows a 64 MB address space."""
    def limit():  # runs in the child, between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "pdcfa.cli", "run", "kcfa3",
         "--analysis", "plain", "--k", "1"],
        capture_output=True, text=True, timeout=5, preexec_fn=limit)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "pdcfa: kcfa3: out of memory\n"


@pytest.mark.parametrize("src, msg", [
    ("(let ((x 1) (x 2)) x)", "duplicate let binding 'x'"),
    ("'(1 2)", "quote is not supported"),
    ("(lambda (x x) x)", "duplicate parameter 'x'"),
    ("(define (f x x) x) (f 1 2)", "duplicate parameter 'x'"),
    ("(define (f . x) x) 1", "'.' is not a name"),
    ("(let ((1 5)) 1)", "'1' is not a name"),
    ("(let* ((1 5)) 1)", "'1' is not a name"),
    ("(define 7 (lambda (x) x)) 1", "'7' is not a name"),
    ("(let ((if 1)) if)", "'if' is not a name"),
])
def test_cli_rejected_front_end_forms_exit_1(src, msg, tmp_path, capsys):
    prog = tmp_path / "p.scm"
    prog.write_text(src)
    code, out, err = run_cli(["run", str(prog)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("pdcfa: ") and err.count("\n") == 1
    assert msg in err


@pytest.mark.parametrize("case", ["non-utf8", "directory", "out-dir-missing",
                                  "negative-k", "negative-fuel",
                                  "negative-max-states", "timeout=-1",
                                  "timeout=nan", "timeout=0", "timeout=inf"])
def test_cli_bad_input_ends_without_traceback(case, tmp_path, capsys):
    prog = tmp_path / "p.scm"
    prog.write_text("(+ 1 2)")
    if case == "non-utf8":
        prog.write_bytes(b"(+ 1 \xff\xfe)")
        argv, want = [str(prog)], 1
    elif case == "directory":
        argv, want = [str(tmp_path)], 1
    elif case == "out-dir-missing":
        argv, want = [str(prog), "--out", str(tmp_path / "no" / "g.dot")], 1
    elif case == "negative-k":
        argv, want = [str(prog), "--k", "-1"], 2
    elif case == "negative-fuel":
        argv, want = [str(prog), "--analysis", "concrete", "--fuel", "-5"], 2
    elif case == "negative-max-states":
        argv = ["kcfa3", "--analysis", "plain", "--k", "1", "--max-states",
                "-1"]
        want = 2
    else:  # fig1 pdcfa k=1 reaches 185 states with no limit
        secs = case.split("=")[1]
        argv = ["fig1", "--analysis", "pdcfa", "--k", "1", "--timeout-secs",
                secs]
        want = 0 if secs in ("0", "inf") else 2
    try:
        code = main(["run", *argv])
    except SystemExit as ex:  # argparse's usage errors
        code = ex.code
    out, err = capsys.readouterr()
    assert code == want
    assert "Traceback" not in err
    if want == 1:
        assert err.startswith("pdcfa: ") and err.count("\n") == 1
    if case == "timeout=0":
        assert out.rstrip().endswith("[timeout]")
    if case == "timeout=inf":
        assert "states=185" in out and "[timeout]" not in out


_WORDS = ("x", "y", "f", "lambda", "let", "let*", "if", "define", "cond",
          "else", "and", "or", "not", "rec", "+", "-", "quotient", "<=", "=",
          "#t", "#f", "0", "7", "'", ".", "#", '"s"', ";")
_SEXPS = st.recursive(
    st.sampled_from(_WORDS),
    lambda kids: st.lists(kids, max_size=4).map(
        lambda xs: "(" + " ".join(xs) + ")"), max_leaves=16)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(st.binary(max_size=48), _SEXPS.map(str.encode)))
def test_cli_arbitrary_input_ends_without_traceback(source):
    with tempfile.TemporaryDirectory() as tmp:
        prog = Path(tmp) / "p.scm"
        prog.write_bytes(source)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(["run", str(prog), "--timeout-secs", "1"])
            except SystemExit as ex:  # argparse's usage errors
                code = ex.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("pdcfa: ")


@pytest.mark.parametrize("analysis,fmt", [("all", "dot"),
                                          ("concrete", "json"),
                                          ("concrete", "dot")])
def test_cli_format_the_analysis_cannot_write_exits_2(analysis, fmt,
                                                       capsys):
    """dot draws one analysis's graph and concrete prints only its
    outcome: these pairs are usage errors, not silently other output."""
    code, out, err = run_cli(["run", "fig1", "--analysis", analysis,
                              "--format", fmt], capsys)
    assert code == 2 and out == ""
    assert err == (f"pdcfa: --analysis {analysis} has no --format {fmt} "
                   "output\n")


@pytest.mark.parametrize("src, want", [
    ("(f\n  x]", "2:4: mismatched bracket"),
    ("(let x 1)", "1:1: let expects (let (bindings) body)"),
    ("(define (f) 1) 1", "1:9: define needs at least one parameter"),
])
def test_cli_rejected_program_ends_in_one_line(src, want, tmp_path, capsys):
    prog = tmp_path / "p.scm"
    prog.write_text(src)
    code, out, err = run_cli(["run", str(prog)], capsys)
    assert (code, out, err) == (1, "", f"pdcfa: {want}\n")


def test_run_one_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="concrete"):
        cli.run_one("concrete", load("eta"), Mono())


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["run", "eta", "--bogus"])
    assert ei.value.code == 2


def test_import_needs_no_dataclasses_inspect_or_argparse():
    """What a benchmark child imports before its first analysis pulls in
    none of these; `main` still runs."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pdcfa, pdcfa.bench, pdcfa.cli, pdcfa.metrics\n"
        "print(sorted({'dataclasses', 'inspect', 'argparse'}\n"
        "             & (set(sys.modules) - before)))\n"
        "sys.exit(pdcfa.cli.main(['run', 'fig1']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert "states=" in proc.stdout


def test_importing_helpers_leaves_out_hypothesis():
    """The benchmark's coverage check imports helpers in each child, where
    hypothesis would only add start-up time and peak memory."""
    code = "import sys, helpers\nprint('hypothesis' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          cwd=Path(__file__).resolve().parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "pdcfa.cli", "run", "fig1",
         "--analysis", "pdcfa-gc", "--k", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "states=" in proc.stdout


# Environments whose stdout cannot encode ε: an ASCII stream, and the C
# locale with neither locale coercion nor UTF-8 mode, which also makes the
# locale's codec ASCII.
ASCII_ENVS = {
    "ascii-stdout": {"PYTHONIOENCODING": "ascii"},
    "c-locale": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
}


@pytest.mark.parametrize("env, dest", [("ascii-stdout", "stdout"),
                                       ("c-locale", "stdout"),
                                       ("c-locale", "out")])
def test_cli_writes_utf8_whatever_the_locale(env, dest, tmp_path):
    """A UTF-8 program with a λ name is read as UTF-8, and its DOT, with
    ε and λ, is written as UTF-8 bytes to stdout or to --out."""
    src = "(let ((λ (lambda (x) x))) (let ((y (λ 1))) y))"
    prog = tmp_path / "p.scm"
    prog.write_bytes(src.encode("utf-8"))
    want = to_dot(run_one("pdcfa", parse_and_normalize(src), Mono()))
    assert "ε" in want and "λ" in want
    out = tmp_path / "p.dot"
    environ = {k: v for k, v in os.environ.items()
               if not k.startswith(("LC_", "PYTHONIOENCODING", "PYTHONUTF8"))}
    proc = subprocess.run(
        [sys.executable, "-m", "pdcfa.cli", "run", str(prog),
         "--analysis", "pdcfa", "--format", "dot",
         *(["--out", str(out)] if dest == "out" else [])],
        capture_output=True, timeout=120, env={**environ, **ASCII_ENVS[env]})
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    got = out.read_bytes() if dest == "out" else proc.stdout
    assert got == want.encode("utf-8")


def test_traced_benchmark_child_runs_every_cell():
    """perfbench's tracer replaces RPDSOracle and compact_worklist with
    wrappers of their own signatures: a traced child must still run every
    cell of a bundled job."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench))
    import workloads
    job = next(j for j in workloads.children("bundled", 0)
               if j["id"] == "fig1/k0")
    proc = subprocess.run([sys.executable, str(bench / "child.py")],
                          input=json.dumps(dict(job, trace=1)),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    cells = json.loads(proc.stdout.splitlines()[-1])["cells"]
    assert [c["kind"] for c in cells] == list(analyses.ANALYSES)
    assert [c for c in cells if "error" in c] == []
