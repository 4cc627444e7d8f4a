"""Precision metrics, serialization determinism, and the command line."""
import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from pdcfa import cli
from pdcfa.syntax import parse_and_normalize
from pdcfa.abstract import KAddr, Mono
from pdcfa.analyses import (OPState, analyze_finite, analyze_gc_approx,
                            analyze_pdcfa)
from pdcfa.bench import load
from pdcfa.cli import main
from pdcfa.metrics import (Metrics, _node_label, compute_metrics,
                           singleton_count, to_dot, to_json)

from helpers import ref_skey

KINDS = ("plain", "plain-gc", "pdcfa", "pdcfa-gc", "pdcfa-gc-approx",
         "pdcfa-widened")


# ---------------------------------------------------------------------------
# singleton counting


def test_all_singletons_on_monovariant_identity_chain():
    e = parse_and_normalize("((lambda (x) x) (lambda (y) y))")
    r = analyze_pdcfa(e, Mono())
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
    r = analyze_finite(e, Mono())
    count, table = singleton_count(r)
    x = next(v for v in table if v.name == "x")
    assert len(table[x]) == 2


def test_no_variables_means_zero_of_zero():
    e = parse_and_normalize("42")
    r = analyze_pdcfa(e, Mono())
    count, table = singleton_count(r)
    assert (count, len(table)) == (0, 0)


def test_compute_metrics_fields():
    e = load("eta")
    r = analyze_pdcfa(e, Mono())
    m = compute_metrics("eta", r, 0, 12.3456)
    assert isinstance(m, Metrics)
    assert m.program == "eta" and m.analysis == "pdcfa" and m.k == 0
    assert m.control_states == len(r.nodes)
    assert m.edges == len(r.edges)
    assert m.wall_time_ms == 12.346
    assert m.saturated
    assert 0 <= m.singleton_vars <= m.variables_total


# ---------------------------------------------------------------------------
# serialization


def test_dot_edge_count_matches_metrics():
    e = load("eta")
    r = analyze_pdcfa(e, Mono())
    dot = to_dot(r)
    assert dot.count(" -> ") == len(r.edges)
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("doublecircle") == 1  # exactly one root


def test_dot_shows_guard_sizes_for_approx():
    r = analyze_gc_approx(load("eta"), Mono())
    dot = to_dot(r)
    assert dot.count(" -> ") == len(r.guarded_edges)
    assert "⟨0⟩" in dot  # at least the root's first step has no roots yet


def test_serialization_is_deterministic_across_runs():
    def render():
        r = analyze_gc_approx(load("fig1"), Mono())
        return to_dot(r), to_json(r)
    d1, j1 = render()
    d2, j2 = render()
    assert d1 == d2
    assert j1 == j2


def test_json_result_roundtrip():
    e = load("eta")
    r = analyze_pdcfa(e, Mono())
    doc = json.loads(to_json(r))
    assert doc["schema"] == 1
    assert doc["kind"] == "pdcfa"
    assert doc["node_count"] == len(r.nodes) == len(doc["nodes"])
    assert doc["edge_count"] == len(r.edges) == len(doc["edges"])
    ids = {n["id"] for n in doc["nodes"]}
    for edge in doc["edges"]:
        assert edge["src"] in ids and edge["dst"] in ids


def _keyed_parts(n):
    """n and the environments, stores and continuation address it holds."""
    st = n.state if isinstance(n, OPState) else n
    parts = [n, st, st.env]
    if hasattr(st, "store"):
        parts.append(st.store)
    if isinstance(getattr(st, "kaddr", None), KAddr):
        parts += [st.kaddr, st.kaddr.env]
    return parts


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("prog", ["fig1", "kcfa2"])
def test_stored_skey_equals_reference_key(prog, k):
    e = load(prog)
    for kind in KINDS:
        r = cli.run_one(kind, e, cli.policy_for_k(k), node_limit=2_000)
        parts = [p for n in r.graph.nodes for p in _keyed_parts(n)]
        if r.global_store is not None:
            parts.append(r.global_store)
        for x in parts:
            assert x.skey() is x.skey()
            assert x.skey() == ref_skey(x), (kind, x)
        # to_json numbers nodes in reference-key order
        order = sorted(r.graph.nodes, key=ref_skey)
        ids = {n: i for i, n in enumerate(order)}
        doc = json.loads(to_json(r))
        assert [d["id"] for d in doc["nodes"]] == list(range(len(order)))
        assert ({(d["src"], d["dst"]) for d in doc["edges"]}
                == {(ids[s], ids[d]) for s, _, d in r.graph.edges})
        assert [d["label"] for d in doc["nodes"]] == \
            [_node_label(n) for n in order]


def test_json_metrics_roundtrip():
    m = compute_metrics("eta", analyze_pdcfa(load("eta"), Mono()), 1, 5.0)
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


def test_cli_deeply_nested_program_exits_1(tmp_path, capsys):
    # a 200-binding let* chain of calls through one shared closure
    n = 200
    binds = ["(f (lambda (x) x))", "(v0 (f 0))"]
    binds += [f"(v{i} (f v{i - 1}))" for i in range(1, n)]
    prog = tmp_path / "chain200.scm"
    prog.write_text("(let* (" + "\n".join(binds) + f")\n  v{n - 1})\n")
    code, out, err = run_cli(["run", str(prog), "--analysis", "all"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("pdcfa: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["run", "eta", "--bogus"])
    assert ei.value.code == 2


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "pdcfa.cli", "run", "fig1",
         "--analysis", "pdcfa-gc", "--k", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "states=" in proc.stdout
