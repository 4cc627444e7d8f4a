import math
import subprocess
import sys
import time

import pytest

from pdcfa.syntax import parse_and_normalize
from pdcfa.concrete import (inject, atomic_eval, alloc, step, run,
                            Clo, Conf, DanglingAddressError, Store)
from pdcfa import bench
from pdcfa.abstract import Mono

from helpers import run_abstracted


ID_ON_ID = "((lambda (x) x) (lambda (y) y))"


def test_inject_shape():
    e = parse_and_normalize(ID_ON_ID)
    c = inject(e)
    assert c.exp is e
    assert c.env == () and c.store == Store([], 0) and c.kont == ()
    assert list(c.store) == []


def test_alloc_rules():
    def conf_with(values):
        return Conf(None, (), Store(list(values), len(values)), ())
    assert alloc(None, conf_with([])) == 0
    assert alloc(None, conf_with([1, 1, 1])) == 3


def test_store_is_a_prefix_of_one_log():
    s1 = Store([], 0).add("a")
    s2 = s1.add("b")
    assert list(s2) == [(0, "a"), (1, "b")] and dict(s1) == {0: "a"}
    assert s2.cells is s1.cells  # appended in place
    t2 = s1.add("c")  # s1 extended again: a copy, and s2 is unchanged
    assert t2.cells is not s2.cells
    assert dict(t2) == {0: "a", 1: "c"} and dict(s2) == {0: "a", 1: "b"}
    assert s1 == Store(["a", "z"], 1) and hash(s1) == hash(Store(["a"], 1))
    assert s2 != t2 and s1 != s2
    assert s2.lookup(1) == "b"
    for a in (-1, 2):
        with pytest.raises(DanglingAddressError):
            s2.lookup(a)


def test_atomic_eval_closure_trims_env():
    e = parse_and_normalize("(lambda (x) x)")
    lam = e.atom
    v = atomic_eval(lam, (), Store([], 0))
    assert isinstance(v, Clo) and v.lam is lam and v.env == ()


def test_identity_on_identity_halts_quickly():
    e = parse_and_normalize(ID_ON_ID)
    n, outcome = run(e, fuel=10)
    assert outcome[0] == "halt"
    assert isinstance(outcome[1], Clo)
    assert n <= 3


def test_omega_exhausts_fuel():
    e = parse_and_normalize("((lambda (x) (x x)) (lambda (x) (x x)))")
    n, outcome = run(e, fuel=100)
    assert outcome == ("fuel",)
    assert n == 101


def test_deadline_is_checked_before_every_step():
    e = parse_and_normalize("((lambda (x) (x x)) (lambda (x) (x x)))")
    n, outcome = run(e, fuel=100, deadline=time.monotonic())
    assert outcome == ("timeout",)
    assert n == 1  # the injected configuration alone
    assert run(e, 100, deadline=math.inf) == run(e, 100)


def test_step_is_deterministic_along_fig1():
    e = bench.load("fig1")
    c = inject(e)
    for _ in range(50):
        s1, s2 = step(c), step(c)
        assert vars(s1) == vars(s2)  # a Step equals only itself
        if s1.kind != "next":
            break
        c = s1.conf


def test_alloc_freshness_along_trace():
    e = bench.load("loop2")
    trace, outcome = run_abstracted(e, Mono())[:2]
    assert run(e) == (len(trace), outcome)  # counted, not kept
    for c in trace:
        dom = {a for a, _ in c.store}
        nxt = alloc(None, c)
        assert nxt not in dom


# ---------------------------------------------------------------------------
# benchmark values, each against an independent oracle


def _oracle_fig1():
    return math.factorial(3) + sum(i * i for i in range(1, 5))


def test_fig1_value():
    _, outcome = run(bench.load("fig1"))
    assert outcome == ("halt", _oracle_fig1())
    assert outcome[1] == 36


def _oracle_loop2():
    acc = 0
    for i in range(3, 0, -1):
        acc += i  # inner loop adds i ones
    return acc


def test_loop2_value():
    _, outcome = run(bench.load("loop2"))
    assert outcome == ("halt", _oracle_loop2())
    assert outcome[1] == 6


def _oracle_sat():
    def phi(x1, x2, x3):
        return (x1 or not x2) and (x2 or not x3) and (x3 or x1)
    bools = (True, False)
    return any(phi(a, b, c) for a in bools for b in bools for c in bools)


def test_sat_value():
    _, outcome = run(bench.load("sat"))
    assert outcome == ("halt", _oracle_sat())
    assert outcome[1] is True


def test_remaining_benchmark_values():
    expected = {"mj09": 3, "eta": 2 - 1, "blur": False,
                "kcfa2": False, "kcfa3": False}
    for name, want in expected.items():
        _, outcome = run(bench.load(name))
        assert outcome == ("halt", want), name


# ---------------------------------------------------------------------------
# stuck states and primitives


def test_apply_non_function_stuck():
    _, outcome = run(parse_and_normalize("(1 2)"))
    assert outcome[0] == "stuck"


def test_branch_on_non_boolean_stuck():
    _, outcome = run(parse_and_normalize("(if 3 1 2)"))
    assert outcome[0] == "stuck"


def test_division_by_zero_stuck():
    _, outcome = run(parse_and_normalize("(quotient 1 0)"))
    assert outcome[0] == "stuck"


@pytest.mark.parametrize("op", ["quotient", "remainder"])
def test_division_by_zero_stuck_with_its_reason(op):
    _, outcome = run(parse_and_normalize(f"({op} 1 0)"))
    assert outcome == ("stuck", "division by zero")


def test_prim_on_boolean_stuck():
    _, outcome = run(parse_and_normalize("(+ #t 1)"))
    assert outcome[0] == "stuck"


@pytest.mark.parametrize("src,val", [
    ("(quotient 7 2)", 3),
    ("(quotient -7 2)", -3),     # truncation toward zero
    ("(remainder -7 2)", -1),
    ("(remainder 7 -2)", 1),
    ("(- 2 5)", -3),
    ("(<= 1 1)", True),
    ("(< 1 1)", False),
    ("(= 4 4)", True),
    ("(not #f)", True),
])
def test_primitives(src, val):
    _, outcome = run(parse_and_normalize(src))
    assert outcome == ("halt", val)


# ---------------------------------------------------------------------------
# the machine is linear in its steps


COUNT = """(define (count n acc) (if (<= n 0) acc (count (- n 1) (+ acc 1))))
(count 100000 0)
"""


def test_counting_loop_runs_to_the_default_fuel_in_linear_time(tmp_path):
    """100,000 steps through the CLI in a fresh interpreter, with at least
    a fivefold margin on the child's time (a store copied on every step
    took 13 s and 1 GB for a tenth of these steps) and a twofold one on
    its max RSS, about 20 MB: the CLI counts the configurations and keeps
    none (keeping them all took 57 MB)."""
    prog = tmp_path / "count.scm"
    prog.write_text(COUNT)
    # the child's own peak, VmHWM: its ru_maxrss also counts the peak of
    # the process that spawned it, here the whole pytest run's
    code = ("import sys\n"
            "from pdcfa.cli import main\n"
            "code = main(['run', sys.argv[1], '--analysis', 'concrete',\n"
            "             '--timeout-secs', '10'])\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')))\n"
            "sys.exit(code)\n")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code, str(prog)],
                          capture_output=True, text=True, timeout=60)
    wall = time.monotonic() - t0
    summary, max_rss_kb = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stderr  # fuel is not a halt
    assert summary == "count: fuel (100001 configurations)"
    assert wall < 10
    assert int(max_rss_kb) < 40 * 1024
