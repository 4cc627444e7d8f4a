import math
import time

import pytest

from pdcfa.syntax import parse_and_normalize
from pdcfa.concrete import (inject, atomic_eval, alloc, step, run,
                            Clo, Conf, env_make, store_make)
from pdcfa import bench


ID_ON_ID = "((lambda (x) x) (lambda (y) y))"


def test_inject_shape():
    e = parse_and_normalize(ID_ON_ID)
    c = inject(e)
    assert c.exp is e
    assert c.env == () and c.store == () and c.kont == ()


def test_alloc_rules():
    def conf_with(entries):
        return Conf(None, (), store_make(dict(entries)), ())
    assert alloc(None, conf_with([])) == 0
    assert alloc(None, conf_with([(0, 1), (1, 1), (2, 1)])) == 3
    assert alloc(None, conf_with([(5, 1)])) == 6


def test_atomic_eval_closure_trims_env():
    e = parse_and_normalize("(lambda (x) x)")
    lam = e.atom
    env = env_make([])
    v = atomic_eval(lam, env, store_make({}))
    assert isinstance(v, Clo) and v.lam is lam and v.env == ()


def test_identity_on_identity_halts_quickly():
    e = parse_and_normalize(ID_ON_ID)
    trace, outcome = run(e, fuel=10)
    assert outcome[0] == "halt"
    assert isinstance(outcome[1], Clo)
    assert len(trace) <= 3


def test_omega_exhausts_fuel():
    e = parse_and_normalize("((lambda (x) (x x)) (lambda (x) (x x)))")
    trace, outcome = run(e, fuel=100)
    assert outcome == ("fuel",)
    assert len(trace) == 101


def test_deadline_is_checked_before_every_step():
    e = parse_and_normalize("((lambda (x) (x x)) (lambda (x) (x x)))")
    trace, outcome = run(e, fuel=100, deadline=time.monotonic())
    assert outcome == ("timeout",)
    assert trace == [inject(e)]
    assert run(e, 100, deadline=math.inf) == run(e, 100)


def test_step_is_deterministic_along_fig1():
    e = bench.load("fig1")
    c = inject(e)
    for _ in range(50):
        s1, s2 = step(c), step(c)
        assert s1 == s2
        if s1.kind != "next":
            break
        c = s1.conf


def test_alloc_freshness_along_trace():
    e = bench.load("loop2")
    trace, _ = run(e)
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
