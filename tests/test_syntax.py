import sys
from pathlib import Path

import pytest
from hypothesis import given, note, settings

from pdcfa.syntax import (parse_program, parse_and_normalize, print_anf,
                          binders, count_let1, read_sexprs, ParseError,
                          UnboundVariable, Ret, TailCall, Let1, If, Lambda,
                          Var)
from pdcfa import bench
from pdcfa.frozen import Frozen, fields
from pdcfa.analyses import ANALYSES
from pdcfa.cli import policy_for_k, run_one
from pdcfa.concrete import run

from helpers import alpha_equiv, coverage_violations
from strategies import surface_programs


def walk(e):
    out = [e]
    if isinstance(e, Let1):
        out += walk(e.rhs) + walk(e.body)
    elif isinstance(e, If):
        out += walk(e.then) + walk(e.els)
    for ae in atoms(e):
        if isinstance(ae, Lambda):
            out += walk(ae.body)
    return out


def atoms(e):
    if isinstance(e, Ret):
        return [e.atom]
    if isinstance(e, TailCall):
        return [e.fun, e.arg]
    if isinstance(e, If):
        return [e.cond]
    return []


def test_smallest_lambda():
    e = parse_and_normalize("(lambda (x) x)")
    assert isinstance(e, Ret)
    lam = e.atom
    assert isinstance(lam, Lambda)
    body = lam.body
    assert isinstance(body, Ret) and body.atom is lam.param


def test_unbalanced_parens():
    with pytest.raises(ParseError) as ei:
        parse_program("((")
    assert ei.value.span == (1, 2)


def test_fig1_parses_to_three_defines():
    p = parse_program(bench.source("fig1"))
    assert [v.name for v, _ in p.defines] == ["id", "f", "g"]
    assert p.top is not None


def test_unbound_variable_rejected():
    with pytest.raises(UnboundVariable):
        parse_and_normalize("(lambda (x) y)")


def test_forward_define_reference_rejected():
    with pytest.raises(UnboundVariable):
        parse_and_normalize("(define (f x) (g x)) (define (g x) x) (f 1)")


def test_normalize_nontail_call_introduces_let():
    e = parse_and_normalize("(lambda (f) (lambda (g) (lambda (x) (f (g x)))))")
    lets = [x for x in walk(e) if isinstance(x, Let1)]
    assert len(lets) == 1
    let = lets[0]
    assert isinstance(let.rhs, TailCall)  # (g x)
    assert isinstance(let.body, TailCall)  # (f t)
    assert let.body.arg is let.var


def test_normalize_labels_and_binders_unique():
    for name in ("fig1", "sat", "blur"):
        e = bench.load(name)
        nodes = walk(e)
        labels = [x.label for x in nodes]
        assert len(labels) == len(set(labels))
        bs = binders(e)
        assert len(bs) == len({v.skey() for v in bs})


def test_normalize_closed():
    for b in bench.BENCHMARKS:
        assert bench.load(b).free == frozenset()


def test_a_benchmark_is_its_name():
    assert bench.source("fig1") == (
        Path(bench.__file__).parent / "fig1.scm").read_text()
    for name in ("fig1.scm", "nope"):
        with pytest.raises(KeyError):
            bench.source(name)


# Frozen regression value: hand normalization of the fig1 source gives one
# Let1 per non-tail call (rec-encoded defines add one each).
def test_fig1_let_count_frozen():
    assert count_let1(bench.load("fig1")) == 22


def test_anf_roundtrip_alpha_equivalent():
    for name in ("fig1", "sat", "kcfa3", "loop2"):
        e = bench.load(name)
        e2 = parse_and_normalize(print_anf(e))
        assert alpha_equiv(e, e2)


def test_normalize_idempotent_up_to_alpha():
    src = "(let* ((f (lambda (x) x))) (f (f 1)))"
    e = parse_and_normalize(src)
    e2 = parse_and_normalize(print_anf(e))
    assert alpha_equiv(e, parse_and_normalize(print_anf(e2)))


def test_free_vars_simple():
    e = parse_and_normalize("(lambda (x) x)")
    lam = e.atom
    assert lam.body.free == frozenset({lam.param})
    assert e.free == frozenset()


def _ref_free(x):
    """Free variables of an Exp or atom, walked from scratch."""
    if isinstance(x, Var):
        return {x}
    if isinstance(x, Lambda):
        return _ref_free(x.body) - {x.param}
    if isinstance(x, (int, str)):  # a literal or a primitive's name
        return set()
    if isinstance(x, Ret):
        return _ref_free(x.atom)
    if isinstance(x, TailCall):
        return _ref_free(x.fun) | _ref_free(x.arg)
    if isinstance(x, Let1):
        return _ref_free(x.rhs) | (_ref_free(x.body) - {x.var})
    return _ref_free(x.cond) | _ref_free(x.then) | _ref_free(x.els)


@pytest.mark.parametrize("name", bench.BENCHMARKS)
def test_stored_free_sets_and_var_hashes_match_a_walk(name):
    e = bench.load(name)
    for x in walk(e):
        assert x.free == _ref_free(x)
        if isinstance(x, Let1):
            assert x.frame_free == _ref_free(x.body) - {x.var}
        for ae in atoms(x):
            if isinstance(ae, Lambda):
                assert ae.free == _ref_free(ae)
    # a Var hashes and compares by identity, and each reference is its
    # binder's own object
    bound = set(binders(e))
    for v in bound:
        assert hash(v) == object.__hash__(v) and v != Var(v.name, v.id)
    for x in walk(e):
        assert {ae for ae in atoms(x) if type(ae) is Var} <= bound


def test_vars_and_exps_equal_only_themselves():
    v = Var("x", 3)
    assert v == v and {v: 1}[v] == 1
    assert v != Var("x", 3) and Var("x", 3) not in {v: 1}
    e1, e2 = parse_and_normalize("(+ 1 2)"), parse_and_normalize("(+ 1 2)")
    assert alpha_equiv(e1, e2) and e1 == e1 and e1 != e2


def test_syntax_nodes_are_immutable():
    e = parse_and_normalize("(let* ((f (lambda (x) x))) (f (f 1)))")
    aes = [a for x in walk(e) for a in atoms(x)]
    assert all(isinstance(a, (Var, Lambda, int, str)) for a in aes)
    nodes = walk(e) + binders(e)
    nodes += [a for a in aes if isinstance(a, Frozen)]
    for x in nodes:
        for field in [*fields(x), "label", "new_field"]:
            with pytest.raises(AttributeError):
                setattr(x, field, None)
        for field in fields(x):
            with pytest.raises(AttributeError):
                delattr(x, field)


def test_free_vars_of_fig1_f_body():
    # after define-resolution and primitive resolution the body of f
    # references exactly f (recursion) and n
    e = bench.load("fig1")
    lams = [a for x in walk(e) for a in atoms(x) if isinstance(a, Lambda)]
    f_lam = next(lam for lam in lams if lam.param.name == "n")
    names = {v.name for v in f_lam.body.free}
    assert "f" in names and "n" in names
    assert names <= {"f", "n"}


def test_cond_desugars_to_if():
    e = parse_and_normalize("(lambda (n) (cond [(<= n 1) 1] [else 2]))")
    assert any(isinstance(x, If) for x in walk(e))


def test_let_binds_in_parallel_let_star_in_sequence():
    # let's right-hand sides see the enclosing x, not the x bound beside them
    e = parse_and_normalize("(let ((x 1)) (let ((x #t) (y x)) (+ y 1)))")
    assert run(e)[1] == ("halt", 2)
    e = parse_and_normalize("(let* ((x 1) (x #t) (y x)) (not y))")
    assert run(e)[1] == ("halt", False)
    e = parse_and_normalize("(let* ((x 1) (x 2)) x)")  # let* may rebind
    assert run(e)[1] == ("halt", 2)


def test_let_rejects_a_repeated_name():
    with pytest.raises(ParseError, match="duplicate let binding 'x'"):
        parse_program("(let ((x 1) (x 2)) x)")


@pytest.mark.parametrize("src, msg", [
    ("(lambda (x x) x)", "duplicate parameter 'x'"),
    ("(lambda (x y x) y)", "duplicate parameter 'x'"),
    ("(define (f x x) x) (f 1 2)", "duplicate parameter 'x'"),
    ("(define (f . x) x) 1", "'.' is not a name"),
    ("(lambda (. x) x)", "'.' is not a name"),
    ("(define (. x) x) 1", "'.' is not a name"),
    ("(define . (lambda (x) x)) 1", "'.' is not a name"),
    ("(let ((. 1)) 2)", "'.' is not a name"),
    ("(let* ((x 1) (. 2)) x)", "'.' is not a name"),
    ("(define (f (x)) x) 1", "bad parameter"),
])
def test_repeated_parameters_and_dot_names_are_refused(src, msg):
    with pytest.raises(ParseError, match=msg):
        parse_program(src)


@pytest.mark.parametrize("src, name", [
    ("(let ((1 5)) 1)", "1"),
    ("(let* ((x 1) (#t 5)) x)", "#t"),
    ("(let* ((1 5)) 1)", "1"),
    ("(define 7 (lambda (x) x)) 1", "7"),
    ("(define (#f x) x) 1", "#f"),
])
def test_a_literal_is_not_a_name(src, name):
    """A literal always reads as itself, so binding one could never be
    referenced."""
    with pytest.raises(ParseError, match=f"'{name}' is not a name"):
        parse_program(src)


@pytest.mark.parametrize("src, name, value", [
    ("(let ((+ (lambda (x) x))) (+ 1))", "+", 1),
    ("(define (not x) x) (not #t)", "not", True),
    ("(define (rec f) f) (rec 3)", "rec", 3),
])
def test_a_bound_primitive_name_is_a_variable(src, name, value):
    """A primitive is its name, a str; the same name bound by the program
    is a Var, also where it meets the `rec` a define lowers to."""
    e = parse_and_normalize(src)
    funs = [x.fun for x in walk(e) if isinstance(x, TailCall)]
    assert any(type(f) is Var and f.name == name for f in funs)
    assert [f for f in funs if type(f) is str] == ["rec"] * src.count("define")
    outcome = run(e)[1]
    assert outcome == ("halt", value) and type(outcome[1]) is type(value)
    assert alpha_equiv(e, parse_and_normalize(print_anf(e)))
    for k in (0, 1):
        policy = policy_for_k(k)
        for kind in ANALYSES:
            r = run_one(kind, e, policy)
            assert r.saturated, (kind, k)
            assert coverage_violations(e, policy, r)[0] == 0, (kind, k)


def test_a_parameter_may_shadow_its_function():
    e = parse_and_normalize("(define (f f) f) (f 7)")
    assert run(e)[1] == ("halt", 7)


@pytest.mark.parametrize("src", ["'x", "'(1 2)", "(+ 1 'x)", "(f '())"])
def test_quote_is_reported_unsupported(src):
    with pytest.raises(ParseError, match="quote is not supported"):
        parse_program(src)


def _shape(sx):
    """An SExpr as (span, atom), or (span, [item shapes]) for a list."""
    if sx.is_atom:
        return (sx.span, sx.atom)
    return (sx.span, [_shape(x) for x in sx.items])


# a column counts characters from the line's start: a tab or \r is one
READS = [
    ("\t(f\r\n\tx)", [((1, 2), [((1, 3), "f"), ((2, 2), "x")])]),
    ("  \t\r\n \ty", [((2, 3), "y")]),
    ("(a\vb c\f)", [((1, 1), [((1, 2), "a\vb"), ((1, 6), "c\f")])]),
    ("x ; note", [((1, 1), "x")]),
    ("x;c(\n[y]", [((1, 1), "x"), ((2, 1), [((2, 2), "y")])]),
    ("(λ\t1)", [((1, 1), [((1, 2), "λ"), ((1, 4), "1")])]),
    ("a'b \v'c", [((1, 1), "a'b"), ((1, 5), "\v'c")]),
    ("", []),
]


@pytest.mark.parametrize("text, shapes", READS)
def test_read_sexprs_spans(text, shapes):
    assert [_shape(sx) for sx in read_sexprs(text)] == shapes


@pytest.mark.parametrize("text, span, msg", [
    ("[a)", (1, 3), "mismatched bracket"),
    ("\t'x", (1, 2), "quote is not supported"),
    ("(\t(\r\n", (1, 3), "unclosed parenthesis"),
    ("x\r\n\t)", (2, 2), "unexpected closing bracket"),
    ("; c\n(a] ;", (2, 3), "mismatched bracket"),
])
def test_read_sexprs_errors(text, span, msg):
    with pytest.raises(ParseError) as ei:
        read_sexprs(text)
    assert (ei.value.span, ei.value.message) == (span, msg)


REJECTIONS = [
    (")", (1, 1), "unexpected closing bracket"),
    ("(f\n  x]", (2, 4), "mismatched bracket"),
    ("(lambda x x)", (1, 1), "lambda expects (lambda (params...) body)"),
    ("(lambda () 1)", (1, 1), "lambdas take at least one parameter"),
    ("(let x 1)", (1, 1), "let expects (let (bindings) body)"),
    ("(let ((x)) 1)", (1, 7), "bad let binding"),
    ("(cond\n (#t))", (2, 2), "cond clause expects (test expr)"),
    ("(+ 1 (define x 1))", (1, 6), "define only allowed at top level"),
    ("1\n  2", (2, 3), "multiple top-level expressions"),
    ("1 (define (f x) x)", (1, 3), "define after top expression"),
    ("(define f)", (1, 1), "define expects 2 parts"),
    ("(define (f x) x) (f)", (1, 18), "application needs an argument"),
    # `else` is a keyword only as a cond clause's test
    ("(else)", (1, 2), "misplaced keyword 'else'"),
    ("(else 1)", (1, 2), "misplaced keyword 'else'"),
    ("(if (else) 1 2)", (1, 6), "misplaced keyword 'else'"),
    ("(define f 1) 1", (1, 11), "define value must be a lambda"),
    ("(define () 1) 1", (1, 9), "bad define signature"),
    ("(define (f) 1) 1", (1, 9), "define needs at least one parameter"),
    ("(define (f x) x)\n(define (f y) y) (f 1)", (2, 1),
     "duplicate define 'f'"),
    # a keyword always reads as its form: binding one is refused at the binder
    ("(let ((if 1)) if)", (1, 8), "'if' is not a name"),
    ("(let ((cond (lambda (x) x))) (cond 1))", (1, 8), "'cond' is not a name"),
    ("(let* ((x 1) (let* 2)) x)", (1, 15), "'let*' is not a name"),
    ("(lambda (x else) x)", (1, 12), "'else' is not a name"),
    ("(define (f and) and) (f 1)", (1, 12), "'and' is not a name"),
    ("(define (lambda x) x) (lambda 1)", (1, 10), "'lambda' is not a name"),
    ("(define or (lambda (x) x)) (or 1)", (1, 9), "'or' is not a name"),
]


@pytest.mark.parametrize("src, span, msg", REJECTIONS,
                         ids=[m for _, _, m in REJECTIONS])
def test_front_end_rejection_names_its_place(src, span, msg):
    with pytest.raises(ParseError) as ei:
        parse_program(src)
    assert (ei.value.span, ei.value.message) == (span, msg)


# ---------------------------------------------------------------------------
# depth: the front end keeps its stacks on the heap


def _chain(n):
    """The benchmark's chain shape: a let* of n calls through one closure."""
    binds = ["(f (lambda (x) x))", "(v0 (f 0))"]
    binds += [f"(v{i} (f v{i - 1}))" for i in range(1, n)]
    return "(let* (" + "\n".join(binds) + f")\n  v{n - 1})"


@pytest.mark.parametrize("src, lets", [
    (_chain(10_000), 10_000),
    ("(+ 1 " * 1_000 + "0" + ")" * 1_000, 1_999),
], ids=["let*-chain-10000", "nested-plus-1000"])
def test_deep_programs_parse_normalize_print_and_reparse(src, lets):
    assert sys.getrecursionlimit() <= 1_000  # no frame per level of depth
    e = parse_and_normalize(src)
    assert count_let1(e) == lets
    assert alpha_equiv(e, parse_and_normalize(print_anf(e)))


def test_reader_reads_deep_nesting():
    n = 100_000
    (sx,) = read_sexprs("(" * n + "x" + ")" * n)
    depth = 0
    while not sx.is_atom:
        (sx,) = sx.items
        depth += 1
    assert depth == n and sx.atom == "x"


# ---------------------------------------------------------------------------
# generated programs


def _outcome(e):
    n, outcome = run(e, fuel=2_000)
    if outcome[0] == "halt" and not isinstance(outcome[1], (int, bool)):
        outcome = ("halt", type(outcome[1]).__name__)  # a Clo or a PrimVal
    return n, outcome


@settings(derandomize=True, max_examples=150, deadline=None)
@given(surface_programs())
def test_generated_programs_normalize_and_reparse(src):
    note(src)
    e = parse_and_normalize(src)
    assert e.free == frozenset()
    labels = [x.label for x in walk(e)]
    assert len(labels) == len(set(labels))
    bs = binders(e)
    assert len(bs) == len(set(bs))
    e2 = parse_and_normalize(print_anf(e))
    assert alpha_equiv(e, e2)
    assert _outcome(e) == _outcome(e2)
