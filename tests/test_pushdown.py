"""Stack-action algebra and pushdown reachability, on hand-built systems."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcfa.pushdown import (
    Pop,
    Push,
    RPDSOracle,
    UNCH,
    Worklist,
    compact_worklist,
)

from helpers import compact_naive, net, stackify


# ---------------------------------------------------------------------------
# net / stackify

actions = st.lists(
    st.one_of(
        st.just(UNCH),
        st.sampled_from("abc").map(Push),
        st.sampled_from("abc").map(Pop),
    ),
    max_size=12,
)


def test_actions_compare_by_kind_and_frame():
    fr = ("frame", frozenset({1}))
    assert Push(fr) == Push(("frame", frozenset({1}))) != Pop(fr)
    assert Pop(fr) == Pop(fr) and Push("a") != Push("b")
    assert Push(fr) != fr and Pop(fr) != UNCH
    assert hash(Push(fr)) == hash(Push(fr)) and hash(Pop("a")) == hash(Pop("a"))
    assert len({Push("a"), Push("a"), Pop("a"), Pop("a"), Push("b")}) == 3
    for act in (Push("a"), Pop("a")):
        for field in ("frame", "new_field"):
            with pytest.raises(AttributeError):
                setattr(act, field, None)


def test_net_cancels_matched_push_pop():
    assert net([Push("a"), Pop("a")]) == []
    assert net([Push("a"), Push("b"), Pop("b"), Pop("a")]) == []
    assert net([Push("a"), Pop("b")]) == [Push("a"), Pop("b")]


def test_net_drops_unch():
    assert net([UNCH, Push("a"), UNCH, UNCH]) == [Push("a")]
    assert net([UNCH]) == []


@given(actions)
def test_net_idempotent(xs):
    assert net(net(xs)) == net(xs)


@given(actions, actions)
def test_net_concatenation_law(xs, ys):
    assert net(xs + ys) == net(net(xs) + net(ys))


def test_stackify_examples():
    assert stackify([]) == ()
    assert stackify([Push("a"), Push("b")]) == ("b", "a")  # top first
    assert stackify([Push("a"), Pop("a"), Push("b")]) == ("b",)
    assert stackify([Pop("a")]) is None
    assert stackify([Push("a"), Pop("b")]) is None


@given(actions)
def test_stackify_defined_iff_push_only_net(xs):
    n = net(xs)
    s = stackify(xs)
    if any(isinstance(a, Pop) for a in n):
        assert s is None
    else:
        assert s == tuple(reversed([a.frame for a in n]))


# ---------------------------------------------------------------------------
# oracles from transition tables


def table_oracle(root, nops, pops):
    """nops: q -> [(q2, act)]; pops: (q, frame) -> [(q2, Pop(frame))]."""
    return RPDSOracle(
        root=root,
        nop_delta=lambda q, e: list(nops.get(q, ())),
        top_delta=lambda q, g, e: list(pops.get((q, g), ())),
    )


def both(oracle):
    gn, en, sn = compact_naive(oracle, depth_bound=8, step_bound=100_000)
    gw, ew, sw = compact_worklist(oracle)
    assert sn and sw
    return (gn, en), (gw, ew)


def test_root_with_no_transitions():
    oracle = table_oracle("r", {}, {})
    g, e, sat = compact_worklist(oracle)
    assert sat
    assert set(g.nodes) == {"r"}
    assert not g.edges
    assert set(e.pairs) == {("r", "r")}


def test_push_eps_pop_chain():
    # a --push γ--> b --ε--> c --pop γ--> d
    nops = {"a": [("b", Push("g"))], "b": [("c", UNCH)]}
    pops = {("c", "g"): [("d", Pop("g"))]}
    (gn, en), (gw, ew) = both(table_oracle("a", nops, pops))
    for g, e in ((gn, en), (gw, ew)):
        assert set(g.nodes) == {"a", "b", "c", "d"}
        assert set(g.edges) == {
            ("a", Push("g"), "b"),
            ("b", UNCH, "c"),
            ("c", Pop("g"), "d"),
        }
        assert ("b", "c") in e.pairs
        assert ("a", "d") in e.pairs  # push..pop balances out
    assert set(en.pairs) == set(ew.pairs)


def test_pop_without_matching_push_is_infeasible():
    # root's only would-be successor needs γ on top of an empty stack
    pops = {("a", "g"): [("b", Pop("g"))]}
    (gn, _), (gw, ew) = both(table_oracle("a", {}, pops))
    assert set(gn.nodes) == set(gw.nodes) == {"a"}
    assert not gw.edges
    assert set(ew.pairs) == {("a", "a")}


def test_eps_self_loop_terminates():
    nops = {"a": [("a", UNCH)]}
    g, e, sat = compact_worklist(table_oracle("a", nops, {}))
    assert sat
    assert set(g.edges) == {("a", UNCH, "a")}
    assert set(e.pairs) == {("a", "a")}


def test_mismatched_frame_pop_not_taken():
    nops = {"a": [("b", Push("g1"))]}
    pops = {("b", "g2"): [("c", Pop("g2"))]}
    (gn, _), (gw, ew) = both(table_oracle("a", nops, pops))
    assert "c" not in gw.nodes
    assert "c" not in gn.nodes
    assert ("a", "c") not in ew.pairs


def test_push_pop_diamond():
    # two differently framed pushes into the same state, popped apart again
    nops = {"a": [("b", Push("g1")), ("b", Push("g2"))]}
    pops = {
        ("b", "g1"): [("c", Pop("g1"))],
        ("b", "g2"): [("d", Pop("g2"))],
    }
    (gn, en), (gw, ew) = both(table_oracle("a", nops, pops))
    for g, e in ((gn, en), (gw, ew)):
        assert set(g.nodes) == {"a", "b", "c", "d"}
        pairs = e.pairs
        assert ("a", "c") in pairs and ("a", "d") in pairs
        assert ("a", "b") not in pairs
    assert set(gn.edges) == set(gw.edges)
    assert set(en.pairs) == set(ew.pairs)


def test_ecg_reflexive_and_transitive_at_fixpoint():
    nops = {"a": [("b", UNCH)], "b": [("c", UNCH)]}
    g, e, sat = compact_worklist(table_oracle("a", nops, {}))
    assert sat
    pairs = e.pairs
    for q in g.nodes:
        assert (q, q) in pairs
    assert ("a", "b") in pairs and ("b", "c") in pairs and ("a", "c") in pairs


def test_nested_push_pop_balances_through_inner_pair():
    # a pushes γ1, b pushes γ2, c pops γ2, d pops γ1  ⇒  (a, e) balanced
    nops = {"a": [("b", Push("g1"))], "b": [("c", Push("g2"))]}
    pops = {
        ("c", "g2"): [("d", Pop("g2"))],
        ("d", "g1"): [("e", Pop("g1"))],
    }
    (gn, en), (gw, ew) = both(table_oracle("a", nops, pops))
    for e in (en, ew):
        pairs = e.pairs
        assert ("b", "d") in pairs
        assert ("a", "e") in pairs
        assert ("a", "d") not in pairs  # still one frame deep
    assert set(gn.edges) == set(gw.edges)


# ---------------------------------------------------------------------------
# naive vs worklist on random systems (the acceptance suite runs many more)


def random_oracle(rng, n_states=6, n_frames=2, n_nops=8, n_pops=6):
    states = list(range(n_states))
    frames = [f"g{i}" for i in range(n_frames)]
    nops, pops = {}, {}
    for _ in range(n_nops):
        q, q2 = rng.choice(states), rng.choice(states)
        act = UNCH if rng.random() < 0.5 else Push(rng.choice(frames))
        nops.setdefault(q, []).append((q2, act))
    for _ in range(n_pops):
        q, q2, g = rng.choice(states), rng.choice(states), rng.choice(frames)
        pops.setdefault((q, g), []).append((q2, Pop(g)))
    # dedup, keep order stable
    for k in nops:
        nops[k] = list(dict.fromkeys(nops[k]))
    for k in pops:
        pops[k] = list(dict.fromkeys(pops[k]))
    return table_oracle(0, nops, pops)


def test_random_systems_agree():
    rng = random.Random(20260826)
    compared = 0
    for _ in range(40):
        oracle = random_oracle(rng)
        gn, en, sn = compact_naive(oracle, depth_bound=7, step_bound=200_000)
        if not sn:
            continue  # bound hit: naive result not exact, nothing to compare
        gw, ew, sw = compact_worklist(oracle)
        assert sw
        assert set(gn.nodes) == set(gw.nodes)
        assert set(gn.edges) == set(gw.edges)
        assert set(en.pairs) == set(ew.pairs)
        compared += 1
    assert compared >= 20


def test_worklist_resumes_after_transitions_grow():
    # saturate on every other transition of a random system, reveal the
    # rest, re-step every node: the resumed run must reach the fixed point
    # of a fresh run on the full system
    rng = random.Random(20261017)
    grew = 0
    for _ in range(40):
        full = random_oracle(rng)
        hidden = [True]

        def part(out):
            return out[::2] if hidden[0] else out

        wl = Worklist(RPDSOracle(
            root=full.root,
            nop_delta=lambda q, e: part(full.nop_delta(q, e)),
            top_delta=lambda q, g, e: part(full.top_delta(q, g, e)),
        ))
        assert wl.run()
        edges_before = len(wl.graph.edges)
        hidden[0] = False
        for q in list(wl.graph.nodes):
            wl.restep(q)
        assert wl.run()
        gw, ew, sw = compact_worklist(full)
        assert sw
        assert set(wl.graph.nodes) == set(gw.nodes)
        assert set(wl.graph.edges) == set(gw.edges)
        assert set(wl.ecg.pairs) == set(ew.pairs)
        grew += len(wl.graph.edges) > edges_before
    assert grew >= 20


def test_restep_finds_root_entries_in_paths_and_indexes_the_rest():
    # r --ε--> a --push g--> b; d is stepped under the root and then
    # under b, e under b and then under the root, a under the root alone.
    # Both callbacks are told the entry their state is stepped under.
    nops = {"r": [("a", UNCH)],
            "a": [("b", Push("g")), ("d", UNCH), ("x", UNCH)],
            "b": [("d", UNCH), ("e", UNCH)], "x": [("e", UNCH)]}
    stepped, popped = [], []

    def nop_delta(q, e):
        stepped.append((q, e))
        return list(nops.get(q, ()))

    def top_delta(q, gamma, e):
        popped.append((q, gamma, e))
        return []
    wl = Worklist(RPDSOracle("r", top_delta, nop_delta))
    assert wl.run()
    assert stepped == [("r", "r"), ("a", "r"), ("b", "b"), ("d", "r"),
                       ("x", "r"), ("d", "b"), ("e", "b"), ("e", "r")]
    assert popped == [("b", "g", "b"), ("d", "g", "b"), ("e", "g", "b")]
    assert {q: list(es) if type(es) is dict else es
            for q, es in wl._entries.items()} == {
        "b": "b", "d": ["r", "b"], "e": ["b", "r"]}
    # a's moves grow: one restep queues it once, a second finds it waiting
    nops["a"].append(("c", UNCH))
    wl.restep("a")
    wl.restep("a")
    assert list(wl._work) == [("a", "r")]
    wl.restep("e")  # under each of its entries, in the order first stepped
    wl.restep("y")  # never stepped: nothing to redo
    assert list(wl._work) == [("a", "r"), ("e", "b"), ("e", "r")]
    stepped.clear()
    assert wl.run()
    assert [q for q, _ in stepped] == ["a", "e", "e", "c"]
    assert ("a", UNCH, "c") in wl.graph.edges and "c" in wl.graph.paths["r"]
    assert "a" not in wl._entries and "c" not in wl._entries
    # a restep under one entry queues that pair once, and d stays stepped
    # under its other entry
    wl.restep("d", "b")
    wl.restep("d", "b")
    assert list(wl._work) == [("d", "b")]
    assert "d" in wl.graph.paths["r"] and "d" not in wl.graph.paths["b"]
    stepped.clear()
    popped.clear()
    assert wl.run()
    assert stepped == [("d", "b")] and popped == [("d", "g", "b")]


# ---------------------------------------------------------------------------
# seeded differential test: the engine against the configuration search


@st.composite
def systems(draw):
    """A random RPDS over ≤ 8 states and ≤ 3 frames, and which of its
    transitions start hidden."""
    n = draw(st.integers(1, 8))
    frames = [f"g{i}" for i in range(draw(st.integers(1, 3)))]
    state = st.integers(0, n - 1)
    rules = draw(st.lists(
        st.tuples(state, state, st.sampled_from(("eps", "push", "pop")),
                  st.sampled_from(frames), st.booleans()),
        max_size=16, unique_by=lambda t: t[:4]))
    return rules


def system_oracle(rules, reveal):
    """The oracle of `rules`, less the hidden ones until reveal[0]."""
    def shown(rule):
        return reveal[0] or not rule[4]

    def nop_delta(q, e):
        return [(q2, UNCH if kind == "eps" else Push(g))
                for rule in rules if shown(rule)
                for (q1, q2, kind, g, _) in [rule]
                if q1 == q and kind != "pop"]

    def top_delta(q, gamma, e):
        return [(q2, Pop(g)) for rule in rules if shown(rule)
                for (q1, q2, kind, g, _) in [rule]
                if q1 == q and kind == "pop" and g == gamma]
    return RPDSOracle(0, top_delta, nop_delta)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systems())
def test_engine_matches_naive_and_resumes(rules):
    full = system_oracle(rules, [True])
    gw, ew, sw = compact_worklist(full)
    assert sw
    gn, en, sn = compact_naive(full, depth_bound=8, step_bound=20_000)
    if sn:
        assert set(gn.nodes) == set(gw.nodes)
        assert set(gn.edges) == set(gw.edges)
        assert set(en.pairs) == set(ew.pairs)
        assert ew.pair_count() == len(ew.pairs)
    # saturate on the shown part, reveal the rest, re-step every node
    reveal = [False]
    wl = Worklist(system_oracle(rules, reveal))
    assert wl.run()
    reveal[0] = True
    for q in list(wl.graph.nodes):
        wl.restep(q)
    assert wl.run()
    assert set(wl.graph.nodes) == set(gw.nodes)
    assert set(wl.graph.edges) == set(gw.edges)
    assert set(wl.ecg.pairs) == set(ew.pairs)
