"""The graph layer's scaled-integer core against a Fraction reference.

Costs, distances, outside options and the planners' DPs run in Python ints
over one common denominator, `TaskGraph.scale`. The references here are
written out in `Fraction`s and share no code with the package: distances by
backward relaxation in index order, perceived costs by b*c + d, and path
costs by summing the drawn edge costs.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkwise import (
    BiasProfile,
    BudgetSpec,
    TaskGraph,
    best_alternative,
    chunk_graph_global,
    chunk_graph_local,
    load_graph,
    save_graph,
    shortest_to_sink,
    two_agent_plan,
)
from chunkwise.edge_chunk import edge_context
from chunkwise.errors import DeadEnd, InvalidParams, NegativeCost, ParseError
from chunkwise.rational import format_rat, rat

F = Fraction
BIG_PRIMES = (10**6 + 3, 10**6 + 33, 999_983)

small_cost = st.builds(F, st.integers(0, 40), st.integers(1, 12))
big_cost = st.builds(F, st.integers(0, 10**8), st.sampled_from(BIG_PRIMES))
cost = st.one_of(st.just(F(0)), small_cost, small_cost, big_cost)
# Biases above 1 with small or large coprime denominators.
bias = st.builds(
    lambda n, d: 1 + F(n, d), st.integers(1, 30), st.sampled_from((1, 2, 3, 7, 12, *BIG_PRIMES))
)
diagnostic_bias = st.builds(F, st.integers(1, 40), st.sampled_from((1, 2, 5, 12, 10**6 + 3)))


@contextmanager
def counting_fractions():
    """Record the arguments of every Fraction built inside the block."""
    made = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    with mock.patch.object(F, "__new__", counting):
        yield made


def reference(names, costs):
    """Fraction distances to the sink and least-head successors; names is a
    topological order, costs maps (u, v) to a Fraction."""
    dist = {names[-1]: F(0)}
    succ = {}
    for u in reversed(names[:-1]):
        best = min((c + dist[v], v) for (a, v), c in costs.items() if a == u)
        dist[u], succ[u] = best
    return dist, succ


@st.composite
def graphs(draw, b=None, max_vertices=7):
    """(names, costs): a connected DAG on shuffled letter names (so the
    lexicographic tie-break differs from the topological order), with mixed
    denominators, zero costs and ties forced at some vertices.

    A vertex flagged "dist" gets an out-edge costed to tie its cheapest
    route to the sink; one flagged "perceived" (needs b) gets one costed to
    tie its least perceived cost b*c + d.
    """
    n = draw(st.integers(2, max_vertices))
    names = draw(st.permutations("abcdefghij"))[:n]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keeps = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = {p for p, keep in zip(pairs, keeps) if keep}
    for i in range(n - 1):  # every vertex reaches the sink
        if not any(a == i for a, _ in chosen):
            chosen.add((i, i + 1))
    for j in range(1, n):  # and is reached from the source
        if not any(c == j for _, c in chosen):
            chosen.add((j - 1, j))
    costs = {(names[i], names[j]): draw(cost) for i, j in sorted(chosen)}
    dist = {names[-1]: F(0)}
    ties = ("none", "dist") if b is None else ("none", "dist", "perceived")
    for u in reversed(names[:-1]):
        out = sorted(v for a, v in costs if a == u)
        tie = draw(st.sampled_from(ties)) if len(out) > 1 else "none"
        if tie == "dist":
            best = min(costs[(u, v)] + dist[v] for v in out)
            for v in out:
                if costs[(u, v)] + dist[v] > best >= dist[v]:
                    costs[(u, v)] = best - dist[v]
                    break
        elif tie == "perceived":
            best = min(b * costs[(u, v)] + dist[v] for v in out)
            for v in out:
                if b * costs[(u, v)] + dist[v] > best >= dist[v]:
                    costs[(u, v)] = (best - dist[v]) / b
                    break
        dist[u] = min(costs[(u, v)] + dist[v] for v in out)
    return names, costs


def build(names, costs):
    return TaskGraph(names, [(u, v, c) for (u, v), c in costs.items()], names[0], names[-1])


@settings(max_examples=300, deadline=None)
@given(graphs())
# s reaches t at cost 1 through y and through x: the least head, x, wins.
@example(
    (
        ("s", "y", "x", "t"),
        {("s", "x"): F(1, 2), ("s", "y"): F(1, 3), ("x", "t"): F(1, 2), ("y", "t"): F(2, 3)},
    )
)
def test_scaled_costs_and_distances_match_fractions(drawn):
    names, costs = drawn
    g = build(names, costs)
    text = save_graph(g)
    with counting_fractions() as made:
        loaded = load_graph(text)
    assert made == []  # each cost is parsed straight into the scaled adjacency
    assert g.scale == loaded.scale == lcm(*(c.denominator for c in costs.values()))
    for u in names:
        out = sorted((v, c) for (a, v), c in costs.items() if a == u)
        assert g.scaled_out_edges(u) == loaded.scaled_out_edges(u)
        assert g.scaled_out_edges(u) == tuple((v, c * g.scale) for v, c in out)
        assert all(type(c) is int for _, c in g.scaled_out_edges(u))
        for graph in (g, loaded):
            # The Fraction views are the scaled adjacency over the scale.
            scaled = graph.scaled_out_edges(u)
            assert graph.out_edges(u) == tuple((v, F(c, g.scale)) for v, c in scaled)
            assert all(graph.cost(u, v) == F(c, g.scale) for v, c in scaled)
            assert all(type(c) is F for _, c in graph.out_edges(u))
            assert all(type(graph.cost(u, v)) is F for v, _ in scaled)
    for graph in (g, loaded):
        assert graph.edges == tuple(
            (u, v, F(c, g.scale)) for u in sorted(names) for v, c in graph.scaled_out_edges(u)
        )
        assert [(u, v) for u, v, _ in graph.edges] == sorted(costs)
        assert all(type(c) is F for _, _, c in graph.edges)
    dist, succ = reference(names, costs)
    got = shortest_to_sink(g)
    assert got.scale == g.scale
    assert {v: got[v] for v in names} == dist and dict(got.successor) == succ
    assert all(type(got[v]) is F for v in names)
    assert {v: F(n, g.scale) for v, n in got.scaled.items()} == dist
    assert all(type(n) is int for n in got.scaled.values())


@st.composite
def profiles(draw):
    """(names, costs, profile): a graph with ties forced at the profile's
    bias, which is diagnostic (possibly at most 1) half the time."""
    diagnostic = draw(st.booleans())
    b = draw(diagnostic_bias if diagnostic else bias)
    names, costs = draw(graphs(b=b))
    return names, costs, BiasProfile(b, diagnostic=diagnostic)


@settings(max_examples=300, deadline=None)
@given(profiles())
def test_best_alternative_and_outside_option_match_fractions(drawn):
    names, costs, profile = drawn
    g = build(names, costs)
    dist = shortest_to_sink(g)
    ref, _ = reference(names, costs)
    for u in names[:-1]:
        out = sorted(v for a, v in costs if a == u)
        for skip in (None, *out):
            scored = [
                (profile.default * costs[(u, v)] + ref[v], v)
                for v in out
                if v != skip
            ]
            if not scored:
                with pytest.raises(DeadEnd):
                    best_alternative(g, dist, profile, u, exclude_head=skip)
                continue
            val, head = min(scored)
            got = best_alternative(g, dist, profile, u, exclude_head=skip)
            assert got == (head, val) and type(got[1]) is F
            if skip is not None:
                outside = min((costs[(u, v)] + ref[v] for v in out if v != skip), default=None)
                assert edge_context(g, dist, (u, skip)).outside == outside


def test_distances_of_another_scale_are_refused():
    halves = TaskGraph(["s", "t"], [("s", "t", F(1, 2))], "s", "t")
    thirds = TaskGraph(["s", "t"], [("s", "t", F(1, 3))], "s", "t")
    with pytest.raises(InvalidParams, match="scaled"):
        best_alternative(thirds, shortest_to_sink(halves), BiasProfile(F(2)), "s")
    with pytest.raises(InvalidParams, match="scaled"):
        edge_context(thirds, shortest_to_sink(halves), ("s", "t"))


def path_cost(costs, path):
    return sum((costs[e] for e in zip(path, path[1:])), F(0))


@settings(max_examples=60, deadline=None)
@given(
    graphs(max_vertices=6),
    st.sampled_from((F(2), F(3, 2), F(7, 4), 1 + F(1, 10**6 + 3))),
    st.integers(1, 3),
)
def test_planned_costs_match_the_fraction_path_costs(drawn, b, k):
    names, costs = drawn
    g = build(names, costs)
    for plan, _ in (chunk_graph_local(g, b, k), chunk_graph_global(g, b, k)):
        (path,) = plan.planned_paths
        assert plan.predicted_cost == path_cost(costs, path)
        assert type(plan.predicted_cost) is F
    for mode in ("local", "global"):
        plan, _ = two_agent_plan(g, b, 2 * b, BudgetSpec(mode, k))
        assert plan.predicted_cost == sum(path_cost(costs, p) for p in plan.planned_paths)


def one_edge(cost_text) -> str:
    edges = [{"from": "s", "to": "t", "cost": cost_text}]
    return json.dumps({"vertices": ["s", "t"], "edges": edges, "source": "s", "sink": "t"})


CAP = 4300  # the most digits a cost's numerator or denominator may have


def grammar_reference(text: str):
    """The README's cost grammar as one regex, valued by Fraction's own
    parser: the cost a literal denotes, or None where the grammar rejects it.
    A decimal's numerator is its digits on both sides of the point."""
    text = text.strip()
    m = re.fullmatch(r"[+-]?([0-9]+)(?:\.([0-9]+)|/([0-9]+))?", text)
    if m is None:
        return None
    whole, frac, den = m.groups(default="")
    if len(whole + frac) > CAP or len(den) > CAP or (den and not den.strip("0")):
        return None
    return F(text)


@settings(max_examples=500, deadline=None)
# "\u00b2" (superscript two) passes str.isdigit() but int() refuses it;
# "\u00a0" (no-break space) is whitespace that str.strip() removes.
@given(st.text(alphabet="0123456789/.-+_eE \t٣\u00b2\u00a0", max_size=12))
@example(" 3/4 ")
@example("\u00a03/4\u00a0")
@example("\u00b2")
@example("3/\u00b2")
@example("007/010")
@example("1/0")
@example("0/000")
@example("3/-4")
@example("+3")
@example("-0")
@example("0/7")
@example("/4")
@example("4/")
@example("")
@example("1.5.2")
@example("1/2.5")
@example("1.5/2")
@example(".5")
@example("5.")
@example("1_000")
@example("٣")
@example("1e5")
@example("1E5")
@example("1e9999999")
@example("-1e9999999")
@example("1" * CAP)
@example("1" * (CAP + 1))
@example("-" + "9" * CAP)
@example("1/" + "3" * CAP)
@example("1/" + "3" * (CAP + 1))
@example("1." + "0" * (CAP - 1))
@example("1." + "0" * CAP)
@example("0." + "3" * (CAP - 1))  # its lowest terms have CAP digits below the bar
def test_load_graph_accepts_exactly_what_rat_accepts(text):
    # rat and load_graph both follow the regex reference: what it rejects
    # raises ValueError from rat and ParseError from load_graph, and a
    # negative value raises NegativeCost.
    value = grammar_reference(text)
    if value is None:
        with pytest.raises(ValueError, match="not an exact rational"):
            rat(text)
        with pytest.raises(ParseError, match=r"edges\[0\]\.cost: not an exact rational"):
            load_graph(one_edge(text))
        return
    assert rat(text) == value and type(rat(text)) is F
    assert rat(format_rat(value)) == value  # every accepted value renders and reparses
    if value < 0:
        with pytest.raises(NegativeCost):
            load_graph(one_edge(text))
        return
    g = load_graph(one_edge(text))
    assert g.cost("s", "t") == value and type(g.cost("s", "t")) is F
    assert g.scale == value.denominator and dict(g.scaled_out_edges("s"))["t"] == value.numerator


@pytest.mark.parametrize(
    "text, value",
    [
        (" 3/4 ", F(3, 4)),
        ("007/010", F(7, 10)),
        ("1_000", ParseError),
        ("٣", ParseError),
        (12, F(12)),
        ("74.1", F(741, 10)),
        (".5", ParseError),
        ("5.", ParseError),
        ("1e5", ParseError),
    ],
)
def test_load_graph_pinned_costs(text, value):
    if value is ParseError:
        with pytest.raises(ParseError, match="expected an optional sign"):
            load_graph(one_edge(text))
    else:
        assert load_graph(one_edge(text)).cost("s", "t") == value


@pytest.mark.parametrize("text", ["1e9999999", "-1e9999999"])
def test_a_huge_exponent_is_refused_at_once(text):
    # Fraction's own parser took about 11 s to compute 10**9999999 here.
    started = time.perf_counter()
    with pytest.raises(ParseError):
        load_graph(one_edge(text))
    assert time.perf_counter() - started < 1


def test_a_json_integer_cost_past_the_digit_limit_is_a_parse_error():
    # json.loads reads it with int(), which refuses over 4300 digits with a
    # bare ValueError; load_graph used to let that escape.
    with pytest.raises(ParseError, match="json: Exceeds the limit"):
        load_graph(one_edge("COST").replace('"COST"', "1" * (CAP + 1)))


def test_a_negative_cost_past_the_int_str_limit_raises_negative_cost():
    # The cost grammar caps literals below that limit, so only a Fraction
    # handed to TaskGraph directly reaches it. str() refuses ints over 4300
    # digits, so the message names the edge and the sign but no digits.
    with pytest.raises(NegativeCost, match=r"^edge \(s -> t\) has negative cost with too many"):
        TaskGraph(["s", "t"], [("s", "t", F(-(10**5000)))], "s", "t")
    with pytest.raises(NegativeCost, match=r"^edge \(s -> t\) has negative cost -1/3$"):
        TaskGraph(["s", "t"], [("s", "t", F(-1, 3))], "s", "t")
