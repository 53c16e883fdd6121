from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from chunkwise import (
    FanSpec,
    TaskGraph,
    graph_to_dot,
    load_graph,
    make_n_fan,
    random_task_graph,
    save_graph,
    shortest_to_sink,
    validate,
)
from chunkwise.errors import (
    CycleDetected,
    InvalidSpec,
    MissingSourceOrSink,
    NegativeCost,
    ParseError,
    SinkUnreachable,
    UnknownEdge,
)
from chunkwise.rational import RULE, format_rat, rat


def test_validate_two_vertex_chain():
    g = TaskGraph(["s", "t"], [("s", "t", "14")], "s", "t")
    assert validate(g) == ("s", "t")


def test_validate_s32_order_is_topological(s32):
    order = validate(s32)
    pos = {v: i for i, v in enumerate(order)}
    for u, v, _ in s32.edges:
        assert pos[u] < pos[v]
    assert validate(s32) is order  # kept on the immutable graph


def test_validate_cycle_detected(s32):
    g = TaskGraph(
        [*s32.vertices],
        [*((u, v, c) for u, v, c in s32.edges), ("t", "u", 1)],
        "u",
        "t",
    )
    for _ in range(2):  # a failed validation keeps nothing
        with pytest.raises(CycleDetected):
            validate(g)


def test_shortest_single_edge():
    g = TaskGraph(["s", "t"], [("s", "t", "14")], "s", "t")
    assert shortest_to_sink(g)["s"] == 14


def test_shortest_s32_distances(s32):
    dist = shortest_to_sink(s32)
    assert dist["u"] == 67
    assert dist["w"] == 2
    assert dist["v"] == Fraction("60.1")
    assert dist["z"] == 76
    assert dist.successor["u"] == "w"


def test_shortest_unreachable_vertex():
    g = TaskGraph(["s", "a", "t"], [("s", "t", 1), ("t", "a", 0)], "s", "t")
    with pytest.raises(SinkUnreachable, match=r"^no path to sink from: a$"):
        shortest_to_sink(g)
    # Every such vertex is named, in the graph's vertex order.
    g = TaskGraph(["s", "b", "a", "t"], [("s", "t", 1), ("s", "b", 1), ("b", "a", 1)], "s", "t")
    with pytest.raises(SinkUnreachable, match=r"^no path to sink from: b, a$"):
        shortest_to_sink(g)


def test_fan_smallest():
    g = make_n_fan(FanSpec(1, Fraction(2)))
    assert {(u, v): c for u, v, c in g.edges} == {
        ("v0", "v1"): 0,
        ("v0", "t"): 1,
        ("v1", "t"): 2,
    }


def test_fan_distances_are_exit_costs():
    c = Fraction(3, 2)
    g = make_n_fan(FanSpec(3, c))
    dist = shortest_to_sink(g)
    for i in range(4):
        assert dist[f"v{i}"] == c**i
    assert dist[g.source] == 1


def test_fan_invalid_spec():
    with pytest.raises(InvalidSpec):
        make_n_fan(FanSpec(0, Fraction(2)))
    with pytest.raises(InvalidSpec):
        make_n_fan(FanSpec(3, Fraction(1)))


def test_load_s32_fixture(s32_path, s32):
    g = load_graph(s32_path.read_bytes())
    assert len(g.vertices) == 5
    assert len(g.edges) == 6
    assert g.edges == s32.edges


def test_save_load_round_trip(s32):
    data = save_graph(s32)
    again = load_graph(data)
    assert again.edges == s32.edges
    assert save_graph(again) == data


def test_round_trip_random_graphs():
    rng = random.Random(5)
    for _ in range(25):
        g = random_task_graph(rng)
        h = load_graph(save_graph(g))
        assert h.edges == g.edges and h.vertices == g.vertices


def test_random_graphs_past_twenty_vertices():
    # Inner vertices are named a..r, then by number: never "s" or "t".
    rng = random.Random(6)
    for n in range(21, 41):
        g = random_task_graph(rng, min_vertices=n, max_vertices=n)
        assert len(g.vertices) == n
        assert g.vertices[:19] == ("s",) + tuple("abcdefghijklmnopqr")
        assert len(validate(g)) == n
        shortest_to_sink(g)


def test_decimal_cost_parses_exactly():
    g = load_graph(
        b'{"vertices":["s","t"],"edges":[{"from":"s","to":"t","cost":"0.1"}],'
        b'"source":"s","sink":"t"}'
    )
    assert g.cost("s", "t") == Fraction(1, 10)
    # A missing edge, and an edge from an unknown tail, are domain errors.
    with pytest.raises(UnknownEdge, match=r"^edge \(t -> s\) does not exist$"):
        g.cost("t", "s")
    with pytest.raises(UnknownEdge, match=r"^edge \(x -> t\) does not exist$"):
        g.cost("x", "t")


def test_negative_cost_rejected():
    with pytest.raises(NegativeCost):
        load_graph(
            b'{"vertices":["s","t"],"edges":[{"from":"s","to":"t","cost":"-1"}],'
            b'"source":"s","sink":"t"}'
        )


def test_parse_errors_name_the_field():
    with pytest.raises(ParseError) as exc:
        load_graph(b'{"vertices":["s","t"],"edges":[{"from":"s"}],"source":"s","sink":"t"}')
    assert "edges[0]" in str(exc.value)
    with pytest.raises(ParseError):
        load_graph(b"not json")
    # Bytes that are not UTF-8 used to escape as a bare UnicodeDecodeError.
    with pytest.raises(ParseError, match="^json: 'utf-8' codec can't decode byte 0xff"):
        load_graph(b"\xff{}")


def test_duplicate_and_self_loop_edges_rejected():
    with pytest.raises(ParseError):
        TaskGraph(["a", "b"], [("a", "b", 1), ("a", "b", 2)], "a", "b")
    with pytest.raises(ParseError):
        TaskGraph(["a", "b"], [("a", "a", 1)], "a", "b")


@pytest.mark.parametrize(
    "vertices, edges, source, sink, error, message",
    [
        (["s", "", "t"], [], "s", "t", ParseError, "vertices: vertex ids must be non-empty"),
        (["s", "t", "s"], [], "s", "t", ParseError, "vertices: duplicate vertex id 's'"),
        # The first bad id is named, whichever kind it is.
        (["s", "t", "t", ""], [], "s", "t", ParseError, "vertices: duplicate vertex id 't'"),
        (["", "s", "s"], [], "s", "t", ParseError, "vertices: vertex ids must be non-empty"),
        (["s", None, "t"], [], "s", "t", ParseError, "vertices: vertex ids must be non-empty"),
        (["s", "t"], [], "s", "x", MissingSourceOrSink,
         "source 's' and sink 'x' must both be vertices"),
        (["s", "t"], [], "x", "t", MissingSourceOrSink,
         "source 'x' and sink 't' must both be vertices"),
        # The vertex checks run before any edge is read.
        (["s", "t", "s"], [("s", "x", 1)], "s", "t", ParseError,
         "vertices: duplicate vertex id 's'"),
        (["s", "t"], [("s", "t", 1), ("s", "x", 1)], "s", "t", ParseError,
         "edges: edge (s, x) references unknown vertex"),
        (["s", "t"], [("x", "t", 1)], "s", "t", ParseError,
         "edges: edge (x, t) references unknown vertex"),
        (["s", "t"], [("s", "s", 1)], "s", "t", ParseError, "edges: self-loop at s"),
        (["s", "t"], [("s", "t", 1), ("s", "t", 1)], "s", "t", ParseError,
         "edges: duplicate edge (s, t)"),
        # Each edge is checked in full before the next: a self-loop first.
        (["s", "t"], [("t", "t", 1), ("s", "x", 1)], "s", "t", ParseError, "edges: self-loop at t"),
        (["s", "t"], [("s", "t", -1), ("s", "t", 1)], "s", "t", NegativeCost,
         "edge (s -> t) has negative cost -1"),
    ],
)
def test_task_graph_errors_name_the_first_bad_input(vertices, edges, source, sink, error, message):
    with pytest.raises(error) as exc:
        TaskGraph(vertices, edges, source, sink)
    assert type(exc.value) is error and str(exc.value) == message


def _graph_file(**fields) -> bytes:
    payload = {"vertices": ["s", "t"], "edges": [], "source": "s", "sink": "t", **fields}
    return json.dumps(payload).encode()


@pytest.mark.parametrize(
    "data, error, message",
    [
        # load_graph reads every edge's shape and cost before the graph checks
        # its vertices and edges: the cost error is named first.
        (_graph_file(edges=[{"from": "s", "to": "x", "cost": 1},
                            {"from": "s", "to": "t", "cost": "1/0"}]),
         ParseError, "edges[1].cost: not an exact rational: '1/0'; expected " + RULE),
        (_graph_file(vertices=["s", "t", "s"], edges=[{"from": "s", "to": "x", "cost": 1}]),
         ParseError, "vertices: duplicate vertex id 's'"),
        (_graph_file(vertices=["s", "t", "s"], edges=[{"from": "s", "to": "t", "cost": "x"}]),
         ParseError, "edges[0].cost: not an exact rational: 'x'; expected " + RULE),
        # source and sink are read after the edges, and before the graph is built.
        (_graph_file(edges=[{"from": "s", "to": "x", "cost": 1}], source=3),
         ParseError, "source/sink: must be strings"),
        (_graph_file(edges=[{"from": "s", "cost": 1}], source=3),
         ParseError, "edges[0]: missing field 'to'"),
    ],
)
def test_load_graph_names_the_first_of_two_defects(data, error, message):
    with pytest.raises(error) as exc:
        load_graph(data)
    assert type(exc.value) is error and str(exc.value) == message


def test_rational_arithmetic_is_exact():
    rng = random.Random(1)
    for _ in range(200):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a
    assert rat("74.1") == Fraction(741, 10)
    assert rat("741/10") == Fraction(741, 10)
    assert format_rat(Fraction(741, 10)) == "741/10"
    assert format_rat(Fraction(76)) == "76"


def test_distance_matches_exhaustive_enumeration():
    rng = random.Random(11)
    for _ in range(40):
        g = random_task_graph(rng, min_vertices=3, max_vertices=8)
        dist = shortest_to_sink(g)

        def walk(u, acc):
            if u == g.sink:
                return acc
            return min(walk(v, acc + c) for v, c in g.out_edges(u))

        for v in g.vertices:
            assert dist[v] == walk(v, Fraction(0))


def test_dot_export_mentions_every_edge(s32):
    dot = graph_to_dot(s32, marked=[("u", "v")])
    assert dot.startswith("digraph")
    for u, v, c in s32.edges:
        assert f'"{u}" -> "{v}"' in dot
    assert "penwidth=2" in dot
