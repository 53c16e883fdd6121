from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chunkwise import (
    BiasProfile,
    Chunking,
    FanSpec,
    TaskGraph,
    best_alternative,
    chunk_shortest_edge,
    cost_ratio,
    make_n_fan,
    perceived_cost,
    random_task_graph,
    selective_bias_closed_form,
    selective_bias_equivalence_check,
    shortest_to_sink,
    simulate_plan,
    traverse,
)
from chunkwise.agent import replay_plan
from chunkwise.errors import InvalidParams, UnknownEdge, ZeroShortestPath
from chunkwise.expansion import ChunkPlan, single_edge_plan
from chunkwise.graph import path_cost

B2 = Fraction(2)


def test_perceived_cost_examples(s32):
    dist = shortest_to_sink(s32)
    prof = BiasProfile(B2)
    assert perceived_cost(s32, dist, prof, ("u", "w")) == 132
    unbiased = BiasProfile(Fraction(1), diagnostic=True)
    assert perceived_cost(s32, dist, unbiased, ("u", "w")) == 67
    val = perceived_cost(s32, dist, BiasProfile(Fraction(8, 7)), ("u", "w"))
    assert val == Fraction(8, 7) * 65 + 2 == Fraction(534, 7)
    assert val > 76


def test_perceived_cost_unknown_edge(s32):
    with pytest.raises(UnknownEdge):
        perceived_cost(s32, shortest_to_sink(s32), BiasProfile(B2), ("u", "t"))


def test_bias_profile_validation():
    with pytest.raises(InvalidParams):
        BiasProfile(Fraction(1))
    for b in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(InvalidParams):
            BiasProfile(b, diagnostic=True)
    BiasProfile(Fraction(1), diagnostic=True)
    BiasProfile(Fraction(1, 2), diagnostic=True)


def test_best_alternative_examples(s32):
    dist = shortest_to_sink(s32)
    assert best_alternative(s32, dist, BiasProfile(B2), "u") == ("z", 76)
    assert best_alternative(s32, dist, BiasProfile(B2), "w") == ("t", 4)
    fan = make_n_fan(FanSpec(3, Fraction(3, 2)))
    fd = shortest_to_sink(fan)
    assert best_alternative(fan, fd, BiasProfile(B2), "v1") == ("v2", Fraction(9, 4))


def test_traverse_unchunked_s32(s32):
    trace = traverse(s32, shortest_to_sink(s32), BiasProfile(B2))
    assert trace.path == ("u", "z", "t")
    assert trace.total == 76


def test_traverse_optimal_chunking_takes_cheap_route(s32):
    from chunkwise import optimal_edge_chunking

    dist = shortest_to_sink(s32)
    chunking, _ = optimal_edge_chunking(s32, dist, ("u", "v"), B2, 3)
    trace, cg = simulate_plan(s32, single_edge_plan(chunking), BiasProfile(B2))
    assert trace.total == Fraction(741, 10)
    assert trace.path[0] == "u" and trace.path[-1] == "t"
    assert "v" in trace.path


def test_traverse_geometric_chunking_deviates_midway(s32):
    # With chunks (2, 4, 8) the third chunk start is perceived at 76.1, so
    # the agent bails to the 76 route after paying 2 + 4, then pays 0 + 76.
    chunking = Chunking("u", "v", chunk_shortest_edge(Fraction(14), B2, 3))
    trace, cg = simulate_plan(s32, single_edge_plan(chunking), BiasProfile(B2))
    assert trace.path == ("u", "u>v#1", "u>v#2", "z", "t")
    assert trace.total == 82


def test_traverse_tie_prefers_the_chunked_candidate():
    # Exit growth c = b_min(2, 2) makes the chunked first exit tie the spine
    # at v0 exactly; the chunk-continuing candidate must win the tie.
    c = selective_bias_closed_form(B2, 2)
    g = make_n_fan(FanSpec(2, c))
    plan = ChunkPlan(
        chunkings=(Chunking("v0", "t", chunk_shortest_edge(Fraction(1), B2, 2)),)
    )
    trace, _ = simulate_plan(g, plan, BiasProfile(B2))
    assert any(e.vertex == "v0" and e.winner == "v0>t#1" for e in trace.tie_events)
    assert trace.path[1] == "v0>t#1"
    assert trace.total == 1


def test_traversal_determinism(s32):
    dist = shortest_to_sink(s32)
    t1 = traverse(s32, dist, BiasProfile(B2))
    t2 = traverse(s32, dist, BiasProfile(B2))
    assert t1 == t2


def test_unbiased_agent_takes_shortest_path():
    rng = random.Random(23)
    for _ in range(30):
        g = random_task_graph(rng)
        dist = shortest_to_sink(g)
        trace = traverse(g, dist, BiasProfile(Fraction(1), diagnostic=True))
        assert trace.total == dist[g.source]


def test_cost_ratio_examples(s32):
    fan = make_n_fan(FanSpec(3, Fraction(3, 2)))
    assert cost_ratio(fan, BiasProfile(B2)) == Fraction(27, 8)
    assert cost_ratio(s32, BiasProfile(B2)) == Fraction(76, 67)
    assert cost_ratio(s32, BiasProfile(Fraction(1), diagnostic=True)) == 1


def test_cost_ratio_zero_shortest():
    from chunkwise import TaskGraph

    g = TaskGraph(["s", "t"], [("s", "t", 0)], "s", "t")
    with pytest.raises(ZeroShortestPath):
        cost_ratio(g, BiasProfile(B2))


def test_fan_lower_bound_exact():
    # For any 1 < c < b the biased agent rides the spine and pays c^n.
    cases = [(Fraction(3, 2), B2, 4), (Fraction(5, 4), Fraction(3, 2), 5), (Fraction(2), Fraction(3), 6)]
    for c, b, n in cases:
        fan = make_n_fan(FanSpec(n, c))
        assert cost_ratio(fan, BiasProfile(b)) == c**n


def test_selective_bias_equivalence_examples(s32):
    from chunkwise import optimal_edge_chunking

    dist = shortest_to_sink(s32)
    opt3, _ = optimal_edge_chunking(s32, dist, ("u", "v"), B2, 3)
    assert selective_bias_equivalence_check(
        s32, single_edge_plan(opt3), B2, ("u", "v"), Fraction(1)
    )
    whole = Chunking("u", "v", (Fraction(14),))
    assert selective_bias_equivalence_check(
        s32, single_edge_plan(whole), B2, ("u", "v"), B2
    )


def test_selective_bias_equivalence_geometric_family():
    rng = random.Random(3)
    checked = 0
    while checked < 30:
        g = random_task_graph(rng, min_vertices=4, max_vertices=7)
        dist = shortest_to_sink(g)
        b = Fraction(rng.randint(3, 9), 2)
        k = rng.randint(1, 4)
        starts_shortest = [
            (u, v)
            for u, v, c in g.edges
            if dist.successor.get(u) == v and c > 0 and u != g.sink
        ]
        if not starts_shortest:
            continue
        edge = starts_shortest[rng.randrange(len(starts_shortest))]
        chunking = Chunking(*edge, chunk_shortest_edge(g.cost(*edge), b, k))
        b_prime = selective_bias_closed_form(b, k)
        assert selective_bias_equivalence_check(
            g, single_edge_plan(chunking), b, edge, b_prime
        )
        checked += 1


def _fork(tested: str, other: str) -> TaskGraph:
    # s -> tested costs 2 and s -> other costs 1, both then 0 to t. At b = 2
    # the other edge's perceived cost, alpha, is 2, and b' = 1 scores the
    # tested edge at 1 * 2 + 0 = 2 too: an exact tie at s.
    edges = [("s", tested, 2), ("s", other, 1), ("a", "t", 0), ("b", "t", 0)]
    return TaskGraph(["s", "a", "b", "t"], edges, "s", "t")


def test_selective_bias_check_at_an_exact_tie_goes_to_the_least_head():
    # A one-chunk plan leaves the bias-b agent off the tested edge (4 > 2).
    # At the tie the b' agent crosses iff the tested head is the least, so
    # the check fails when it is "a" and holds when it is "b".
    for tested, other, holds in (("a", "b", False), ("b", "a", True)):
        plan = single_edge_plan(Chunking("s", tested, (Fraction(2),)))
        check = selective_bias_equivalence_check(
            _fork(tested, other), plan, B2, ("s", tested), Fraction(1)
        )
        assert check is holds


def test_selective_bias_check_off_the_walk_is_uncrossed_on_both_sides():
    # The bias-b agent goes s -> a -> t (perceived 2 * 1 + 1 = 3 against
    # 2 * 5 + 5 = 15) and never reaches u, so neither side crosses u -> t,
    # though u -> t is u's only edge and any b' agent at u would take it.
    g = TaskGraph(
        ["s", "a", "u", "t"], [("s", "a", 1), ("s", "u", 5), ("a", "t", 1), ("u", "t", 5)], "s", "t"
    )
    plan = single_edge_plan(Chunking("u", "t", (Fraction(1), Fraction(4))))
    for b_prime in (Fraction(1, 2), Fraction(1), Fraction(3)):
        assert selective_bias_equivalence_check(g, plan, B2, ("u", "t"), b_prime)


def test_selective_bias_check_refuses_a_nonpositive_b_prime():
    plan = single_edge_plan(Chunking("s", "a", (Fraction(2),)))
    for b_prime in (Fraction(0), Fraction(-1)):
        with pytest.raises(InvalidParams):
            selective_bias_equivalence_check(_fork("a", "b"), plan, B2, ("s", "a"), b_prime)


def test_trace_json_round_trip_fields(s32):
    trace = traverse(s32, shortest_to_sink(s32), BiasProfile(B2))
    payload = trace.to_json()
    assert payload["path"] == ["u", "z", "t"]
    assert payload["total"] == "76"
    assert payload["steps"][0]["perceived"] == "76"


def test_two_tied_chunk_candidates_fall_back_to_lexicographic():
    # When two chunk-continuing candidates tie exactly, the chunk preference
    # is ambiguous; the walk falls back to the lexicographically least head
    # and records the tie.
    from chunkwise import TaskGraph

    g = TaskGraph(
        ["u", "a", "b", "t"],
        [("u", "a", 4), ("a", "t", 0), ("u", "b", 4), ("b", "t", 0)],
        "u",
        "t",
    )
    plan = ChunkPlan(
        chunkings=(
            Chunking("u", "a", (Fraction(1), Fraction(3))),
            Chunking("u", "b", (Fraction(1), Fraction(3))),
        )
    )
    trace, _ = simulate_plan(g, plan, BiasProfile(B2))
    assert trace.path == ("u", "u>a#1", "a", "t")
    assert trace.tie_events[0].tied == ("u>a#1", "u>b#1")
    assert trace.tie_events[0].winner == "u>a#1"


def _shared_tail_graph():
    from chunkwise import TaskGraph

    return TaskGraph(
        ["u", "v", "z", "t"],
        [("u", "v", 10), ("u", "z", 10), ("v", "t", 0), ("z", "t", 1)],
        "u",
        "t",
    )


def test_replay_plan_rejects_a_walk_through_another_edges_chain():
    # Two chunked edges share the tail u. A bias-2 walk planned on (u, v, t)
    # enters (u, z)'s chain at its free first chunk and leaves it for v: it
    # passes the planned original vertices at the planned cost 10, but it
    # is not the planned route (u, v, t), so the plan does not hold.
    g = _shared_tail_graph()
    plan = ChunkPlan(
        chunkings=(
            Chunking("u", "v", (Fraction(10),)),
            Chunking("u", "z", (Fraction(0), Fraction(10))),
        )
    )
    profile = BiasProfile(B2)
    trace, _ = simulate_plan(g, plan, profile)
    assert trace.path == ("u", "u>z#1", "v", "t") and trace.total == 10
    assert replay_plan(g, shortest_to_sink(g), plan, [(profile, ("u", "v", "t"))]) is None


def test_replay_plan_rejects_a_hop_that_leaves_its_chain_at_the_planned_cost():
    # A bias-2 walk planned on the one hop (u, z) enters its chain at the
    # free first chunk and leaves it for v, an edge as costly as (u, z): the
    # walk's first step and its cost match the hop, but it never crosses
    # the chain, so the hop does not hold.
    g = _shared_tail_graph()
    plan = ChunkPlan(chunkings=(Chunking("u", "z", (Fraction(0), Fraction(10))),))
    profile = BiasProfile(B2)
    trace, _ = simulate_plan(g, plan, profile)
    assert trace.path == ("u", "u>z#1", "v", "t") and trace.total == 10
    assert replay_plan(g, shortest_to_sink(g), plan, [(profile, ("u", "z"))]) is None


def test_replay_plan_checks_each_walk_at_its_paths_cost(s32, monkeypatch):
    # Two types walk one path: its cost is computed once per call, and each
    # walk is held to it, the second as much as the first.
    import dataclasses

    import chunkwise.agent as ag

    dist, plan = shortest_to_sink(s32), ChunkPlan(chunkings=())
    walks = [(BiasProfile(Fraction(3, 2)), ("u", "z", "t")), (BiasProfile(B2), ("u", "z", "t"))]
    costs, walked = [], []
    monkeypatch.setattr(ag, "path_cost", lambda g, p: costs.append(p) or path_cost(g, p))
    traces = replay_plan(s32, dist, plan, walks)
    assert [t.total for t in traces] == [76, 76] and len(costs) == 1

    def second_walk_off_by_one(*args, **kwargs):
        trace = traverse(*args, **kwargs)
        walked.append(trace)
        return dataclasses.replace(trace, total=trace.total + len(walked) - 1)

    monkeypatch.setattr(ag, "traverse", second_walk_off_by_one)
    assert replay_plan(s32, dist, plan, walks) is None and len(walked) == 2
