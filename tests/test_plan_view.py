"""The plan view against the expanded graph it stands for.

Planners walk their plans with `walk_plan` on a `PlanView`; `simulate_plan`
builds the expanded graph and is the cross-check route. Both must give the
same trace, byte for byte, ties included, and raise the same errors.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from chunkwise import (
    AgentSet,
    BiasProfile,
    BudgetSpec,
    Chunking,
    ChunkPlan,
    TaskGraph,
    chunk_graph_global,
    chunk_graph_local,
    expand_plan,
    m_agent_single_path_plan,
    random_task_graph,
    shortest_to_sink,
    simulate_plan,
    two_agent_plan,
    walk_plan,
)
from chunkwise.errors import ChunkwiseError, InfeasibleChunking
from chunkwise.expansion import PlanView, chain_vertex

BIASES = (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))


def _random_chunking(rng: random.Random, edge, cost: Fraction) -> Chunking:
    k = rng.choice((1, 1, 2, 3, 4))
    if k == 1:
        return Chunking(*edge, (cost,))
    # Cuts on a grid of the cost, so zero chunks and equal chunks both occur.
    cuts = sorted(Fraction(rng.randint(0, 4), 4) * cost for _ in range(k - 1))
    bounds = [Fraction(0), *cuts, cost]
    return Chunking(*edge, tuple(b - a for a, b in zip(bounds, bounds[1:])))


def _random_plan(rng: random.Random, g: TaskGraph) -> ChunkPlan:
    edges = [(u, v, c) for u, v, c in g.edges if rng.random() < 0.5]
    return ChunkPlan(chunkings=tuple(_random_chunking(rng, (u, v), c) for u, v, c in edges))


def test_view_is_the_expanded_graph():
    rng = random.Random(7)
    for _ in range(300):
        g = random_task_graph(rng, min_vertices=3, max_vertices=8)
        plan = _random_plan(rng, g)
        cg = expand_plan(g, plan)
        expanded_dist = shortest_to_sink(cg.graph)
        view = PlanView(g, shortest_to_sink(g), plan)
        assert view.marks == cg.marks and view.chains == cg.chains
        for x in cg.graph.vertices:
            scaled = ((h, Fraction(c, view.scale)) for h, c in view.scaled_out_edges(x))
            assert tuple(scaled) == cg.graph.out_edges(x)
            assert view[x] == expanded_dist[x]


def test_walk_plan_matches_simulate_plan_byte_for_byte():
    rng = random.Random(2024)
    walks = ties = shared_tails = inner_starts = 0
    for _ in range(600):
        g = random_task_graph(rng, min_vertices=3, max_vertices=8)
        dist = shortest_to_sink(g)
        plan = _random_plan(rng, g)
        tails = [ch.tail for ch in plan.chunkings]
        shared_tails += len(tails) != len(set(tails))
        cg = expand_plan(g, plan)
        originals = frozenset(g.vertices)
        for _ in range(4):
            profile = BiasProfile(rng.choice(BIASES))
            start = None
            if rng.random() < 0.4:
                start = rng.choice([v for v in cg.graph.vertices if v != g.sink])
            expected, _ = simulate_plan(g, plan, profile, start=start)
            got, view = walk_plan(g, dist, plan, profile, start=start)
            assert repr(got) == repr(expected)
            assert view.chains == cg.chains
            # A walk told to stop at original vertices is a prefix of the full one.
            stopped, _ = walk_plan(g, dist, plan, profile, start=start, until=originals)
            assert stopped.steps == got.steps[: len(stopped.steps)]
            assert stopped.path[-1] in originals
            assert not set(stopped.path[1:-1]) & originals
            walks += 1
            ties += bool(expected.tie_events)
            inner_starts += start not in (None, g.source)
    assert walks == 2400
    assert min(ties, shared_tails, inner_starts) > 20


def _raised(call) -> tuple[type, str]:
    with pytest.raises(ChunkwiseError) as info:
        call()
    return type(info.value), str(info.value)


def test_view_raises_what_expansion_raises_in_the_same_order():
    rng = random.Random(99)
    faults_seen = set()
    for _ in range(300):
        g = random_task_graph(rng, min_vertices=3, max_vertices=7)
        chunkings = list(_random_plan(rng, g).chunkings)
        faults = rng.sample(("unknown", "sum", "collision"), rng.randint(1, 2))
        if "collision" in faults:
            long = [ch for ch in chunkings if ch.k > 1]
            if not long:
                continue
            taken = chain_vertex(rng.choice(long).edge, 1)
            g = TaskGraph(
                [*g.vertices, taken], [*g.edges, (taken, g.sink, 1)], g.source, g.sink
            )
        if "sum" in faults:
            if not chunkings:
                continue
            i = rng.randrange(len(chunkings))
            ch = chunkings[i]
            chunkings[i] = Chunking(ch.tail, ch.head, (*ch.chunks, Fraction(1)))
        if "unknown" in faults:
            chunkings.insert(rng.randint(0, len(chunkings)), Chunking(g.sink, g.source, (1,)))
        plan = ChunkPlan(chunkings=tuple(chunkings))
        dist = shortest_to_sink(g)
        assert _raised(lambda: PlanView(g, dist, plan)) == _raised(lambda: expand_plan(g, plan))
        faults_seen.add(tuple(sorted(faults)))
    assert len(faults_seen) == 6


def test_planners_build_no_expanded_graph(monkeypatch):
    # Every planner walks its plan on the view; only the oracles and the
    # cross-checks expand a plan into a graph.
    import chunkwise.expansion as expansion

    real, calls = expansion.expand_plan, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "chunkwise" and getattr(module, "expand_plan", None) is real:
            monkeypatch.setattr(module, "expand_plan", counting)
    rng = random.Random(31)
    planned = 0
    for _ in range(25):
        g = random_task_graph(rng, min_vertices=4, max_vertices=7)
        b1 = rng.choice(BIASES)
        b2 = b1 + Fraction(rng.randint(1, 4), 2)
        budget = BudgetSpec(rng.choice(("local", "global")), rng.randint(1, 3))
        chunk_graph_local(g, b1, budget.k)
        chunk_graph_global(g, b1, budget.k)
        two_agent_plan(g, b1, b2, budget)
        try:
            m_agent_single_path_plan(g, AgentSet((b1, b2)), budget)
        except InfeasibleChunking:
            pass
        planned += 1
    assert planned == 25
    assert calls == []
    simulate_plan(g, ChunkPlan(chunkings=()), BiasProfile(b1))  # the counter is live
    assert len(calls) == 1
