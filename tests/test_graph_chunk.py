from __future__ import annotations

import random
from fractions import Fraction
from collections import Counter
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chunkwise import (
    BiasProfile,
    BudgetSpec,
    TaskGraph,
    chunk_graph_global,
    chunk_graph_local,
    random_task_graph,
    shortest_to_sink,
    simulate_plan,
    traverse,
)
from chunkwise.agent import best_alternative, perceived_cost, scaled_top_two
from chunkwise.edge_chunk import edge_context
from chunkwise.errors import DeadEnd, InfeasibleChunking, InvalidParams, InvariantViolation
from chunkwise.expansion import original_path
from chunkwise.graph import all_paths, path_cost, validate
from chunkwise.graph_chunk import (
    GroupNeeds,
    cheapest_paths,
    same_path_fill,
    shared_path_plan,
    walk_choices,
)
from chunkwise.multi_agent import AgentSet, m_agent_single_path_plan
from chunkwise.oracle import brute_force_graph_plan, greedy_masses, min_chunks_independent
from conftest import outside_alpha, series_gadgets

B2 = Fraction(2)
F = Fraction


def _dp(g, need, k):
    """cheapest_paths over g's edges, each charged need[e] chunks."""
    order = [u for u in reversed(validate(g)) if u != g.sink]
    return cheapest_paths(order, g.sink, g.scaled_out_edges, lambda u, v: need[(u, v)], k)


def test_cheapest_paths_matches_path_enumeration():
    rng = random.Random(31)
    for _ in range(40):
        g = random_task_graph(rng, min_vertices=3, max_vertices=7)
        k = rng.randint(0, 3)
        need = {
            (u, v): rng.choice((None, 0, 0, *range(1, k + 1))) for u, v, _ in g.edges
        }
        rows, picks = _dp(g, need, k)
        # Every vertex is reachable from the source, so the u-to-sink paths
        # are exactly the suffixes of source-sink paths.
        suffixes = {p[p.index(u):] for p in all_paths(g) for u in p}
        for u in g.vertices:
            row = rows[u]  # every vertex has a row, None when no level has a path
            assert row is None or len(row) == k + 1
            for i in range(k + 1):
                costs = [
                    path_cost(g, p)
                    for p in suffixes
                    if p[0] == u
                    and all(need[e] is not None for e in zip(p, p[1:]))
                    and sum(need[e] for e in zip(p, p[1:])) <= i
                ]
                # The rows are in the graph's scaled units: cost times g.scale.
                assert (row and row[i]) == (min(costs) * g.scale if costs else None)
                if costs:
                    path = walk_choices(g.sink, picks, u, i)
                    assert path[0] == u and path[-1] == g.sink
                    assert path_cost(g, path) * g.scale == row[i]
                    assert sum(need[e] for e in zip(path, path[1:])) <= i
                    # Each step's recorded chunk count is its edge's need.
                    j = i
                    for a, b in zip(path, path[1:]):
                        assert picks[a][j] == (b, need[(a, b)])
                        j -= need[(a, b)]


def test_cheapest_paths_at_budget_zero_is_shortest_to_sink():
    # Charging every edge 0 at budget 0 breaks ties on (cost, least head),
    # the same rule as the unbudgeted distances.
    rng = random.Random(32)
    for _ in range(40):
        g = random_task_graph(rng, min_vertices=3, max_vertices=8)
        dist = shortest_to_sink(g)
        rows, picks = _dp(g, {(u, v): 0 for u, v, _ in g.edges}, 0)
        for u in g.vertices:
            assert rows[u] == [dist.scaled[u]]
            if u != g.sink:
                assert picks[u] == [(dist.successor[u], 0)]


def _full_scan(g, need, k):
    """cheapest_paths' recurrence, reading every out-edge at every level."""
    rows = {g.sink: [0] * (k + 1)}
    picks = {}
    for u in reversed(validate(g)[:-1]):  # the sink is last
        best = [
            min(
                (
                    (c + rows[head][i - need[(u, head)]], need[(u, head)], head)
                    for head, c in g.scaled_out_edges(u)
                    if need[(u, head)] is not None
                    and need[(u, head)] <= i
                    and rows[head] is not None
                    and rows[head][i - need[(u, head)]] is not None
                ),
                default=None,
            )
            for i in range(k + 1)
        ]
        rows[u] = None if best[k] is None else [o and o[0] for o in best]
        if best[k] is not None:
            picks[u] = [o and (o[2], o[1]) for o in best]
    return rows, picks


class _CountingNeeds(dict):
    def __init__(self, needs, reads):
        super().__init__(needs)
        self.reads = reads

    def __getitem__(self, e):
        self.reads.append(e)
        return super().__getitem__(e)


def test_cheapest_paths_matches_a_full_scan():
    # Reading out-edges in bound order and stopping early changes no entry,
    # ties included: costs come from {0, 1, 2, 3}, so zero-cost edges and
    # equal-cost routes are common, and needs mix None, 0 and 1..k.
    rng = random.Random(33)
    reads: list = []
    edges = 0
    for _ in range(300):
        shape = random_task_graph(rng, min_vertices=3, max_vertices=8)
        g = TaskGraph(
            shape.vertices,
            [(u, v, rng.choice((0, 1, 1, 2, 3))) for u, v, _ in shape.edges],
            shape.source,
            shape.sink,
        )
        k = rng.randint(0, 5)
        need = {(u, v): rng.choice((None, 0, 0, *range(1, k + 1))) for u, v, _ in g.edges}
        reads.clear()
        assert _dp(g, _CountingNeeds(need, reads), k) == _full_scan(g, need, k)
        assert len(reads) == len(set(reads))  # each need is read at most once
        edges += len(need)
    assert len(reads) < edges  # some needs were never read


def test_cheapest_paths_breaks_ties_on_chunks_before_head():
    # Three equal-cost moves out of "u" on a DAG of integers, read in the
    # order given: the move to 3 fills every level first, yet the moves
    # whose bound ties it are still read. The chunk-free move to 2 beats the
    # one-chunk move to 1 though its head is larger, and beats the move to
    # 3 on its head. A move's chunks are asked for only when it is read.
    steps = {
        "u": [(3, F(1)), (1, F(1)), (2, F(1)), (4, F(5))],
        **{head: [(0, F(0))] for head in (1, 2, 3, 4)},
    }
    needs = {("u", 1): 1}
    asked = []

    def chunks(u, head):
        asked.append(head)
        return needs.get((u, head), 0)

    rows, picks = cheapest_paths([4, 3, 2, 1, "u"], 0, steps.__getitem__, chunks, 1)
    assert rows["u"] == [1, 1]
    assert picks["u"] == [(2, 0), (2, 0)]
    assert walk_choices(0, picks, "u", 1) == ("u", 2, 0)
    assert asked == [0, 0, 0, 0, 3, 1, 2]  # the cost-5 move out of "u" is never asked about


def test_cheapest_paths_raises_on_a_head_read_before_its_row():
    # An order that misses a head must not pass the head off as one with no
    # path: "u"'s move to 2 would then drop out and the costlier move to 1 win.
    steps = {"u": [(1, 5), (2, 1)], 1: [(0, 0)], 2: [(0, 0)]}
    rows, _ = cheapest_paths([2, 1, "u"], 0, steps.__getitem__, lambda u, v: 0, 0)
    assert rows["u"] == [1]
    with pytest.raises(InvariantViolation, match="is read before its row"):
        cheapest_paths([1, "u"], 0, steps.__getitem__, lambda u, v: 0, 0)


def test_a_detour_that_cannot_win_is_never_counted(monkeypatch):
    # s->d->t costs 100, the agent's default s->b->t costs 6 and s->a->t
    # costs 4 once (s, a) is chunked, so d never wins at any budget and the
    # planners never ask how many chunks (s, d) needs.
    import chunkwise.graph_chunk as gc

    g = TaskGraph(
        ["s", "a", "b", "d", "t"],
        [("s", "a", 4), ("a", "t", 0), ("s", "b", 1), ("b", "t", 5), ("s", "d", 100), ("d", "t", 0)],
        source="s",
        sink="t",
    )
    asked = []
    need = gc.GroupNeeds._need

    def counting(self, edge):
        asked.append(edge)
        return need(self, edge)

    monkeypatch.setattr(gc.GroupNeeds, "_need", counting)
    for mode in ("local", "global"):
        for k in (1, 2, 3):
            _, (trace,) = gc.shared_path_plan(g, (B2,), BudgetSpec(mode, k))
            assert trace.total == (6 if k == 1 else 4)
    assert ("s", "a") in asked
    assert ("s", "d") not in asked


def test_group_defaults_take_the_least_head_at_a_tie():
    # s->a and s->b look alike to every bias, so the default at s is the
    # least head, and its alpha, in ints over b.denominator * g.scale, is
    # the tie's perceived cost b * 2 + 1; the runner-up ties it.
    g = TaskGraph(
        ["s", "a", "b", "t"], [("s", "a", 2), ("a", "t", 1), ("s", "b", 2), ("b", "t", 1)], "s", "t"
    )
    dist = shortest_to_sink(g)
    biases = (B2, F(5, 2))
    needs = GroupNeeds(g, dist, biases, BudgetSpec("local", 2))
    assert {u: needs.default[u] for u in "sab"} == {"s": "a", "a": "t", "b": "t"}
    assert needs.need[("s", "a")] == 0
    for b, top in zip(biases, needs.top_two):
        alpha = (b * 2 + 1) * b.denominator * g.scale
        assert top["s"] == (("a", alpha), ("b", alpha))


def test_a_group_default_is_one_every_type_takes():
    # At s the 3/2 type takes s->a (3/2 + 4 < 0 + 6) and the 3 type s->b
    # (3 + 4 > 6), so s has no group default: each edge out of s needs
    # chunks, and the plan keeping both types on s->a chunks it.
    g = TaskGraph(
        ["s", "a", "b", "t"], [("s", "a", 1), ("a", "t", 4), ("s", "b", 0), ("b", "t", 6)], "s", "t"
    )
    dist = shortest_to_sink(g)
    biases = (F(3, 2), F(3))
    needs = GroupNeeds(g, dist, biases, BudgetSpec("local", 2))
    assert [top["s"][0][0] for top in needs.top_two] == ["a", "b"]
    assert needs.default["s"] is None
    assert needs.need[("s", "a")] == len(same_path_fill(g, dist, ("s", "a"), biases, 2)) == 2
    plan, traces = shared_path_plan(g, biases, BudgetSpec("local", 2))
    assert [ch.edge for ch in plan.chunkings] == [("s", "a")]
    assert [trace.total for trace in traces] == [5, 5]
    for b in biases:
        trace, cg = simulate_plan(g, plan, BiasProfile(b))
        assert (original_path(cg, trace.path), trace.total) == (("s", "a", "t"), 5)


def _brute_best(g, dist, b, u, exclude):
    """The least (perceived cost, head) over u's out-edges to heads other
    than exclude, in `Fraction`s; None when there is none."""
    return min(((b * c + dist[h], h) for h, c in g.out_edges(u) if h != exclude), default=None)


def test_the_scorer_and_its_runner_up_match_a_brute_force():
    # One loop keeps the best head and the runner-up, the best over the
    # other heads, least head on ties. On random graphs whose small costs
    # force ties, best_alternative excluding each head (and a non-head) is
    # the least (perceived cost, head) over the rest, and the scorer keeps
    # the brute force's best and runner-up.
    rng = random.Random(33)
    queries = best_ties = runner_up_ties = 0
    for _ in range(600):
        g = random_task_graph(rng, min_vertices=3, max_vertices=9, max_cost=rng.randint(2, 24))
        dist = shortest_to_sink(g)
        for b in (F(3, 2), B2, F(5, 2), F(3)):
            profile = BiasProfile(b)
            unit = b.denominator * g.scale
            for u in dist.successor:  # every vertex but the sink
                best = _brute_best(g, dist, b, u, None)
                second = _brute_best(g, dist, b, u, best[1])
                (head, alpha), runner_up = scaled_top_two(g, dist, profile, u)
                assert (head, F(alpha, unit)) == (best[1], best[0])
                assert runner_up == (None if second is None else (second[1], second[0] * unit))
                for exclude in [h for h, _ in g.out_edges(u)] + ["no such head"]:
                    queries += 1
                    want = _brute_best(g, dist, b, u, exclude)
                    if want is None:
                        with pytest.raises(DeadEnd):
                            best_alternative(g, dist, profile, u, exclude_head=exclude)
                    else:
                        got = best_alternative(g, dist, profile, u, exclude_head=exclude)
                        assert got == (want[1], want[0])
                if second is not None:
                    best_ties += second[0] == best[0]
                    rest = [b * c + dist[h] for h, c in g.out_edges(u) if h != best[1]]
                    runner_up_ties += rest.count(second[0]) > 1
    assert queries > 25_000
    assert min(best_ties, runner_up_ties) > 40


def test_a_several_type_plan_fills_each_chunked_edge_once(monkeypatch):
    # GroupNeeds keeps the int fill behind an edge's need, and its chunking
    # of the edge reads that fill: each chunked edge of a three-type plan is
    # filled by _greedy_ints once.
    import chunkwise.graph_chunk as gc

    scanned, fills = [], Counter()
    scan, greedy = gc.scaled_edge_scan, gc._greedy_ints

    def scanning(g, dist, edge):
        scanned.append(edge)
        return scan(g, dist, edge)

    def filling(*args):
        fills[scanned[-1]] += 1
        return greedy(*args)

    monkeypatch.setattr(gc, "scaled_edge_scan", scanning)
    monkeypatch.setattr(gc, "_greedy_ints", filling)
    rng = random.Random(8)
    chunked = 0
    for _ in range(40):
        g = random_task_graph(rng, min_vertices=5, max_vertices=9)
        for budget in (BudgetSpec("local", 3), BudgetSpec("global", 4)):
            fills.clear()
            try:
                plan, _ = gc.shared_path_plan(g, (B2, F(3), F(4)), budget)
            except InfeasibleChunking:
                continue
            assert [fills[ch.edge] for ch in plan.chunkings] == [1] * len(plan.chunkings)
            chunked += len(plan.chunkings)
    assert chunked > 20


def test_a_tails_only_edge_is_carried_by_one_chunk():
    # No type can leave an edge that is its tail's only way out, so one chunk
    # of the whole cost carries every type: the scan that finds the outside
    # option must not count the edge itself.
    g = TaskGraph(["s", "v", "t"], [("s", "v", F(7, 2)), ("v", "t", 1)], "s", "t")
    dist = shortest_to_sink(g)
    for biases in ((B2,), (B2, F(7, 3))):
        assert same_path_fill(g, dist, ("s", "v"), biases, 3) == [F(7, 2)]
        assert same_path_fill(g, dist, ("s", "v"), biases, 0) is None


@pytest.mark.parametrize("b", [B2, F(5, 2), F(7, 3)], ids=str)
def test_one_types_needs_are_its_least_persuading_counts(b):
    # For one type the int fill behind GroupNeeds counts what the optimizer
    # finds: the least l whose optimal l-chunking is within the type's alpha.
    g = series_gadgets()
    dist = shortest_to_sink(g)
    checked = 0
    for mode in ("local", "global"):
        needs = GroupNeeds(g, dist, (b,), BudgetSpec(mode, 8))
        for u, v, _ in g.edges:
            head, alpha = best_alternative(g, dist, BiasProfile(b), u)
            if head != v:
                checked += 1
                assert needs.need[(u, v)] == min_chunks_independent(g, dist, (u, v), b, alpha, 8)
    assert checked == 8


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    biases=st.lists(
        st.fractions(min_value=F(7, 6), max_value=6, max_denominator=6), min_size=1, max_size=3
    ),
    mode=st.sampled_from(("local", "global")),
    k=st.integers(0, 4),
)
@example(seed=0, biases=[F(5, 2)], mode="local", k=3)
@example(seed=1, biases=[B2, F(7, 3)], mode="global", k=2)
@example(seed=2, biases=[F(3, 2), F(5, 2), F(7, 2)], mode="global", k=0)
def test_group_needs_match_the_independent_routes(seed, biases, mode, k):
    # On random task graphs, each type's int persuasion is best_alternative's
    # choice and the least head of perceived_cost's Fraction minimum. One
    # type's need is the optimizer's least persuading count, and several
    # types' the length of their same-path fill and of the oracle's Fraction
    # greedy recurrence, at the outside options best_alternative gives.
    assume(mode == "global" or k >= 1)
    g = random_task_graph(random.Random(seed), min_vertices=3, max_vertices=7)
    dist = shortest_to_sink(g)
    needs = GroupNeeds(g, dist, sorted(biases), BudgetSpec(mode, k))
    for b, profile, top in zip(needs.biases, needs.profiles, needs.top_two):
        for u in dist.successor:  # every vertex but the sink
            head, alpha = best_alternative(g, dist, profile, u)
            scores = [(perceived_cost(g, dist, profile, (u, h)), h) for h, _ in g.out_edges(u)]
            assert (alpha, head) == min(scores)
            assert top[u][0] == (head, alpha * b.denominator * g.scale)
    for u, v, _ in g.edges:
        need = needs.need[(u, v)]
        if all(best_alternative(g, dist, p, u)[0] == v for p in needs.profiles):
            assert need == 0
        elif len(needs.biases) == 1:
            (b,) = needs.biases
            _, alpha = best_alternative(g, dist, BiasProfile(b), u)
            assert need == min_chunks_independent(g, dist, (u, v), b, alpha, k)
        else:
            fill = same_path_fill(g, dist, (u, v), needs.biases, k)
            assert need == (None if fill is None else len(fill))
            ctx = edge_context(g, dist, (u, v))
            caps = [(b, outside_alpha(g, dist, b, u, v)) for b in needs.biases]
            masses = islice(greedy_masses(ctx, caps), k)
            assert need == next((l for l, m in enumerate(masses, 1) if m >= ctx.x), None)


def test_local_k3_chunks_only_the_cheap_detour(s32):
    plan, trace = chunk_graph_local(s32, B2, 3)
    assert [c.edge for c in plan.chunkings] == [("u", "v")]
    assert trace.total == F(741, 10)
    assert plan.planned_paths == (("u", "v", "t"),)
    assert plan.predicted_cost == F(741, 10)


def test_local_k2_cannot_improve(s32):
    plan, trace = chunk_graph_local(s32, B2, 2)
    assert plan.chunkings == ()
    assert trace.total == 76


def test_local_no_improvement_when_paths_coincide():
    from chunkwise import TaskGraph

    g = TaskGraph(["s", "a", "t"], [("s", "a", 1), ("a", "t", 2), ("s", "t", 9)], "s", "t")
    plan, trace = chunk_graph_local(g, B2, 4)
    assert plan.chunkings == ()
    assert trace.total == 3 == shortest_to_sink(g)[g.source]


def test_global_k3_matches_local(s32):
    plan, trace = chunk_graph_global(s32, B2, 3)
    assert trace.total == F(741, 10)
    assert [c.edge for c in plan.chunkings] == [("u", "v")]
    assert plan.total_chunks == 3


def test_global_k0_is_the_biased_default(s32):
    plan, trace = chunk_graph_global(s32, B2, 0)
    assert plan.chunkings == ()
    assert trace.total == traverse(s32, shortest_to_sink(s32), BiasProfile(B2)).total


def test_global_k4_unlocks_the_true_shortest_route(s32):
    # Four chunks tame the 65-cost edge itself: 65/(1-2^-4)+2 <= 76.
    plan, trace = chunk_graph_global(s32, B2, 4)
    assert trace.total == 67
    assert [c.edge for c in plan.chunkings] == [("u", "w")]
    assert plan.total_chunks == 4


def test_series_gadgets_global_budget():
    g = series_gadgets()
    plan, trace = chunk_graph_global(g, B2, 6)
    oracle_cost, _ = brute_force_graph_plan(g, B2, BudgetSpec("global", 6))
    assert trace.total == oracle_cost == 143
    plan3, trace3 = chunk_graph_global(g, B2, 3)
    assert trace3.total == brute_force_graph_plan(g, B2, BudgetSpec("global", 3))[0]
    assert trace3.total == F(1501, 10)


def test_invalid_budgets(s32):
    with pytest.raises(InvalidParams):
        chunk_graph_local(s32, B2, 0)
    with pytest.raises(InvalidParams):
        chunk_graph_global(s32, B2, -1)
    with pytest.raises(InvalidParams):
        BudgetSpec("weird", 3)


def test_plan_trace_agreement_random():
    rng = random.Random(17)
    for _ in range(40):
        g = random_task_graph(rng)
        b = F(rng.randint(5, 12), 4)
        k = rng.randint(1, 3)
        for planner in (chunk_graph_local, chunk_graph_global):
            plan, trace = planner(g, b, k)
            assert trace.total == plan.predicted_cost
            again, cg = simulate_plan(g, plan, BiasProfile(b))
            assert again.total == trace.total
            assert original_path(cg, again.path) == plan.planned_paths[0]


def test_budget_respect_random():
    rng = random.Random(18)
    for _ in range(40):
        g = random_task_graph(rng)
        b = F(rng.randint(5, 12), 4)
        k = rng.randint(1, 3)
        plan_l, _ = chunk_graph_local(g, b, k)
        assert all(c.k <= k for c in plan_l.chunkings)
        plan_g, _ = chunk_graph_global(g, b, k)
        assert plan_g.total_chunks <= k


def test_cost_non_increasing_in_budget():
    rng = random.Random(19)
    for _ in range(25):
        g = random_task_graph(rng)
        b = F(rng.randint(5, 12), 4)
        prev_l = prev_g = None
        for k in range(1, 5):
            _, tl = chunk_graph_local(g, b, k)
            _, tg = chunk_graph_global(g, b, k)
            if prev_l is not None:
                assert tl.total <= prev_l
                assert tg.total <= prev_g
            prev_l, prev_g = tl.total, tg.total


def test_never_chunk_off_path_and_persuasion_soundness():
    rng = random.Random(20)
    for _ in range(40):
        g = random_task_graph(rng)
        dist = shortest_to_sink(g)
        b = F(rng.randint(5, 12), 4)
        k = rng.randint(1, 3)
        for planner in (chunk_graph_local, chunk_graph_global):
            plan, trace = planner(g, b, k)
            path = plan.planned_paths[0]
            path_edges = set(zip(path, path[1:]))
            for c in plan.chunkings:
                assert c.edge in path_edges
                u = c.edge[0]
                from chunkwise import evaluate_chunking

                _, alpha = best_alternative(g, dist, BiasProfile(b), u)
                assert evaluate_chunking(g, dist, c, b).bottleneck <= alpha


def test_matches_oracle_exactly_random():
    rng = random.Random(21)
    for _ in range(60):
        g = random_task_graph(rng, min_vertices=3, max_vertices=7)
        b = F(rng.randint(5, 12), 4)
        k = rng.randint(1, 3)
        for mode, planner in (
            ("local", chunk_graph_local),
            ("global", chunk_graph_global),
        ):
            _, trace = planner(g, b, k)
            oracle_cost, _ = brute_force_graph_plan(g, b, BudgetSpec(mode, k))
            assert trace.total == oracle_cost


def test_matches_oracle_on_tie_heavy_integer_graphs():
    # Small integer costs force exact perceived-cost ties; the marker-based
    # tie rule and budget accounting must agree between planner and oracle.
    rng = random.Random(555)
    from chunkwise import TaskGraph

    def tie_heavy(rng):
        n = rng.randint(4, 6)
        names = ["s"] + [chr(ord("a") + i) for i in range(n - 2)] + ["t"]
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    edges[(names[i], names[j])] = F(rng.choice((0, 1, 1, 2, 2, 3, 4)))
        for i in range(n - 1):
            if not any(t == names[i] for t, _ in edges):
                edges[(names[i], names[rng.randint(i + 1, n - 1)])] = F(rng.choice((0, 1, 2)))
        for j in range(1, n):
            if not any(h == names[j] for _, h in edges):
                edges[(names[rng.randint(0, j - 1)], names[j])] = F(rng.choice((0, 1, 2)))
        return TaskGraph(names, [(u, v, c) for (u, v), c in sorted(edges.items())], "s", "t")

    for _ in range(40):
        g = tie_heavy(rng)
        b = F(rng.choice((2, 3, 4)))
        k = rng.randint(1, 3)
        for mode, planner in (("local", chunk_graph_local), ("global", chunk_graph_global)):
            _, trace = planner(g, b, k)
            oracle_cost, _ = brute_force_graph_plan(g, b, BudgetSpec(mode, k))
            assert trace.total == oracle_cost


def test_optimizer_runs_only_for_the_chunked_plan_edges(monkeypatch):
    # GroupNeeds decides each edge's need with the int greedy loop, without
    # optimizing; the planners then optimize each chunked edge of their plan
    # exactly once.
    import chunkwise.edge_chunk as ec
    import chunkwise.graph_chunk as gc

    calls = []
    optimize = ec.optimal_edge_chunking

    def counted(*args):
        calls.append(args[2])
        return optimize(*args)

    monkeypatch.setattr(ec, "optimal_edge_chunking", counted)
    monkeypatch.setattr(gc, "optimal_edge_chunking", counted)
    g = series_gadgets()
    dist = shortest_to_sink(g)
    for mode in ("local", "global"):
        needs = GroupNeeds(g, dist, (B2,), BudgetSpec(mode, 8))
        assert any(needs.need[(u, v)] for u, v, _ in g.edges)
    assert calls == []
    rng = random.Random(5)
    graphs = [g] + [random_task_graph(rng, min_vertices=4, max_vertices=9) for _ in range(20)]
    chunked = 0
    for h in graphs:
        for planner, k in (
            (chunk_graph_local, 3), (chunk_graph_global, 3), (chunk_graph_global, 6)
        ):
            calls.clear()
            plan, _ = planner(h, B2, k)
            assert sorted(calls) == sorted(c.edge for c in plan.chunkings)
            chunked += len(plan.chunkings)
    assert chunked > 0


@pytest.mark.parametrize(
    "plan",
    [
        lambda g: chunk_graph_local(g, B2, 3),
        lambda g: chunk_graph_global(g, B2, 3),
        lambda g: m_agent_single_path_plan(g, AgentSet((B2, F(3))), BudgetSpec("local", 3)),
    ],
    ids=["local", "global", "m-agent"],
)
def test_simulation_deviating_from_the_plan_is_an_invariant_violation(s32, monkeypatch, plan):
    # The planners' final simulation checks must not vanish under python -O.
    # Every single-path planner replays its plan with agent.replay_plan,
    # each type with traverse on one view of the plan.
    import dataclasses

    import chunkwise.agent as ag

    walk = ag.traverse

    def deviating(*args, **kwargs):
        trace = walk(*args, **kwargs)
        return dataclasses.replace(trace, total=trace.total + 1)

    monkeypatch.setattr(ag, "traverse", deviating)
    with pytest.raises(InvariantViolation):
        plan(s32)
