from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import permutations, product
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkwise import (
    AgentSet,
    BiasProfile,
    BudgetSpec,
    Chunking,
    TaskGraph,
    chunk_graph_global,
    chunk_graph_local,
    chunk_same_path,
    chunk_split,
    m_agent_single_path_plan,
    optimal_edge_chunking,
    random_task_graph,
    save_graph,
    shortest_to_sink,
    simulate_plan,
    traverse,
    two_agent_plan,
)
from chunkwise.agent import best_alternative
from chunkwise.cli import main as cli_main
from chunkwise.edge_chunk import edge_context, evaluate_chunking, min_chunks_to_beat
from chunkwise.errors import (
    InfeasibleChunking,
    InvalidParams,
    InvariantViolation,
    TakerRefuses,
)
from chunkwise.expansion import ChunkPlan, original_path
from chunkwise.graph import path_cost, validate
from chunkwise.graph_chunk import (
    GroupNeeds,
    same_path_fill,
    shared_path_plan,
    walk_choices,
)
from chunkwise.multi_agent import JointMoves
from chunkwise.oracle import (
    GridSpec,
    brute_force_two_agent_plan,
    grid_max_repelled,
    grid_same_path_feasible,
    saturated_chunking,
)
from conftest import outside_alpha

B2 = Fraction(2)
F = Fraction
# sha256 of the plans and traces in test_two_agent_plans_match_their_pinned_bytes
PINNED = "321fc5c95a2e5bc45384ebe795832902ab06454cb82605774fbb77d9a806590e"


def _random_bias(rng: random.Random) -> Fraction:
    den = rng.choice((1, 2, 3, 4))
    return F(rng.randint(den + 1, 4 * den), den)


def _assert_replays(g, plan, traces):
    """Each type's trace is the one simulate_plan walks on the expanded graph."""
    for b, trace in zip(plan.biases, traces):
        again, _ = simulate_plan(g, plan, BiasProfile(b))
        assert again == trace


def test_agent_set_validation():
    AgentSet((B2, F(3)))
    with pytest.raises(InvalidParams):
        AgentSet((F(3), B2))
    with pytest.raises(InvalidParams):
        AgentSet((B2, B2))
    with pytest.raises(InvalidParams):
        AgentSet((F(1), B2))


# ---------------------------------------------------------------------------
# chunk_split
# ---------------------------------------------------------------------------


def test_split_single_chunk_is_all_mass():
    g = TaskGraph(
        ["u", "v", "z", "t"],
        [("u", "v", 3), ("v", "t", 0), ("u", "z", 10), ("z", "t", 0)],
        "u",
        "t",
    )
    dist = shortest_to_sink(g)
    chunking, repelled = chunk_split(g, dist, ("u", "v"), B2, F(10), 1, taker=1)
    assert chunking.chunks == (3,)
    assert repelled == 10 * 3 + 0


def test_split_no_op_when_no_headroom():
    # Chain on the shortest path with the outside option exactly at the
    # taker-optimal bottleneck: every siphon phase has zero headroom.
    g = TaskGraph(
        ["u", "v", "z", "t"],
        [("u", "v", 3), ("v", "t", 0), ("u", "z", F(2)), ("z", "t", 0)],
        "u",
        "t",
    )
    dist = shortest_to_sink(g)
    base, report = optimal_edge_chunking(g, dist, ("u", "v"), B2, 2)
    alpha = outside_alpha(g, dist, B2, "u", "v")
    assert report.bottleneck == alpha == 4
    chunking, _ = chunk_split(g, dist, ("u", "v"), B2, F(3), 2, taker=1)
    assert chunking.chunks == base.chunks


def test_split_taker_refuses(s32):
    dist = shortest_to_sink(s32)
    with pytest.raises(TakerRefuses):
        chunk_split(s32, dist, ("u", "v"), B2, F(10), 3, taker=2)


def test_split_taker_still_takes_it(s32):
    dist = shortest_to_sink(s32)
    for taker, edge in ((1, ("u", "v")), (2, ("u", "z"))):
        chunking, _ = chunk_split(s32, dist, edge, B2, F(10), 3, taker=taker)
        bias = B2 if taker == 1 else F(10)
        alpha = outside_alpha(s32, dist, bias, *edge)
        assert all(p <= alpha for p in evaluate_chunking(s32, dist, chunking, bias).perceived)
        from chunkwise.expansion import single_edge_plan, walk_follows_chunking

        trace, cg = simulate_plan(s32, single_edge_plan(chunking), BiasProfile(bias))
        assert walk_follows_chunking(trace.path, cg.chain_of(edge))


@pytest.mark.parametrize("taker", (1, 2))
def test_split_on_the_tails_only_way_out(taker):
    # u -> v is u's only out-edge and v -> w is v's, at zero cost: the taker
    # cannot leave the chain, so one chunk carrying all the mass repels the
    # other type most, at b_r * x + c(v->t).
    g = TaskGraph(
        ["s", "u", "v", "w", "t"],
        [("s", "u", 1), ("s", "t", 10), ("u", "v", 3), ("v", "w", 0), ("w", "t", 2)],
        "s",
        "t",
    )
    dist = shortest_to_sink(g)
    b1, b2 = B2, F(7, 2)
    br = b2 if taker == 1 else b1
    for edge in (("u", "v"), ("v", "w")):
        x = g.cost(*edge)
        for k in range(1, 5):
            chunking, repelled = chunk_split(g, dist, edge, b1, b2, k, taker=taker)
            assert chunking.chunks == (x,) + (F(0),) * (k - 1)
            assert repelled == br * x + dist[edge[1]]


def test_split_dominates_grid_repellence():
    # No taker-accepted grid chunking repels the other type harder, in either
    # direction (one-sided, exhaustive d=24 grid).
    rng = random.Random(41)
    checked = 0
    while checked < 60:
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        dist = shortest_to_sink(g)
        edges = [e[:2] for e in g.edges if e[0] != g.sink]
        edge = edges[rng.randrange(len(edges))]
        b1 = _random_bias(rng)
        b2 = b1 + F(rng.randint(1, 8), 4)
        k = rng.randint(1, 3)
        taker = rng.choice((1, 2))
        try:
            _, repelled = chunk_split(g, dist, edge, b1, b2, k, taker=taker)
        except TakerRefuses:
            continue
        checked += 1
        bt, br = (b1, b2) if taker == 1 else (b2, b1)
        grid_best = grid_max_repelled(g, dist, edge, bt, br, GridSpec(24, k))
        assert grid_best is None or grid_best <= repelled


# (seed, edge index, b1 - 1 as num/den, (b2 - b1) * 4, k) for taker 2 on
# random_task_graph(Random(seed), 3, 7), and which of the flipped exchange's
# branches each reaches: "outside" where the outside route rules the target,
# "between" where chunks between the target and the filled chunk are capped.
FLIPPED_CASES = [
    ((0, 0, 2, 1, 4, 4), {"outside"}),
    ((4, 5, 3, 1, 4, 4), {"between"}),
    ((6, 7, 1, 2, 1, 5), {"outside"}),
    ((0, 0, 2, 1, 4, 6), {"outside", "between"}),
]


def _flipped_split(seed, pick, num, den, step, k):
    g = random_task_graph(random.Random(seed), 3, 7)
    dist = shortest_to_sink(g)
    edges = [e[:2] for e in g.edges if e[0] != g.sink]
    b1 = 1 + F(num, den)
    return g, dist, edges[pick % len(edges)], b1, b1 + F(step, 4), k


@pytest.mark.parametrize("case, branches", FLIPPED_CASES)
def test_flipped_split_cases_reach_their_branches(monkeypatch, case, branches):
    import chunkwise.multi_agent as ma

    reached: set[str] = set()
    real_caps = ma._flipped_intermediate_caps

    def caps(ctx, xs, ti, j, bt, alpha, mass_per_unit):
        if mass_per_unit == 1:  # only the outside-route branch moves mass 1:1
            reached.add("outside")
        if ti + 1 < j:
            reached.add("between")
        return real_caps(ctx, xs, ti, j, bt, alpha, mass_per_unit)

    monkeypatch.setattr(ma, "_flipped_intermediate_caps", caps)
    g, dist, edge, b1, b2, k = _flipped_split(*case)
    chunk_split(g, dist, edge, b1, b2, k, taker=2)
    assert reached == branches


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 40),
    st.integers(0, 20),
    st.integers(1, 12),
    st.sampled_from((1, 2, 4)),
    st.integers(1, 8),
    st.integers(4, 6),
)
@example(*FLIPPED_CASES[0][0])
@example(*FLIPPED_CASES[1][0])
@example(*FLIPPED_CASES[2][0])
@example(*FLIPPED_CASES[3][0])
def test_flipped_split_dominates_grid_repellence(seed, pick, num, den, step, k):
    # Taker 2 at k = 4-6: the flipped exchange's branches run only here. The
    # taker still takes the split, and no taker-accepted grid chunking repels
    # the lower-bias type harder.
    g, dist, edge, b1, b2, k = _flipped_split(seed, pick, num, den, step, k)
    try:
        chunking, repelled = chunk_split(g, dist, edge, b1, b2, k, taker=2)
    except TakerRefuses:
        return
    ctx = edge_context(g, dist, edge)
    assert sum(chunking.chunks) == ctx.x
    if ctx.outside is not None:
        alpha = outside_alpha(g, dist, b2, *edge)
        assert evaluate_chunking(g, dist, chunking, b2).bottleneck <= alpha
    grid_best = grid_max_repelled(g, dist, edge, b2, b1, GridSpec(12, k))
    assert grid_best is None or grid_best <= repelled


def test_split_repellence_monotone_in_b2(s32):
    dist = shortest_to_sink(s32)
    prev = None
    for b2_num in range(9, 30, 4):
        b2 = F(b2_num, 4)
        _, repelled = chunk_split(s32, dist, ("u", "v"), B2, b2, 3, taker=1)
        if prev is not None:
            assert repelled >= prev
        prev = repelled


# ---------------------------------------------------------------------------
# chunk_same_path
# ---------------------------------------------------------------------------


def test_same_path_single_agent_matches_optimal_feasibility():
    rng = random.Random(42)
    for _ in range(60):
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        dist = shortest_to_sink(g)
        edges = [e[:2] for e in g.edges if e[0] != g.sink]
        edge = edges[rng.randrange(len(edges))]
        b = _random_bias(rng)
        k = rng.randint(1, 4)
        alpha = outside_alpha(g, dist, b, *edge)
        _, report = optimal_edge_chunking(g, dist, edge, b, k)
        optimal_ok = alpha is None or report.bottleneck <= alpha
        assert (same_path_fill(g, dist, edge, (b,), k) is not None) == optimal_ok


def test_same_path_two_types_simulate(s32):
    # (u, z) is free and both defaults; (u, w) needs enough chunks for both.
    dist = shortest_to_sink(s32)
    agents = AgentSet((B2, F(5, 2)))
    chunking = chunk_same_path(s32, dist, ("u", "w"), agents, 8)
    from chunkwise.expansion import single_edge_plan, walk_follows_chunking

    for b in agents.biases:
        trace, cg = simulate_plan(s32, single_edge_plan(chunking), BiasProfile(b))
        assert walk_follows_chunking(trace.path, cg.chain_of(("u", "w")))


def test_same_path_infeasible_cases(s32):
    dist = shortest_to_sink(s32)
    with pytest.raises(InfeasibleChunking) as exc:
        chunk_same_path(s32, dist, ("u", "v"), AgentSet((B2, F(3))), 3)
    assert exc.value.reason == "mass deficit: 3 chunks can carry at most 71/6 of 14"
    # threshold below the unavoidable continuation cost of the last chunk
    g = TaskGraph(
        ["u", "v", "z", "t"],
        [("u", "v", 1), ("v", "t", 50), ("u", "z", 1), ("z", "t", 1)],
        "u",
        "t",
    )
    d2 = shortest_to_sink(g)
    with pytest.raises(InfeasibleChunking) as exc:
        chunk_same_path(g, d2, ("u", "v"), AgentSet((B2,)), 3)
    assert exc.value.reason == (
        "chunk 3 forced negative: some type's outside option (3) is below the "
        "unavoidable continuation cost 50"
    )


def test_same_path_agent_set_reused_across_graphs():
    # Outside options belong to the graph, not to the AgentSet: a set first
    # used where z->t costs 10 must see z->t at 1 on the second graph.
    def graph(zt):
        return TaskGraph(
            ["u", "v", "z", "t"],
            [("u", "v", 6), ("v", "t", 1), ("u", "z", 1), ("z", "t", zt)],
            "u",
            "t",
        )

    agents = AgentSet((B2, F(3)))
    g10 = graph(10)
    chunking = chunk_same_path(g10, shortest_to_sink(g10), ("u", "v"), agents, 3)
    assert chunking.chunks == (0, 2, 4)
    g1 = graph(1)
    with pytest.raises(InfeasibleChunking):
        chunk_same_path(g1, shortest_to_sink(g1), ("u", "v"), AgentSet((B2, F(3))), 3)
    with pytest.raises(InfeasibleChunking):
        chunk_same_path(g1, shortest_to_sink(g1), ("u", "v"), agents, 3)


def test_same_path_feasibility_monotone_and_binary_search(s32):
    dist = shortest_to_sink(s32)
    biases = (B2, F(5, 2))
    feas = [same_path_fill(s32, dist, ("u", "w"), biases, k) is not None for k in range(1, 12)]
    assert feas == sorted(feas)  # False... then True
    fill = same_path_fill(s32, dist, ("u", "w"), biases, 11)
    assert fill is not None
    l = len(fill)
    assert feas[l - 1] and (l == 1 or not feas[l - 2])


def test_same_path_one_type_is_the_saturated_greedy_fill():
    # With one type, the same-path fill is the single-type greedy fill at the
    # type's outside option: the oracle's saturated witness and
    # min_chunks_to_beat's count, on every edge whose tail has another way out.
    rng = random.Random(47)
    checked = 0
    while checked < 600:
        g = random_task_graph(rng, min_vertices=3, max_vertices=7)
        dist = shortest_to_sink(g)
        b = _random_bias(rng)
        agents = AgentSet((b,))
        for u, v, _ in g.edges:
            alpha = outside_alpha(g, dist, b, u, v)
            if alpha is None:
                continue
            checked += 1
            for k in range(1, 5):
                try:
                    chunking = chunk_same_path(g, dist, (u, v), agents, k)
                except InfeasibleChunking:
                    chunking = None
                assert chunking == saturated_chunking(g, dist, (u, v), b, alpha, k)
                fill = same_path_fill(g, dist, (u, v), agents.biases, k)
                assert (None if fill is None else len(fill)) == (
                    min_chunks_to_beat(g, dist, (u, v), b, alpha, k)
                )


def test_caps_read_from_the_profiles_are_the_outside_options():
    # A group's fill reads a type's cap from its scored choice at the tail:
    # its alpha there, and its runner-up on that type's default edge. Every
    # cap must be the type's outside option, whether the tail was scored
    # for the edge itself or earlier, for another edge out of it.
    rng = random.Random(53)
    defaults = checked = 0
    while checked < 600:
        g = random_task_graph(rng, min_vertices=3, max_vertices=7)
        dist = shortest_to_sink(g)
        b1 = _random_bias(rng)
        agents = AgentSet((b1, b1 + Fraction(rng.randint(1, 8), 4)))
        shared = GroupNeeds(g, dist, agents.biases, BudgetSpec("local", 3))
        for u, v, _ in g.edges:
            if len(g.out_edges(u)) < 2:
                continue
            checked += 1
            heads = [best_alternative(g, dist, BiasProfile(b), u)[0] for b in agents.biases]
            defaults += v in heads
            # Caps are ints over R * g.scale, R the lcm of the biases' denominators.
            unit = lcm(*(b.denominator for b in agents.biases)) * g.scale
            expected = [outside_alpha(g, dist, b, u, v) * unit for b in agents.biases]
            for needs in (shared, GroupNeeds(g, dist, agents.biases, BudgetSpec("local", 3))):
                assert needs.unit == unit
                assert [cap for _, cap in needs.fills[(u, v)][2]] == expected
    assert defaults > 100


def test_same_path_matches_grid_feasibility_one_sided():
    # Grid-feasible implies greedy-feasible on random instances; equality is
    # asserted on grid-aligned constructed cases below.
    rng = random.Random(43)
    agree = checked = 0
    while checked < 50:
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        dist = shortest_to_sink(g)
        edges = [e[:2] for e in g.edges if e[0] != g.sink and g.cost(*e[:2]) > 0]
        if not edges:
            continue
        edge = edges[rng.randrange(len(edges))]
        b1 = _random_bias(rng)
        agents = AgentSet((b1, b1 + F(1, 2), b1 + 1))
        k = rng.randint(1, 3)
        checked += 1
        greedy = same_path_fill(g, dist, edge, agents.biases, k) is not None
        grid = grid_same_path_feasible(g, dist, edge, agents.biases, GridSpec(32, k))
        if grid:
            assert greedy
        if grid == greedy:
            agree += 1
    assert agree >= 45  # two-sided agreement is the norm, boundary ties aside


def test_same_path_matches_grid_exactly_on_aligned_instances():
    # Integer thresholds and power-of-two costs keep the greedy witness on
    # the grid, so feasibility must match in both directions.
    g = TaskGraph(
        ["u", "v", "z", "t"],
        [("u", "v", 8), ("v", "t", 0), ("u", "z", 2), ("z", "t", 4)],
        "u",
        "t",
    )
    dist = shortest_to_sink(g)
    agents = AgentSet((B2, F(4)))
    for k in (1, 2, 3):
        greedy = same_path_fill(g, dist, ("u", "v"), agents.biases, k) is not None
        grid = grid_same_path_feasible(g, dist, ("u", "v"), agents.biases, GridSpec(32, k))
        assert greedy == grid


# ---------------------------------------------------------------------------
# JointMoves.move
# ---------------------------------------------------------------------------


def test_joint_move_shared_tail_split(s32):
    moves = JointMoves(s32, B2, F(10), BudgetSpec("local", 3))
    split = moves.move[("u", "v", "z")]
    assert split is not None
    # A2's default is z, so only (u, v) carries a witness chunking.
    assert [w.edge for w in split] == [("u", "v")]
    assert moves.move[("u", "z", "z")] is not None  # both defaults
    assert moves.move[("u", "v", "v")] is None  # no chunking of (u,v) that b=10 takes


def test_joint_move_same_edge_infeasible(s32):
    assert JointMoves(s32, B2, F(3), BudgetSpec("local", 3)).move[("u", "v", "v")] is None


def test_joint_move_global_minimal_counts(s32):
    moves = JointMoves(s32, B2, F(10), BudgetSpec("global", 3))
    # (u,v) needs all three chunks; (u,z) is A2's default and stays unchunked.
    assert [ch.k for ch in moves.move[("u", "v", "z")]] == [3]
    assert moves.move[("u", "z", "z")] == ()


def _non_monotone_split_moves():
    # random_task_graph(Random(215), 4, 7): A1 (b=2) defaults to (s, a), and
    # A2 (b=5) takes (s, b) only under a two-chunk split.
    g = TaskGraph(
        ["s", "a", "b", "t"],
        [("s", "a", F(22, 5)), ("s", "b", 8), ("a", "b", 1), ("b", "t", F(17, 5))],
        "s",
        "t",
    )
    return JointMoves(g, B2, F(5), BudgetSpec("global", 2))


def test_joint_split_feasibility_is_not_monotone():
    # Sending A1 to a and A2 to b works with (0, 2) chunks and with nothing
    # else: in column j = 2, the full-budget row i = 2 fails below a row that
    # succeeds.
    moves = _non_monotone_split_moves()
    feasible = {
        (i, j)
        for i in range(3)
        for j in range(3)
        if moves._split_witnesses("s", "a", "b", i, j) is not None
    }
    assert feasible == {(0, 2)}


def test_joint_split_finds_a_pair_below_an_infeasible_full_budget_row():
    found = _non_monotone_split_moves().move[("s", "a", "b")]
    assert found is not None and sum(ch.k for ch in found) == 2


def test_joint_split_is_the_least_feasible_cell_of_the_full_matrix():
    # Feasibility of (i, j) is not monotone in either count, so a split is
    # the least (i + j, j) cell of the whole matrix, or None when none passes.
    rng = random.Random(1919)
    triples = splits = 0
    for _ in range(25):
        g = random_task_graph(rng, min_vertices=7, max_vertices=10)
        b1 = _random_bias(rng)
        k = rng.randint(2, 4)
        moves = JointMoves(g, b1, b1 * rng.choice((2, 3, 5)), BudgetSpec("global", k))
        cells = sorted(product(range(k + 1), repeat=2), key=lambda c: (c[0] + c[1], c[1]))
        for u in g.vertices:
            heads = [v for v, _ in g.out_edges(u)]
            for v, z in product(heads, repeat=2):
                if v == z:
                    continue
                found = moves.move[(u, v, z)]
                least = None
                for i, j in cells:
                    wit = moves._split_witnesses(u, v, z, i, j)
                    if wit is not None:
                        least = wit
                        break
                assert found == least, (u, v, z)
                triples += 1
                splits += found is not None
    assert splits > 0 and triples > splits


def test_every_accepted_joint_split_replays_on_the_expanded_graph():
    # A joint split JointMoves accepts must hold on the independent route:
    # walked from u on the graph expand_plan builds of its witnesses, each
    # type crosses its edge's whole chain, or takes its unchunked edge.
    rng = random.Random(2828)
    checked = chunked = 0
    for _ in range(60):
        g = random_task_graph(rng, min_vertices=4, max_vertices=7)
        b1 = _random_bias(rng)
        b2 = b1 * rng.choice((2, 3, 5))
        k = rng.randint(1, 3)
        for mode in ("local", "global"):
            moves = JointMoves(g, b1, b2, BudgetSpec(mode, k))
            for u in g.vertices:
                heads = [v for v, _ in g.out_edges(u)]
                for v, z in permutations(heads, 2):
                    witnesses = moves.move[(u, v, z)]
                    if witnesses is None:
                        continue
                    plan = ChunkPlan(chunkings=witnesses)
                    for b, head in ((b1, v), (b2, z)):
                        trace, cg = simulate_plan(g, plan, BiasProfile(b), start=u)
                        chain = cg.chains.get((u, head), (u, head))
                        assert trace.path[: len(chain)] == chain, (u, v, z, b)
                    checked += 1
                    chunked += len(witnesses) > 0
    assert checked > chunked > 0


def test_two_agent_plan_keeps_the_default_split_when_every_full_row_fails(tmp_path, capsys):
    # At s every (2, j) split fails, so a search that skipped each column
    # whose full-budget row fails never tried the valid (0, 0) default
    # split, and planning raised InvariantViolation.
    g = TaskGraph(
        ["s", "a", "b", "c", "d", "e", "f", "g", "h", "t"],
        [
            ("s", "a", F(27, 2)), ("s", "b", 16), ("s", "c", 0), ("s", "f", F(3, 2)),
            ("s", "g", 4), ("s", "h", 54), ("a", "b", 25), ("a", "c", 13), ("a", "d", 5),
            ("a", "f", 12), ("a", "h", 0), ("a", "t", 24), ("b", "e", F(1, 2)), ("b", "g", 0),
            ("b", "h", F(21, 10)), ("c", "d", 26), ("c", "f", 4), ("c", "g", 9),
            ("c", "h", 22), ("d", "e", F(3, 5)), ("d", "g", 3), ("d", "t", F(16, 5)),
            ("e", "f", 23), ("e", "g", 6), ("e", "h", F(4, 5)), ("e", "t", 2),
            ("f", "g", 37), ("f", "h", F(42, 5)), ("g", "t", F(56, 5)), ("h", "t", 7),
        ],
        "s",
        "t",
    )
    plan, traces = two_agent_plan(g, B2, F(6), BudgetSpec("global", 2))
    assert plan.planned_paths == (("s", "f", "h", "t"), ("s", "c", "f", "h", "t"))
    assert plan.chunkings == ()
    assert sum(t.total for t in traces) == F(363, 10)
    _assert_replays(g, plan, traces)
    path = tmp_path / "g.json"
    path.write_bytes(save_graph(g))
    args = ["chunk-graph", "-g", str(path), "--biases", "2,6", "--mode", "global", "-k", "2"]
    assert cli_main(args) == 0
    assert json.loads(capsys.readouterr().out)["planned_paths"] == [
        ["s", "f", "h", "t"],
        ["s", "c", "f", "h", "t"],
    ]


def test_two_agent_plan_finds_a_split_below_a_failing_full_row():
    # A1 takes s->a->c->t and A2 s->b->t, with two chunks each on (a, c) and
    # (s, b). A search that skipped a column whose full-budget row fails
    # missed that pair and planned 97/10.
    g = TaskGraph(
        ["s", "a", "b", "c", "d", "e", "t"],
        [
            ("s", "a", F(6, 5)), ("s", "b", F(9, 4)), ("s", "c", F(13, 2)),
            ("s", "e", F(19, 5)), ("a", "c", F(17, 5)), ("a", "d", 0), ("a", "e", F(7, 5)),
            ("b", "c", 3), ("b", "d", F(24, 5)), ("b", "e", 20), ("b", "t", F(13, 5)),
            ("c", "t", 0), ("d", "e", F(5, 4)), ("e", "t", 3),
        ],
        "s",
        "t",
    )
    budget = BudgetSpec("global", 4)
    plan, traces = two_agent_plan(g, F(3, 2), F(9, 2), budget)
    assert plan.planned_paths == (("s", "a", "c", "t"), ("s", "b", "t"))
    assert [(ch.edge, len(ch.chunks)) for ch in plan.chunkings] == [
        (("a", "c"), 2),
        (("s", "b"), 2),
    ]
    assert sum(t.total for t in traces) == F(189, 20)
    _assert_replays(g, plan, traces)
    assert brute_force_two_agent_plan(g, F(3, 2), F(9, 2), budget)[0] == F(189, 20)


# ---------------------------------------------------------------------------
# two_agent_plan / m_agent_single_path_plan
# ---------------------------------------------------------------------------


def _single_type_cases(s32, seed):
    """(g, b, budget, chunk_graph_local/global's plan and trace) on s32 and
    20 random graphs, in both budget modes."""
    rng = random.Random(seed)
    graphs = [s32] + [random_task_graph(rng, min_vertices=3, max_vertices=8) for _ in range(20)]
    for g in graphs:
        b = B2 if g is s32 else _random_bias(rng)
        for mode, planner, k in (
            ("local", chunk_graph_local, rng.randint(1, 4)),
            ("global", chunk_graph_global, rng.randint(0, 4)),
        ):
            yield g, b, BudgetSpec(mode, k), planner(g, b, k)


def test_two_agent_equal_types_reduce_to_single(s32):
    plan, (t1, t2) = two_agent_plan(s32, B2, B2, BudgetSpec("local", 3))
    assert t1.total + t2.total == F(741, 5)
    assert plan.planned_paths == (("u", "v", "t"), ("u", "v", "t"))
    chunked = 0
    for g, b, budget, (ref_plan, ref_trace) in _single_type_cases(s32, 46):
        plan, traces = two_agent_plan(g, b, b, budget)
        doubled = ref_plan.to_json()
        doubled["planned_paths"] *= 2
        doubled["predicted_cost"] = str(ref_plan.predicted_cost * 2)
        doubled["biases"] *= 2
        assert plan.to_json() == doubled
        assert traces == (ref_trace, ref_trace)
        chunked += len(plan.chunkings)
    assert chunked > 0


def test_two_agent_split_types(s32):
    plan, (t1, t2) = two_agent_plan(s32, B2, F(10), BudgetSpec("local", 3))
    assert (t1.total, t2.total) == (F(741, 10), 76)
    oracle_cost, _ = brute_force_two_agent_plan(s32, B2, F(10), BudgetSpec("local", 3))
    assert t1.total + t2.total == oracle_cost


def test_two_agent_matches_oracle_random():
    rng = random.Random(44)
    for _ in range(30):
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        b1 = _random_bias(rng)
        b2 = b1 + F(rng.randint(1, 8), 4)
        mode = rng.choice(("local", "global"))
        budget = BudgetSpec(mode, 2)
        plan, (t1, t2) = two_agent_plan(g, b1, b2, budget)
        oracle_cost, _ = brute_force_two_agent_plan(g, b1, b2, budget)
        assert t1.total + t2.total == oracle_cost
        # joint simulation: both types follow their planned paths
        for b, trace, path in ((b1, t1, plan.planned_paths[0]), (b2, t2, plan.planned_paths[1])):
            again, cg = simulate_plan(g, plan, BiasProfile(b))
            assert original_path(cg, again.path) == path
            assert again.total == trace.total


def test_two_agent_global_budget_shares_chunks(s32):
    # One global chunk cannot persuade anyone; three go to the split.
    plan0, (a0, b0) = two_agent_plan(s32, B2, F(10), BudgetSpec("global", 0))
    assert a0.total + b0.total == 152
    plan3, (a3, b3) = two_agent_plan(s32, B2, F(10), BudgetSpec("global", 3))
    assert a3.total + b3.total == F(1501, 10)
    assert plan3.total_chunks <= 3


def test_m_agent_reduces_to_single_agent(s32):
    chunked = 0
    for g, b, budget, (ref_plan, ref_trace) in _single_type_cases(s32, 47):
        plan, path = m_agent_single_path_plan(g, AgentSet((b,)), budget)
        assert plan.to_json() == ref_plan.to_json()
        assert path == ref_plan.planned_paths[0]
        assert shared_path_plan(g, (b,), budget) == (ref_plan, (ref_trace,))
        # One type's chunkings are optimal, not the same-path greedy fill.
        dist = shortest_to_sink(g)
        for ch in plan.chunkings:
            assert ch == optimal_edge_chunking(g, dist, ch.edge, b, ch.k)[0]
        chunked += len(plan.chunkings)
    assert chunked > 0


def test_m_agent_two_types_on_s32(s32):
    plan, path = m_agent_single_path_plan(s32, AgentSet((B2, F(3))), BudgetSpec("local", 3))
    assert path == ("u", "z", "t")
    assert plan.chunkings == ()


def _split_defaults_graph():
    # Bias 2 defaults to s->b (perceives 9 vs 12), bias 10 to s->a (20 vs 33).
    return TaskGraph(
        ["s", "a", "b", "t"],
        [("s", "a", 1), ("a", "t", 10), ("s", "b", 3), ("b", "t", 3)],
        "s",
        "t",
    )


@pytest.mark.parametrize("mode,k", [("local", 1), ("global", 1), ("global", 0)])
def test_m_agent_no_shared_path_is_infeasible(mode, k):
    agents = AgentSet((B2, F(10)))
    with pytest.raises(InfeasibleChunking, match="no path every type"):
        m_agent_single_path_plan(_split_defaults_graph(), agents, BudgetSpec(mode, k))


@pytest.mark.parametrize("mode", ["local", "global"])
def test_m_agent_two_chunks_share_the_cheap_path(mode):
    agents = AgentSet((B2, F(10)))
    _, path = m_agent_single_path_plan(_split_defaults_graph(), agents, BudgetSpec(mode, 2))
    assert path == ("s", "b", "t")


def test_m_agent_random_all_types_follow():
    rng = random.Random(45)
    for _ in range(30):
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        b1 = _random_bias(rng)
        biases = (b1, b1 + F(1, 2), b1 + F(3, 2))[: rng.randint(1, 3)]
        agents = AgentSet(biases)
        mode = rng.choice(("local", "global"))
        plan, path = m_agent_single_path_plan(g, agents, BudgetSpec(mode, rng.randint(1, 3)))
        for b in agents.biases:
            trace, cg = simulate_plan(g, plan, BiasProfile(b))
            assert original_path(cg, trace.path) == path


_SHARED_EDGE_EDGES = [
    ("s", "a", 0), ("s", "d", F(7, 10)), ("s", "f", F(5, 4)), ("a", "b", 5),
    ("a", "c", F(3, 5)), ("b", "e", F(1, 2)), ("c", "d", F(5, 4)), ("c", "e", F(7, 5)),
    ("d", "f", F(6, 5)), ("d", "t", 2), ("e", "f", 6), ("f", "t", F(6, 5)),
]


def _assert_dp_charges_a_shared_edge_once(names):
    # Both types pass d, so the DP has them stand there together and charges
    # (d, t) once, for the one 2-chunk same-edge chunking that serves both.
    # A DP that let both types move at once from apart states charged it
    # 2 + 2 chunks, priced this pair out of the budget, and picked
    # s->d->f->t for A1, which no joint move at d realises.
    import chunkwise.multi_agent as ma

    def path(p):
        return tuple(names[v] for v in p)

    g = TaskGraph(
        [names[v] for v in "sabcdeft"],
        [(names[u], names[v], c) for u, v, c in _SHARED_EDGE_EDGES],
        "s",
        "t",
    )
    b1, b2, budget = F(7, 3), F(22, 3), BudgetSpec("global", 2)
    moves = JointMoves(g, b1, b2, budget)
    picked = ma._two_agent_dp(moves)
    assert picked == (path("sdt"), path("sacdt"))
    assert path_cost(g, picked[0]) + path_cost(g, picked[1]) == F(131, 20)
    assert moves.move[(names["d"], names["f"], "t")] is None
    planned = ma._pair_plan(moves, *picked)
    assert planned is not None
    plan, traces = two_agent_plan(g, b1, b2, budget)
    assert (plan, traces) == planned
    assert plan.planned_paths == (path("sdt"), path("sacdt"))
    assert [(ch.edge, ch.chunks) for ch in plan.chunkings] == [
        ((names["d"], "t"), (F(7, 11), F(15, 11)))
    ]
    assert sum(t.total for t in traces) == F(131, 20)
    _assert_replays(g, plan, traces)
    assert brute_force_two_agent_plan(g, b1, b2, budget)[0] == F(131, 20)


def test_two_agent_dp_charges_a_shared_edge_once():
    _assert_dp_charges_a_shared_edge_once({v: v for v in "sabcdeft"})


def test_two_agent_dp_moves_the_topologically_earlier_type():
    # The same graph with names whose alphabetical order is not topological:
    # the type behind is the one at the earlier vertex in topological order,
    # not the one at the smaller name.
    names = dict(zip("sabcdeft", "srqponmt"))
    _assert_dp_charges_a_shared_edge_once(names)


def test_two_agent_dp_pick_validates_and_matches_the_oracle():
    # Every pick of the DP is a pair whose static plan validates, at the
    # exhaustive path-pair minimum: nothing is left for a fallback to find.
    import chunkwise.multi_agent as ma

    rng = random.Random(2026)
    for _ in range(100):
        g = random_task_graph(rng, min_vertices=4, max_vertices=8)
        b1 = _random_bias(rng)
        b2 = b1 + F(rng.randint(1, 12), 4)
        k = rng.randint(1, 4)
        for mode in ("local", "global"):
            budget = BudgetSpec(mode, k)
            moves = JointMoves(g, b1, b2, budget)
            picked = ma._two_agent_dp(moves)
            assert picked is not None and ma._pair_plan(moves, *picked) is not None
            cost = path_cost(g, picked[0]) + path_cost(g, picked[1])
            assert cost == brute_force_two_agent_plan(g, b1, b2, budget)[0]


def test_two_agent_matches_oracle_k3():
    rng = random.Random(777)
    for _ in range(15):
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        den = rng.choice((1, 2, 4))
        b1 = F(rng.randint(den + 1, 4 * den), den)
        b2 = b1 + F(rng.randint(1, 6), 4)
        budget = BudgetSpec(rng.choice(("local", "global")), 3)
        plan, (t1, t2) = two_agent_plan(g, b1, b2, budget)
        oracle_cost, _ = brute_force_two_agent_plan(g, b1, b2, budget)
        assert t1.total + t2.total == oracle_cost


def test_two_agent_plan_builds_its_tables_once(monkeypatch):
    # One two-agent call builds three need tables, one per type and one for
    # the pair, each holding its own profiles; each table scores a type at
    # a vertex with scaled_top_two at most once, and the call runs each
    # chunk_split (edge, chunks, taker) once, however often the DP and the
    # pair plan ask for them.
    import chunkwise.graph_chunk as gc
    import chunkwise.multi_agent as ma

    scored: list[tuple] = []
    splits: list[tuple] = []
    real_score, real_split = gc.scaled_top_two, ma.chunk_split

    def counting_score(g, dist, profile, u):
        scored.append((id(profile), profile.default, u))
        return real_score(g, dist, profile, u)

    def counting_split(g, dist, edge, b1, b2, k, taker=1):
        splits.append((edge, k, taker))
        return real_split(g, dist, edge, b1, b2, k, taker)

    monkeypatch.setattr(gc, "scaled_top_two", counting_score)
    monkeypatch.setattr(ma, "chunk_split", counting_split)
    rng = random.Random(4040)
    total_splits = total_scored = 0
    for _ in range(40):
        g = random_task_graph(rng, min_vertices=4, max_vertices=8)
        b1 = _random_bias(rng)
        b2 = b1 + F(rng.randint(1, 8), 4)
        budget = BudgetSpec(rng.choice(("local", "global")), rng.randint(1, 3))
        scored.clear()
        splits.clear()
        two_agent_plan(g, b1, b2, budget)
        assert len(scored) == len(set(scored))
        assert len({key[0] for key in scored}) <= 4  # each type in its solo table and the pair's
        assert {key[1] for key in scored} <= {b1, b2}
        assert len(splits) == len(set(splits))
        total_splits += len(splits)
        total_scored += len(scored)
    assert total_splits > 0 and total_scored > 0  # both memos were exercised


def _tie_graph():
    return TaskGraph(
        ["s", "a", "b", "t"],
        [("s", "a", 2), ("a", "t", 2), ("s", "b", 1), ("b", "t", 3)],
        source="s",
        sink="t",
    )


def _graph(edges):
    vertices = sorted({v for e in edges for v in e[:2]})
    return TaskGraph(vertices, [(u, v, F(c)) for u, v, c in edges], source="s", sink="t")


# Draws 91 and 1334 of random_task_graph(Random(2026), 4, 9), both planned at
# global k = 2: with every joint move ranked 0 at equal cost, each plan
# chunked one edge though the unaided pair of walks costs as little.
DRAW_91 = _graph([
    ("s", "a", "3"), ("s", "b", "2"), ("s", "d", "3"), ("s", "g", "9"), ("a", "b", "17/5"),
    ("a", "t", "0"), ("b", "c", "16"), ("b", "e", "0"), ("b", "f", "23/2"), ("b", "g", "3"),
    ("c", "d", "7/2"), ("c", "e", "17"), ("d", "e", "9/10"), ("d", "g", "5/2"), ("d", "t", "1"),
    ("e", "f", "23"), ("e", "t", "1"), ("f", "t", "9/2"), ("g", "t", "0"),
])
DRAW_1334 = _graph([
    ("s", "a", "5/2"), ("s", "b", "9/10"), ("s", "d", "9/5"), ("s", "e", "23/5"),
    ("s", "f", "7/4"), ("s", "g", "16"), ("a", "c", "0"), ("a", "e", "7/5"), ("a", "g", "9/5"),
    ("a", "t", "5"), ("b", "c", "7"), ("b", "d", "1/2"), ("b", "e", "3/10"), ("b", "f", "15/4"),
    ("c", "d", "18/5"), ("c", "f", "4/5"), ("d", "f", "0"), ("d", "t", "23"), ("e", "f", "1/5"),
    ("e", "g", "11/2"), ("f", "t", "5"), ("g", "t", "21"),
])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**16).map(lambda seed: random_task_graph(random.Random(seed), 4, 9)),
    st.sampled_from((F(3, 2), F(2), F(5, 2), F(7, 2))),
    st.integers(1, 12),
    st.integers(1, 5),
)
@example(_tie_graph(), F(7, 2), 1, 4)
@example(DRAW_91, F(3, 2), 1, 2)
@example(DRAW_1334, F(3, 2), 9, 2)
def test_a_global_plan_at_the_unaided_cost_installs_no_chunking(g, b1, step, k):
    # In global mode the only move out of a vertex that takes no chunks is
    # the types' default one: any other edge needs at least one chunk, and a
    # joint split with no chunks on either side needs both defaults. So when
    # the unaided walks are optimal, the DP's offer for them ties the best
    # cost with the fewest chunks at every step, and nothing is chunked.
    b2 = b1 + F(step, 4)
    dist = shortest_to_sink(g)
    unaided = [traverse(g, dist, BiasProfile(b)).total for b in (b1, b2)]
    plan, traces = two_agent_plan(g, b1, b2, BudgetSpec("global", k))
    if sum(t.total for t in traces) == sum(unaided):
        assert plan.chunkings == ()
    for b, walked in zip((b1, b2), unaided):
        plan, trace = chunk_graph_global(g, b, k)
        if trace.total == walked:
            assert plan.chunkings == ()


def _pair_moves(g):
    """Every position pair's moves as (head pair, scaled cost): both types
    move together from a shared vertex and, apart, the type at the
    topologically earlier vertex moves alone."""
    pos = {u: i for i, u in enumerate(validate(g))}

    def moves(pair):
        u, y = pair
        if u == y:
            out = g.scaled_out_edges(u)
            return [((v, z), cv + cz) for v, cv in out for z, cz in out]
        if pos[u] < pos[y]:
            return [((v, y), c) for v, c in g.scaled_out_edges(u)]
        return [((u, z), c) for z, c in g.scaled_out_edges(y)]

    return moves


def _reachable_pairs(g):
    """The position pairs a walk along `_pair_moves` reaches from (s, s), (t, t) aside."""
    moves = _pair_moves(g)
    seen, stack = set(), [(g.source, g.source)]
    while stack:
        pair = stack.pop()
        if pair not in seen:
            seen.add(pair)
            stack.extend(head for head, _ in moves(pair))
    return seen - {(g.sink, g.sink)}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**16).map(lambda seed: random_task_graph(random.Random(seed), 4, 9)),
    st.sampled_from(((F(3, 2), F(3)), (F(2), F(10)), (F(5, 2), F(25, 2)), (F(7, 4), F(9, 4)))),
    st.integers(1, 3),
    st.sampled_from(("local", "global")),
)
@example(DRAW_91, (F(3, 2), F(3)), 2, "global")
@example(DRAW_1334, (F(2), F(10)), 1, "local")
def test_the_pair_dp_solves_the_reachable_pairs_as_the_full_one(g, biases, k, mode):
    # The two-type DP is handed exactly the pairs reachable from (s, s), in
    # the full reverse-topological pair order, each with its full moves, and
    # asks chunks() about no other pair; the DP over every pair, with moves
    # built here, gives the same source row and walk.
    import chunkwise.multi_agent as ma

    rev = list(reversed(validate(g)))
    full = [(u, y) for u in rev for y in rev if not u == y == g.sink]
    full_moves = _pair_moves(g)
    source = (g.source, g.source)
    real = ma.cheapest_paths
    seen = []

    def spy(order, sink, moves, chunks, levels):
        asked = set()

        def counting(u, head):
            asked.add(u)
            return chunks(u, head)

        assert all(list(moves(p)) == full_moves(p) for p in order)
        rows, picks = real(order, sink, moves, counting, levels)
        full_rows, full_picks = real(full, sink, full_moves, chunks, levels)
        seen.append((list(order), asked, rows[source], full_rows[source]))
        if rows[source] is not None:
            walk = walk_choices(sink, picks, source, levels)
            assert walk == walk_choices(sink, full_picks, source, levels)
        return rows, picks

    reachable = _reachable_pairs(g)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ma, "cheapest_paths", spy)
        ma._two_agent_dp(JointMoves(g, *biases, BudgetSpec(mode, k)))
    ((order, asked, row, full_row),) = seen
    assert set(order) <= reachable  # every pair solved is reachable
    assert order == [p for p in full if p in reachable]  # and every reachable one, in order
    assert asked <= reachable
    assert row == full_row


def test_two_agent_plans_match_their_pinned_bytes():
    # Reading joint moves in bound order must not change a byte of any plan
    # or trace. The digest was recorded before the DP read its moves lazily.
    rng = random.Random(4141)
    digest = hashlib.sha256()
    chunked = 0
    for _ in range(30):
        g = random_task_graph(rng, min_vertices=4, max_vertices=8)
        b1 = _random_bias(rng)
        b2 = b1 + F(rng.randint(1, 8), 4)
        k = rng.randint(1, 3)
        for mode in ("local", "global"):
            plan, traces = two_agent_plan(g, b1, b2, BudgetSpec(mode, k))
            payload = plan.to_json()
            payload["traces"] = [t.to_json() for t in traces]
            digest.update(json.dumps(payload, sort_keys=True).encode())
            chunked += len(plan.chunkings)
    assert digest.hexdigest() == PINNED
    assert chunked > 0
    # The tie rule: s->a->t and s->b->t both cost 8 for the pair. The
    # two-agent DP breaks ties on (cost, chunks, v, z), the one-type rule,
    # so both types keep their default s->b->t and nothing is chunked.
    plan, traces = two_agent_plan(_tie_graph(), F(7, 2), F(15, 4), BudgetSpec("global", 4))
    assert plan.chunkings == ()
    assert plan.planned_paths == (("s", "b", "t"), ("s", "b", "t"))
    assert [t.total for t in traces] == [4, 4]


def test_a_joint_pair_beaten_on_cost_is_never_split(monkeypatch):
    # Any pair sending a type through w costs over 100, while both types can
    # share s->b->t for 12, so the DP never builds a move through (s, w) and
    # never asks chunk_split about it.
    import chunkwise.multi_agent as ma

    g = TaskGraph(
        ["s", "a", "b", "w", "t"],
        [("s", "a", 4), ("a", "t", 0), ("s", "b", 1), ("b", "t", 5), ("s", "w", 100), ("w", "t", 0)],
        source="s",
        sink="t",
    )
    asked = []
    split = ma.chunk_split

    def counting(g, dist, edge, *args):
        asked.append(edge)
        return split(g, dist, edge, *args)

    monkeypatch.setattr(ma, "chunk_split", counting)
    for mode in ("local", "global"):
        for k in (1, 2, 3):
            two_agent_plan(g, B2, F(3), BudgetSpec(mode, k))
    assert ("s", "a") in asked
    assert ("s", "w") not in asked


def test_pair_plan_simulates_each_type_once(monkeypatch, s32):
    import chunkwise.agent as ag
    import chunkwise.multi_agent as ma

    moves = ma.JointMoves(s32, B2, F(10), BudgetSpec("local", 3))
    P, Q = ("u", "v", "t"), ("u", "z", "t")
    plan, traces = ma._pair_plan(moves, P, Q)  # fills the joint-move table
    views: list[ag.PlanView] = []
    walked: list[Fraction] = []
    real_view, real_traverse = ag.PlanView, ag.traverse

    def counting_view(g, dist, plan):
        views.append(real_view(g, dist, plan))
        return views[-1]

    def counting_traverse(g, dist, profile, *args, **kwargs):
        assert g is dist is views[-1]
        walked.append(profile.default)
        return real_traverse(g, dist, profile, *args, **kwargs)

    monkeypatch.setattr(ag, "PlanView", counting_view)
    monkeypatch.setattr(ag, "traverse", counting_traverse)
    again = ma._pair_plan(moves, P, Q)
    assert len(views) == 1  # both types walk one view of the plan
    assert walked == [B2, F(10)]
    assert again == (plan, traces)
    assert [t.total for t in traces] == [F(741, 10), 76]


def test_a_joint_split_walks_both_types_on_one_view(monkeypatch, s32):
    # A1 (b = 2) takes (u, v) in three chunks while A2 (b = 10) keeps its
    # default (u, z): both first moves are checked on one view of the pair.
    import chunkwise.expansion as ex

    built = []
    real_init = ex.PlanView.__init__

    def counting_init(self, *args):
        built.append(self)
        real_init(self, *args)

    moves = JointMoves(s32, B2, F(10), BudgetSpec("global", 3))
    monkeypatch.setattr(ex.PlanView, "__init__", counting_init)
    witnesses = moves._split_witnesses("u", "v", "z", 3, 0)
    assert witnesses is not None and [ch.edge for ch in witnesses] == [("u", "v")]
    assert len(built) == 1


@pytest.mark.parametrize("mode,k", [("local", 3), ("global", 4)])
def test_two_agent_oracle_rejects_decreasing_biases(s32, mode, k):
    # The oracle, like the planner, takes the lower bias first; with the
    # biases swapped it used to return 152, above the optimum of both modes.
    budget = BudgetSpec(mode, k)
    with pytest.raises(InvalidParams, match="need b1 <= b2"):
        brute_force_two_agent_plan(s32, F(10), B2, budget)
    with pytest.raises(InvalidParams, match="need b1 <= b2"):
        two_agent_plan(s32, F(10), B2, budget)
    cost, _ = brute_force_two_agent_plan(s32, B2, F(10), budget)
    assert cost < 152


def test_two_agent_oracle_equal_biases(s32):
    from chunkwise.oracle import brute_force_graph_plan

    cost, _ = brute_force_two_agent_plan(s32, B2, B2, BudgetSpec("local", 3))
    single, _ = brute_force_graph_plan(s32, B2, BudgetSpec("local", 3))
    assert cost == 2 * single == F(741, 5)


def test_two_agent_global_budget_concentrates_where_it_pays(s32):
    # Four chunks tame the 65-cost edge for the low-bias type (true cost 67)
    # while the high-bias type keeps its 76 default: better than splitting
    # the budget across both types.
    plan, (t1, t2) = two_agent_plan(s32, B2, F(10), BudgetSpec("global", 4))
    assert (t1.total, t2.total) == (67, 76)
    assert plan.planned_paths == (("u", "w", "t"), ("u", "z", "t"))
    assert plan.total_chunks == 4
    oracle_cost, _ = brute_force_two_agent_plan(s32, B2, F(10), BudgetSpec("global", 4))
    assert t1.total + t2.total == oracle_cost


def test_m_agent_single_path_matches_exhaustive_paths():
    # Exhaustive enumeration over candidate shared paths, each validated by
    # simulating every type, must agree with the planner exactly.
    from chunkwise.graph import all_paths

    rng = random.Random(808)
    for _ in range(25):
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        dist = shortest_to_sink(g)
        b1 = _random_bias(rng)
        agents = AgentSet((b1, b1 + F(1, 2)))
        mode = rng.choice(("local", "global"))
        k = rng.randint(1, 3)
        budget = BudgetSpec(mode, k)
        plan, path = m_agent_single_path_plan(g, agents, budget)
        cost = plan.predicted_cost / agents.m
        profiles = [BiasProfile(b) for b in agents.biases]
        best = None
        for cand in all_paths(g):
            chunkings = []
            total_chunks = 0
            ok = True
            for i in range(len(cand) - 1):
                u, v = cand[i], cand[i + 1]
                if all(best_alternative(g, dist, p, u)[0] == v for p in profiles):
                    continue
                fill = same_path_fill(g, dist, (u, v), agents.biases, k)
                if fill is None:
                    ok = False
                    break
                chunkings.append(chunk_same_path(g, dist, (u, v), agents, len(fill)))
                total_chunks += len(fill)
            if not ok or (mode == "global" and total_chunks > k):
                continue
            cand_plan = ChunkPlan(chunkings=tuple(chunkings))
            followed = True
            for b in agents.biases:
                trace, cg = simulate_plan(g, cand_plan, BiasProfile(b))
                if original_path(cg, trace.path) != cand:
                    followed = False
                    break
            if not followed:
                continue
            cand_cost = sum(
                (g.cost(cand[i], cand[i + 1]) for i in range(len(cand) - 1)), F(0)
            )
            if best is None or cand_cost < best:
                best = cand_cost
        assert best == cost


def test_chunk_split_mass_loss_is_an_invariant_violation(s32, monkeypatch):
    # The split's checks must not vanish under python -O.
    import chunkwise.multi_agent as ma

    siphon = ma._phase_tail_siphon

    def leaky(ctx, xs, ti, bt, alpha):
        siphon(ctx, xs, ti, bt, alpha)
        xs[-1] += 1

    monkeypatch.setattr(ma, "_phase_tail_siphon", leaky)
    dist = shortest_to_sink(s32)
    with pytest.raises(InvariantViolation, match="conserve mass"):
        chunk_split(s32, dist, ("u", "v"), B2, F(10), 3, taker=1)


# A static plan the two-type planner misses, with b = (5/2, 25/2) and k = 2.
_MISS_GRAPH = _graph([
    ("s", "a", "7/4"), ("s", "b", "1/2"), ("s", "d", "3"), ("a", "b", "24/5"),
    ("a", "c", "7/10"), ("a", "d", "0"), ("b", "d", "2"), ("c", "t", "3/4"), ("d", "t", "0"),
])
_MISS_PLAN = ChunkPlan(chunkings=(Chunking("s", "a", (F(1), F(3, 4))),))


def test_a_two_chunk_split_of_s_a_costs_17_4():
    # Chunking (s, a) into (1, 3/4) sends the 5/2 type over s->a->d->t for
    # 7/4 and keeps the 25/2 type on s->b->d->t for 5/2: 17/4 for the pair,
    # in two chunks, which fits k = 2 in both budget modes.
    for b, path, cost in ((F(5, 2), "sadt", F(7, 4)), (F(25, 2), "sbdt", F(5, 2))):
        trace, cg = simulate_plan(_MISS_GRAPH, _MISS_PLAN, BiasProfile(b))
        assert original_path(cg, trace.path) == tuple(path) and trace.total == cost
    assert _MISS_PLAN.total_chunks == 2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="chunk_split maximizes the repelled type's largest perceived chunk, "
    "but a type decides at s on its first chunk, so two_agent_plan returns 5 "
    "with nothing chunked",
)
def test_two_agent_plan_finds_the_17_4_split_of_s_a():
    for mode in ("local", "global"):
        _, traces = two_agent_plan(_MISS_GRAPH, F(5, 2), F(25, 2), BudgetSpec(mode, 2))
        assert sum(t.total for t in traces) <= F(17, 4), mode


# A static plan the two-type planner misses, with b = (3/2, 15/2) and local
# k = 2: the types part at s, and both edges they leave by are chunked.
_BOTH_SIDES_GRAPH = _graph([
    ("s", "a", "7/4"), ("s", "b", "12"), ("s", "c", "12/5"), ("s", "t", "7"),
    ("a", "c", "2"), ("a", "t", "22"), ("b", "c", "22"), ("c", "t", "15/2"),
])
_BOTH_SIDES_PLAN = ChunkPlan(chunkings=(
    Chunking("s", "c", (F(3, 5), F(9, 5))), Chunking("s", "t", (F(7, 8), F(49, 8))),
))


def test_chunking_both_parting_edges_at_s_costs_169_10():
    # Chunking (s, c) into (3/5, 9/5) and (s, t) into (7/8, 49/8) keeps the
    # 3/2 type on s->t for 7 and sends the 15/2 type over s->c->t for
    # 99/10: 169/10 for the pair, with at most two chunks on each edge.
    for b, path, cost in ((F(3, 2), "st", 7), (F(15, 2), "sct", F(99, 10))):
        trace, cg = simulate_plan(_BOTH_SIDES_GRAPH, _BOTH_SIDES_PLAN, BiasProfile(b))
        assert original_path(cg, trace.path) == tuple(path) and trace.total == cost
    assert [ch.k for ch in _BOTH_SIDES_PLAN.chunkings] == [2, 2]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="each side's split witness is built against the unchunked graph, but "
    "at s each type also sees the other chain's entry cost, so two_agent_plan "
    "returns 73/4 with nothing chunked",
)
def test_two_agent_plan_finds_the_169_10_plan_chunking_both_sides():
    _, traces = two_agent_plan(_BOTH_SIDES_GRAPH, F(3, 2), F(15, 2), BudgetSpec("local", 2))
    assert sum(t.total for t in traces) <= F(169, 10)
