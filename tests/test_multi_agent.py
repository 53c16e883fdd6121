from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkwise import (
    AgentSet,
    BiasProfile,
    BudgetSpec,
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
    two_agent_plan,
)
from chunkwise.cli import main as cli_main
from chunkwise.edge_chunk import edge_context, min_chunks_to_beat, perceived_chunk_costs
from chunkwise.errors import (
    InfeasibleChunking,
    InvalidParams,
    InvariantViolation,
    TakerRefuses,
)
from chunkwise.expansion import ChunkPlan, original_path
from chunkwise.graph import path_cost
from chunkwise.graph_chunk import persuasion_profile
from chunkwise.multi_agent import JointMoves, Move, _caps, _same_path_fill, single_path_plan
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
        ctx = edge_context(s32, dist, edge)
        alpha = outside_alpha(s32, dist, bias, *edge)
        assert all(p <= alpha for p in perceived_chunk_costs(ctx, chunking.chunks, bias))
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
        assert max(perceived_chunk_costs(ctx, chunking.chunks, b2)) <= alpha
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
        assert (_same_path_fill(g, dist, edge, AgentSet((b,)), k) is not None) == optimal_ok


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
    agents = AgentSet((B2, F(5, 2)))
    feas = [_same_path_fill(s32, dist, ("u", "w"), agents, k) is not None for k in range(1, 12)]
    assert feas == sorted(feas)  # False... then True
    fill = _same_path_fill(s32, dist, ("u", "w"), agents, 11)
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
                fill = _same_path_fill(g, dist, (u, v), agents, k)
                assert (None if fill is None else len(fill)) == (
                    min_chunks_to_beat(g, dist, (u, v), b, alpha, k)
                )


def test_caps_read_from_the_profiles_are_the_outside_options():
    # A planner holding the types' persuasion profiles reads a type's cap as
    # its alpha at the tail, and asks best_alternative only on that type's
    # default edge; every cap must still be the type's outside option.
    rng = random.Random(53)
    defaults = checked = 0
    while checked < 600:
        g = random_task_graph(rng, min_vertices=3, max_vertices=7)
        dist = shortest_to_sink(g)
        b1 = _random_bias(rng)
        agents = AgentSet((b1, b1 + Fraction(rng.randint(1, 8), 4)))
        perss = [persuasion_profile(g, dist, b) for b in agents.biases]
        for u, v, _ in g.edges:
            if len(g.out_edges(u)) < 2:
                continue
            checked += 1
            defaults += any(p.default[u] == v for p in perss)
            expected = [(b, outside_alpha(g, dist, b, u, v)) for b in agents.biases]
            assert _caps(g, dist, (u, v), agents, perss) == expected
            assert _caps(g, dist, (u, v), agents) == expected
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
        greedy = _same_path_fill(g, dist, edge, agents, k) is not None
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
        greedy = _same_path_fill(g, dist, ("u", "v"), agents, k) is not None
        grid = grid_same_path_feasible(g, dist, ("u", "v"), agents.biases, GridSpec(32, k))
        assert greedy == grid


# ---------------------------------------------------------------------------
# JointMoves.move
# ---------------------------------------------------------------------------


def test_joint_move_shared_tail_split(s32):
    moves = JointMoves(s32, B2, F(10), BudgetSpec("local", 3))
    split = moves.move("u", "v", "z")
    assert split is not None
    # A2's default is z, so only (u, v) carries a witness chunking.
    assert [w.edge for w in split.witnesses] == [("u", "v")]
    assert moves.move("u", "z", "z") is not None  # both defaults
    assert moves.move("u", "v", "v") is None  # no chunking of (u,v) that b=10 takes


def test_joint_move_same_edge_infeasible(s32):
    assert JointMoves(s32, B2, F(3), BudgetSpec("local", 3)).move("u", "v", "v") is None


def test_joint_move_global_minimal_counts(s32):
    moves = JointMoves(s32, B2, F(10), BudgetSpec("global", 3))
    assert moves.move("u", "v", "z").chunk_count == 3  # (u,v) needs all three; (u,z) is default
    assert moves.move("u", "z", "z").chunk_count == 0


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
    found = _non_monotone_split_moves().move("s", "a", "b")
    assert found is not None and found.chunk_count == 2


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
                found = moves.move(u, v, z)
                least = None
                for i, j in cells:
                    wit = moves._split_witnesses(u, v, z, i, j)
                    if wit is not None:
                        least = Move(i + j, wit)
                        break
                assert found == least, (u, v, z)
                triples += 1
                splits += found is not None
    assert splits > 0 and triples > splits


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
        assert single_path_plan(g, AgentSet((b,)), budget) == (ref_plan, (ref_trace,))
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


def test_two_agent_fallback_path():
    # The DP's pick sends A1 over (d, f) while A2 passes d on its way to t,
    # and no joint move at d does that, so the pair plan fails and the
    # exhaustive static fallback plans the oracle's optimum. The DP charges
    # (d, t) once per type, 2 + 2 chunks, where one 2-chunk same-edge
    # chunking serves both, so it priced that cheaper pair out of budget.
    import chunkwise.multi_agent as ma

    g = TaskGraph(
        ["s", "a", "b", "c", "d", "e", "f", "t"],
        [
            ("s", "a", 0), ("s", "d", F(7, 10)), ("s", "f", F(5, 4)), ("a", "b", 5),
            ("a", "c", F(3, 5)), ("b", "e", F(1, 2)), ("c", "d", F(5, 4)), ("c", "e", F(7, 5)),
            ("d", "f", F(6, 5)), ("d", "t", 2), ("e", "f", 6), ("f", "t", F(6, 5)),
        ],
        "s",
        "t",
    )
    b1, b2, budget = F(7, 3), F(22, 3), BudgetSpec("global", 2)
    moves = JointMoves(g, b1, b2, budget)
    picked = ma._two_agent_dp(moves)
    assert picked == (("s", "d", "f", "t"), ("s", "a", "c", "d", "t"))
    assert path_cost(g, picked[0]) + path_cost(g, picked[1]) == F(139, 20)
    assert moves.move("d", "f", "t") is None
    assert ma._pair_plan(moves, *picked) is None
    plan, traces = two_agent_plan(g, b1, b2, budget)
    assert plan.planned_paths == (("s", "d", "t"), ("s", "a", "c", "d", "t"))
    assert [(ch.edge, ch.chunks) for ch in plan.chunkings] == [(("d", "t"), (F(7, 11), F(15, 11)))]
    assert sum(t.total for t in traces) == F(131, 20)
    _assert_replays(g, plan, traces)
    assert brute_force_two_agent_plan(g, b1, b2, budget)[0] == F(131, 20)


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
    # One two-agent call computes each type's persuasion profile once and
    # each chunk_split (edge, chunks, taker) once, however often the DP, the
    # pair plans and the fallback ask for them.
    import chunkwise.multi_agent as ma

    profiles: list[Fraction] = []
    splits: list[tuple] = []
    real_profile, real_split = ma.persuasion_profile, ma.chunk_split

    def counting_profile(g, dist, b):
        profiles.append(b)
        return real_profile(g, dist, b)

    def counting_split(g, dist, edge, b1, b2, k, taker=1):
        splits.append((edge, k, taker))
        return real_split(g, dist, edge, b1, b2, k, taker)

    monkeypatch.setattr(ma, "persuasion_profile", counting_profile)
    monkeypatch.setattr(ma, "chunk_split", counting_split)
    rng = random.Random(4040)
    total_splits = 0
    for _ in range(40):
        g = random_task_graph(rng, min_vertices=4, max_vertices=8)
        b1 = _random_bias(rng)
        b2 = b1 + F(rng.randint(1, 8), 4)
        budget = BudgetSpec(rng.choice(("local", "global")), rng.randint(1, 3))
        profiles.clear()
        splits.clear()
        two_agent_plan(g, b1, b2, budget)
        assert sorted(profiles) == [b1, b2]
        assert len(splits) == len(set(splits))
        total_splits += len(splits)
    assert total_splits > 0  # the split memo was exercised


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
    # two-agent DP breaks ties on (cost, rank, v, z, chunks), so the joint
    # move to (a, a) beats the one to (b, b) and (s, a) is chunked, where the
    # one-type rule (cost, chunks, head) would leave the graph unchunked.
    tie = TaskGraph(
        ["s", "a", "b", "t"],
        [("s", "a", 2), ("a", "t", 2), ("s", "b", 1), ("b", "t", 3)],
        source="s",
        sink="t",
    )
    plan, traces = two_agent_plan(tie, F(7, 2), F(15, 4), BudgetSpec("global", 4))
    assert [(ch.edge, ch.chunks) for ch in plan.chunkings] == [(("s", "a"), (F(11, 15), F(19, 15)))]
    assert plan.planned_paths == (("s", "a", "t"), ("s", "a", "t"))
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
    import chunkwise.multi_agent as ma

    moves = ma.JointMoves(s32, B2, F(10), BudgetSpec("local", 3))
    P, Q = ("u", "v", "t"), ("u", "z", "t")
    plan, traces = ma._pair_plan(moves, P, Q)  # fills the joint-move table
    views: list[ma.PlanView] = []
    walked: list[Fraction] = []
    real_view, real_traverse = ma.PlanView, ma.traverse

    def counting_view(g, dist, plan):
        views.append(real_view(g, dist, plan))
        return views[-1]

    def counting_traverse(g, dist, profile, *args, **kwargs):
        assert g is dist is views[-1]
        walked.append(profile.default)
        return real_traverse(g, dist, profile, *args, **kwargs)

    monkeypatch.setattr(ma, "PlanView", counting_view)
    monkeypatch.setattr(ma, "traverse", counting_traverse)
    again = ma._pair_plan(moves, P, Q)
    assert len(views) == 1  # both types walk one view of the plan
    assert walked == [B2, F(10)]
    assert again == (plan, traces)
    assert [t.total for t in traces] == [F(741, 10), 76]


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
    from chunkwise.graph_chunk import persuasion_profile

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
        perss = [persuasion_profile(g, dist, b) for b in agents.biases]
        best = None
        for cand in all_paths(g):
            chunkings = []
            total_chunks = 0
            ok = True
            for i in range(len(cand) - 1):
                u, v = cand[i], cand[i + 1]
                if all(p.default[u] == v for p in perss):
                    continue
                fill = _same_path_fill(g, dist, (u, v), agents, k)
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
