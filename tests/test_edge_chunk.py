from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from chunkwise import (
    Chunking,
    TaskGraph,
    chunk_shortest_edge,
    delta,
    edge_chunk,
    evaluate_chunking,
    min_chunks_to_beat,
    optimal_edge_chunking,
    random_task_graph,
    selective_bias_closed_form,
    shortest_to_sink,
)
from chunkwise.agent import chunking_perceived_by_expansion
from chunkwise.edge_chunk import _candidates, edge_context
from chunkwise.errors import InvalidParams, NoAlternative
from chunkwise.expansion import expand_plan, single_edge_plan
from chunkwise.oracle import (
    GridSpec,
    brute_force_edge_chunking,
    independent_min_bottleneck,
    max_mass_under_cap,
)
from conftest import s32_graph

B2 = Fraction(2)
F = Fraction


def test_chunk_shortest_edge_goldens():
    assert chunk_shortest_edge(F(14), B2, 3) == (2, 4, 8)
    assert chunk_shortest_edge(F(5), B2, 1) == (5,)
    assert chunk_shortest_edge(F(1), B2, 2) == (F(1, 3), F(2, 3))


def test_chunk_shortest_edge_mass_and_shape():
    rng = random.Random(2)
    for _ in range(50):
        x = F(rng.randint(0, 50), rng.choice((1, 2, 5)))
        b = F(rng.randint(5, 20), 4)
        k = rng.randint(1, 8)
        chunks = chunk_shortest_edge(x, b, k)
        assert sum(chunks) == x
        assert all(c >= 0 for c in chunks)
        # later chunks are b/(b-1) times harder
        for a, c in zip(chunks, chunks[1:]):
            assert c * (b - 1) == a * b


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=0, max_value=100, max_denominator=60),
    st.fractions(min_value=F(7, 6), max_value=8, max_denominator=6),
    st.integers(1, 64),
)
def test_chunk_shortest_edge_matches_fraction_power_closed_form(x, b, k):
    # The chunks are built from integer powers of b's numerator and
    # denominator; the closed form here uses Fraction powers of b and b - 1.
    expected = tuple(
        (b - 1) ** (k - i) * b ** (i - 1) / (b**k - (b - 1) ** k) * x for i in range(1, k + 1)
    )
    assert chunk_shortest_edge(x, b, k) == expected


def test_selective_bias_closed_form_goldens():
    assert selective_bias_closed_form(B2, 1) == 2
    assert selective_bias_closed_form(B2, 2) == F(4, 3)
    assert selective_bias_closed_form(B2, 3) == F(8, 7)


def test_selective_bias_strictly_decreasing_to_one():
    for b in (B2, F(3, 2), F(7)):
        prev = None
        for k in range(1, 65):
            val = selective_bias_closed_form(b, k)
            assert val > 1
            if prev is not None:
                assert val < prev
            prev = val
        assert prev - 1 < F(1, 1000)  # converging toward 1


def test_selective_bias_invalid_params():
    with pytest.raises(InvalidParams):
        selective_bias_closed_form(F(1), 3)
    with pytest.raises(InvalidParams):
        selective_bias_closed_form(B2, 0)


def test_delta_examples(s32):
    dist = shortest_to_sink(s32)
    assert delta(s32, dist, ("u", "v")) == F(71, 10)
    # (u, w) starts the shortest path; its best alternative is the v-route.
    assert delta(s32, dist, ("u", "w")) == 67 - F(741, 10) == F(-71, 10)


def test_delta_no_alternative():
    from chunkwise import TaskGraph

    g = TaskGraph(["s", "t"], [("s", "t", 3)], "s", "t")
    with pytest.raises(NoAlternative):
        delta(g, shortest_to_sink(g), ("s", "t"))


def test_delta_nonpositive_on_shortest_path_edges():
    rng = random.Random(4)
    for _ in range(40):
        g = random_task_graph(rng)
        dist = shortest_to_sink(g)
        for u, v, _ in g.edges:
            if u == g.sink or dist.successor.get(u) != v:
                continue
            try:
                assert delta(g, dist, (u, v)) <= 0
            except NoAlternative:
                pass


def test_evaluate_geometric_chunking_s32(s32):
    dist = shortest_to_sink(s32)
    chunking = Chunking("u", "v", chunk_shortest_edge(F(14), B2, 3))
    report = evaluate_chunking(s32, dist, chunking, B2)
    assert report.perceived == (71, 75, F(761, 10))
    assert report.bottleneck == F(761, 10)
    assert report.delta == F(71, 10)


def test_evaluate_balanced_chunking_s32(s32):
    dist = shortest_to_sink(s32)
    chunking = Chunking("u", "v", (F("3.55"), F("3.55"), F("6.9")))
    report = evaluate_chunking(s32, dist, chunking, B2)
    assert report.perceived == (F(741, 10), F(741, 10), F(739, 10))
    assert report.tau == 2
    assert report.bottleneck == F(741, 10)
    assert report.selective_bias == 1


def test_transition_vertex_stays_on_the_chain_at_an_exact_tie(s32):
    # Chain vertex 2 has 6.9 ahead: 6.9 + 60.1 ties the 67-cost outside
    # route exactly, so only vertex 1 leaves, wherever the tie sits.
    dist = shortest_to_sink(s32)
    for chunks in ((F("7.1"), F("6.9"), F(0)), (F("7.1"), F("6.9"))):
        assert evaluate_chunking(s32, dist, Chunking("u", "v", chunks), B2).tau == 1


@pytest.mark.parametrize("chunks", [(7.0, 7.0), (F(13), True), (F(14), False), (F(14), 0.0)])
def test_chunking_rejects_inexact_chunks(chunks):
    # A float chunking of s32's (u, v) used to build and then fail the sum
    # check with "chunks sum to 13.999999999999993"; a bool passed as 1 or 0.
    with pytest.raises(InvalidParams, match="exact"):
        Chunking("u", "v", chunks)


@pytest.mark.parametrize("chunks", [(F(15), F(-1)), (F(-1, 3), F(43, 3)), (15, -1), (F(14), -1, 1)])
def test_chunking_rejects_negative_chunks(chunks):
    with pytest.raises(InvalidParams, match="nonnegative"):
        Chunking("u", "v", chunks)


def test_chunking_accepts_zero_chunks():
    for chunks in ((F(0), F(14)), (0, F(14), 0), (0,), (F(0),)):
        assert Chunking("u", "v", chunks).chunks == chunks


def test_evaluate_geometric_equalizes_on_shortest_edges(s32):
    dist = shortest_to_sink(s32)
    chunking = Chunking("u", "w", chunk_shortest_edge(F(65), B2, 4))
    report = evaluate_chunking(s32, dist, chunking, B2)
    expected = selective_bias_closed_form(B2, 4) * 65 + 2
    assert all(p == expected for p in report.perceived)
    assert report.tau == 0


def test_evaluate_matches_expanded_graph_exactly(s32):
    # Closed-form perceived costs must equal what the agent actually sees in
    # the expanded graph, for golden and random chunkings alike.
    rng = random.Random(7)
    dist = shortest_to_sink(s32)
    for _ in range(25):
        k = rng.randint(1, 5)
        cuts = sorted(F(rng.randint(0, 140), 10) for _ in range(k - 1))
        chunks = []
        prev = F(0)
        for c in cuts + [F(14)]:
            chunks.append(c - prev)
            prev = c
        chunking = Chunking("u", "v", tuple(chunks))
        report = evaluate_chunking(s32, dist, chunking, B2)
        assert report.perceived == chunking_perceived_by_expansion(s32, chunking, B2)


def test_evaluate_matches_expansion_random_graphs():
    rng = random.Random(8)
    for _ in range(30):
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        dist = shortest_to_sink(g)
        candidates = [e[:2] for e in g.edges if e[0] != g.sink]
        edge = candidates[rng.randrange(len(candidates))]
        x = g.cost(*edge)
        k = rng.randint(1, 4)
        b = F(rng.randint(5, 12), 4)
        chunking, report = optimal_edge_chunking(g, dist, edge, b, k)
        assert report.perceived == chunking_perceived_by_expansion(g, chunking, b)
        assert sum(chunking.chunks) == x


@st.composite
def _walk_queries(draw):
    # A random_task_graph edge, either its tail's only out-edge or one with an
    # outside option, and a chunking of it with mixed denominators (cut points
    # over 1..12), zero chunks (repeated cuts, or cuts at 0 and x) and k <= 6.
    g = random_task_graph(random.Random(draw(st.integers(0, 2**32 - 1))), 4, 7)
    dist = shortest_to_sink(g)
    contexts = [edge_context(g, dist, e[:2]) for e in g.edges]
    kind = draw(st.sampled_from(("only", "outside", "tie")))
    if kind == "only":
        contexts = [ctx for ctx in contexts if ctx.outside is None]
    else:
        contexts = [ctx for ctx in contexts if ctx.outside is not None]
    if kind == "tie":  # room for a chain vertex whose suffix route ties outside
        contexts = [ctx for ctx in contexts if 0 <= ctx.outside - ctx.cost_to_sink <= ctx.x]
    assume(contexts)
    ctx = draw(st.sampled_from(contexts))
    x = ctx.x
    cut = st.one_of(st.just(x), st.fractions(min_value=0, max_value=x, max_denominator=12))
    cuts = draw(st.lists(cut, max_size=5))
    if kind == "tie":  # the mass after this cut is exactly outside - c(v->t)
        cuts[draw(st.integers(0, len(cuts))) :] = [x - (ctx.outside - ctx.cost_to_sink)]
    cuts = sorted(cuts)
    chunks = tuple(after - before for before, after in zip([F(0)] + cuts, cuts + [x]))
    b = draw(st.fractions(min_value=F(5, 4), max_value=6, max_denominator=4))
    return g, dist, ctx, Chunking(ctx.tail, ctx.head, chunks), b


@settings(max_examples=200, deadline=None)
@given(_walk_queries())
def test_evaluation_walk_matches_the_expanded_graph(query):
    g, dist, ctx, chunking, b = query
    report = evaluate_chunking(g, dist, chunking, b)
    expected = chunking_perceived_by_expansion(g, chunking, b)
    assert report.perceived == expected
    assert report.bottleneck == max(expected)
    # tau read off the expanded graph: the last chunk whose tail vertex lies
    # closer to the sink than c(v->t) plus the chunk mass from it on.
    cg = expand_plan(g, single_edge_plan(chunking))
    chain, exp_dist = cg.chain_of(chunking.edge), shortest_to_sink(cg.graph)
    leaves = [
        i
        for i in range(1, chunking.k + 1)
        if exp_dist[chain[i - 1]] < ctx.cost_to_sink + sum(chunking.chunks[i - 1 :])
    ]
    assert report.tau == max(leaves, default=0)
    wrong = Chunking(*chunking.edge, chunking.chunks[:-1] + (chunking.chunks[-1] + F(1, 7),))
    with pytest.raises(InvalidParams, match="sum"):
        evaluate_chunking(g, dist, wrong, b)


def test_optimal_edge_chunking_s32_k3_beats_the_balanced_head_split(s32):
    # The balanced-at-the-transition split (3.55, 3.55, 6.9) reaches 74.1,
    # but equalizing all three perceived costs is strictly better.
    dist = shortest_to_sink(s32)
    chunking, report = optimal_edge_chunking(s32, dist, ("u", "v"), B2, 3)
    assert chunking.chunks == (F(211, 60), F(211, 60), F(209, 30))
    assert report.bottleneck == F(2221, 30)
    assert report.bottleneck < F(741, 10)
    assert len(set(report.perceived)) == 1


def test_optimal_edge_chunking_s32_k2(s32):
    dist = shortest_to_sink(s32)
    chunking, report = optimal_edge_chunking(s32, dist, ("u", "v"), B2, 2)
    assert chunking.chunks == (F("5.275"), F("8.725"))
    assert report.bottleneck == F(1551, 20)
    assert report.tau == 2


def test_optimal_edge_chunking_shortest_path_edge(s32):
    dist = shortest_to_sink(s32)
    chunking, report = optimal_edge_chunking(s32, dist, ("u", "w"), B2, 3)
    assert chunking.chunks == chunk_shortest_edge(F(65), B2, 3)
    assert report.bottleneck == selective_bias_closed_form(B2, 3) * 65 + 2


def test_optimal_edge_chunking_k1_identity(s32):
    dist = shortest_to_sink(s32)
    chunking, report = optimal_edge_chunking(s32, dist, ("u", "v"), B2, 1)
    assert chunking.chunks == (14,)
    assert report.bottleneck == 2 * 14 + F(601, 10)


# Outside route cheaper than even the bare remainder of (u, v).
_DELTA_ABOVE_X = TaskGraph(
    ["u", "w", "v", "t"],
    [("u", "w", 1), ("w", "t", 1), ("u", "v", 4), ("v", "t", 10)],
    "u",
    "t",
)


def test_optimal_edge_chunking_delta_above_x():
    # Every chain vertex would leave, and the final chunk alone balances
    # against the head.
    g = _DELTA_ABOVE_X
    dist = shortest_to_sink(g)
    d = delta(g, dist, ("u", "v"))
    assert d == 4 + 10 - 2 == 12 > 4
    chunking, report = optimal_edge_chunking(g, dist, ("u", "v"), B2, 3)
    assert sum(chunking.chunks) == 4
    grid_chunking, grid_best = brute_force_edge_chunking(
        g, dist, ("u", "v"), B2, GridSpec(240, 3)
    )
    assert report.bottleneck <= grid_best


def test_optimal_edge_chunking_zero_cost_edge():
    from chunkwise import TaskGraph

    g = TaskGraph(
        ["u", "a", "b", "t"],
        [("u", "a", 0), ("a", "t", 5), ("u", "b", 1), ("b", "t", 1)],
        "u",
        "t",
    )
    dist = shortest_to_sink(g)
    chunking, report = optimal_edge_chunking(g, dist, ("u", "a"), B2, 3)
    assert chunking.chunks == (0, 0, 0)
    assert report.selective_bias == 1


def test_optimal_bottleneck_non_increasing_in_k(s32):
    dist = shortest_to_sink(s32)
    for edge in (("u", "v"), ("u", "w"), ("u", "z")):
        prev = None
        for k in range(1, 9):
            _, report = optimal_edge_chunking(s32, dist, edge, B2, k)
            if prev is not None:
                assert report.bottleneck <= prev
            prev = report.bottleneck


def test_optimal_matches_independent_inverse_on_random_instances():
    # The candidate-and-evaluate optimizer and the greedy-mass inverse share
    # no formulas; their optimal bottlenecks must agree exactly.
    rng = random.Random(31)
    for _ in range(120):
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        dist = shortest_to_sink(g)
        candidates = [e[:2] for e in g.edges if e[0] != g.sink]
        edge = candidates[rng.randrange(len(candidates))]
        b = F(rng.randint(5, 16), 4)
        k = rng.randint(1, 5)
        _, report = optimal_edge_chunking(g, dist, edge, b, k)
        assert report.bottleneck == independent_min_bottleneck(g, dist, edge, b, k)


def test_equal_perceived_chunkings_are_never_beaten_by_the_grid(s32):
    dist = shortest_to_sink(s32)
    for k, d in ((2, 560), (3, 840)):
        _, report = optimal_edge_chunking(s32, dist, ("u", "v"), B2, k)
        assert len(set(report.perceived)) == 1
        _, grid_best = brute_force_edge_chunking(s32, dist, ("u", "v"), B2, GridSpec(d, k))
        assert grid_best == report.bottleneck


def test_bottleneck_improvement_lowers_outside_routed_bottleneck_chunks(s32):
    # Any same-transition chunking with a strictly smaller bottleneck assigns
    # strictly less cost to every bottleneck chunk whose head still routes
    # through the outside option (those chunks share the additive term, so
    # only their own cost can move the perceived cost). Bottleneck chunks
    # whose head follows the chain can dodge via their suffix instead; see
    # test_defects.py for a concrete instance.
    dist = shortest_to_sink(s32)
    rng = random.Random(12)
    seen = 0
    while seen < 200:
        cuts = sorted(F(rng.randint(0, 56), 4) for _ in range(2))
        xs = (cuts[0], cuts[1] - cuts[0], 14 - cuts[1])
        cuts2 = sorted(F(rng.randint(0, 56), 4) for _ in range(2))
        ys = (cuts2[0], cuts2[1] - cuts2[0], 14 - cuts2[1])
        ra = evaluate_chunking(s32, dist, Chunking("u", "v", xs), B2)
        rb = evaluate_chunking(s32, dist, Chunking("u", "v", ys), B2)
        if ra.tau != rb.tau or rb.bottleneck >= ra.bottleneck:
            continue
        seen += 1
        for i, p in enumerate(ra.perceived):
            if p == ra.bottleneck and (i + 1) + 1 <= ra.tau:
                assert ys[i] < xs[i]


def test_min_chunks_to_beat_examples(s32):
    dist = shortest_to_sink(s32)
    assert min_chunks_to_beat(s32, dist, ("u", "v"), B2, F(76), 5) == 3
    # the unchunked 76-route already meets a threshold of 76
    assert min_chunks_to_beat(s32, dist, ("u", "z"), B2, F(76), 5) == 1
    # 65/(1 - 2^-l) + 2 <= 76 first holds at l = 4
    assert min_chunks_to_beat(s32, dist, ("u", "w"), B2, F(76), 10) == 4
    assert min_chunks_to_beat(s32, dist, ("u", "w"), B2, F(76), 3) is None
    assert min_chunks_to_beat(s32, dist, ("u", "w"), B2, F(60), 64) is None


def test_min_chunks_to_beat_at_a_threshold_off_the_graphs_scale(s32):
    # 2221/30 is the optimal 3-chunking's bottleneck of (u, v) at b = 2; its
    # denominator 30 does not divide s32's scale 10, so the fill's unit is
    # their lcm, 30.
    dist = shortest_to_sink(s32)
    assert s32.scale == 10
    assert min_chunks_to_beat(s32, dist, ("u", "v"), B2, F(2221, 30), 8) == 3
    assert min_chunks_to_beat(s32, dist, ("u", "v"), B2, F(2221, 30) - F(1, 10**6), 8) == 4


def test_optimal_matches_inverse_at_bias_extremes():
    # Barely biased and extremely biased agents, k up to 10.
    rng = random.Random(20240810)
    for _ in range(250):
        g = random_task_graph(rng, min_vertices=3, max_vertices=7)
        dist = shortest_to_sink(g)
        edges = [e[:2] for e in g.edges if e[0] != g.sink]
        edge = edges[rng.randrange(len(edges))]
        style = rng.random()
        if style < 0.25:
            b = 1 + F(1, rng.randint(2, 64))
        elif style < 0.5:
            b = F(rng.randint(8, 60))
        else:
            den = rng.choice((1, 2, 3, 4, 7, 10))
            b = F(rng.randint(den + 1, 6 * den), den)
        k = rng.randint(1, 10)
        _, report = optimal_edge_chunking(g, dist, edge, b, k)
        assert report.bottleneck == independent_min_bottleneck(g, dist, edge, b, k)


def test_optimal_bottleneck_monotone_in_k_random():
    rng = random.Random(31337)
    for _ in range(25):
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        dist = shortest_to_sink(g)
        edges = [e[:2] for e in g.edges if e[0] != g.sink]
        edge = edges[rng.randrange(len(edges))]
        b = F(rng.randint(5, 20), 4)
        prev = None
        for k in range(1, 17):
            _, rep = optimal_edge_chunking(g, dist, edge, b, k)
            if prev is not None:
                assert rep.bottleneck <= prev
            prev = rep.bottleneck


def _one_edge(x, c, o) -> TaskGraph:
    # Edge (u, v) of cost x, c(v->t) = c, and one outside route of cost o.
    return TaskGraph(
        ["u", "v", "z", "t"],
        [("u", "v", x), ("v", "t", c), ("u", "z", 0), ("z", "t", o)],
        "u",
        "t",
    )


def _s32_uv(outside) -> TaskGraph:
    # (u, v) of s32 (x = 14, c(v->t) = 60.1) with one outside route of the given cost.
    return _one_edge(14, F(601, 10), outside)


@st.composite
def _edge_queries(draw):
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        g = random_task_graph(random.Random(seed), min_vertices=3, max_vertices=8)
        edge = draw(st.sampled_from([e[:2] for e in g.edges if e[0] != g.sink]))
    else:
        # One edge (u, v) and one outside route: draws every delta regime.
        cost = st.fractions(min_value=0, max_value=40, max_denominator=12)
        g, edge = _one_edge(draw(cost), draw(cost), draw(cost)), ("u", "v")
    b = draw(st.fractions(min_value=F(7, 6), max_value=8, max_denominator=6))
    return g, edge, b, draw(st.integers(1, 24))


def _head_then_geometric(x: F, b: F, k: int, h: int, y: F) -> tuple[F, ...]:
    # The Fraction route to a candidate: h head chunks y, then the geometric
    # chunking of the rest over the last k - h chunks.
    return (y,) * h + chunk_shortest_edge(x - h * y, b, k - h)


def _all_candidates(ctx, b: F, k: int) -> list[tuple[int, int, F]]:
    """The optimizer's whole candidate family as (tau, h, y) in `Fraction`s,
    each h head chunks y and then a geometric tail: one or two for every
    transition vertex tau < k, then the tau = k one. `_candidates` yields
    the members at tau* and k."""
    x, c, o = ctx.x, ctx.cost_to_sink, ctx.outside
    if k == 1 or o is None or x + c - o <= 0:
        return [(k, 0, F(0))]
    d, q = x + c - o, (b - 1) / b
    family = []
    if d <= x:
        for tau in range(1, k):
            family.append((tau, tau, d / tau))  # head-heavy
            if (x - d) / (1 - q ** (k - tau)) + c <= b * d / tau + o:
                continue
            if tau == 1:
                family.append((1, 0, F(0)))  # geometric
                continue
            z = 1 - q ** (k - tau + 1)  # rebalanced
            y = min((d * z + (1 - z) * x) / (tau - 1 + z * b), d / (tau - 1))
            family.append((tau, tau - 1, y))
    family.append((k, k - 1, min((d + (b - 1) * x) / (b * k), d / (k - 1), x / (k - 1))))
    return family


# At b = 2 and k = 2 its head-heavy chunking at tau = 1 has both perceived
# costs 115/4, so tau* = k and the tau = k candidate is that same chunking.
_TWO_TIED = _one_edge(21, F(3, 4), F(59, 4))
# At b = 2 and k = 4 the head-heavy chunking at tau = 2 perceives 25 on its
# head and on its tail, so tau* = 3.
_TIED_AT_2 = _one_edge(24, 1, 19)


@settings(max_examples=300, deadline=None)
@given(_edge_queries())
@example((_s32_uv(F(601, 10)), ("u", "v"), B2, 8))  # delta = x: tau* = k
@example((_s32_uv(73), ("u", "v"), B2, 3))  # tau* = 1: the geometric one
@example((_TWO_TIED, ("u", "v"), B2, 2))  # tau*-1 = 1 ties the tau = k candidate
@example((_TIED_AT_2, ("u", "v"), B2, 4))  # a head-heavy tie at tau*-1 = 2
@example((s32_graph(), ("u", "v"), B2, 2))
@example((s32_graph(), ("u", "v"), B2, 64))
def test_candidate_screen_is_exact(query):
    # The optimizer evaluates only the screened candidates whose closed-form
    # bottleneck ties the least one. That is sound only if every closed form
    # is exact and the screen's candidates at tau* and k keep the argmin of the
    # whole family. Evaluate the screen and the whole family here.
    g, edge, b, k = query
    dist = shortest_to_sink(g)
    ctx = edge_context(g, dist, edge)
    screen = list(_candidates(ctx, b, k))
    assert len(screen) <= 3
    family = _all_candidates(ctx, b, k)
    # tau* is the least tau < k that also yields a rebalanced or geometric
    # candidate (h < tau), else k.
    tau_star = min((tau for tau, h, _ in family if h < tau < k), default=k)
    window = [(h, y) for tau, h, y in family if tau in (tau_star, k)]
    assert [(h, F(y_n, y_d)) for _, _, h, y_n, y_d in screen] == window
    for n, m, h, y_n, y_d in screen:
        chunking = Chunking(*edge, _head_then_geometric(ctx.x, b, k, h, F(y_n, y_d)))
        assert evaluate_chunking(g, dist, chunking, b).bottleneck == F(n, m)
    keys = []
    for _, h, y in family:
        chunking = Chunking(*edge, _head_then_geometric(ctx.x, b, k, h, y))
        report = evaluate_chunking(g, dist, chunking, b)
        keys.append((report.bottleneck, report.tau, chunking.chunks))
    chunking, report = optimal_edge_chunking(g, dist, edge, b, k)
    assert (report.bottleneck, report.tau, chunking.chunks) == min(keys)
    assert report.bottleneck == independent_min_bottleneck(g, dist, edge, b, k)


@pytest.mark.parametrize(
    "g, k, ties",
    [(s32_graph(), 3, 1), (s32_graph(), 8, 1), (_DELTA_ABOVE_X, 3, 1), (_TWO_TIED, 2, 1)],
    ids=["s32-k3", "s32-k8", "delta>x-k3", "two-tied-k2"],
)
def test_optimizer_evaluates_only_the_screen_ties(monkeypatch, g, k, ties):
    # Every candidate tied at the least screened bottleneck, and no other,
    # goes through the int walk, once.
    dist = shortest_to_sink(g)
    edge = ("u", "v")
    bottlenecks = [F(n, m) for n, m, *_ in _candidates(edge_context(g, dist, edge), B2, k)]
    assert bottlenecks.count(min(bottlenecks)) == ties
    calls = []
    walk = edge_chunk._suffix_walk

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(edge_chunk, "_suffix_walk", counted)
    optimal_edge_chunking(g, dist, edge, B2, k)
    assert len(calls) == ties


def test_optimizer_breaks_a_screen_tie_on_tau_and_chunks(monkeypatch):
    # The screen's candidates tie only where they are one chunking, so the
    # optimizer is fed a two-tie screen here. With c(v->t) = 30 above every
    # head cost, any chunking whose last chunk is 0 has bottleneck 30: a
    # 2-heads-of-6 candidate, (6, 6, 0, 0), ties the screen's own (4, 4, 4, 0)
    # and comes first. Both are walked; both have tau = 4, so the least chunk
    # vector wins.
    g = _one_edge(12, 30, 1)
    dist = shortest_to_sink(g)
    [own] = _candidates(edge_context(g, dist, ("u", "v")), B2, 4)
    assert F(own[0], own[1]) == 30
    monkeypatch.setattr(edge_chunk, "_candidates", lambda ctx, b, k: iter([(30, 1, 2, 6, 1), own]))
    chunking, report = optimal_edge_chunking(g, dist, ("u", "v"), B2, 4)
    assert chunking.chunks == (4, 4, 4, 0)
    assert (report.bottleneck, report.tau) == (30, 4)


@seed(0)
@settings(max_examples=200, deadline=None)
@given(_edge_queries(), st.integers(1, 64))
@example((s32_graph(), ("u", "z"), B2, 0), 3)  # x = 0: selective bias 1
@example((s32_graph(), ("v", "t"), F(7, 4), 0), 3)  # no outside option: delta None
@example((s32_graph(), ("u", "v"), B2, 0), 1)
@example((s32_graph(), ("u", "v"), F(7, 4), 0), 256)
def test_optimizer_reports_what_evaluation_reports(query, k):
    # The optimizer walks its own int chunks and builds its report from the
    # walk's ints; evaluating its chunking from the Fractions must give the
    # same report, field for field, and the expanded graph the same
    # perceived costs.
    g, edge, b, _ = query
    dist = shortest_to_sink(g)
    chunking, report = optimal_edge_chunking(g, dist, edge, b, k)
    assert chunking.k == k
    assert report == evaluate_chunking(g, dist, chunking, b)
    assert report.perceived == chunking_perceived_by_expansion(g, chunking, b)


_LARGE_K_EDGES = {
    "s32": s32_graph(),
    "delta<=0": _s32_uv(76),  # delta = -19/10
    "0<delta<=x": _s32_uv(70),  # delta = 41/10
    "delta>x": _s32_uv(40),  # delta = 341/10
}


@pytest.mark.parametrize("name", sorted(_LARGE_K_EDGES))
@pytest.mark.parametrize("k", [64, 128, 256])
def test_large_k_chunking_is_the_greedy_mass_optimum(name, k):
    # The same O(k) witness as the benchmark's edge check: the greedy mass
    # under the reported bottleneck is exactly the edge cost.
    g, edge, b = _LARGE_K_EDGES[name], ("u", "v"), F(7, 4)
    dist = shortest_to_sink(g)
    ctx = edge_context(g, dist, edge)
    chunking, report = optimal_edge_chunking(g, dist, edge, b, k)
    assert chunking.k == k
    assert sum(chunking.chunks) == ctx.x
    assert report.bottleneck == max(report.perceived)
    beta = report.bottleneck
    mass = max_mass_under_cap(ctx, b, beta, k)
    at_floor = beta == ctx.cost_to_sink and mass is not None and mass >= ctx.x
    assert at_floor or (beta > ctx.cost_to_sink and mass == ctx.x)
    if k == 64:
        assert report.perceived == chunking_perceived_by_expansion(g, chunking, b)


@st.composite
def _persuasion_queries(draw):
    if draw(st.booleans()):
        g, edge, _, _ = draw(_edge_queries())
    else:
        # The only way out of u, possibly at zero cost: no outside option.
        cost = st.fractions(min_value=0, max_value=40, max_denominator=12)
        g = TaskGraph(["u", "v", "t"], [("u", "v", draw(cost)), ("v", "t", draw(cost))], "u", "t")
        edge = ("u", "v")
    b = draw(st.fractions(min_value=F(7, 6), max_value=8, max_denominator=6))
    k_max = draw(st.integers(1, 9))
    dist = shortest_to_sink(g)
    bottlenecks = [
        optimal_edge_chunking(g, dist, edge, b, l)[1].bottleneck for l in range(1, k_max + 1)
    ]
    # Thresholds at every exact optimum, at c(v->t), and just off each.
    at = draw(st.sampled_from(bottlenecks + [dist[edge[1]]]))
    alpha = at + draw(st.sampled_from((0, F(1, 10**9), -F(1, 10**9))))
    return g, dist, edge, b, alpha, k_max, bottlenecks


@settings(max_examples=300, deadline=None)
@given(_persuasion_queries())
def test_min_chunks_to_beat_is_least_optimal_bottleneck_within_alpha(query):
    g, dist, edge, b, alpha, k_max, bottlenecks = query
    expected = next((l for l, bn in enumerate(bottlenecks, start=1) if bn <= alpha), None)
    assert min_chunks_to_beat(g, dist, edge, b, alpha, k_max) == expected
