from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chunkwise import (
    BudgetSpec,
    GridSpec,
    brute_force_edge_chunking,
    brute_force_graph_plan,
    chunks_for_constant_ratio,
    cost_ratio_curve,
    optimal_edge_chunking,
    random_task_graph,
    selective_bias_closed_form,
    shortest_to_sink,
)
from chunkwise.errors import GridTooLarge
from chunkwise import oracle
from chunkwise.oracle import (
    EXPERIMENT_HEADER,
    chunks_needed_rows,
    grid_max_repelled,
    grid_same_path_feasible,
    independent_min_bottleneck,
    max_mass_under_cap,
)
from chunkwise.edge_chunk import edge_context
from chunkwise.oracle_limits import ENV_VAR

B2 = Fraction(2)
F = Fraction


def test_grid_k1_single_composition(s32):
    dist = shortest_to_sink(s32)
    chunking, bottleneck = brute_force_edge_chunking(
        s32, dist, ("u", "v"), B2, GridSpec(10, 1)
    )
    assert chunking.chunks == (14,)
    assert bottleneck == 2 * 14 + F(601, 10)


def test_grid_finds_k2_optimum_on_aligned_grid(s32):
    dist = shortest_to_sink(s32)
    chunking, bottleneck = brute_force_edge_chunking(
        s32, dist, ("u", "v"), B2, GridSpec(560, 2)
    )
    assert bottleneck == F(1551, 20)
    assert chunking.chunks == (F("5.275"), F("8.725"))


def test_grid_finds_k3_optimum_on_aligned_grid(s32):
    dist = shortest_to_sink(s32)
    chunking, bottleneck = brute_force_edge_chunking(
        s32, dist, ("u", "v"), B2, GridSpec(840, 3)
    )
    assert bottleneck == F(2221, 30)
    assert chunking.chunks == (F(211, 60), F(211, 60), F(209, 30))


def test_grid_evaluates_balanced_head_split_at_one_tenth(s32):
    # The 0.1-step grid contains (3.5, 3.5, 7); its bottleneck ties 741/10.
    dist = shortest_to_sink(s32)
    _, bottleneck = brute_force_edge_chunking(s32, dist, ("u", "v"), B2, GridSpec(140, 3))
    assert bottleneck == F(741, 10)


def test_grid_dominance_constructed_equality_cases():
    # Ten instances whose continuous optimum lies on the chosen grid.
    from chunkwise import TaskGraph
    from conftest import s32_graph

    cases = []
    for b, k, x in ((B2, 2, 7), (B2, 3, 7), (F(3), 2, 19), (F(3, 2), 3, 19), (F(4), 4, 16)):
        g = TaskGraph(
            ["u", "v", "z", "t"],
            [("u", "v", x), ("v", "t", 0), ("u", "z", 10 * x), ("z", "t", 0)],
            "u",
            "t",
        )
        # the geometric split's shares have this denominator, so the grid hits it
        d = (b**k - (b - 1) ** k).numerator
        cases.append((g, ("u", "v"), b, k, int(d)))
    s32 = s32_graph()
    cases.append((s32, ("u", "v"), B2, 2, 560))
    cases.append((s32, ("u", "v"), B2, 3, 840))
    cases.append((s32, ("u", "w"), B2, 2, 195))
    cases.append((s32, ("u", "w"), B2, 3, 455))
    cases.append((s32, ("u", "z"), B2, 3, 64))
    assert len(cases) == 10
    for g, edge, b, k, d in cases:
        dist = shortest_to_sink(g)
        _, report = optimal_edge_chunking(g, dist, edge, b, k)
        _, grid_best = brute_force_edge_chunking(g, dist, edge, b, GridSpec(d, k))
        assert grid_best == report.bottleneck, (edge, b, k, d)


def test_grid_dominance_randomized():
    rng = random.Random(6)
    for _ in range(50):
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        dist = shortest_to_sink(g)
        edges = [e[:2] for e in g.edges if e[0] != g.sink]
        edge = edges[rng.randrange(len(edges))]
        b = F(rng.randint(5, 12), 4)
        k = rng.randint(1, 4)
        _, report = optimal_edge_chunking(g, dist, edge, b, k)
        _, grid_best = brute_force_edge_chunking(g, dist, edge, b, GridSpec(64, k))
        assert report.bottleneck <= grid_best


def test_grid_cap_aborts_loudly(s32, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "10")
    dist = shortest_to_sink(s32)
    with pytest.raises(GridTooLarge):
        brute_force_edge_chunking(s32, dist, ("u", "v"), B2, GridSpec(64, 3))


def test_multi_type_grid_oracles_abort_before_enumerating(s32, monkeypatch):
    # 11 chunkings of 10 units into 2 parts pass a cap of 11 and fail one of 10.
    dist = shortest_to_sink(s32)
    grid = GridSpec(10, 2)
    monkeypatch.setenv(ENV_VAR, "11")
    assert grid_max_repelled(s32, dist, ("u", "z"), B2, F(10), grid) == 76
    assert grid_same_path_feasible(s32, dist, ("u", "z"), (B2, F(10)), grid)
    monkeypatch.setenv(ENV_VAR, "10")

    def no_enumeration(self):
        raise AssertionError("a grid over the cap was enumerated")

    monkeypatch.setattr(oracle._GridEdge, "chunkings", no_enumeration)
    with pytest.raises(GridTooLarge):
        grid_max_repelled(s32, dist, ("u", "z"), B2, F(10), grid)
    with pytest.raises(GridTooLarge):
        grid_same_path_feasible(s32, dist, ("u", "z"), (B2, F(10)), grid)


def test_grid_max_repelled_is_none_when_the_taker_accepts_nothing(s32):
    # No 3-chunking of (u, v) gets b = 10 past its outside option (chunk_split
    # raises TakerRefuses there), so no grid chunking is accepted either.
    dist = shortest_to_sink(s32)
    assert grid_max_repelled(s32, dist, ("u", "v"), F(10), B2, GridSpec(32, 3)) is None
    assert grid_max_repelled(s32, dist, ("u", "v"), B2, F(10), GridSpec(32, 3)) is not None


def test_max_mass_monotone_in_cap(s32):
    dist = shortest_to_sink(s32)
    ctx = edge_context(s32, dist, ("u", "v"))
    prev = None
    for beta_tenths in range(601, 801, 7):
        mass = max_mass_under_cap(ctx, B2, F(beta_tenths, 10), 3)
        assert mass is not None
        if prev is not None:
            assert mass >= prev
        prev = mass


def test_independent_bottleneck_agrees_with_optimizer_random():
    rng = random.Random(31)
    for _ in range(120):
        g = random_task_graph(rng, min_vertices=3, max_vertices=6)
        dist = shortest_to_sink(g)
        edges = [e[:2] for e in g.edges if e[0] != g.sink]
        edge = edges[rng.randrange(len(edges))]
        b = F(rng.randint(5, 16), 4)
        k = rng.randint(1, 5)
        _, report = optimal_edge_chunking(g, dist, edge, b, k)
        assert report.bottleneck == independent_min_bottleneck(g, dist, edge, b, k)


def test_graph_oracle_goldens(s32):
    assert brute_force_graph_plan(s32, B2, BudgetSpec("local", 3))[0] == F(741, 10)
    assert brute_force_graph_plan(s32, B2, BudgetSpec("local", 2))[0] == 76
    assert brute_force_graph_plan(s32, B2, BudgetSpec("global", 3))[0] == F(741, 10)


def test_graph_oracle_solves_each_edge_once(monkeypatch):
    # Within one call the oracle optimizes each (edge, l) at most once,
    # however many enumerated paths run through the edge.
    import chunkwise.oracle as oracle

    calls: list[tuple] = []
    real = oracle.optimal_edge_chunking

    def counting(g, dist, edge, b, k):
        calls.append((edge, k))
        return real(g, dist, edge, b, k)

    monkeypatch.setattr(oracle, "optimal_edge_chunking", counting)
    rng = random.Random(1234)
    total = 0
    for _ in range(20):
        g = random_task_graph(rng, min_vertices=6, max_vertices=10)
        calls.clear()
        brute_force_graph_plan(g, B2, BudgetSpec("global", 3))
        assert len(calls) == len(set(calls))
        total += len(calls)
    assert total > 0


def test_cost_ratio_curve_plain_k1():
    rows = cost_ratio_curve(B2, F(3, 2), [4], 1)
    assert rows[0].ratio == F(81, 16)
    assert rows[0].bound == 16


def test_cost_ratio_curve_tight_regime():
    # c below the induced bias: the agent still rides the whole fan.
    b_min = selective_bias_closed_form(B2, 3)
    assert F(9, 8) < b_min
    for n in range(1, 13):
        rows = cost_ratio_curve(B2, F(9, 8), [n], 3)
        assert rows[0].ratio == F(9, 8) ** n
        assert rows[0].ratio <= rows[0].bound


def test_cost_ratio_curve_exit_regime():
    # c at or above the induced bias: the chunked exit wins immediately.
    for c in (F(3, 2), selective_bias_closed_form(B2, 3)):
        rows = cost_ratio_curve(B2, c, [1, 4, 7], 3)
        assert all(r.ratio == 1 for r in rows)


def test_chunks_for_constant_ratio_goldens():
    assert chunks_for_constant_ratio(B2, F(2), 1) == 1
    assert chunks_for_constant_ratio(B2, F(4), 2) == 1
    assert chunks_for_constant_ratio(B2, F(2), 8) == 4
    for n in range(1, 65):
        k = chunks_for_constant_ratio(B2, F(2), n)
        assert selective_bias_closed_form(B2, k) ** n <= 2
        assert k == 1 or selective_bias_closed_form(B2, k - 1) ** n > 2


def test_chunks_needed_slope_tracks_the_closed_form():
    # Least-squares slope of k(n) over n in [8, 64] within 10% of the slope
    # of the exact closed-form requirement evaluated at the same points.
    import math

    ns = list(range(8, 65, 4))
    b, c = 2.0, 2.0
    impl = [chunks_for_constant_ratio(B2, F(2), n) for n in ns]
    formula = [
        math.log(c ** (1 / n) / (c ** (1 / n) - 1)) / math.log(b / (b - 1)) for n in ns
    ]

    def slope(ys):
        xbar = sum(ns) / len(ns)
        ybar = sum(ys) / len(ys)
        num = sum((x - xbar) * (y - ybar) for x, y in zip(ns, ys))
        den = sum((x - xbar) ** 2 for x in ns)
        return num / den

    s_impl, s_formula = slope(impl), slope(formula)
    assert abs(s_impl - s_formula) <= 0.1 * abs(s_formula)


def test_experiment_rows_shape():
    rows = chunks_needed_rows(B2, F(2), range(2, 5))
    assert len(rows) == 3
    assert len(EXPERIMENT_HEADER) == len(rows[0].csv_fields()) == 8


def test_fan_tightness_all_k():
    for k in (1, 2, 3, 4):
        b_min = selective_bias_closed_form(B2, k)
        c = (1 + b_min) / 2  # strictly between 1 and b_min
        for n in (1, 5, 9, 12):
            rows = cost_ratio_curve(B2, c, [n], k)
            assert rows[0].ratio == c**n
