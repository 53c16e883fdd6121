"""Acceptance checklist: one test and one printed PASS/FAIL line per criterion.

Criterion 1 asserts the proven optimal 3-chunking of s32's edge u,v:
(211/60, 211/60, 209/30), whose three perceived costs all equal 2221/30, with
tau 3. The widely quoted split (71/20, 71/20, 69/10) is provably suboptimal;
criterion 1b and test_defects.py still evaluate it as a strictly worse
chunking at bottleneck 741/10, tau 2, and confirm the optimum independently
by grid enumeration and simulation.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from chunkwise import (
    AgentSet,
    BiasProfile,
    BudgetSpec,
    Chunking,
    GridSpec,
    TaskGraph,
    brute_force_edge_chunking,
    brute_force_graph_plan,
    chunk_graph_global,
    chunk_graph_local,
    chunk_shortest_edge,
    chunks_for_constant_ratio,
    cost_ratio_curve,
    evaluate_chunking,
    m_agent_single_path_plan,
    optimal_edge_chunking,
    random_task_graph,
    selective_bias_closed_form,
    shortest_to_sink,
    simulate_plan,
    traverse,
    two_agent_plan,
)
from chunkwise.expansion import original_path
from chunkwise.graph_chunk import same_path_fill
from chunkwise.multi_agent import chunk_split
from chunkwise.oracle import brute_force_two_agent_plan, grid_max_repelled, grid_same_path_feasible
from chunkwise.errors import TakerRefuses

B2 = Fraction(2)
F = Fraction


def _report(num: str, desc: str, fn) -> None:
    start = time.time()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL ({time.time() - start:.1f}s) {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS ({time.time() - start:.1f}s) {desc}")


def _random_bias(rng: random.Random) -> Fraction:
    den = rng.choice((1, 2, 3, 4))
    return F(rng.randint(den + 1, 4 * den), den)


def test_criterion_1_reference_numbers_as_stated(s32):
    """Reference golden numbers, zero tolerance, < 1s.

    The optimal 3-chunking of u,v equalizes all three perceived costs at
    2221/30 < 741/10, so it beats the quoted (71/20, 71/20, 69/10), whose
    perceived costs are (741/10, 741/10, 739/10).
    """

    def check():
        start = time.perf_counter()
        dist = shortest_to_sink(s32)
        geo = Chunking("u", "v", chunk_shortest_edge(F(14), B2, 3))
        assert geo.chunks == (2, 4, 8)
        rep = evaluate_chunking(s32, dist, geo, B2)
        assert rep.perceived == (71, 75, F(761, 10))
        assert traverse(s32, dist, BiasProfile(B2)).total == 76
        _, trace = chunk_graph_local(s32, B2, 3)
        assert trace.total == F(741, 10)
        chunking, report = optimal_edge_chunking(s32, dist, ("u", "v"), B2, 3)
        assert chunking.chunks == (F(211, 60), F(211, 60), F(209, 30)), (
            "the optimal 3-chunking equalizes all perceived costs; optimizer "
            f"returns {chunking.chunks} at bottleneck {report.bottleneck}"
        )
        assert report.bottleneck == F(2221, 30)
        assert report.tau == 3
        assert time.perf_counter() - start < 1.0

    _report("1", "reference golden numbers with the proven optimal 3-chunking", check)


def test_criterion_1b_reference_numbers_attainable(s32):
    """Every attainable clause of criterion 1, plus the corrected optimum."""

    def check():
        start = time.time()
        dist = shortest_to_sink(s32)
        geo = Chunking("u", "v", chunk_shortest_edge(F(14), B2, 3))
        assert geo.chunks == (2, 4, 8)
        assert evaluate_chunking(s32, dist, geo, B2).perceived == (71, 75, F(761, 10))
        assert traverse(s32, dist, BiasProfile(B2)).total == 76
        _, trace = chunk_graph_local(s32, B2, 3)
        assert trace.total == F(741, 10)
        stated = evaluate_chunking(
            s32, dist, Chunking("u", "v", (F(71, 20), F(71, 20), F(69, 10))), B2
        )
        assert stated.bottleneck == F(741, 10) and stated.tau == 2
        chunking, report = optimal_edge_chunking(s32, dist, ("u", "v"), B2, 3)
        assert report.bottleneck == F(2221, 30) < stated.bottleneck
        assert time.time() - start < 1.0

    _report("1b", "reference golden numbers (attainable clauses + correction)", check)


def test_criterion_2_closed_forms():
    def check():
        assert selective_bias_closed_form(B2, 3) == F(8, 7)
        assert selective_bias_closed_form(B2, 2) == F(4, 3)
        prev = None
        for k in range(1, 65):
            val = selective_bias_closed_form(B2, k)
            assert val > 1
            if prev is not None:
                assert val < prev
            prev = val
        assert prev == 1 / (1 - F(1, 2) ** 64)
        assert prev - 1 == F(1, 2**64 - 1)

    _report("2", "selective-bias closed forms, decreasing, limit 1", check)


def test_criterion_3_edge_oracle_dominance(s32):
    def check():
        start = time.time()
        rng = random.Random(2024)
        done = 0
        while done < 200:
            g = random_task_graph(rng, min_vertices=3, max_vertices=6)
            dist = shortest_to_sink(g)
            edges = [e[:2] for e in g.edges if e[0] != g.sink]
            edge = edges[rng.randrange(len(edges))]
            b = _random_bias(rng)
            k = rng.randint(1, 4)
            _, report = optimal_edge_chunking(g, dist, edge, b, k)
            _, grid_best = brute_force_edge_chunking(g, dist, edge, b, GridSpec(64, k))
            assert report.bottleneck <= grid_best
            done += 1
        # constructed equality cases, including the k=2 optimum 1551/20
        cases = []
        for b, k, x in ((B2, 2, 7), (B2, 3, 7), (F(3), 2, 19), (F(3, 2), 3, 19), (F(4), 4, 16)):
            g = TaskGraph(
                ["u", "v", "z", "t"],
                [("u", "v", x), ("v", "t", 0), ("u", "z", 10 * x), ("z", "t", 0)],
                "u",
                "t",
            )
            cases.append((g, ("u", "v"), b, k, int((b**k - (b - 1) ** k).numerator)))
        cases += [
            (s32, ("u", "v"), B2, 2, 560),
            (s32, ("u", "v"), B2, 3, 840),
            (s32, ("u", "w"), B2, 2, 195),
            (s32, ("u", "w"), B2, 3, 455),
            (s32, ("u", "z"), B2, 3, 64),
        ]
        assert len(cases) == 10
        for g, edge, b, k, d in cases:
            dist = shortest_to_sink(g)
            _, report = optimal_edge_chunking(g, dist, edge, b, k)
            _, grid_best = brute_force_edge_chunking(g, dist, edge, b, GridSpec(d, k))
            assert grid_best == report.bottleneck
        _, k2 = optimal_edge_chunking(s32, shortest_to_sink(s32), ("u", "v"), B2, 2)
        assert k2.bottleneck == F(1551, 20)
        assert time.time() - start < 120

    _report("3", "edge-oracle dominance, 200 random + 10 equality cases, < 2 min", check)


def test_criterion_4_graph_dp_oracle_equivalence():
    def check():
        start = time.time()
        rng = random.Random(4004)
        for _ in range(100):
            g = random_task_graph(rng, min_vertices=3, max_vertices=7)
            b = _random_bias(rng)
            k = rng.randint(1, 3)
            for mode, planner in (
                ("local", chunk_graph_local),
                ("global", chunk_graph_global),
            ):
                _, trace = planner(g, b, k)
                oracle_cost, _ = brute_force_graph_plan(g, b, BudgetSpec(mode, k))
                assert trace.total == oracle_cost
        assert time.time() - start < 300

    _report("4", "graph planners equal the exhaustive oracle, 100 DAGs, < 5 min", check)


def test_criterion_5_cost_ratio_reproduction():
    def check():
        start = time.time()
        for k in range(1, 5):
            b_min = selective_bias_closed_form(B2, k)
            c = (1 + b_min) / 2
            assert 1 < c < b_min
            for n in range(1, 13):
                rows = cost_ratio_curve(B2, c, [n], k)
                assert rows[0].ratio == c**n
                assert rows[0].ratio <= rows[0].bound
        # chunked cost ratio bounded by b_min^(vertex count) on random DAGs
        rng = random.Random(5005)
        for _ in range(60):
            g = random_task_graph(rng, min_vertices=3, max_vertices=7)
            dist = shortest_to_sink(g)
            if dist[g.source] == 0:
                continue
            b = _random_bias(rng)
            k = rng.randint(1, 4)
            _, trace = chunk_graph_local(g, b, k)
            ratio = trace.total / dist[g.source]
            assert ratio <= selective_bias_closed_form(b, k) ** len(g.vertices)
        # least-squares slope of k(n) vs the exact closed-form requirement
        ns = list(range(8, 65, 4))
        impl = [chunks_for_constant_ratio(B2, F(2), n) for n in ns]
        formula = [
            math.log(2 ** (1 / n) / (2 ** (1 / n) - 1)) / math.log(2.0) for n in ns
        ]

        def slope(ys):
            xbar = sum(ns) / len(ns)
            ybar = sum(ys) / len(ys)
            return sum((x - xbar) * (y - ybar) for x, y in zip(ns, ys)) / sum(
                (x - xbar) ** 2 for x in ns
            )

        s_impl, s_formula = slope(impl), slope(formula)
        assert abs(s_impl - s_formula) <= 0.1 * abs(s_formula)
        assert time.time() - start < 120

    _report("5", "fan tightness, worst-case bound, chunks-needed slope", check)


def test_criterion_6_multi_agent_soundness():
    def check():
        start = time.time()
        rng = random.Random(6006)
        sims = 0
        for _ in range(100):
            g = random_task_graph(rng, min_vertices=3, max_vertices=6)
            dist = shortest_to_sink(g)
            b1 = _random_bias(rng)
            b2 = b1 + F(rng.randint(1, 8), 4)
            mode = rng.choice(("local", "global"))
            budget = BudgetSpec(mode, 2)
            plan, traces = two_agent_plan(g, b1, b2, budget)
            for b, trace, path in zip((b1, b2), traces, plan.planned_paths):
                again, cg = simulate_plan(g, plan, BiasProfile(b))
                assert original_path(cg, again.path) == path
                assert again.total == trace.total
            oracle_cost, _ = brute_force_two_agent_plan(g, b1, b2, budget)
            assert traces[0].total + traces[1].total == oracle_cost
            agents = AgentSet((b1, b2))
            mplan, mpath = m_agent_single_path_plan(g, agents, budget)
            for b in agents.biases:
                trace, cg = simulate_plan(g, mplan, BiasProfile(b))
                assert original_path(cg, trace.path) == mpath
            sims += 1
            # greedy same-path feasibility vs the d=32 grid (one-sided on
            # random instances: anything the grid can do, the greedy can)
            edges = [e[:2] for e in g.edges if e[0] != g.sink and g.cost(*e[:2]) > 0]
            if edges:
                edge = edges[rng.randrange(len(edges))]
                k = rng.randint(1, 3)
                if grid_same_path_feasible(g, dist, edge, agents.biases, GridSpec(32, k)):
                    assert same_path_fill(g, dist, edge, agents.biases, k) is not None
            # split dominance (one-sided vs the taker-accepted grid)
            if edges:
                edge = edges[rng.randrange(len(edges))]
                k = rng.randint(1, 3)
                try:
                    _, repelled = chunk_split(g, dist, edge, b1, b2, k, taker=1)
                except TakerRefuses:
                    continue
                grid_best = grid_max_repelled(g, dist, edge, b1, b2, GridSpec(32, k))
                assert grid_best is None or grid_best <= repelled
        assert sims == 100
        # exact two-sided greedy-vs-grid equality on a grid-aligned instance
        g = TaskGraph(
            ["u", "v", "z", "t"],
            [("u", "v", 8), ("v", "t", 0), ("u", "z", 2), ("z", "t", 4)],
            "u",
            "t",
        )
        dist = shortest_to_sink(g)
        agents = AgentSet((B2, F(4)))
        for k in (1, 2, 3):
            assert (same_path_fill(g, dist, ("u", "v"), agents.biases, k) is not None) == (
                grid_same_path_feasible(g, dist, ("u", "v"), agents.biases, GridSpec(32, k))
            )
        assert time.time() - start < 600

    _report("6", "multi-agent joint-sim soundness + oracle equality, < 10 min", check)


def test_criterion_7_defect_documentation(s32):
    def check():
        dist = shortest_to_sink(s32)
        # the uniform split the naive tail block returns, and its real cost
        uniform = evaluate_chunking(s32, dist, Chunking("u", "v", (7, 7)), B2)
        assert uniform.bottleneck == 81
        _, report = optimal_edge_chunking(s32, dist, ("u", "v"), B2, 2)
        assert report.bottleneck == F(1551, 20)
        assert report.bottleneck < uniform.bottleneck
        _, grid_best = brute_force_edge_chunking(
            s32, dist, ("u", "v"), B2, GridSpec(560, 2)
        )
        assert grid_best == report.bottleneck

    _report("7", "printed tail block (81) beaten by balanced split (77.55)", check)
