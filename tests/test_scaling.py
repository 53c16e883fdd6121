"""Empirical scaling smoke tests.

Asymptotic claims are not asserted directly; these checks only guard against
gross blowups (with generous factors and absolute floors to stay robust on
noisy machines).
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from chunkwise import (
    BudgetSpec,
    TaskGraph,
    optimal_edge_chunking,
    shortest_to_sink,
    two_agent_plan,
)
from chunkwise.edge_chunk import _candidates, edge_context
from chunkwise.oracle import max_mass_under_cap

B2 = Fraction(2)
F = Fraction


def _timed(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _edge_instance() -> TaskGraph:
    # delta = 14 + 60.1 - 40 = 34.1 > x = 14: the balanced branch, whose one
    # candidate still costs an O(k) geometric build and an O(k) evaluation.
    return TaskGraph(
        ["u", "v", "z", "t"],
        [("u", "v", 14), ("v", "t", F(601, 10)), ("u", "z", 0), ("z", "t", 40)],
        "u",
        "t",
    )


def test_edge_chunking_no_superquadratic_blowup_in_k():
    g = _edge_instance()
    dist = shortest_to_sink(g)

    def run(k):
        # One call at k = 128 takes about half a millisecond on a 2-core
        # Xeon host, so 100 calls clear the noise floor below.
        def calls():
            for _ in range(100):
                optimal_edge_chunking(g, dist, ("u", "v"), B2, k)

        return calls

    t64 = _timed(run(64))
    t128 = _timed(run(128))
    floor = 0.02  # below this, timer noise dominates
    assert t128 <= 8 * max(t64, floor / 4)  # quadratic predicts 4x


def test_interior_delta_edge_chunking_is_linear_in_k(s32):
    # s32's (u, v) has 0 < delta <= x, the branch whose at most four
    # candidates a binary search over tau finds; only the tied ones are
    # evaluated, each in O(k).
    dist = shortest_to_sink(s32)

    def run(k):
        return lambda: optimal_edge_chunking(s32, dist, ("u", "v"), B2, k)

    t128 = _timed(run(128))
    t256 = _timed(run(256))
    assert t256 < 0.25
    assert t256 <= 4 * t128  # quadratic predicts 4x; linear predicts 2x


@pytest.mark.parametrize("k", [256, 1024, 4096])
def test_interior_delta_screen_keeps_four_candidates_at_large_k(s32, k):
    # The expensive branch at large k, with no wall-clock bound: the screen
    # yields at most four candidates, and the greedy mass under the reported
    # bottleneck is exactly the edge cost (the benchmark's edge check).
    dist = shortest_to_sink(s32)
    ctx = edge_context(s32, dist, ("u", "v"))
    assert len(list(_candidates(ctx, B2, k))) <= 4
    chunking, report = optimal_edge_chunking(s32, dist, ("u", "v"), B2, k)
    assert chunking.k == k and sum(chunking.chunks) == ctx.x
    assert report.bottleneck == max(report.perceived) > ctx.cost_to_sink
    assert max_mass_under_cap(ctx, B2, report.bottleneck, k) == ctx.x


def test_two_agent_global_no_supercubic_blowup():
    def chain_graph(n: int) -> TaskGraph:
        names = [f"n{i:02d}" for i in range(n)] + ["t"]
        edges = []
        for i in range(n):
            edges.append((names[i], names[i + 1], 3))
            if i + 2 <= n:
                edges.append((names[i], names[i + 2], 8))
        return TaskGraph(names + [], edges, names[0], "t")

    def run(n, k):
        g = chain_graph(n)
        return lambda: two_agent_plan(g, B2, F(3), BudgetSpec("global", k))

    t_small = _timed(run(4, 2), repeats=2)
    t_big = _timed(run(8, 4), repeats=2)
    floor = 0.05
    if t_big > floor:
        # |E| and k both double: the cubic-in-k, quadratic-in-|E| claim
        # predicts ~2^2 * 2^3 * log factor = 32x-64x; allow headroom.
        assert t_big <= 150 * max(t_small, floor / 10)
