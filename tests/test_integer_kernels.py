"""The shared-path pipeline's integer kernels against `Fraction` references.

`edge_chunk._greedy_ints` steps the greedy fill in scaled ints;
`oracle.greedy_masses` runs the same recurrence in `Fraction`s.
`agent.traverse` scores in scaled ints, on a plan view (`walk_plan`) and on
the expanded graph (`simulate_plan`); both routes must give the trace of the
plain `Fraction` walk below, byte for byte, ties included.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import islice
from math import lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkwise import (
    BiasProfile,
    Chunking,
    ChunkPlan,
    TaskGraph,
    expand_plan,
    random_task_graph,
    shortest_to_sink,
    simulate_plan,
    walk_plan,
)
from chunkwise.agent import TieEvent, TraceStep, TraversalTrace
from chunkwise.edge_chunk import EdgeContext, _fill_masses, _greedy_ints
from chunkwise.oracle import greedy_masses

F = Fraction

bias = st.fractions(min_value=F(7, 6), max_value=8, max_denominator=7)


def reference_fill(ctx: EdgeContext, caps, k: int) -> tuple[list[Fraction], bool]:
    """The greedy fill from the oracle's recurrence: up to k masses, cut at x."""
    masses = []
    for mass in islice(greedy_masses(ctx, caps), k):
        if mass >= ctx.x:
            return [*masses, ctx.x], True
        masses.append(mass)
    return masses, False


@st.composite
def fills(draw):
    """Ints over a drawn unit 1/d0: x, c(v->t), an outside option or none,
    and 1-4 (bias, cap) pairs, caps near c(v->t) and sometimes below it."""
    d0 = draw(st.integers(1, 60))
    cost = st.integers(0, 40 * d0)
    big_x, big_c, big_o = draw(cost), draw(cost), draw(st.one_of(st.none(), cost))
    over = st.integers(-2 * d0, 40 * d0)
    caps = [(draw(bias), big_c + draw(over)) for _ in range(draw(st.integers(1, 4)))]
    return big_x, big_c, big_o, caps, d0, draw(st.integers(1, 64))


def greedy(big_x, big_c, big_o, caps, k):
    """_greedy_ints on (bias, cap) pairs: L is the lcm of the biases'
    numerators and b = p/r steps by w = r * L / p. Returns (ns, reached, L)."""
    big_l = lcm(*(b.numerator for b, _ in caps))
    bounds = [(b.denominator * big_l // b.numerator, top) for b, top in caps]
    return (*_greedy_ints(big_x, big_c, big_o, big_l, bounds, k), big_l)


def check_fill(big_x, big_c, big_o, caps, d0, k):
    """_greedy_ints on ints over 1/d0 against the recurrence on their `Fraction`
    images; returns the int fill."""
    ns, reached, big_l = greedy(big_x, big_c, big_o, caps, k)
    ctx = EdgeContext("u", "v", F(big_x, d0), F(big_c, d0), None if big_o is None else F(big_o, d0))
    if reached:
        masses = _fill_masses(ns, d0, big_l, ctx.x)
    else:
        masses = [F(n, d0 * big_l**i) for i, n in enumerate(ns, 1)]
    assert (masses, reached) == reference_fill(ctx, [(b, F(top, d0)) for b, top in caps], k)
    assert all(type(m) is F for m in masses)
    return ns, reached, big_l


@settings(max_examples=400, deadline=None)
@given(fills())
@example((140, 601, None, [(F(2), 881)], 10, 3))
@example((140, 601, 760, [(F(2), 600)], 10, 3))
@example((140, 601, 760, [(F(2), 760), (F(3), 1001), (F(7, 4), 790)], 10, 64))
def test_integer_fill_matches_the_fraction_recurrence(drawn):
    ns, reached, _ = check_fill(*drawn)
    big_c, caps = drawn[1], drawn[3]
    if min(top for _, top in caps) < big_c:
        assert ns == [] and not reached


def test_three_cap_fill_scales_to_k_256():
    # Every step runs: the edge is far too long for 256 chunks. The first
    # steps follow the chain, the rest the outside option, and the three
    # biases' numerators have lcm 105, so mass i is over d0 * 105**i. Costs
    # are in tenths: x = 10**6, c(v->t) = 60.1, outside 70.
    edge = (10**7, 601, 700, [(F(3, 2), 705), (F(7, 4), 710), (F(5, 2), 714)])

    def run(k):
        start = time.perf_counter()
        for _ in range(20):
            got = greedy(*edge, k)
        return time.perf_counter() - start, got

    t64, _ = run(64)
    t256, (ns, reached, big_l) = run(256)
    assert not reached and len(ns) == 256 and big_l == 105
    assert check_fill(*edge, 10, 256) == (ns, reached, big_l)
    # Linear in k at fixed width predicts 4x; the masses' bits grow with k too.
    assert t256 <= 16 * max(t64, 0.005)


def fraction_walk(g, profile, marks, start) -> TraversalTrace:
    """The greedy walk in `Fraction`s: perceived cost b*c + d, least value,
    ties to the one marked candidate if exactly one, else to the least head."""
    dist = shortest_to_sink(g)
    cur, steps, ties, total = start or g.source, [], [], F(0)
    while cur != g.sink:
        scored = [(profile.default * c + dist[h], h, c) for h, c in g.out_edges(cur)]
        best = min(val for val, _, _ in scored)
        tied = sorted((h, c) for val, h, c in scored if val == best)
        winner = tied[0]
        if len(tied) > 1:
            marked = [(h, c) for h, c in tied if (cur, h) in marks]
            winner = marked[0] if len(marked) == 1 else winner
            ties.append(TieEvent(cur, tuple(h for h, _ in tied), winner[0]))
        steps.append(TraceStep(cur, (cur, winner[0]), winner[1], best))
        total += winner[1]
        cur = winner[0]
    return TraversalTrace(tuple(steps), total, tuple(ties))


@st.composite
def plan_walks(draw):
    """A random graph, a plan whose chunks cut each cost on grids of mixed
    denominators (zero and equal chunks included), a bias, and a start
    vertex."""
    g = random_task_graph(random.Random(draw(st.integers(0, 2**32 - 1))), 3, 8)
    chunkings = []
    for u, v, c in g.edges:
        if draw(st.booleans()):
            k = draw(st.integers(1, 4))
            den = draw(st.sampled_from((1, 3, 4, 7, 12, 10**6 + 3)))
            cuts = sorted(draw(st.lists(st.integers(0, den), min_size=k - 1, max_size=k - 1)))
            bounds = [F(0), *(F(cut, den) * c for cut in cuts), c]
            chunkings.append(Chunking(u, v, tuple(b - a for a, b in zip(bounds, bounds[1:]))))
    plan = ChunkPlan(chunkings=tuple(chunkings))
    expanded = expand_plan(g, plan).graph
    profile = BiasProfile(draw(bias))
    start = draw(st.sampled_from([None, *(v for v in expanded.vertices if v != g.sink)]))
    return g, plan, profile, start


# Two marked candidates tie with an unmarked one whose head is least: the
# chunk preference is ambiguous, so the least head, unmarked, wins.
_TWO_MARKED = TaskGraph(
    ["s", "a", "b", "c", "t"],
    [("s", "a", 1), ("s", "b", 1), ("s", "c", 1), ("a", "t", 1), ("b", "t", 1), ("c", "t", 1)],
    "s",
    "t",
)


@settings(max_examples=300, deadline=None)
@given(plan_walks())
@example(
    (
        _TWO_MARKED,
        ChunkPlan(chunkings=(Chunking("s", "b", (F(1),)), Chunking("s", "c", (F(1),)))),
        BiasProfile(F(2)),
        None,
    )
)
def test_integer_walks_match_the_fraction_walk(drawn):
    g, plan, profile, start = drawn
    expected, cg = simulate_plan(g, plan, profile, start=start)
    got, view = walk_plan(g, shortest_to_sink(g), plan, profile, start=start)
    assert repr(got) == repr(expected)
    assert got.tie_events == expected.tie_events
    assert repr(expected) == repr(fraction_walk(cg.graph, profile, cg.marks, start))
