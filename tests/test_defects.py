"""Documented defects in commonly cited closed forms for this problem.

Each test pins a concrete instance where a published pseudocode block or
worked value is beaten by the implementation, with the better answer verified
through an independent route (grid enumeration and full simulation). These
are "failing-by-construction" demonstrations: the assertions PASS and prove
the cited variants strictly worse.
"""

from __future__ import annotations

from fractions import Fraction

from chunkwise import (
    BiasProfile,
    Chunking,
    GridSpec,
    brute_force_edge_chunking,
    evaluate_chunking,
    optimal_edge_chunking,
    shortest_to_sink,
    simulate_plan,
)
from chunkwise.expansion import single_edge_plan, walk_follows_chunking

B2 = Fraction(2)
F = Fraction


def test_uniform_tail_block_is_beaten_at_k2(s32):
    # The naive k=2 handling splits uniformly whenever x/k <= delta/(k-1),
    # giving (7, 7): its true bottleneck is 81 (the first chunk still sees
    # the 67-cost outside route). Balancing the final chunk against the head
    # reaches 77.55 instead.
    dist = shortest_to_sink(s32)
    uniform = evaluate_chunking(s32, dist, Chunking("u", "v", (7, 7)), B2)
    assert uniform.perceived == (81, F(741, 10))
    assert uniform.bottleneck == 81
    chunking, report = optimal_edge_chunking(s32, dist, ("u", "v"), B2, 2)
    assert report.bottleneck == F(1551, 20) < 81
    _, grid_best = brute_force_edge_chunking(s32, dist, ("u", "v"), B2, GridSpec(560, 2))
    assert grid_best == F(1551, 20)


def test_min_of_alpha_beta_understates_the_k2_bottleneck(s32):
    # The same block reports min(alpha, beta) as the bottleneck of the
    # clamped split (7.1, 6.9); the max is what the agent actually faces.
    dist = shortest_to_sink(s32)
    clamped = evaluate_chunking(s32, dist, Chunking("u", "v", (F("7.1"), F("6.9"))), B2)
    alpha, beta = clamped.perceived
    assert min(alpha, beta) == F(739, 10)  # the understated claim
    assert clamped.bottleneck == max(alpha, beta) == F(406, 5)


def test_balanced_head_split_is_beaten_at_k3(s32):
    # The widely quoted k=3 answer (3.55, 3.55, 6.9) reaches 74.1, but
    # equalizing all three perceived costs reaches 2221/30 ~ 74.033; the
    # d=840 grid (which contains both) agrees, and the agent still follows
    # the better chunking end to end.
    dist = shortest_to_sink(s32)
    quoted = evaluate_chunking(
        s32, dist, Chunking("u", "v", (F("3.55"), F("3.55"), F("6.9"))), B2
    )
    assert quoted.bottleneck == F(741, 10)
    chunking, report = optimal_edge_chunking(s32, dist, ("u", "v"), B2, 3)
    assert report.bottleneck == F(2221, 30) < F(741, 10)
    assert len(set(report.perceived)) == 1
    _, grid_best = brute_force_edge_chunking(s32, dist, ("u", "v"), B2, GridSpec(840, 3))
    assert grid_best == F(2221, 30)
    trace, cg = simulate_plan(s32, single_edge_plan(chunking), BiasProfile(B2))
    assert walk_follows_chunking(trace.path, cg.chain_of(("u", "v")))
    assert trace.total == F(741, 10)  # true cost unchanged; only the margin improves


def test_same_transition_improvement_can_raise_a_bottleneck_chunk(s32):
    # A cited improvement lemma claims a same-transition chunking with a
    # smaller bottleneck must lower the cost of every bottleneck chunk.
    # That only holds for chunks whose head routes through the outside
    # option; here both chunkings have transition vertex 2, the improver
    # wins (83.1 < 83.85), yet it RAISES the bottleneck chunk's own cost
    # and pays for it via a shorter chain suffix.
    dist = shortest_to_sink(s32)
    worse = evaluate_chunking(
        s32, dist, Chunking("u", "v", (F(1, 4), F(10), F(15, 4))), B2
    )
    better = evaluate_chunking(
        s32, dist, Chunking("u", "v", (F(5, 4), F(41, 4), F(5, 2))), B2
    )
    assert worse.tau == better.tau == 2
    assert better.bottleneck < worse.bottleneck
    bottleneck_idx = worse.perceived.index(worse.bottleneck)
    assert bottleneck_idx == 1
    assert F(41, 4) > F(10)  # the improver assigns MORE to that chunk


def test_headroom_sign_matters_for_split_phases(s32):
    # With the published sign (perceived minus threshold) phase 1 would
    # compute a negative transfer and move nothing; the corrected headroom
    # produces a chunking that actually repels the higher type.
    from chunkwise import chunk_split
    from conftest import outside_alpha

    dist = shortest_to_sink(s32)
    chunking, repelled = chunk_split(s32, dist, ("u", "v"), B2, F(10), 3, taker=1)
    base, _ = optimal_edge_chunking(s32, dist, ("u", "v"), B2, 3)
    base_repelled = max(evaluate_chunking(s32, dist, base, F(10)).perceived)
    assert repelled > base_repelled  # the phases achieved something
    alpha2 = outside_alpha(s32, dist, F(10), "u", "v")
    assert repelled > alpha2  # and the higher type is genuinely repelled
