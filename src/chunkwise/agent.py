"""Present-biased agent semantics: perceived costs, traversal, cost ratio.

An agent type has one bias b, applied to every edge (`BiasProfile`). At
each vertex the agent scales the next edge's cost by b and adds the true
shortest remaining cost, then moves to the minimizer. Ties are exact
rational equality: if exactly one tied candidate continues a chunking the
agent picks it, otherwise the lexicographically least head wins. One
scorer, `scaled_top_two`, keeps a vertex's best head and its runner-up.
Chunking an edge makes the agent act as if it had a selective bias b' on
that edge alone; `selective_bias_equivalence_check` decides that agent at
the edge's tail.

A chunk plan is walked by one of two routes that share `traverse`, and so
the tie rule. The fast route walks a `PlanView` of the plan on the
distances the caller already holds: `replay_plan` walks every type of a
planner's plan, or of one joint move, on one view and checks each walk step
for step against its planned path with each chunked edge's chain in place,
and `walk_plan` makes one walk, for the CLI and `verify`. `simulate_plan` is
the independent cross-check route the oracles, `verify` and the benchmark
use: it builds the expanded graph with `expand_plan` and recomputes its
distances from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Collection, Container, Iterable, Optional

from .edge_chunk import Chunking
from .errors import (
    DeadEnd,
    InvalidParams,
    Stuck,
    ZeroShortestPath,
)
from .expansion import (
    ChunkedGraph,
    ChunkPlan,
    PlanView,
    expand_plan,
    single_edge_plan,
    walk_follows_chunking,
)
from .graph import DistanceMap, Edge, TaskGraph, path_cost, shortest_to_sink
from .rational import format_rat


@dataclass(frozen=True)
class BiasProfile:
    """One agent type's present bias b, applied to every edge.

    Biases are strictly greater than 1; a diagnostic profile
    (diagnostic=True), such as the unbiased agent's b = 1, may carry any
    positive value.
    """

    default: Fraction
    diagnostic: bool = False

    def __post_init__(self) -> None:
        if self.diagnostic:
            if self.default <= 0:
                raise InvalidParams("diagnostic biases must be positive")
        elif self.default <= 1:
            raise InvalidParams("biases must be strictly greater than 1")

    @cached_property
    def scaled(self) -> tuple[int, int]:
        """(r, p): the bias b = p/r as its denominator and numerator."""
        return self.default.denominator, self.default.numerator


@dataclass(frozen=True)
class TraceStep:
    vertex: str
    edge: Edge
    cost: Fraction
    perceived: Fraction


@dataclass(frozen=True)
class TieEvent:
    vertex: str
    tied: tuple[str, ...]
    winner: str


@dataclass(frozen=True)
class TraversalTrace:
    steps: tuple[TraceStep, ...]
    total: Fraction
    tie_events: tuple[TieEvent, ...]

    @property
    def path(self) -> tuple[str, ...]:
        if not self.steps:
            return ()
        return (self.steps[0].vertex,) + tuple(s.edge[1] for s in self.steps)

    def to_json(self) -> dict:
        return {
            "steps": [
                {
                    "vertex": s.vertex,
                    "edge": [s.edge[0], s.edge[1]],
                    "cost": format_rat(s.cost),
                    "perceived": format_rat(s.perceived),
                }
                for s in self.steps
            ],
            "path": list(self.path),
            "total": format_rat(self.total),
            "tie_breaks": [
                {"vertex": e.vertex, "tied": list(e.tied), "winner": e.winner}
                for e in self.tie_events
            ],
        }


def perceived_cost(g: TaskGraph, dist: DistanceMap, profile: BiasProfile, edge: Edge) -> Fraction:
    """b * c(u,v) + c(v->t) for one edge."""
    return profile.default * g.cost(*edge) + dist[edge[1]]


def best_alternative(
    g: TaskGraph, dist: DistanceMap, profile: BiasProfile, u: str, exclude_head: Optional[str] = None
) -> tuple[str, Fraction]:
    """Perceived-cost argmin over u's out-edges (lexicographic tie-break).

    exclude_head restricts to alternatives other than one edge, which is how
    chunking thresholds are computed. Raises DeadEnd if nothing qualifies.
    Of `scaled_top_two`'s two int picks, the runner-up when exclude_head is
    the best head, else the best; only that one becomes a `Fraction`.
    """
    best, runner_up = scaled_top_two(g, dist, profile, u)
    pick = runner_up if best[0] == exclude_head else best
    if pick is None:
        raise DeadEnd(u)
    head, val = pick
    return head, Fraction(val, profile.scaled[0] * g.scale)


def scaled_top_two(
    g: TaskGraph, dist: DistanceMap, profile: BiasProfile, u: str
) -> tuple[tuple[str, int], Optional[tuple[str, int]]]:
    """The one scorer: u's best (head, perceived cost) and its runner-up,
    the best over the other heads (None when u has one out-edge), each the
    least head on ties, in ints: with the bias b = p/r and costs and
    distances over g.scale, b*c + d is (p*C + r*D) / (r * g.scale). Raises
    DeadEnd when u has no out-edge.
    """
    scaled = dist.scaled_for(g)
    r, p = profile.scaled
    best_head = second_head = ""
    best_val: Optional[int] = None
    second_val: Optional[int] = None
    for head, cost in g.scaled_out_edges(u):  # heads ascending: least head wins ties
        val = p * cost + r * scaled[head]
        if best_val is None or val < best_val:
            second_head, second_val = best_head, best_val
            best_head, best_val = head, val
        elif second_val is None or val < second_val:
            second_head, second_val = head, val
    if best_val is None:
        raise DeadEnd(u)
    return (best_head, best_val), None if second_val is None else (second_head, second_val)


def traverse(
    g: TaskGraph | PlanView,
    dist: DistanceMap | PlanView,
    profile: BiasProfile,
    chunk_marks: Collection[Edge] = frozenset(),
    start: Optional[str] = None,
    until: Container[str] = (),
) -> TraversalTrace:
    """Deterministic greedy walk from start (default: source) to the sink.

    The walk also ends at the first vertex of `until` it reaches. It reads
    only g's int adjacency and scores in ints, as `best_alternative` does,
    so ties are exact int equality; each step builds two `Fraction`s, its
    cost and its perceived cost.
    """
    marks = frozenset(chunk_marks)
    scaled = dist.scaled_for(g)
    r, p = profile.scaled
    cur = g.source if start is None else start
    steps: list[TraceStep] = []
    ties: list[TieEvent] = []
    total = 0
    while cur != g.sink:
        out = g.scaled_out_edges(cur)
        if not out:
            raise Stuck(cur)
        scored = [(p * c + r * scaled[head], head, c) for head, c in out]
        winner = min(scored)  # the least value, then the least head
        val = winner[0]
        tied = [s for s in scored if s[0] == val]  # heads ascending
        if len(tied) > 1:
            marked = [s for s in tied if (cur, s[1]) in marks]
            if len(marked) == 1:
                winner = marked[0]
            ties.append(TieEvent(cur, tuple(s[1] for s in tied), winner[1]))
        _, head, c = winner
        steps.append(
            TraceStep(cur, (cur, head), Fraction(c, g.scale), Fraction(val, r * g.scale))
        )
        total += c
        cur = head
        if cur in until:
            break
    return TraversalTrace(tuple(steps), Fraction(total, g.scale), tuple(ties))


def cost_ratio(g: TaskGraph, profile: BiasProfile) -> Fraction:
    """Incurred traversal cost divided by the true shortest source-sink cost."""
    dist = shortest_to_sink(g)
    shortest = dist[g.source]
    if shortest == 0:
        raise ZeroShortestPath("shortest path cost is zero; ratio undefined")
    trace = traverse(g, dist, profile)
    return trace.total / shortest


def walk_plan(
    g: TaskGraph,
    dist: DistanceMap,
    plan: ChunkPlan,
    profile: BiasProfile,
    start: Optional[str] = None,
    until: Container[str] = (),
) -> tuple[TraversalTrace, PlanView]:
    """simulate_plan's walk, on a view of the plan; dist is shortest_to_sink(g)."""
    view = PlanView(g, dist, plan)
    return traverse(view, view, profile, view.marks, start=start, until=until), view


def replay_plan(
    g: TaskGraph, dist: DistanceMap, plan: ChunkPlan,
    walks: Iterable[tuple[BiasProfile, tuple[str, ...]]],
) -> Optional[tuple[TraversalTrace, ...]]:
    """Walk each (profile, planned path) on one view of the plan; dist is
    shortest_to_sink(g). The traces, or None unless each walk is its path
    with every chunked edge replaced by its chain, step for step, at the
    path's cost.

    A walk starts at its path's first vertex and stops at the path's last
    vertex or at the first original vertex off the path, so a path may be a
    whole plan's source-sink path or one hop out of a vertex. Each distinct
    path's route, stopping set and cost are built once per call.
    """
    view = PlanView(g, dist, plan)
    originals = frozenset(g.vertices)
    expected: dict[tuple[str, ...], tuple[tuple[str, ...], frozenset[str], Fraction]] = {}
    traces = []
    for profile, path in walks:
        if path not in expected:
            route = path[:1]
            for edge in zip(path, path[1:]):
                route += view.chains.get(edge, edge)[1:]
            expected[path] = route, originals.difference(path[:-1]), path_cost(g, path)
        route, until, cost = expected[path]
        trace = traverse(view, view, profile, view.marks, start=path[0], until=until)
        if trace.path != route or trace.total != cost:
            return None
        traces.append(trace)
    return tuple(traces)


def simulate_plan(
    g: TaskGraph,
    plan: ChunkPlan,
    profile: BiasProfile,
    start: Optional[str] = None,
) -> tuple[TraversalTrace, ChunkedGraph]:
    """Expand a plan and walk the expanded graph (the cross-check route)."""
    cg = expand_plan(g, plan)
    dist = shortest_to_sink(cg.graph)
    trace = traverse(cg.graph, dist, profile, cg.marks, start=start)
    return trace, cg


def selective_bias_equivalence_check(
    g: TaskGraph, plan: ChunkPlan, b: Fraction, edge: Edge, b_prime: Fraction
) -> bool:
    """Operational definition of induced selective bias.

    True iff the bias-b agent crosses u->v in the chunked graph exactly when
    an agent with bias b_prime toward (u, v) (and b elsewhere) crosses it in
    the original graph. b_prime must be positive; it may be 1 or less.

    The b_prime agent scores (u, v) only at u, so it walks as the bias-b
    agent does until u, and in a DAG it visits u at most once. If the bias-b
    walk never reaches u, the b_prime agent does not cross. If it does, the
    b_prime agent crosses iff (b_prime * c(u,v) + d(v), v) is below (alpha,
    head), the bias-b argmin over u's other out-edges: the least head wins
    a tie, as in `traverse`. With no other out-edge it crosses.
    """
    if len(plan.chunkings) != 1 or plan.chunkings[0].edge != edge:
        raise InvalidParams("plan must chunk exactly the edge under test")
    if b_prime <= 0:
        raise InvalidParams("b_prime must be positive")
    profile = BiasProfile(b)
    trace, cg = simulate_plan(g, plan, profile)
    crossed_chunked = walk_follows_chunking(trace.path, cg.chain_of(edge))
    (u, v), dist = edge, shortest_to_sink(g)
    if u not in traverse(g, dist, profile, until=(u,)).path:
        return not crossed_chunked
    try:
        head, alpha = best_alternative(g, dist, profile, u, exclude_head=v)
    except DeadEnd:
        return crossed_chunked
    return crossed_chunked == ((b_prime * g.cost(u, v) + dist[v], v) < (alpha, head))


def chunking_perceived_by_expansion(
    g: TaskGraph, chunking: Chunking, b: Fraction
) -> tuple[Fraction, ...]:
    """Perceived chunk costs read off the expanded graph (cross-check route)."""
    cg = expand_plan(g, single_edge_plan(chunking))
    dist = shortest_to_sink(cg.graph)
    chain = cg.chain_of(chunking.edge)
    profile = BiasProfile(b)
    return tuple(
        perceived_cost(cg.graph, dist, profile, (chain[i], chain[i + 1]))
        for i in range(len(chain) - 1)
    )
