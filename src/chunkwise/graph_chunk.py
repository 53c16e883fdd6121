"""Whole-graph chunk planning: one cheapest-path pipeline for every planner
that keeps all agent types on one path.

Local budget: any edge may be split into up to k chunks. Global budget: at
most k chunks across the whole graph, where an edge split into j pieces
consumes j and an untouched edge consumes 0. The agent's default edge at a
vertex (its unaided choice, lexicographic at ties) never needs budget; any
other edge needs at least a 1-chunk marker so ties break toward it.
`BudgetSpec` holds that rule: the levels of the cheapest-path DP, what an
edge needing l chunks is charged, how many chunks it gets, and whether a
plan's total fits.

`GroupNeeds` is the one per-edge decision every planner reads: how many
chunks, and which chunking, make a group of types take an edge. It decides
in the graph's scaled ints: the group's units are fixed at construction,
and each type's unaided choice at a vertex (its default head, alpha and
runner-up, from `agent.scaled_top_two`) is scored on the first read of one
of the vertex's out-edges. An edge's need is the length of the types' greedy
fill (`GroupNeeds.fill`), stepped by `edge_chunk`'s int loop from
`edge_chunk.scaled_edge_scan`.
`Fraction`s are built only for the chunkings of a plan's chunked edges: for
one bias the optimal chunking, for several the kept fill's masses, padded.

Every planner, here and in multi_agent, finds its path with one budgeted
cheapest-path DP, `cheapest_paths`, which keeps one row of costs and one of
picks per vertex, and reads it back with `walk_choices`.
The DP runs on any DAG whose vertices yield their moves as (head, step
cost) pairs, the shape of a task graph's `scaled_out_edges`, and asks
`chunks(u, head)` what a move takes: on a task graph, an edge's charged
need for one group of types; for two types, a move on a graph of position
pairs. `shared_path_plan` is the one pipeline from a group's needs to a
checked plan, for one type, for m types on one path and for two types of
one bias.

The DP reads a vertex's moves in the order of a lower bound on what they
offer and asks for a move's chunks only while it can still win, so
`GroupNeeds` computes an edge's need, and a type's choice at a vertex, on
its first read (`LazyMap`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Literal, Optional, Sequence, TypeVar

from .agent import BiasProfile, TraversalTrace, replay_plan, scaled_top_two
from .edge_chunk import (
    Chunking,
    _fill_masses,
    _greedy_ints,
    optimal_edge_chunking,
    padded_chunking,
    scaled_edge_scan,
)
from .errors import InfeasibleChunking, InvalidParams, InvariantViolation
from .expansion import ChunkPlan
from .graph import DistanceMap, Edge, TaskGraph, shortest_to_sink, validate


@dataclass(frozen=True)
class BudgetSpec:
    mode: Literal["local", "global"]
    k: int

    def __post_init__(self) -> None:
        if self.mode not in ("local", "global"):
            raise InvalidParams(f"unknown budget mode {self.mode!r}")
        if self.k < 0 or (self.mode == "local" and self.k < 1):
            raise InvalidParams(f"bad budget k={self.k} for mode {self.mode}")

    @property
    def levels(self) -> int:
        """The cheapest-path DP's budget: k, or 0 when no edge is charged."""
        return self.k if self.mode == "global" else 0

    def charge(self, l: Optional[int]) -> Optional[int]:
        """What an edge needing l chunks (None: unusable) takes from levels."""
        return l if l is None or self.mode == "global" else 0

    def chunks(self, l: int) -> int:
        """How many chunks an edge needing l >= 1 chunks is split into."""
        return l if self.mode == "global" else self.k

    def fits(self, total: int) -> bool:
        """Whether a plan with `total` chunks in all fits; chunks() fits each edge."""
        return self.mode == "local" or total <= self.k


K = TypeVar("K", bound=Hashable)
V = TypeVar("V")
N = TypeVar("N", bound=Hashable)  # a vertex of the DP's graph
Rows = dict[N, Optional[list[Optional[int]]]]  # a vertex's cost at each budget level
Picks = dict[N, list[Optional[tuple[N, int]]]]  # its first move's (head, chunks) at each


class LazyMap(dict[K, V]):
    """Keys mapped by compute(key), each value computed and kept on first
    read, so the map holds only the keys read so far.

    The budgeted DP reads an edge's chunk need only when the edge can still
    win, and a need reads the types' choices only at the edge's tail, so a
    planner hands out these instead of tables over every edge or vertex.
    The values go with the call that built the map.
    """

    def __init__(self, compute: Callable[[K], V]) -> None:
        super().__init__()
        self._compute = compute

    def __missing__(self, key: K) -> V:
        value = self[key] = self._compute(key)
        return value


def same_path_fill(
    g: TaskGraph, dist: DistanceMap, edge: Edge, biases: Sequence[Fraction], k: int
) -> Optional[list[Fraction]]:
    """The greedy fill of at most k chunks that every type traverses, its
    masses with the last cut to x, or None when no k-chunking carries them
    all."""
    needs = GroupNeeds(g, dist, biases, BudgetSpec("global", k))
    ns, reached, _ = needs.fills[edge]
    return needs.masses(edge, ns) if reached else None


class GroupNeeds:
    """What it takes to route a group of agent types together through each edge.

    biases may repeat; each distinct one counts once, with its `BiasProfile`
    in profiles. Every map here is a `LazyMap`, filled on first read:
    top_two[i][u] is type i's unaided choice at u and its runner-up, from
    `agent.scaled_top_two` in ints over b.denominator * g.scale; default[u]
    is the head every type takes unaided at u, None when two types differ;
    fills[e] is `fill`'s result for e; need[e] is 0 when e is every type's
    default edge, None when no budget.k-chunking carries every type, and
    otherwise the length of the types' same-path fill (for one bias, the
    count `min_chunks_to_beat` gives at its alpha).

    The group's units are fixed here: costs are scaled by R, the lcm of the
    biases' denominators, so caps are ints over unit = R * g.scale; a type
    b = p/r has cap factor R / r (from over r * g.scale to over unit) and
    step weight w = r * L / p, L the lcm of the biases' numerators.
    """

    def __init__(
        self, g: TaskGraph, dist: DistanceMap, biases: Sequence[Fraction], budget: BudgetSpec
    ) -> None:
        self.g, self.dist, self.budget = g, dist, budget
        self.biases = tuple(dict.fromkeys(biases))
        self.profiles = tuple(BiasProfile(b) for b in self.biases)
        self.top_two = tuple(LazyMap(partial(scaled_top_two, g, dist, p)) for p in self.profiles)
        big_r = self._big_r = lcm(*(b.denominator for b in self.biases))
        big_l = self.big_l = lcm(*(b.numerator for b in self.biases))
        self.unit = big_r * g.scale
        self._types = [
            (b.denominator * (big_l // b.numerator), big_r // b.denominator, top)
            for b, top in zip(self.biases, self.top_two)
        ]
        self.default = LazyMap(self._shared_head)
        self.fills = LazyMap(self.fill)
        self.need = LazyMap(self._need)

    def _shared_head(self, u: str) -> Optional[str]:
        (head, _), _ = self.top_two[0][u]
        for top in self.top_two[1:]:
            if top[u][0][0] != head:
                return None
        return head

    def fill(self, e: Edge) -> tuple[list[int], bool, list[tuple[int, int]]]:
        """The types' greedy fill of e in at most budget.k chunks, by
        `_greedy_ints` on `scaled_edge_scan`'s x, c(v->t) and outside option:
        (n_1..n_l, reached, bounds), mass M_i = n_i / (unit * L**i) with the
        last uncut, and each type's (step weight, cap over unit) in bounds.
        A type's cap is its alpha at the tail, or its runner-up on its own
        default edge (a tie with the default still gives alpha). When e is
        its tail's only edge, one chunk carries it and bounds is empty.
        """
        u, v = e
        k, big_r = self.budget.k, self._big_r
        x, c, outside = scaled_edge_scan(self.g, self.dist, e)
        if outside is None:
            return ([x * big_r * self.big_l], True, []) if k else ([], False, [])
        bounds = []
        for w, f, top in self._types:
            (head, alpha), runner_up = top[u]
            bounds.append((w, (alpha if head != v else runner_up[1]) * f))
        ns, reached = _greedy_ints(x * big_r, c * big_r, outside * big_r, self.big_l, bounds, k)
        return ns, reached, bounds

    def masses(self, e: Edge, ns: Sequence[int]) -> list[Fraction]:
        """A fill of e that reached its cost as `Fraction` masses, the last cut to x."""
        return _fill_masses(ns, self.unit, self.big_l, self.g.cost(*e))

    def _need(self, e: Edge) -> Optional[int]:
        if self.default[e[0]] == e[1]:
            return 0
        ns, reached, _ = self.fills[e]
        return len(ns) if reached else None

    def chunking(self, e: Edge) -> Chunking:
        """e split into budget.chunks(need[e]) chunks that every type takes;
        need[e] must be at least 1."""
        n = self.budget.chunks(self.need[e])
        if len(self.biases) > 1:
            return padded_chunking(e, self.masses(e, self.fills[e][0]), n)
        return optimal_edge_chunking(self.g, self.dist, e, self.biases[0], n)[0]


def cheapest_paths(
    order: Iterable[N], sink: N, moves: Callable[[N], Iterable[tuple[N, int]]],
    chunks: Callable[[N, N], Optional[int]], k: int,
) -> tuple[Rows[N], Picks[N]]:
    """Cheapest u-to-sink cost using at most i chunks, for every u and i <= k.

    The graph is any DAG. order lists the vertices to solve, each after the
    heads of its moves; the sink is solved already. moves(u) yields u's
    moves as (head, step cost) pairs, and chunks(u, head) gives the chunks a
    move takes, or None when it is unusable. rows[u] holds u's k + 1 costs,
    None at each level where no usable path fits in i chunks, and is None
    itself when no level has one; picks[u] holds the (head, chunks) of the
    first move at each level. Every vertex of order, and the sink, has a
    row; a move whose head has none is an InvariantViolation, so an order
    that misses a head never passes for one without a path. Offers compare
    as (cost, chunks, head): at equal cost the move taking fewer chunks
    wins, then the least head. Costs are exact numbers; the planners' moves
    give ints, a task graph's costs times its `scale`, so the rows are in
    those units too.

    More budget never costs more, so step + rows[head][k] bounds what a
    move offers at every level. u's moves are read in the order of that
    bound (a stable sort, so equal bounds keep moves(u)'s order) until every
    level has an offer and the next bound exceeds the costliest level's
    best, and chunks() is asked only for moves read before then; a move
    whose head has no path at k is never read.
    """
    rows: Rows[N] = {sink: [0] * (k + 1)}
    picks: Picks[N] = {}
    for u in order:
        bounded = []
        for head, step in moves(u):
            try:
                rest = rows[head]
            except KeyError:
                raise InvariantViolation(f"{u!r}'s move to {head!r} is read before its row") from None
            if rest is not None:
                bounded.append((step + rest[k], step, head, rest))
        bounded.sort(key=itemgetter(0))
        best: list[Optional[tuple[int, int, N]]] = [None] * (k + 1)
        worst: Optional[int] = None  # the costliest level's best, once every level has one
        for bound, step, head, rest in bounded:
            if worst is not None and bound > worst:
                break
            l = chunks(u, head)
            if l is None:
                continue
            changed = False
            for i in range(l, k + 1):
                cost = rest[i - l]
                if cost is not None:
                    offer = (step + cost, l, head)
                    if best[i] is None or offer < best[i]:
                        best[i] = offer
                        changed = True
            if changed and None not in best:
                worst = max(best)[0]
        if best[k] is None:  # an offer at any level offers at k too
            rows[u] = None
        else:
            rows[u] = [None if offer is None else offer[0] for offer in best]
            picks[u] = [None if offer is None else (offer[2], offer[1]) for offer in best]
    return rows, picks


def walk_choices(sink: N, picks: Picks[N], u: N, i: int) -> tuple[N, ...]:
    """Follow picks from u at level i to the sink."""
    path = [u]
    while path[-1] != sink:
        head, used = picks[path[-1]][i]
        path.append(head)
        i -= used
    return tuple(path)


def shared_path_plan(
    g: TaskGraph, biases: tuple[Fraction, ...], budget: BudgetSpec
) -> tuple[ChunkPlan, tuple[TraversalTrace, ...]]:
    """Cheapest path every type can be routed along, its plan and each trace.

    biases holds one bias per type, ascending; one bias may repeat. Each
    edge is charged and chunked as the types' `GroupNeeds` say. One bias's
    chunkings are listed in path order, several biases' in edge order. Each
    distinct bias is walked once by `replay_plan` and must follow the path
    at its cost, which must be the DP's. Raises InfeasibleChunking when no
    path fits the budget.
    """
    dist = shortest_to_sink(g)
    needs = GroupNeeds(g, dist, biases, budget)
    levels = budget.levels
    order = [u for u in reversed(validate(g)) if u != g.sink]
    rows, picks = cheapest_paths(
        order, g.sink, g.scaled_out_edges,
        lambda u, v: budget.charge(needs.need[(u, v)]), levels,
    )
    row = rows[g.source]
    if row is None:
        raise InfeasibleChunking("no path every type can be persuaded to follow")
    path = walk_choices(g.sink, picks, g.source, levels)
    predicted = Fraction(row[levels], g.scale)
    edges = list(zip(path, path[1:]))
    if len(needs.biases) > 1:
        edges.sort()
    plan = ChunkPlan(
        chunkings=tuple(needs.chunking(e) for e in edges if needs.need[e]),
        mode=budget.mode,
        k=budget.k,
        planned_paths=(path,) * len(biases),
        predicted_cost=predicted * len(biases),
        biases=biases,
    )
    traces = replay_plan(g, dist, plan, [(profile, path) for profile in needs.profiles])
    if traces is None or traces[0].total != predicted:
        raise InvariantViolation(f"plan/trace mismatch: planned {path} at {predicted}")
    by_bias = dict(zip(needs.biases, traces))
    return plan, tuple(by_bias[b] for b in biases)


def chunk_graph_local(
    g: TaskGraph, b: Fraction, k: int
) -> tuple[ChunkPlan, TraversalTrace]:
    """Optimal plan when every edge may carry up to k chunks.

    Only the non-default edges of the cheapest persuadable path are chunked,
    each optimally into k. The trace's cost equals the DP value exactly.
    """
    plan, (trace,) = shared_path_plan(g, (b,), BudgetSpec("local", k))
    return plan, trace


def chunk_graph_global(
    g: TaskGraph, b: Fraction, k: int
) -> tuple[ChunkPlan, TraversalTrace]:
    """Optimal plan under a global budget of k chunks in total.

    Each edge consumes its least persuading chunk count (0 for the default
    edge) and is chunked optimally into that many.
    """
    plan, (trace,) = shared_path_plan(g, (b,), BudgetSpec("global", k))
    return plan, trace
