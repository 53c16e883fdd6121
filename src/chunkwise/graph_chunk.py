"""Whole-graph chunk planning for one agent under local or global budgets.

Local budget: any edge may be split into up to k chunks. Global budget: at
most k chunks across the whole graph, where an edge split into j pieces
consumes j and an untouched edge consumes 0. The agent's default edge at a
vertex (its unaided choice, lexicographic at ties) never needs budget; any
other edge needs at least a 1-chunk marker so ties break toward it.

Every planner, here and in multi_agent, finds its path with one budgeted
cheapest-path DP, `cheapest_paths`, and reads it back with `walk_choices`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Mapping, Optional

from .agent import BiasProfile, TraversalTrace, best_alternative, walk_plan
from .edge_chunk import min_chunks_to_beat, optimal_edge_chunking
from .errors import InvalidParams, InvariantViolation
from .expansion import ChunkPlan, original_path, walk_follows_chunking
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


@dataclass(frozen=True)
class Persuasion:
    """Per-vertex defaults and per-edge persuasion data for one bias."""

    default: dict[str, str]  # vertex -> head of the unaided choice
    alpha: dict[str, Fraction]  # vertex -> perceived cost of that choice


def persuasion_profile(g: TaskGraph, dist: DistanceMap, b: Fraction) -> Persuasion:
    """Defaults and alphas, computed on the original graph."""
    profile = BiasProfile(b)
    default: dict[str, str] = {}
    alpha: dict[str, Fraction] = {}
    for u in g.vertices:
        if u == g.sink or not g.out_edges(u):
            continue
        head, val = best_alternative(g, dist, profile, u)
        default[u] = head
        alpha[u] = val
    return Persuasion(default, alpha)


def chunk_budget_needed(
    g: TaskGraph,
    dist: DistanceMap,
    pers: Persuasion,
    b: Fraction,
    u: str,
    v: str,
    k_max: int,
) -> Optional[int]:
    """Chunks needed to route the agent through (u, v); 0 for the default edge.

    None when no k_max-chunking persuades, which is every other edge at k_max 0.
    """
    if pers.default[u] == v:
        return 0
    if k_max == 0:
        return None
    return min_chunks_to_beat(g, dist, (u, v), b, pers.alpha[u], k_max)


CostTable = dict[tuple[str, int], Fraction]
Choices = dict[tuple[str, int], tuple[str, int]]


def cheapest_paths(
    g: TaskGraph, need: Mapping[Edge, Optional[int]], k: int
) -> tuple[CostTable, Choices]:
    """Cheapest u-to-sink cost using at most i chunks, for every u and i <= k.

    need[e] is the number of chunks edge e consumes, None if e is unusable.
    table[(u, i)] is absent when no usable path fits in i chunks; choice[(u, i)]
    is the (head, chunks used) of the first edge. Ties break on (cost, chunks
    used, head). A local budget is this DP at k = 0 with every usable edge
    charged 0, so its ties break on (cost, head).
    """
    table: CostTable = {(g.sink, i): Fraction(0) for i in range(k + 1)}
    choice: Choices = {}
    for u in reversed(validate(g)):
        if u == g.sink:
            continue
        for i in range(k + 1):
            best: Optional[tuple[Fraction, int, str]] = None
            for head, c in g.out_edges(u):
                l = need[(u, head)]
                if l is None or l > i or (head, i - l) not in table:
                    continue
                cand = (c + table[(head, i - l)], l, head)
                if best is None or cand < best:
                    best = cand
            if best is not None:
                table[(u, i)] = best[0]
                choice[(u, i)] = (best[2], best[1])
    return table, choice


def walk_choices(
    g: TaskGraph, choice: Choices, u: str, i: int
) -> tuple[tuple[str, ...], list[tuple[Edge, int]]]:
    """Follow choice from (u, i) to the sink: the path and each edge's chunks."""
    path = [u]
    steps: list[tuple[Edge, int]] = []
    while path[-1] != g.sink:
        head, used = choice[(path[-1], i)]
        steps.append(((path[-1], head), used))
        path.append(head)
        i -= used
    return tuple(path), steps


def chunk_graph_local(
    g: TaskGraph, b: Fraction, k: int
) -> tuple[ChunkPlan, TraversalTrace]:
    """Optimal plan when every edge may carry up to k chunks.

    Prunes edges no k-chunking persuades the agent through (their optimal
    k-chunking bottleneck exceeds the tail's unaided perceived cost, decided
    by `chunk_budget_needed`), shortest-paths the survivors, then optimally
    k-chunks each non-default edge on that path, and only those. The returned
    trace is the agent walked on the plan's view of the expanded graph; its
    cost equals the DP value exactly.
    """
    if k < 1:
        raise InvalidParams("local budget needs k >= 1")
    dist = shortest_to_sink(g)
    pers = persuasion_profile(g, dist, b)
    need = {
        (u, v): None if chunk_budget_needed(g, dist, pers, b, u, v, k) is None else 0
        for u, v, _ in g.edges
    }
    table, choice = cheapest_paths(g, need, 0)
    path, _ = walk_choices(g, choice, g.source, 0)
    predicted = table[(g.source, 0)]
    chunkings = [
        optimal_edge_chunking(g, dist, (u, v), b, k)[0]
        for u, v in zip(path, path[1:])
        if pers.default[u] != v
    ]
    plan = ChunkPlan(
        chunkings=tuple(chunkings),
        mode="local",
        k=k,
        planned_paths=(path,),
        predicted_cost=predicted,
        biases=(b,),
    )
    trace = _simulate_and_check(g, dist, plan, b, path, predicted)
    return plan, trace


def chunk_graph_global(
    g: TaskGraph, b: Fraction, k: int
) -> tuple[ChunkPlan, TraversalTrace]:
    """Optimal plan under a global budget of k chunks in total.

    Each edge consumes its minimal persuading chunk count (0 for the default
    edge). Chunking a default edge is never useful for one agent, so that
    option is omitted.
    """
    if k < 0:
        raise InvalidParams("global budget needs k >= 0")
    dist = shortest_to_sink(g)
    pers = persuasion_profile(g, dist, b)
    need = {
        (u, v): chunk_budget_needed(g, dist, pers, b, u, v, k) for u, v, _ in g.edges
    }
    table, choice = cheapest_paths(g, need, k)
    path, steps = walk_choices(g, choice, g.source, k)
    chunkings = [optimal_edge_chunking(g, dist, e, b, l)[0] for e, l in steps if l]
    predicted = table[(g.source, k)]
    plan = ChunkPlan(
        chunkings=tuple(chunkings),
        mode="global",
        k=k,
        planned_paths=(path,),
        predicted_cost=predicted,
        biases=(b,),
    )
    trace = _simulate_and_check(g, dist, plan, b, path, predicted)
    return plan, trace


def _simulate_and_check(
    g: TaskGraph,
    dist: DistanceMap,
    plan: ChunkPlan,
    b: Fraction,
    path: tuple[str, ...],
    predicted: Fraction,
) -> TraversalTrace:
    trace, view = walk_plan(g, dist, plan, BiasProfile(b))
    realized = original_path(view, trace.path)
    if realized != path or trace.total != predicted:
        raise InvariantViolation(
            f"plan/trace mismatch: planned {path} at {predicted}, "
            f"agent took {realized} at {trace.total}"
        )
    for ch in plan.chunkings:
        if not walk_follows_chunking(trace.path, view.chain_of(ch.edge)):
            raise InvariantViolation(f"planned chunking of {ch.edge} was abandoned")
    return trace
