"""Independent brute-force verifiers and the quantitative experiments.

One scaled-integer evaluator (`_GridEdge`), capped by `enumeration_cap`,
enumerates every k-chunking of an edge into multiples of x/d. It finds one
type's least bottleneck (`brute_force_edge_chunking`), the hardest one type
can be repelled while another takes the edge (`grid_max_repelled`, checking
`multi_agent.chunk_split`), and whether a chunking keeps every type on it
(`grid_same_path_feasible`, checking `multi_agent.chunk_same_path`). Outside
options come from the agent's own rule, `agent.best_alternative`.
`independent_min_bottleneck` inverts the greedy max-mass fill, which shares
nothing with the optimizer's candidate formulas, in its own `Fraction`
recurrence (`greedy_masses`). The graph oracle enumerates candidate paths,
takes each vertex's default and alpha from `agent.perceived_cost` in
`Fraction`s, and decides per-edge persuadability as "optimal l-chunking
bottleneck <= alpha" for l = 1, 2, ..., so it shares nothing with the int
scorer and the greedy fill the planners decide it with. It builds witness
chunkings from its own saturated greedy profile (`greedy_masses`) and
validates every winner by full expansion and simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .agent import BiasProfile, best_alternative, perceived_cost, simulate_plan
from .edge_chunk import (
    Chunking,
    EdgeContext,
    _floor,
    chunk_shortest_edge,
    edge_context,
    optimal_edge_chunking,
    selective_bias_closed_form,
)
from .errors import DeadEnd, GridTooLarge, InvalidParams, InvariantViolation
from .expansion import ChunkPlan, original_path
from .graph import (
    DistanceMap,
    Edge,
    FanSpec,
    TaskGraph,
    all_paths,
    make_n_fan,
    path_cost,
    path_pairs_by_cost,
    shortest_to_sink,
)
from .graph_chunk import BudgetSpec
from .multi_agent import JointMoves, _pair_plan
from .oracle_limits import enumeration_cap
from .rational import format_rat


@dataclass(frozen=True)
class GridSpec:
    """Chunk costs restricted to multiples of x/denominator."""

    denominator: int
    k: int

    def __post_init__(self) -> None:
        if self.denominator < 1 or self.k < 1:
            raise InvalidParams("grid needs denominator >= 1 and k >= 1")

    @property
    def size(self) -> int:
        return math.comb(self.denominator + self.k - 1, self.k - 1)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of total into parts, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class _GridEdge:
    """One edge's grid chunkings, k-part weak compositions of d (part m is m units
    q = x/d), in integers: L clears the denominators of q, c(v->t) and the outside
    cost, so L * b.denominator times a perceived cost under bias b is an integer."""

    def __init__(self, g: TaskGraph, dist: DistanceMap, edge: Edge, grid: GridSpec) -> None:
        if grid.size > enumeration_cap():
            raise GridTooLarge(f"{grid.size} grid chunkings exceed the cap {enumeration_cap()}")
        self.g, self.dist, self.edge, self.grid = g, dist, edge, grid
        ctx = edge_context(g, dist, edge)
        self.unit = ctx.x / grid.denominator
        known = [f for f in (self.unit, ctx.cost_to_sink, ctx.outside) if f is not None]
        self.scale = L = math.lcm(*(f.denominator for f in known))
        self.unit_i, self.to_sink_i = int(self.unit * L), int(ctx.cost_to_sink * L)
        self.outside_i = None if ctx.outside is None else int(ctx.outside * L)

    def chunkings(self) -> Iterator[tuple[int, ...]]:
        return _compositions(self.grid.denominator, self.grid.k)

    def weights(self, b: Fraction) -> tuple[int, int]:
        """(numerator * scaled q, denominator) of bias b, as `peak` reads them."""
        return b.numerator * self.unit_i, b.denominator

    def peak(self, comp: Sequence[int], w: tuple[int, int], cutoff: Optional[int] = None) -> int:
        """Bottleneck of one grid chunking under the bias of weights w, scaled by L
        times its denominator; once a chunk passes cutoff, that chunk's value."""
        bq, bd = w
        q, out, through = self.unit_i, self.outside_i, self.to_sink_i
        val = bq * comp[-1] + bd * through
        for i in range(len(comp) - 2, -1, -1):
            if cutoff is not None and val > cutoff:
                break
            through += comp[i + 1] * q
            p = bq * comp[i] + bd * (through if out is None or through < out else out)
            if p > val:
                val = p
        return val

    def accepted(self, b: Fraction, among: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
        """The chunkings among these that bias b takes: those whose bottleneck is within
        its outside option (`agent.best_alternative`, rounded down on `peak`'s scale,
        which keeps the test exact), or all when the edge is its tail's only way out."""
        try:
            _, alpha = best_alternative(self.g, self.dist, BiasProfile(b), *self.edge)
        except DeadEnd:
            return iter(among)
        w, cap = self.weights(b), math.floor(alpha * self.scale * b.denominator)
        return (c for c in among if self.peak(c, w, cap) <= cap)


def brute_force_edge_chunking(
    g: TaskGraph, dist: DistanceMap, edge: Edge, b: Fraction, grid: GridSpec
) -> tuple[Chunking, Fraction]:
    """Exact minimum bottleneck over all grid chunkings of one edge."""
    ge = _GridEdge(g, dist, edge, grid)
    w = ge.weights(b)
    comps = ge.chunkings()
    best_comp = next(comps)
    best_val = ge.peak(best_comp, w)
    for comp in comps:
        val = ge.peak(comp, w, cutoff=best_val)
        if val < best_val:
            best_val, best_comp = val, comp
    chunks = tuple(m * ge.unit for m in best_comp)
    return Chunking(*edge, chunks), Fraction(best_val, ge.scale * b.denominator)


def grid_max_repelled(
    g: TaskGraph,
    dist: DistanceMap,
    edge: Edge,
    taker_bias: Fraction,
    other_bias: Fraction,
    grid: GridSpec,
) -> Optional[Fraction]:
    """Largest bottleneck other_bias perceives over the grid chunkings taker_bias
    accepts, or None when it accepts none; `multi_agent.chunk_split` must
    repel the other type at least this hard."""
    ge = _GridEdge(g, dist, edge, grid)
    other = ge.weights(other_bias)
    best = max((ge.peak(c, other) for c in ge.accepted(taker_bias, ge.chunkings())), default=None)
    return None if best is None else Fraction(best, ge.scale * other_bias.denominator)


def grid_same_path_feasible(
    g: TaskGraph, dist: DistanceMap, edge: Edge, biases: Sequence[Fraction], grid: GridSpec
) -> bool:
    """Whether some grid chunking keeps every bias type on the edge; whenever
    one does, `multi_agent.chunk_same_path` must find a chunking."""
    ge = _GridEdge(g, dist, edge, grid)
    kept = ge.chunkings()
    for b in biases:
        kept = ge.accepted(b, kept)
    return next(kept, None) is not None


# ---------------------------------------------------------------------------
# The greedy-mass inverse and its witness chunkings
# ---------------------------------------------------------------------------


def greedy_masses(
    ctx: EdgeContext, caps: Sequence[tuple[Fraction, Fraction]]
) -> Iterator[Fraction]:
    """The greedy fill's masses M_1, M_2, ... in `Fraction`s, uncut and
    unending (none when some cap < c(v->t)): M_1 = min (cap - c(v->t))/b and
    M_{l+1} = M_l + min (cap - floor(M_l))/b over the (bias, cap) pairs; the
    planners step the same recurrence in ints (`edge_chunk._greedy_ints`)."""
    mass = min([(cap - ctx.cost_to_sink) / b for b, cap in caps])
    if mass < 0:
        return
    while True:
        yield mass
        floor = _floor(ctx.outside, mass + ctx.cost_to_sink)
        mass += min([(cap - floor) / b for b, cap in caps])


def max_mass_under_cap(
    ctx: EdgeContext, b: Fraction, beta: Fraction, k: int
) -> Optional[Fraction]:
    """Largest total cost k chunks can carry with every perceived cost <= beta.

    The k-th of `greedy_masses` for one cap; None when even a zero-mass final
    chunk breaks the cap.
    """
    return next(islice(greedy_masses(ctx, ((b, beta),)), k - 1, None), None)


def saturated_chunking(
    g: TaskGraph, dist: DistanceMap, edge: Edge, b: Fraction, beta: Fraction, k: int
) -> Optional[Chunking]:
    """Witness chunking with all perceived costs <= beta, from `greedy_masses`.

    Its last chunks are the greedy steps, the one that reaches the edge cost
    is cut short, and the chunks before it are zero. None when k greedy
    chunks cannot carry the edge.
    """
    ctx = edge_context(g, dist, edge)
    before, steps = Fraction(0), []
    for mass in islice(greedy_masses(ctx, ((b, beta),)), k):
        steps.append(min(mass, ctx.x) - before)
        if mass >= ctx.x:
            return Chunking(*edge, (Fraction(0),) * (k - len(steps)) + tuple(reversed(steps)))
        before = mass
    return None


def min_chunks_independent(
    g: TaskGraph,
    dist: DistanceMap,
    edge: Edge,
    b: Fraction,
    alpha: Fraction,
    k_max: int,
) -> Optional[int]:
    """Least l <= k_max whose optimal l-chunking bottleneck is <= alpha.

    Asks the optimizer for every l in turn, so it shares nothing with the
    greedy recurrence that `edge_chunk.min_chunks_to_beat` answers this with.
    """
    for l in range(1, k_max + 1):
        if optimal_edge_chunking(g, dist, edge, b, l)[1].bottleneck <= alpha:
            return l
    return None


def independent_min_bottleneck(
    g: TaskGraph, dist: DistanceMap, edge: Edge, b: Fraction, k: int
) -> Fraction:
    """Exact optimal k-chunking bottleneck via the greedy-mass inverse.

    max_mass_under_cap(beta) is piecewise linear and increasing in beta, and
    the chain/outside branch pattern is monotone along the iteration (the
    running mass only grows), so solving mass(beta) = x reduces to at most k
    linear solves, one per branch split point r.
    """
    ctx = edge_context(g, dist, edge)
    x, cv, out = ctx.x, ctx.cost_to_sink, ctx.outside
    floor_mass = max_mass_under_cap(ctx, b, cv, k)
    if floor_mass is not None and floor_mass >= x:
        return cv  # the last chunk's unavoidable c(v->t) term is the optimum
    patterns = range(1) if out is None else range(k)
    best: Optional[Fraction] = None
    for r in patterns:
        # Steps 2..k take the chain branch for the first r of them, then the
        # outside branch (out is None means chain throughout). Track the mass
        # as a linear function a*beta + c of the cap.
        a, c = Fraction(1) / b, -cv / b
        for step in range(k - 1):
            if out is None or step < r:
                a, c = a * (1 - 1 / b) + 1 / b, c * (1 - 1 / b) - cv / b
            else:
                a, c = a + 1 / b, c - out / b
        beta = (x - c) / a
        if max_mass_under_cap(ctx, b, beta, k) == x and (best is None or beta < best):
            best = beta
    if best is None:
        raise InvariantViolation(f"no branch pattern solved the mass equation for {edge}")
    return best


# ---------------------------------------------------------------------------
# Graph-level oracle
# ---------------------------------------------------------------------------


def brute_force_graph_plan(
    g: TaskGraph, b: Fraction, budget: BudgetSpec
) -> tuple[Fraction, ChunkPlan]:
    """Minimal simulated agent cost over exhaustively enumerated paths.

    Each vertex's default edge and alpha come from `agent.perceived_cost` in
    `Fraction`s, the least head winning ties (`_unaided_choices`), so they
    share nothing with the planners' int scorer. For each candidate path,
    each non-default edge needs its minimal persuading chunk count, the
    least l whose optimal l-chunking bottleneck is within the tail's alpha
    (`min_chunks_independent`); witness chunkings come from the saturated
    greedy profile at that alpha. Both are solved once per edge and call.
    Every candidate plan is validated by full simulation before its cost
    counts.
    """
    dist = shortest_to_sink(g)
    choices = _unaided_choices(g, dist, b)
    witnesses: dict[Edge, Optional[Chunking]] = {}

    def witness(edge: Edge) -> Optional[Chunking]:
        """Least-count persuading chunking of a non-default edge, or None."""
        if edge not in witnesses:
            alpha = choices[edge[0]][1]
            l = min_chunks_independent(g, dist, edge, b, alpha, budget.k)
            witnesses[edge] = (
                None if l is None else saturated_chunking(g, dist, edge, b, alpha, l)
            )
        return witnesses[edge]

    defaults = {u: head for u, (head, _) in choices.items()}
    best: Optional[tuple[Fraction, ChunkPlan]] = None
    for path in sorted(all_paths(g), key=lambda p: (path_cost(g, p), p)):
        plan = _oracle_path_plan(g, defaults, b, path, budget, witness)
        if plan is None:
            continue
        trace, cg = simulate_plan(g, plan, BiasProfile(b))
        if original_path(cg, trace.path) != path:
            continue
        cost = trace.total
        if best is None or cost < best[0]:
            best = (cost, plan)
    if best is None:
        raise InvariantViolation("the default biased path failed to validate")
    return best


def _unaided_choices(
    g: TaskGraph, dist: DistanceMap, b: Fraction
) -> dict[str, tuple[str, Fraction]]:
    """Each vertex's (default head, alpha) for bias b: its least perceived
    out-edge by `perceived_cost`, the least head among ties."""
    profile = BiasProfile(b)
    choices: dict[str, tuple[str, Fraction]] = {}
    for u in g.vertices:
        for head, _ in g.out_edges(u):  # heads ascending
            val = perceived_cost(g, dist, profile, (u, head))
            if u not in choices or val < choices[u][1]:
                choices[u] = (head, val)
    return choices


def _oracle_path_plan(
    g: TaskGraph,
    defaults: dict[str, str],
    b: Fraction,
    path: Sequence[str],
    budget: BudgetSpec,
    witness: Callable[[Edge], Optional[Chunking]],
) -> Optional[ChunkPlan]:
    chunkings: list[Chunking] = []
    for u, v in zip(path, path[1:]):
        if defaults[u] == v:
            continue
        ch = witness((u, v))
        if ch is None:
            return None
        chunkings.append(ch)
    if budget.mode == "global" and sum(ch.k for ch in chunkings) > budget.k:
        return None
    return ChunkPlan(
        chunkings=tuple(chunkings),
        mode=budget.mode,
        k=budget.k,
        planned_paths=(tuple(path),),
        predicted_cost=path_cost(g, path),
        biases=(b,),
    )


def brute_force_two_agent_plan(
    g: TaskGraph, b1: Fraction, b2: Fraction, budget: BudgetSpec
) -> tuple[Fraction, ChunkPlan]:
    """Exhaustive minimum over compatible path pairs, each validated by simulation.

    Each pair's static plan is read from the two-agent planner's joint-move
    table (`multi_agent.JointMoves`, shared witness machinery by design),
    built once for the call. Equal biases are twice the single-agent oracle,
    whose witness plan is returned for both types.
    """
    if b1 > b2:
        raise InvalidParams("need b1 <= b2")
    if b1 == b2:
        cost, plan = brute_force_graph_plan(g, b1, budget)
        return 2 * cost, replace(
            plan,
            planned_paths=plan.planned_paths * 2,
            predicted_cost=2 * plan.predicted_cost,
            biases=(b1, b2),
        )
    moves = JointMoves(g, b1, b2, budget)
    best: Optional[tuple[Fraction, ChunkPlan]] = None
    for cost, P, Q in path_pairs_by_cost(g):
        if best is not None and cost >= best[0]:
            break
        planned = _pair_plan(moves, P, Q)
        if planned is not None:
            best = (cost, planned[0])
    if best is None:
        raise InvariantViolation("the default path pair failed to validate")
    return best


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    b: Fraction
    c: Fraction
    k: int
    ratio: Fraction
    bound: Fraction

    def csv_fields(self) -> list[str]:
        return [
            str(self.n),
            format_rat(self.b),
            format_rat(self.c),
            str(self.k),
            str(self.ratio.numerator),
            str(self.ratio.denominator),
            str(self.bound.numerator),
            str(self.bound.denominator),
        ]


EXPERIMENT_HEADER = ["n", "b", "c", "k", "ratio_num", "ratio_den", "bound_num", "bound_den"]


def geometric_fan_plan(g: TaskGraph, b: Fraction, k: int) -> ChunkPlan:
    """Geometric k-chunking of every positive-cost edge (fan experiment)."""
    chunkings = []
    for u, v, c in g.edges:
        if c > 0:
            chunkings.append(Chunking(u, v, chunk_shortest_edge(c, b, k)))
    return ChunkPlan(chunkings=tuple(chunkings), mode="local", k=k, biases=(b,))


def cost_ratio_curve(
    b: Fraction, c: Fraction, n_range: Sequence[int], k: int
) -> list[ExperimentRow]:
    """Chunked-fan cost ratios against the b_min^n worst-case bound."""
    rows = []
    b_min = selective_bias_closed_form(b, k)
    for n in n_range:
        g = make_n_fan(FanSpec(n, c))
        plan = geometric_fan_plan(g, b, k)
        trace, _ = simulate_plan(g, plan, BiasProfile(b))
        dist = shortest_to_sink(g)
        ratio = trace.total / dist[g.source]
        rows.append(ExperimentRow(n=n, b=b, c=c, k=k, ratio=ratio, bound=b_min**n))
    return rows


def chunks_for_constant_ratio(b: Fraction, c: Fraction, n: int) -> int:
    """Smallest k with selective bias at most c^(1/n), exactly.

    With b = p/r and s = p - r the selective bias is p^k / (p^k - s^k), which
    falls toward 1 as k grows, so b_min(k)^n <= c is one integer comparison
    and k is found by doubling, then bisecting.
    """
    if b <= 1 or c <= 1 or n < 1:
        raise InvalidParams("need b > 1, c > 1, n >= 1")
    p, s = b.numerator, b.numerator - b.denominator

    def within(k: int) -> bool:
        pk = p**k
        return pk**n * c.denominator <= c.numerator * (pk - s**k) ** n

    lo, hi = 0, 1  # within(hi), and lo = 0 or not within(lo)
    while not within(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if within(mid) else (mid, hi)
    return hi


def chunks_needed_rows(
    b: Fraction, c: Fraction, n_values: Sequence[int]
) -> list[ExperimentRow]:
    rows = []
    for n in n_values:
        k = chunks_for_constant_ratio(b, c, n)
        b_min = selective_bias_closed_form(b, k)
        rows.append(
            ExperimentRow(n=n, b=b, c=c, k=k, ratio=b_min**n, bound=c)
        )
    return rows
