"""Chunking for multiple bias types.

Splitting two agents at one vertex works by reshaping a chunking the taker
still accepts until the other type's perceived cost of one chunk is as high
as possible. Keeping m agents on one edge is graph_chunk's one int greedy
fill, which `chunk_same_path` runs once for the chunking or the reason it
fails. Graph-level planning reads the local/global budget rule from
`BudgetSpec`. Types that must share one path (and two types with one bias)
are planned by graph_chunk's single-path pipeline, `shared_path_plan`.
`agent.replay_plan` is the one plan check: it walks each type on one view
of a plan and accepts only a walk that is the type's path with each chunked
edge's chain in place, step for step. It checks every emitted plan, where a
two-agent plan that fails is an invariant violation, and every joint split,
on its two one-hop paths.

The two-agent planner builds one `JointMoves` table per call: graph_chunk's
`GroupNeeds` for each type alone and for the pair on one edge, which give
its solo and same-edge moves, and every joint split out of a vertex with
its witness chunkings, each computed on first use. Its DP, its static pair
plan and `oracle.brute_force_two_agent_plan` all read that one table. The
DP is graph_chunk's `cheapest_paths` run on a graph of position pairs, in
which the type that is behind moves alone, so both types stand together at
every vertex their paths share and the DP charges each pair exactly its
static plan. A joint move is charged its witnesses' chunks, and a solo move
its type's own need for the edge, so ties break as in the one-type DP, on
(cost, chunks, head). The DP asks for a move's chunks only while its lower
bound can still win some budget level, so a joint move beaten on cost is
never built, and the DP solves only the pairs reachable from (s, s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Literal, Optional

from .agent import BiasProfile, TraversalTrace, best_alternative, replay_plan
from .edge_chunk import (
    Chunking,
    EdgeContext,
    _floor,
    _walk_chunks,
    edge_context,
    optimal_edge_chunking,
    padded_chunking,
)
from .errors import InfeasibleChunking, InvalidParams, InvariantViolation, TakerRefuses
from .expansion import ChunkPlan
from .graph import (
    DistanceMap,
    Edge,
    TaskGraph,
    path_cost,
    shortest_to_sink,
    validate,
)
from .graph_chunk import (
    BudgetSpec,
    GroupNeeds,
    LazyMap,
    cheapest_paths,
    shared_path_plan,
    walk_choices,
)


@dataclass(frozen=True)
class AgentSet:
    """Strictly increasing biases, all > 1."""

    biases: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.biases:
            raise InvalidParams("need at least one agent")
        if any(b <= 1 for b in self.biases):
            raise InvalidParams("all biases must exceed 1")
        if any(a >= b for a, b in zip(self.biases, self.biases[1:])):
            raise InvalidParams("biases must be strictly increasing")

    @property
    def m(self) -> int:
        return len(self.biases)


# ---------------------------------------------------------------------------
# Splitting two agents on one edge (three siphon phases, exact breakpoints)
# ---------------------------------------------------------------------------


def _p(ctx: EdgeContext, xs: list[Fraction], idx: int, b: Fraction) -> Fraction:
    """Perceived cost of chunk idx (0-based) under bias b."""
    if idx == len(xs) - 1:
        return b * xs[idx] + ctx.cost_to_sink
    return b * xs[idx] + _floor(ctx.outside, sum(xs[idx + 1 :], ctx.cost_to_sink))


def _phase_head_siphon(
    ctx: EdgeContext, xs: list[Fraction], ti: int, bt: Fraction, alpha: Fraction
) -> None:
    # Moving mass from earlier chunks onto the target raises p(target) at
    # rate bt without touching the target's suffix.
    for j in range(ti - 1, -1, -1):
        headroom = alpha - _p(ctx, xs, ti, bt)
        if headroom <= 0:
            break
        m = min(xs[j], headroom / bt)
        if m > 0:
            xs[j] -= m
            xs[ti] += m


def _phase_tail_siphon(
    ctx: EdgeContext, xs: list[Fraction], ti: int, bt: Fraction, alpha: Fraction
) -> None:
    # Moving mass from a later chunk shrinks the target's suffix, so p(target)
    # rises at rate bt while the outside route is strictly cheaper than the
    # chain and at rate bt-1 afterwards.
    k = len(xs)
    for j in range(ti + 1, k):
        while xs[j] > 0:
            headroom = alpha - _p(ctx, xs, ti, bt)
            if headroom <= 0:
                return
            gamma_x = sum(xs[ti + 1 :], ctx.cost_to_sink)
            if gamma_x <= ctx.outside:
                m = min(xs[j], headroom / (bt - 1))
            else:
                m = min(xs[j], gamma_x - ctx.outside, headroom / bt)
            if m <= 0:
                break
            xs[j] -= m
            xs[ti] += m


def _last_nonzero(xs: list[Fraction], lo: int, hi: int) -> Optional[int]:
    for j in range(hi, lo - 1, -1):
        if xs[j] > 0:
            return j
    return None


def _phase_exchange_forward(
    ctx: EdgeContext, xs: list[Fraction], ti: int, bt: Fraction, alpha: Fraction
) -> None:
    """Trade tail mass for head mass at rate 1/bt into the pinned target.

    Removing eps from the tail frees eps of the target's perceived cost (the
    chain route shortens), so eps/bt may be added to the target while the
    leftover eps*(bt-1)/bt tops up earlier chunks' headroom. A higher-bias
    type perceives the target chunk at rate b2 > bt on its grown cost, so its
    perceived cost rises by eps*(b2-bt)/bt per exchange.
    """
    if ti == 0:
        return
    k = len(xs)
    for l in range(ti):  # fill front-to-back; earlier fills stay put
        while True:
            j_star = _last_nonzero(xs, ti + 1, k - 1)
            if j_star is None:
                return
            headroom_l = alpha - _p(ctx, xs, l, bt)
            if headroom_l <= 0:
                break
            gx_i = sum(xs[ti + 1 :], ctx.cost_to_sink)
            gx_l = sum(xs[l + 1 :], ctx.cost_to_sink)
            outside_cheaper_at_l = gx_l > ctx.outside
            rate = bt if outside_cheaper_at_l else bt - 1
            # Where the outside route rules chunk l, it may only grow until the routes tie.
            tie_l = [gx_l - ctx.outside] if outside_cheaper_at_l else []
            if gx_i > ctx.outside:
                # Outside route rules the target: the pin does not bind, move
                # tail mass straight onto the head until the routes tie.
                m = min(xs[j_star], headroom_l / rate, gx_i - ctx.outside, *tie_l)
                if m <= 0:
                    break
                xs[j_star] -= m
                xs[l] += m
            else:
                m = min(headroom_l / rate, xs[j_star] * (bt - 1) / bt, *tie_l)
                if m <= 0:
                    break
                eps = m * bt / (bt - 1)
                xs[j_star] -= eps
                xs[ti] += eps / bt
                xs[l] += m


def _phase_exchange_flipped(
    ctx: EdgeContext, xs: list[Fraction], ti: int, bt: Fraction, alpha: Fraction
) -> None:
    """Push mass from the head and target onto the tail, pinning the target.

    Removing eps from the target and (bt-1)*eps from earlier chunks funds
    bt*eps of tail growth; the target's suffix grows as fast as its own cost
    shrinks, so the taker's perceived cost stays pinned while the lower-bias
    type's rises.

    Each tail chunk j is filled until it reaches alpha or the head or target
    mass runs out, by steps that are never 0 before then. The chain-ruled
    tail chunks with mass between the target and j share one headroom: the
    optimal chunking's geometric tail perceives them equally, the siphons
    leave them alone, and filling a later chunk raises each by the same
    amount. Chunk j spends its headroom bt times faster (bt**2 against bt
    per unit in the chain branch, bt against 1 in the outside branch), so
    their caps never bind first, and a zero chunk never caps, since alpha
    >= outside. A filled chunk's suffix never changes again, so every tail
    chunk ends at alpha while head and target mass remain.
    """
    k = len(xs)
    if ti == k - 1:
        return
    for j in range(k - 1, ti, -1):  # fill back-to-front
        while True:
            headroom_j = alpha - _p(ctx, xs, j, bt)
            if headroom_j <= 0:
                break
            gx_i = sum(xs[ti + 1 :], ctx.cost_to_sink)
            l_star = _last_nonzero(xs, 0, ti - 1)
            if gx_i < ctx.outside:  # the chain rules the target
                if xs[ti] <= 0 or l_star is None:
                    return
                eps = min(
                    xs[ti],
                    xs[l_star] / (bt - 1),
                    (ctx.outside - gx_i) / bt,
                    headroom_j / (bt * bt),
                    *_flipped_intermediate_caps(ctx, xs, ti, j, bt, alpha, bt),
                )
                _require(eps > 0, "flipped exchange stalled below alpha")
                xs[ti] -= eps
                xs[l_star] -= (bt - 1) * eps
                xs[j] += bt * eps
            else:
                # Outside route rules the target: its perceived cost is flat
                # in the suffix, so head mass may move to the tail directly.
                if l_star is None:
                    return
                blocked = _flipped_intermediate_caps(ctx, xs, ti, j, bt, alpha, Fraction(1))
                m = min(xs[l_star], headroom_j / bt, *blocked)
                _require(m > 0, "flipped exchange stalled below alpha")
                xs[l_star] -= m
                xs[j] += m


def _flipped_intermediate_caps(
    ctx: EdgeContext,
    xs: list[Fraction],
    ti: int,
    j: int,
    bt: Fraction,
    alpha: Fraction,
    mass_per_unit: Fraction,
) -> list[Fraction]:
    # Chunks strictly between the target and the chunk being filled see their
    # suffix grow by mass_per_unit per unit moved; their perceived cost rises
    # until the outside route takes over, and must never exceed alpha.
    caps: list[Fraction] = []
    for lp in range(ti + 1, j):
        gx_lp = sum(xs[lp + 1 :], ctx.cost_to_sink)
        if gx_lp >= ctx.outside:
            continue
        headroom = alpha - _p(ctx, xs, lp, bt)
        if headroom < ctx.outside - gx_lp:
            caps.append(headroom / mass_per_unit)
    return caps


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantViolation(message)


def _check_split_postconditions(
    ctx: EdgeContext,
    xs: list[Fraction],
    ti: int,
    bt: Fraction,
    alpha: Fraction,
    forward: bool,
) -> None:
    if sum(xs) > xs[ti]:
        _require(_p(ctx, xs, ti, bt) == alpha, "target chunk not pinned at alpha")
    if forward and sum(xs[ti + 1 :]) > 0:
        for j in range(ti + 1):
            _require(_p(ctx, xs, j, bt) == alpha, "head chunk below alpha with tail mass left")
    elif not forward and sum(xs[:ti]) > 0 and xs[ti] > 0:
        for j in range(ti + 1, len(xs)):  # see _phase_exchange_flipped
            _require(_p(ctx, xs, j, bt) == alpha, "tail chunk below alpha with head mass left")


def chunk_split(
    g: TaskGraph,
    dist: DistanceMap,
    edge: Edge,
    b1: Fraction,
    b2: Fraction,
    k: int,
    taker: Literal[1, 2] = 1,
) -> tuple[Chunking, Fraction]:
    """Chunk (u, v) so the taker accepts it and the other type hates it most.

    Returns the chunking maximizing the repelled type's largest perceived
    chunk cost over all chunkings the taker still traverses, plus that value.
    Raises TakerRefuses when not even the taker-optimal chunking clears the
    taker's outside option.
    """
    if not 1 < b1 < b2:
        raise InvalidParams("need 1 < b1 < b2")
    if k < 1:
        raise InvalidParams("k must be >= 1")
    bt, br = (b1, b2) if taker == 1 else (b2, b1)
    forward = taker == 1
    ctx = edge_context(g, dist, edge)
    if ctx.outside is None:
        # The taker cannot leave the chain, so it takes any chunking; one chunk
        # carrying the whole edge repels the other type most.
        return Chunking(*edge, (ctx.x,) + (Fraction(0),) * (k - 1)), br * ctx.x + ctx.cost_to_sink
    _, alpha = best_alternative(g, dist, BiasProfile(bt), edge[0], exclude_head=edge[1])
    base, base_report = optimal_edge_chunking(g, dist, edge, bt, k)
    if base_report.bottleneck > alpha:
        raise TakerRefuses(
            f"optimal {k}-chunking bottleneck {base_report.bottleneck} exceeds {alpha}"
        )
    splits: list[tuple[Fraction, int, tuple[Fraction, ...]]] = []
    for ti in range(k):
        xs = list(base.chunks)
        _phase_head_siphon(ctx, xs, ti, bt, alpha)
        _phase_tail_siphon(ctx, xs, ti, bt, alpha)
        if forward:
            _phase_exchange_forward(ctx, xs, ti, bt, alpha)
        else:
            _phase_exchange_flipped(ctx, xs, ti, bt, alpha)
        _require(sum(xs) == ctx.x, "siphon phases must conserve mass")
        _require(all(x >= 0 for x in xs), "siphon phases must keep chunks nonnegative")
        _check_split_postconditions(ctx, xs, ti, bt, alpha, forward)
        chunks = tuple(xs)
        unit, _, (_, _, _, top) = _walk_chunks(ctx, chunks, br)
        splits.append((-Fraction(top, br.denominator * unit), ti, chunks))
    neg_repelled, _, chunks = min(splits)
    return Chunking(*edge, chunks), -neg_repelled


# ---------------------------------------------------------------------------
# Keeping m agents on one edge (greedy from the last chunk backwards)
# ---------------------------------------------------------------------------


def chunk_same_path(
    g: TaskGraph, dist: DistanceMap, edge: Edge, agents: AgentSet, k: int
) -> Chunking:
    """Chunking of (u, v) every agent type traverses, if one exists.

    Fills chunks k..1, maximizing each chunk subject to every agent's
    threshold given the mass already placed behind it, in one int fill
    (`graph_chunk.GroupNeeds.fill`, on the types' choices at u); a feasible
    chunking exists iff this greedy one covers the full edge cost, and the
    fill and its caps also name why not.
    """
    if k < 1:
        raise InvalidParams("k must be >= 1")
    x = g.cost(*edge)
    needs = GroupNeeds(g, dist, agents.biases, BudgetSpec("local", k))
    ns, reached, bounds = needs.fills[edge]
    if reached:
        return padded_chunking(edge, needs.masses(edge, ns), k)
    if not ns:
        # Only the first chunk filled, chunk k, can go negative: its floor is
        # c(v->t), and later floors never pass the least cap.
        least = Fraction(min(cap for _, cap in bounds), needs.unit)
        raise InfeasibleChunking(
            f"chunk {k} forced negative: some type's outside option ({least})"
            f" is below the unavoidable continuation cost {dist[edge[1]]}"
        )
    most = Fraction(ns[-1], needs.unit * needs.big_l ** len(ns))
    raise InfeasibleChunking(f"mass deficit: {k} chunks can carry at most {most} of {x}")


# ---------------------------------------------------------------------------
# Joint moves for the two-agent planner
# ---------------------------------------------------------------------------

Witnesses = tuple[Chunking, ...]  # a move's chunkings, () for an unchunked move


class JointMoves:
    """Every move the two-agent planner asks about for one (g, b1 < b2, budget).

    solo[t] is type t's `GroupNeeds` alone and pair the two types' on one
    shared edge; each table scores a type's choice at a vertex on first
    read, and pair holds the types' profiles. move[(u, v, z)] (its witness
    chunkings) and splits[(edge, k, taker)] (a `chunk_split` behind one) are
    `LazyMap`s too, so every value is computed on first use and kept on this
    object, never on the module, and its memory goes with the planner or
    oracle call that built it.
    """

    def __init__(self, g: TaskGraph, b1: Fraction, b2: Fraction, budget: BudgetSpec) -> None:
        self.g = g
        self.budget = budget
        self.dist = shortest_to_sink(g)
        self.solo = tuple(GroupNeeds(g, self.dist, (b,), budget) for b in (b1, b2))
        self.agents = AgentSet((b1, b2))
        self.pair = GroupNeeds(g, self.dist, (b1, b2), budget)
        self.move = LazyMap(self._move)
        self.splits = LazyMap(self._chunk_split)

    def _move(self, key: tuple[str, Optional[str], Optional[str]]) -> Optional[Witnesses]:
        """The witness chunkings for A1 leaving u by (u, v) while A2 leaves it
        by (u, z): () when no edge is chunked, None when the move is impossible.

        v or z is None when that type does not pass u, and the other type is
        then persuaded alone.
        """
        u, v, z = key
        if v is not None and z is not None and v != z:
            return self._split(u, v, z)
        needs = self.pair if v == z else self.solo[v is None]
        return self._shared(needs, (u, z if v is None else v))

    def _shared(self, needs: GroupNeeds, e: Edge) -> Optional[Witnesses]:
        """Every type in needs takes e: unchunked on their default edge."""
        l = needs.need[e]
        if not l:  # unusable, or the types' default edge
            return None if l is None else ()
        return (needs.chunking(e),)

    def _split(self, u: str, v: str, z: str) -> Optional[Witnesses]:
        """Least validated pair of splits sending A1 to v and A2 to z.

        Every pair (i, j) of the budget's chunk counts is tried, fewest
        chunks first, then fewest for A2: feasibility is not monotone in
        either count, so no pair can be skipped.
        """
        counts = {0, *(self.budget.chunks(l) for l in range(1, self.budget.k + 1))}
        for i, j in sorted(product(counts, repeat=2), key=lambda p: (p[0] + p[1], p[1])):
            wit = self._split_witnesses(u, v, z, i, j)
            if wit is not None:
                return wit
        return None

    def _split_witnesses(self, u: str, v: str, z: str, i: int, j: int) -> Optional[Witnesses]:
        """Witnesses for A1 taking (u,v) with i chunks while A2 takes (u,z) with j.

        i or j of zero means the edge is left alone (only sensible when it is
        that agent's unaided choice). Both chunkings are installed together on
        one view, and `replay_plan` walks each agent on it from u to the next
        original vertex: A1's walk must be (u, v) with its chain in place,
        step for step, and A2's (u, z).
        """
        sides = ((0, v, i), (1, z, j))
        # Check both unchunked sides before building any split.
        if any(n == 0 and self.solo[t].default[u] != head for t, head, n in sides):
            return None
        witnesses: list[Chunking] = []
        for t, head, n in sides:
            if n:
                ch = self.splits[((u, head), n, t + 1)]
                if ch is None:
                    return None
                witnesses.append(ch)
        plan = ChunkPlan(chunkings=tuple(witnesses))
        hops = zip(self.pair.profiles, ((u, v), (u, z)))
        return None if replay_plan(self.g, self.dist, plan, hops) is None else plan.chunkings

    def _chunk_split(self, key: tuple[Edge, int, Literal[1, 2]]) -> Optional[Chunking]:
        """chunk_split's chunking of edge into k for the taker, or None when
        the taker refuses it."""
        edge, k, taker = key
        try:
            return chunk_split(self.g, self.dist, edge, *self.agents.biases, k, taker)[0]
        except TakerRefuses:
            return None


# ---------------------------------------------------------------------------
# Two-agent graph planning
# ---------------------------------------------------------------------------


def _pair_plan(
    moves: JointMoves, P: tuple[str, ...], Q: tuple[str, ...]
) -> Optional[tuple[ChunkPlan, tuple[TraversalTrace, TraversalTrace]]]:
    """Static plan making A1 follow P and A2 follow Q, with both traces, or None.

    Every vertex on P or Q contributes its move from the joint-move table: a
    joint move where both paths leave it, a solo move where one does. The
    assembled plan must survive `replay_plan`, which walks both types on one
    view of it (installing a chunking for one type is visible to the other).
    """
    g, budget = moves.g, moves.budget
    next_p = dict(zip(P, P[1:]))
    next_q = dict(zip(Q, Q[1:]))
    chunkings: list[Chunking] = []
    for u in dict.fromkeys([*next_p, *next_q]):
        found = moves.move[(u, next_p.get(u), next_q.get(u))]
        if found is None:
            return None
        chunkings.extend(found)
    plan = ChunkPlan(
        chunkings=tuple(sorted(chunkings, key=lambda ch: ch.edge)),
        mode=budget.mode,
        k=budget.k,
        planned_paths=(P, Q),
        predicted_cost=path_cost(g, P) + path_cost(g, Q),
        biases=moves.agents.biases,
    )
    if not budget.fits(plan.total_chunks):
        return None
    traces = replay_plan(g, moves.dist, plan, zip(moves.pair.profiles, (P, Q)))
    return None if traces is None else (plan, (traces[0], traces[1]))


def two_agent_plan(
    g: TaskGraph, b1: Fraction, b2: Fraction, budget: BudgetSpec
) -> tuple[ChunkPlan, tuple[TraversalTrace, TraversalTrace]]:
    """Minimize the sum of both types' incurred costs under one chunk plan.

    The DP over position pairs (`_two_agent_dp`) picks the cheapest path
    pair whose per-vertex moves fit the budget. Its charges are exactly the
    moves `_pair_plan` installs for that pair, so the pair's static plan is
    optimal among all pair plans; the plan is still validated by walking
    each type on it, and a pick that fails is an `InvariantViolation`.
    The DP and the pair plan read one JointMoves table.
    """
    if b1 > b2:
        raise InvalidParams("need b1 <= b2")
    if b1 == b2:
        return shared_path_plan(g, (b1, b2), budget)

    moves = JointMoves(g, b1, b2, budget)
    pair = _two_agent_dp(moves)
    planned = None if pair is None else _pair_plan(moves, *pair)
    if planned is None:
        raise InvariantViolation(f"the two-agent DP's pick {pair} failed to validate")
    return planned


def _two_agent_dp(moves: JointMoves) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The cheapest path pair: `cheapest_paths` on the graph of position pairs.

    A vertex (u, y) has A1 at u and A2 at y. Where both stand at one vertex
    they leave it by a joint move, built by `JointMoves.move` only when the
    DP reads it. Where they stand apart, only the type at the topologically
    earlier vertex moves, alone; the sink comes after every vertex, so this
    also moves the type that has not finished. A move, joint or solo, takes
    the chunks the budget charges for it, and `pair_chunks` computes them
    only when the DP asks. Ties thus break on (cost, chunks, head pair), the
    one-type rule. A move costs the edges taken in g's scaled ints. The walk
    from (s, s) to (t, t) is projected onto each type's path.

    The walk meets at every vertex w both paths share: every vertex before
    w on a path precedes w topologically, so whichever type reaches w first
    waits there while the other, behind it, moves along its path up to w.
    Each DP step is thus the move `_pair_plan` installs at that vertex (a
    joint move where both paths leave it, a solo move where one does), and
    the DP charges a pair exactly its plan's chunks.

    Only the pairs a walk along `pair_moves` reaches from (s, s) are
    solved, in the full pairs' reverse topological order, each with the
    moves the walk enumerated for it. A pair's row reads only its moves'
    heads, which the walk reaches whenever it reaches the pair, so every
    row the source's walk reads is the full DP's row;
    `cheapest_paths` raises on a head without a row, so a pair the walk
    missed cannot pass for one without a path.

    Valid per-vertex moves make a valid plan. A type's choice at u reads
    only u's out-edges and the chains installed at u, and chain vertices
    copy u's other out-edges unchunked. Chunking changes no original
    vertex's distance. So the walk from u to the next original vertex on
    the whole plan is the walk on the view of u's move alone, which
    `replay_plan` accepted only as the move's chain, or its unchunked edge,
    step for step.
    """
    g, budget = moves.g, moves.budget
    t = g.sink
    topo = validate(g)
    pos = {u: i for i, u in enumerate(topo)}

    def pair_moves(pair: tuple[str, str]) -> Iterator[tuple[tuple[str, str], int]]:
        u, y = pair
        if u == y:
            for v, cv in g.scaled_out_edges(u):
                for z, cz in g.scaled_out_edges(u):
                    yield (v, z), cv + cz
        elif pos[u] < pos[y]:  # A1 is behind, so it moves alone
            for v, c in g.scaled_out_edges(u):
                yield (v, y), c
        else:
            for z, c in g.scaled_out_edges(y):
                yield (u, z), c

    def pair_chunks(pair: tuple[str, str], head: tuple[str, str]) -> Optional[int]:
        if pair[0] == pair[1]:
            found = moves.move[(pair[0], *head)]
            return None if found is None else budget.charge(sum(ch.k for ch in found))
        mover = int(pair[0] == head[0])  # A1 moved iff its coordinate changed
        return budget.charge(moves.solo[mover].need[(pair[mover], head[mover])])

    source = (g.source, g.source)
    reached: dict[tuple[str, str], list] = {}  # each pair the walk reaches -> its moves
    frontier = [source]
    for pair in frontier:
        if pair not in reached:
            reached[pair] = list(pair_moves(pair))
            frontier.extend(head for head, _ in reached[pair])
    del reached[(t, t)]
    # Reverse topological order of the first coordinate, then of the second.
    order = sorted(reached, key=lambda p: (pos[p[0]], pos[p[1]]), reverse=True)
    levels = budget.levels
    rows, picks = cheapest_paths(order, (t, t), reached.__getitem__, pair_chunks, levels)
    if rows[source] is None:
        return None
    walk = walk_choices((t, t), picks, source, levels)
    # A type that waits repeats its vertex, and no walk on a DAG comes back.
    return tuple(dict.fromkeys(u for u, _ in walk)), tuple(dict.fromkeys(y for _, y in walk))


# ---------------------------------------------------------------------------
# m agents forced onto one shared path
# ---------------------------------------------------------------------------


def m_agent_single_path_plan(
    g: TaskGraph, agents: AgentSet, budget: BudgetSpec
) -> tuple[ChunkPlan, tuple[str, ...]]:
    """`shared_path_plan`'s plan for the set's biases and the path every
    type follows on it; raises InfeasibleChunking when no path survives."""
    plan, _ = shared_path_plan(g, agents.biases, budget)
    return plan, plan.planned_paths[0]
