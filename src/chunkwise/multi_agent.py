"""Chunking for multiple bias types.

Splitting two agents at one vertex works by reshaping a chunking the taker
still accepts until the other type's perceived cost of one chunk is as high
as possible. Keeping m agents on one edge is edge_chunk's back-to-front
`greedy_fill` with each type's (bias, outside option) as a cap; with one
type it is the fill that persuades a single agent. Graph-level planning
pairs these with the single-agent machinery, and reads the local/global
budget rule from `BudgetSpec`. Types that must share one path (and two
types with one bias) are planned by graph_chunk's single-path pipeline,
`shared_path_plan`. Every emitted plan is validated by simulating each
agent type on it; the two-agent planner falls back to exhaustive path
pairs when its optimistic DP and the simulation disagree.

The two-agent planner builds one `JointMoves` table per call: both
persuasion profiles, both types' per-edge chunk needs, and every move out
of a vertex (joint, same-edge or solo) with its witness chunkings, each
computed on first use. Its DP, its static pair plans, its exhaustive
fallback and `oracle.brute_force_two_agent_plan` all read that one table.
The DP is graph_chunk's `cheapest_paths` run on a graph of position pairs,
which resolves a move only while its lower bound can still win some budget
level, so a joint move beaten on cost is never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Callable, Iterator, Literal, Optional, Sequence

from .agent import BiasProfile, TraversalTrace, best_alternative, traverse, walk_plan
from .edge_chunk import (
    Cap,
    Chunking,
    EdgeContext,
    edge_context,
    greedy_fill,
    optimal_edge_chunking,
    padded_chunking,
    perceived_chunk_costs,
)
from .errors import InfeasibleChunking, InvalidParams, InvariantViolation, TakerRefuses
from .expansion import ChunkPlan, PlanView, original_path, walk_follows_chunking
from .graph import (
    DistanceMap,
    Edge,
    TaskGraph,
    path_cost,
    path_pairs_by_cost,
    shortest_to_sink,
    validate,
)
from .graph_chunk import (
    BudgetSpec,
    LazyEdgeMap,
    Persuasion,
    Step,
    cheapest_paths,
    chunk_budget_needed,
    chunk_graph,
    persuasion_profile,
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

    @cached_property
    def profiles(self) -> tuple[BiasProfile, ...]:
        """One BiasProfile per type, built once for this set."""
        return tuple(BiasProfile(b) for b in self.biases)


# ---------------------------------------------------------------------------
# Splitting two agents on one edge (three siphon phases, exact breakpoints)
# ---------------------------------------------------------------------------


def _p(ctx: EdgeContext, xs: list[Fraction], idx: int, b: Fraction) -> Fraction:
    """Perceived cost of chunk idx (0-based) under bias b."""
    if idx == len(xs) - 1:
        return b * xs[idx] + ctx.cost_to_sink
    return b * xs[idx] + ctx.floor(sum(xs[idx + 2 :], xs[idx + 1]))


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
                if eps <= 0:
                    break
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
                if m <= 0:
                    break
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
        # Tail chunks sit at alpha unless raising any of them further would
        # push some chunk past alpha (the addable mass is spent).
        for j in range(ti + 1, len(xs)):
            if _p(ctx, xs, j, bt) != alpha:
                _require(
                    _tail_increase_blocked(ctx, xs, ti, j, bt, alpha),
                    "tail chunk below alpha while more could be siphoned",
                )


def _tail_increase_blocked(
    ctx: EdgeContext,
    xs: list[Fraction],
    ti: int,
    j: int,
    bt: Fraction,
    alpha: Fraction,
) -> bool:
    for lp in range(ti + 1, j):
        gx_lp = sum(xs[lp + 1 :], ctx.cost_to_sink)
        if gx_lp < ctx.outside and alpha - _p(ctx, xs, lp, bt) <= 0:
            return True
    gx_i = sum(xs[ti + 1 :], ctx.cost_to_sink)
    return gx_i >= ctx.outside and xs[ti] == 0


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
        splits.append((-max(perceived_chunk_costs(ctx, chunks, br)), ti, chunks))
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
    threshold given the mass already placed behind it; a feasible chunking
    exists iff this greedy one covers the full edge cost.
    """
    if k < 1:
        raise InvalidParams("k must be >= 1")
    ctx = edge_context(g, dist, edge)
    if ctx.outside is None:  # no type can leave the chain: one chunk carries it
        return padded_chunking(edge, [ctx.x], k)
    caps = _caps(g, dist, edge, agents)
    masses, reached = greedy_fill(ctx, caps, k)
    if reached:
        return padded_chunking(edge, masses, k)
    # Only the first chunk filled, chunk k, can go negative: its floor is
    # c(v->t), and later floors never pass the least cap.
    low = min(alpha for _, alpha in caps)
    if low < ctx.cost_to_sink:
        raise InfeasibleChunking(
            f"chunk {k} forced negative: some type's outside option "
            f"({low}) is below the unavoidable continuation cost {ctx.cost_to_sink}"
        )
    raise InfeasibleChunking(f"mass deficit: {k} chunks can carry at most {masses[-1]} of {ctx.x}")


def _caps(
    g: TaskGraph, dist: DistanceMap, edge: Edge, agents: AgentSet, perss: Sequence[Persuasion] = ()
) -> list[Cap]:
    """Each type's (bias, outside option) on an edge whose tail has another way out.

    Given the types' persuasion profiles, a type's outside option is its
    alpha at the tail unless the edge is that type's default (a tie with the
    default still gives alpha): only a default edge asks for the second best.
    """
    u, v = edge
    return [
        (profile.default, pers.alpha[u]) if pers and pers.default[u] != v
        else (profile.default, best_alternative(g, dist, profile, u, exclude_head=v)[1])
        for profile, pers in zip(agents.profiles, perss or [None] * agents.m)
    ]


def _same_path_fill(
    g: TaskGraph, dist: DistanceMap, edge: Edge, agents: AgentSet, k: int,
    perss: Sequence[Persuasion] = (),
) -> Optional[list[Fraction]]:
    """chunk_same_path's `greedy_fill`, or None when no k-chunking carries
    every type; perss, the types' persuasion profiles if held, give `_caps`."""
    ctx = edge_context(g, dist, edge)
    if ctx.outside is None:  # no type can leave the chain: one chunk carries it
        return [ctx.x] if k >= 1 else None
    masses, reached = greedy_fill(ctx, _caps(g, dist, edge, agents, perss), k)
    return masses if reached else None


# ---------------------------------------------------------------------------
# Joint moves for the two-agent planner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    """How the types at one vertex leave it: chunks used and witness chunkings."""

    chunk_count: int
    witnesses: tuple[Chunking, ...]


class JointMoves:
    """Every move the two-agent planner asks about for one (g, b1 < b2, budget).

    Both persuasion profiles and both types' per-edge chunk needs are
    computed on construction. A move, and each `chunk_split` behind one, is
    computed on first use and kept on this object, never on the module, so
    its memory goes with the planner or oracle call that built it.
    """

    def __init__(self, g: TaskGraph, b1: Fraction, b2: Fraction, budget: BudgetSpec) -> None:
        self.g = g
        self.budget = budget
        self.dist = shortest_to_sink(g)
        self.vertices = frozenset(g.vertices)
        self.pers = tuple(persuasion_profile(g, self.dist, b) for b in (b1, b2))
        self.agents = AgentSet((b1, b2))
        # need[t][e]: chunks routing type t alone through e (see chunk_budget_needed)
        self.need = tuple(
            {
                (u, v): chunk_budget_needed(g, self.dist, pers, b, u, v, budget.k)
                for u, v, _ in g.edges
            }
            for pers, b in zip(self.pers, (b1, b2))
        )
        self._moves: dict[tuple[str, Optional[str], Optional[str]], Optional[Move]] = {}
        self._splits: dict[tuple[Edge, int, int], Optional[Chunking]] = {}

    def move(self, u: str, v: Optional[str], z: Optional[str]) -> Optional[Move]:
        """A1 leaves u by (u, v) while A2 leaves it by (u, z); None if impossible.

        v or z is None when that type does not pass u, and the other type is
        then persuaded alone.
        """
        key = (u, v, z)
        if key not in self._moves:
            if z is None:
                found = self._solo(0, u, v)
            elif v is None:
                found = self._solo(1, u, z)
            elif v == z:
                found = self._same_edge(u, v)
            else:
                found = self._split(u, v, z)
            self._moves[key] = found
        return self._moves[key]

    def _solo(self, t: int, u: str, v: str) -> Optional[Move]:
        l = self.need[t][(u, v)]
        if not l:  # unusable, or type t's own default edge
            return None if l is None else Move(0, ())
        n = self.budget.chunks(l)
        b = self.agents.biases[t]
        return Move(n, (optimal_edge_chunking(self.g, self.dist, (u, v), b, n)[0],))

    def _same_edge(self, u: str, v: str) -> Optional[Move]:
        if all(pers.default[u] == v for pers in self.pers):
            return Move(0, ())
        fill = _same_path_fill(self.g, self.dist, (u, v), self.agents, self.budget.k, self.pers)
        if fill is None:
            return None
        n = self.budget.chunks(len(fill))
        return Move(n, (padded_chunking((u, v), fill, n),))

    def _split(self, u: str, v: str, z: str) -> Optional[Move]:
        """Least validated pair of splits sending A1 to v and A2 to z.

        Every pair (i, j) of the budget's chunk counts is tried, fewest
        chunks first, then fewest for A2: feasibility is not monotone in
        either count, so no pair can be skipped.
        """
        counts = {0, *(self.budget.chunks(l) for l in range(1, self.budget.k + 1))}
        for i, j in sorted(product(counts, repeat=2), key=lambda p: (p[0] + p[1], p[1])):
            wit = self._split_witnesses(u, v, z, i, j)
            if wit is not None:
                return Move(i + j, wit)
        return None

    def _split_witnesses(
        self, u: str, v: str, z: str, i: int, j: int
    ) -> Optional[tuple[Chunking, ...]]:
        """Witnesses for A1 taking (u,v) with i chunks while A2 takes (u,z) with j.

        i or j of zero means the edge is left alone (only sensible when it is
        that agent's unaided choice). Both chunkings are installed together and
        validated by simulating both agents from u under the shared tie rule.
        """
        sides = ((0, v, i), (1, z, j))
        # Check both unchunked sides before building any split.
        if any(n == 0 and self.pers[t].default[u] != head for t, head, n in sides):
            return None
        witnesses: list[Chunking] = []
        for t, head, n in sides:
            if n:
                ch = self._chunk_split((u, head), n, t + 1)
                if ch is None:
                    return None
                witnesses.append(ch)
        for b, head in zip(self.agents.biases, (v, z)):
            if not _first_move_ok(self, witnesses, b, u, head):
                return None
        return tuple(witnesses)

    def _chunk_split(self, edge: Edge, k: int, taker: Literal[1, 2]) -> Optional[Chunking]:
        """chunk_split's chunking, or None when the taker refuses it."""
        key = (edge, k, taker)
        if key not in self._splits:
            b1, b2 = self.agents.biases
            try:
                self._splits[key] = chunk_split(self.g, self.dist, edge, b1, b2, k, taker)[0]
            except TakerRefuses:
                self._splits[key] = None
        return self._splits[key]


def _first_move_ok(
    moves: JointMoves,
    witnesses: Sequence[Chunking],
    b: Fraction,
    u: str,
    target: str,
) -> bool:
    """Install the witnesses, walk one agent from u, check its first move.

    The walk ends at the first original vertex after u: by then the agent
    has either crossed a chain installed at u or left it.
    """
    plan = ChunkPlan(chunkings=tuple(witnesses))
    trace, view = walk_plan(
        moves.g, moves.dist, plan, BiasProfile(b), start=u, until=moves.vertices
    )
    for ch in witnesses:
        if ch.tail == u and ch.head == target:
            return walk_follows_chunking(trace.path, view.chain_of(ch.edge))
    return len(trace.path) > 1 and trace.path[1] == target


# ---------------------------------------------------------------------------
# Two-agent graph planning
# ---------------------------------------------------------------------------


def _pair_plan(
    moves: JointMoves, P: tuple[str, ...], Q: tuple[str, ...]
) -> Optional[tuple[ChunkPlan, tuple[TraversalTrace, TraversalTrace]]]:
    """Static plan making A1 follow P and A2 follow Q, with both traces, or None.

    Every vertex on P or Q contributes its move from the joint-move table: a
    joint move where both paths leave it, a solo move where one does. The
    assembled plan must survive walking each type once on one view of it
    (installing a chunking for one type is visible to the other).
    """
    g, budget = moves.g, moves.budget
    next_p = dict(zip(P, P[1:]))
    next_q = dict(zip(Q, Q[1:]))
    chunkings: list[Chunking] = []
    total = 0
    for u in dict.fromkeys([*next_p, *next_q]):
        found = moves.move(u, next_p.get(u), next_q.get(u))
        if found is None:
            return None
        chunkings.extend(found.witnesses)
        total += found.chunk_count
    if not budget.fits(total):
        return None
    plan = ChunkPlan(
        chunkings=tuple(sorted(chunkings, key=lambda ch: ch.edge)),
        mode=budget.mode,
        k=budget.k,
        planned_paths=(P, Q),
        predicted_cost=path_cost(g, P) + path_cost(g, Q),
        biases=moves.agents.biases,
    )
    view = PlanView(g, moves.dist, plan)
    traces: list[TraversalTrace] = []
    for b, path in zip(moves.agents.biases, (P, Q)):
        trace = traverse(view, view, BiasProfile(b), view.marks)
        if original_path(view, trace.path) != path or trace.total != path_cost(g, path):
            return None
        traces.append(trace)
    return plan, (traces[0], traces[1])


def two_agent_plan(
    g: TaskGraph, b1: Fraction, b2: Fraction, budget: BudgetSpec
) -> tuple[ChunkPlan, tuple[TraversalTrace, TraversalTrace]]:
    """Minimize the sum of both types' incurred costs under one chunk plan.

    The DP over position pairs (`_two_agent_dp`) picks a path pair, which
    is rebuilt as a static per-vertex plan and validated by simulating each
    type, falling back to exhaustive enumeration of path pairs when the
    optimistic DP overreaches (interactions between chunkings installed at
    a vertex both paths visit at different times). The DP also charges an
    edge both types take at different steps once per type, where one
    same-edge chunking may serve both, so the fallback can return a pair
    cheaper than the DP's own pick.
    The DP, the pair plans and the fallback read one JointMoves table.
    """
    if b1 > b2:
        raise InvalidParams("need b1 <= b2")
    if b1 == b2:
        return chunk_graph(g, b1, budget, 2)

    moves = JointMoves(g, b1, b2, budget)
    pair = _two_agent_dp(moves)
    if pair is not None:
        planned = _pair_plan(moves, *pair)
        if planned is not None:
            return planned
    # Fallback: exhaustive static search (always contains the default pair).
    for _, P, Q in path_pairs_by_cost(g):
        planned = _pair_plan(moves, P, Q)
        if planned is not None:
            return planned
    raise InvariantViolation("the default biased paths failed to validate")


def _two_agent_dp(moves: JointMoves) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The cheapest path pair: `cheapest_paths` on the graph of position pairs.

    A vertex (u, y) has A1 at u and A2 at y. Where both stand at one vertex
    they leave it by a joint move (rank 0), built by `JointMoves.move` only
    when the DP reads it. Where they stand apart, A2 joins A1 (rank 1), A1
    joins A2 (rank 2), or each takes its own edge (rank 3), charged the
    needs of the edges taken; an unusable edge is skipped before the DP
    sorts the row. Once one type is at the sink the other moves alone,
    ranked by its chunks. Ties thus break on (cost, rank, v, z, chunks).
    A move costs the sum of the edges taken in g's scaled ints. The walk
    from (s, s) to (t, t) is projected onto each type's path.
    """
    g, budget = moves.g, moves.budget
    t = g.sink
    l1, l2 = ({e: budget.charge(l) for e, l in need.items()} for need in moves.need)

    def joint(u: str, v: str, z: str) -> Optional[tuple[int, int]]:
        found = moves.move(u, v, z)
        return None if found is None else (0, budget.charge(found.chunk_count))

    def known(rank: int, l: int) -> Callable[[], tuple[int, int]]:
        return lambda: (rank, l)

    def pair_moves(pair: tuple[str, str]) -> Iterator[Step[tuple[str, str]]]:
        u, y = pair
        if u == y:
            for v, cv in g.scaled_out_edges(u):
                for z, cz in g.scaled_out_edges(u):
                    yield cv + cz, (v, z), lambda v=v, z=z: joint(u, v, z)
        elif y == t:
            for v, cv in g.scaled_out_edges(u):
                if l1[(u, v)] is not None:
                    yield cv, (v, t), known(l1[(u, v)], l1[(u, v)])
        elif u == t:
            for z, cz in g.scaled_out_edges(y):
                if l2[(y, z)] is not None:
                    yield cz, (t, z), known(l2[(y, z)], l2[(y, z)])
        else:
            if l2.get((y, u)) is not None:  # A2 joins A1 at u
                yield g.scaled_cost(y, u), (u, u), known(1, l2[(y, u)])
            if l1.get((u, y)) is not None:  # A1 joins A2 at y
                yield g.scaled_cost(u, y), (y, y), known(2, l1[(u, y)])
            for v, cv in g.scaled_out_edges(u):
                if v == y or l1[(u, v)] is None:
                    continue
                for z, cz in g.scaled_out_edges(y):
                    if z != u and l2[(y, z)] is not None:
                        yield cv + cz, (v, z), known(3, l1[(u, v)] + l2[(y, z)])

    rev = list(reversed(validate(g)))
    order = [(u, y) for u in rev for y in rev if not u == y == t]
    levels = budget.levels
    source = (g.source, g.source)
    table, choice = cheapest_paths(order, (t, t), pair_moves, levels)
    if (source, levels) not in table:
        return None
    walk = walk_choices((t, t), choice, source, levels)
    # A type that waits repeats its vertex, and no walk on a DAG comes back.
    return tuple(dict.fromkeys(u for u, _ in walk)), tuple(dict.fromkeys(y for _, y in walk))


# ---------------------------------------------------------------------------
# m agents forced onto one shared path
# ---------------------------------------------------------------------------


def single_path_plan(
    g: TaskGraph, agents: AgentSet, budget: BudgetSpec
) -> tuple[ChunkPlan, tuple[TraversalTrace, ...]]:
    """Cheapest single path every agent type can be persuaded to follow.

    One type is `chunk_graph`'s plan. Several types need each edge's least
    group chunk count (0 when it is every type's default) and get
    `chunk_same_path` chunkings, both from one greedy fill per edge, run
    when the DP first reads the edge. Returns the plan and each type's trace
    on it; raises InfeasibleChunking when no path survives.
    """
    if agents.m == 1:
        return chunk_graph(g, agents.biases[0], budget, 1)
    dist = shortest_to_sink(g)
    perss = [persuasion_profile(g, dist, b) for b in agents.biases]
    fills = LazyEdgeMap(
        g,
        lambda e: [] if all(p.default[e[0]] == e[1] for p in perss)
        else _same_path_fill(g, dist, e, agents, budget.k, perss),
    )
    return shared_path_plan(
        g, dist, agents.biases, budget,
        LazyEdgeMap(g, lambda e: None if fills[e] is None else len(fills[e])),
        lambda e, n: padded_chunking(e, fills[e], n),
    )


def m_agent_single_path_plan(
    g: TaskGraph, agents: AgentSet, budget: BudgetSpec
) -> tuple[ChunkPlan, tuple[str, ...]]:
    """single_path_plan's plan and the path every type follows on it."""
    plan, _ = single_path_plan(g, agents, budget)
    return plan, plan.planned_paths[0]
