"""Single-edge chunking: closed forms, evaluation, and the optimal chunker.

A k-chunking of edge (u, v) replaces it by a chain u -> m_1 -> ... -> m_{k-1}
-> v with chunk costs x_1..x_k summing to c(u, v). Every chain vertex keeps
copies of u's other out-edges at their original costs, so the agent can
abandon the chain at any point. The perceived cost of starting chunk i is

    p_i = b*x_i + min(outside, suffix_i + c(v->t))        for i < k
    p_k = b*x_k + c(v->t)

where outside is the true cost of u's best route to the sink that avoids
(u, v), and suffix_i the chunk mass after chunk i. The bottleneck max_i p_i
decides which agents traverse the whole chain. The min term, the true cost
to the sink from chain vertex i, is `_floor(outside, suffix_i + c(v->t))`.

`optimal_edge_chunking` screens at most three closed-form candidates in
Python ints: x, c(v->t) and outside over one common denominator, b = p/r,
and powers of p and p - r. A binary search over the transition vertex finds
them in O(log k) steps. Bottlenecks compare by exact cross-multiplication,
and only the candidates tied at the least one become `Fraction` chunks. One
backward pass in ints over a chunking, its costs over the lcm of their
denominators, gives its perceived costs, its transition vertex, its sum and
its bottleneck, for `evaluate_chunking` and `perceived_chunk_costs` alike:
one `Fraction` per run of equal perceived costs, so a geometric tail builds
one.

An edge's x, c(v->t) and outside option come from one scan of the tail's
adjacency in the graph's scaled ints, `scaled_edge_scan`; `edge_context` is
its `Fraction` image. The greedy fill inverts p_i <= cap for each agent
type, filling from the last chunk backwards, in one int loop,
`_greedy_ints`, fed from that scan with the caller's L and one (step
weight, cap) bound per type: one bound answers `min_chunks_to_beat`,
several keep every type on one edge (`graph_chunk.GroupNeeds.fill`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Sequence, TypeVar

from .errors import InvalidParams, InvariantViolation, NoAlternative, UnknownEdge
from .graph import DistanceMap, Edge, TaskGraph
from .rational import format_rat


@dataclass(frozen=True)
class Chunking:
    """Chunk costs for one edge: ints or Fractions, nonnegative, summing to the edge cost."""

    tail: str
    head: str
    chunks: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.chunks) < 1:
            raise InvalidParams("a chunking needs at least one chunk")
        if not set(map(type, self.chunks)) <= {int, Fraction}:  # no float, no bool
            raise InvalidParams(f"chunk costs must be exact, ints or Fractions: {self.chunks!r}")
        if any(x.numerator < 0 for x in self.chunks):  # every denominator is positive
            raise InvalidParams("chunk costs must be nonnegative")

    @property
    def edge(self) -> Edge:
        return (self.tail, self.head)

    @property
    def k(self) -> int:
        return len(self.chunks)

    @property
    def total(self) -> Fraction:
        return sum(self.chunks, Fraction(0))

    def to_json(self) -> dict:
        return {"from": self.tail, "to": self.head, "chunks": [format_rat(x) for x in self.chunks]}


@dataclass(frozen=True)
class ChunkingReport:
    """Evaluation of one chunking: perceived costs and derived quantities.

    tau is the last chain vertex whose true shortest route to the sink leaves
    through the outside option (0 if the chain is never abandoned optimally;
    k if every chain vertex would leave). selective_bias is
    (bottleneck - c(v->t)) / x for x > 0, the bias an agent would need toward
    the unchunked edge to behave the same way; 1 for zero-cost edges.
    """

    edge: Edge
    perceived: tuple[Fraction, ...]
    tau: int
    bottleneck: Fraction
    delta: Optional[Fraction]
    selective_bias: Fraction


@dataclass(frozen=True)
class EdgeContext:
    """Per-edge constants: cost x, c(v->t), and the best outside route cost."""

    tail: str
    head: str
    x: Fraction
    cost_to_sink: Fraction
    outside: Optional[Fraction]  # None when (u, v) is u's only out-edge


Cost = TypeVar("Cost", int, Fraction)


def _floor(outside: Optional[Cost], through: Cost) -> Cost:
    """The chain-vertex floor min(outside, through), through being c(v->t)
    plus the chunk mass ahead; in `Fraction`s or in scaled ints alike."""
    return through if outside is None else min(outside, through)


def scaled_edge_scan(g: TaskGraph, dist: DistanceMap, edge: Edge) -> tuple[int, int, Optional[int]]:
    """x, c(v->t) and the outside option of (u, v), ints over g.scale, from
    the one scan of u's adjacency: the outside option is the least
    c(u, h) + d(h) over u's other edges, None when (u, v) is u's only one."""
    u, v = edge
    scaled = dist.scaled_for(g)
    x: Optional[int] = None
    outside: Optional[int] = None
    for head, cost in g.scaled_out_edges(u) if g.has_vertex(u) else ():
        if head == v:
            x = cost
        elif outside is None or cost + scaled[head] < outside:
            outside = cost + scaled[head]
    if x is None:
        raise UnknownEdge(u, v)
    return x, scaled[v], outside


def edge_context(g: TaskGraph, dist: DistanceMap, edge: Edge) -> EdgeContext:
    """`scaled_edge_scan` in `Fraction`s."""
    x, c, o = scaled_edge_scan(g, dist, edge)
    s = g.scale
    return EdgeContext(*edge, Fraction(x, s), Fraction(c, s), None if o is None else Fraction(o, s))


def selective_bias_closed_form(b: Fraction, k: int) -> Fraction:
    """Selective bias induced by the geometric chunking: 1/(1-((b-1)/b)^k)."""
    _check_params(b, k)
    q = (b - 1) / b
    return 1 / (1 - q**k)


def chunk_shortest_edge(x: Fraction, b: Fraction, k: int) -> tuple[Fraction, ...]:
    """Geometric chunking x_i = (b-1)^(k-i) * b^(i-1) / (b^k - (b-1)^k) * x.

    Optimal whenever the chain itself is the shortest route from every chain
    vertex (in particular for edges starting a shortest path). Easy chunks
    first, each later chunk b/(b-1) times harder. With b = p/r this is
    x * r * (p-r)^(k-i) * p^(i-1) / (p^k - (p-r)^k), built from integer powers.
    """
    _check_params(b, k)
    if x < 0:
        raise InvalidParams("edge cost must be nonnegative")
    p, r = b.numerator, b.denominator
    spow = _powers(p - r, k)
    num, den = x.numerator * r, x.denominator * (p**k - spow[k])
    # Powers of p built as the loop goes: a second list of them, read by a
    # generator, measured 0.9 MB more peak RSS on the edge-deep benchmark.
    chunks = []
    ppow = 1  # p**(i-1)
    for i in range(1, k + 1):
        chunks.append(Fraction(num * spow[k - i] * ppow, den))
        ppow *= p
    return tuple(chunks)


def _powers(base: int, k: int) -> list[int]:
    """[base**0, ..., base**k]."""
    powers = [1]
    for _ in range(k):
        powers.append(powers[-1] * base)
    return powers


def delta(g: TaskGraph, dist: DistanceMap, edge: Edge) -> Fraction:
    """Gap x + c(v->t) - outside; <= 0 exactly when (u,v) starts a shortest path."""
    ctx = edge_context(g, dist, edge)
    if ctx.outside is None:
        raise NoAlternative(*edge)
    return ctx.x + ctx.cost_to_sink - ctx.outside


def perceived_chunk_costs(
    ctx: EdgeContext, chunks: tuple[Fraction, ...], b: Fraction
) -> tuple[Fraction, ...]:
    """Closed-form p_i for every chunk, exact."""
    return _suffix_walk(ctx, chunks, b)[0]


def evaluate_chunking(
    g: TaskGraph, dist: DistanceMap, chunking: Chunking, b: Fraction
) -> ChunkingReport:
    """Evaluate a chunking: perceived costs, transition vertex, bottleneck."""
    return _evaluate(edge_context(g, dist, chunking.edge), chunking, b)


def _evaluate(ctx: EdgeContext, chunking: Chunking, b: Fraction) -> ChunkingReport:
    perceived, tau, total, bottleneck = _suffix_walk(ctx, chunking.chunks, b)
    if total != ctx.x:
        raise InvalidParams(
            f"chunks sum to {total}, edge ({ctx.tail}, {ctx.head}) costs {ctx.x}"
        )
    d = None if ctx.outside is None else ctx.x + ctx.cost_to_sink - ctx.outside
    bias = (bottleneck - ctx.cost_to_sink) / ctx.x if ctx.x > 0 else Fraction(1)
    return ChunkingReport(
        edge=chunking.edge,
        perceived=perceived,
        tau=tau,
        bottleneck=bottleneck,
        delta=d,
        selective_bias=bias,
    )


def _suffix_walk(
    ctx: EdgeContext, chunks: tuple[Fraction, ...], b: Fraction
) -> tuple[tuple[Fraction, ...], int, Fraction, Fraction]:
    """One backward pass in ints: (p_1..p_k, tau, the chunks' sum, max p_i).

    Chunk i < k perceives b*x_i plus the floor of `through`, c(v->t) plus
    the mass after chunk i. Chain vertex i routes outside iff outside <
    c(v->t) plus the mass from chunk i on, strictly: at an exact tie the
    chain is as good as leaving. tau is the last such vertex, else 0.

    Costs are scaled by d, the lcm of the denominators of c(v->t), outside
    and every chunk, and b = p/r, so p_i = (p*X_i + r*F_i) / (r*d) with X_i
    the scaled chunk and F_i the scaled floor: each p_i is one `Fraction`
    built from ints, and the bottleneck is the largest numerator over r*d.
    """
    c, o = ctx.cost_to_sink, ctx.outside
    p, r = b.numerator, b.denominator
    d = lcm(c.denominator, 1 if o is None else o.denominator, *{x.denominator for x in chunks})
    big_o = None if o is None else o.numerator * (d // o.denominator)
    big_c = through = floor = c.numerator * (d // c.denominator)
    rd, tau, top, perceived = r * d, 0, 0, []
    last = cost = None
    for i in range(len(chunks), 0, -1):
        x_i = chunks[i - 1]
        big_x = x_i.numerator * (d // x_i.denominator)
        n = p * big_x + r * floor
        if n != last:
            last, cost = n, Fraction(n, rd)
        perceived.append(cost)
        if n > top:
            top = n
        through += big_x
        if not tau and big_o is not None and big_o < through:
            tau = i
        floor = _floor(big_o, through)
    perceived.reverse()
    return tuple(perceived), tau, Fraction(through - big_c, d), Fraction(top, rd)


def optimal_edge_chunking(
    g: TaskGraph, dist: DistanceMap, edge: Edge, b: Fraction, k: int
) -> tuple[Chunking, ChunkingReport]:
    """Minimize the bottleneck over all k-chunkings of one edge.

    Screens the closed-form candidate set below by each candidate's exact
    bottleneck, also in closed form and in integers, then builds and
    evaluates only the candidates tied at the minimum and returns the argmin
    of (bottleneck, tau, chunk vector). Finding the at most three candidates
    takes O(log k) screens, each a few powers and O(1) integer
    multiplications on numbers of O(k) bits; each tied candidate's
    evaluation is one O(k) pass in ints.

    * chain on a shortest path (or no outside option): the geometric chunking,
      provably optimal;
    * delta > x: every chain vertex leaves; balance the k-1 equal head chunks
      against the final chunk, clamping the final chunk at zero;
    * 0 < delta <= x: at the transition vertex tau*, the least at which the
      head-heavy chunking's (delta/tau on the first tau chunks, geometric
      tail) tail perceived cost exceeds its head one, the head-heavy
      chunking and the rebalanced chunking that grows the first tau-1
      chunks; plus the tau = k balanced chunking. No other tau can do
      better (`_candidates`).
    """
    _check_params(b, k)
    ctx = edge_context(g, dist, edge)
    low_n, low_d, tied = 1, 0, []  # 1/0 stands above every bottleneck
    for n, m, h, y_n, y_d in _candidates(ctx, b, k):
        # Exact cross-multiplication: every denominator is positive.
        if n * low_d < low_n * m:
            low_n, low_d, tied = n, m, [(h, y_n, y_d)]
        elif n * low_d == low_n * m:
            tied.append((h, y_n, y_d))
    low = Fraction(low_n, low_d)
    evaluated: list[tuple[Chunking, ChunkingReport]] = []
    for h, y_n, y_d in tied:
        chunking = Chunking(*edge, _head_then_geometric(ctx.x, b, k, h, Fraction(y_n, y_d)))
        report = _evaluate(ctx, chunking, b)
        if report.bottleneck != low:
            raise InvariantViolation(
                f"candidate {chunking.chunks} of {edge} evaluates to bottleneck "
                f"{report.bottleneck}, its closed form gives {low}"
            )
        evaluated.append((chunking, report))
    return min(evaluated, key=lambda cr: (cr[1].bottleneck, cr[1].tau, cr[0].chunks))


# (bottleneck numerator, its denominator, h, y numerator, y denominator)
Candidate = tuple[int, int, int, int, int]


def _candidates(ctx: EdgeContext, b: Fraction, k: int) -> Iterator[Candidate]:
    """The optimizer's candidates, each with its exact bottleneck, in integers.

    Every candidate is h equal head chunks y followed by the geometric
    chunking of the remaining mass M = x - h*y over the last k - h chunks,
    with h*y <= delta whenever h > 0. So each head chain vertex leaves through
    the outside option and perceives b*y + outside, the geometric tail's last
    chunk perceives M/(1 - q^(k-h)) + c(v->t) with q = (b-1)/b, and no tail
    chunk perceives more: the bottleneck is the larger of the two.

    A candidate (n, m, h, y_n, y_d) has bottleneck n/m and y = y_n/y_d, with
    m, y_d > 0 and neither fraction reduced. The screen runs in units of
    1/d0, d0 the common denominator of x, c(v->t) and outside: big_x, big_c,
    big_o and big_d are x, c(v->t), outside and delta times d0. With
    b = p/r, q^j = (p-r)^j / p^j and 1 - q^j = (p^j - (p-r)^j) / p^j.

    When 0 < delta <= x, the head-heavy chunking at tau < k puts delta/tau on
    each of the first tau chunks. Its head perceives alpha0(tau) =
    b*delta/tau + outside, which strictly falls as tau grows, and its tail
    beta0(tau) = (x - delta)/(1 - q^(k-tau)) + c(v->t), which never falls
    (and strictly rises unless x = delta). So "beta0 > alpha0" is false up to
    some tau and true from there on: a binary search finds the least tau*
    where it holds, or tau* = k if none does. When x = delta, beta0 =
    c(v->t) <= alpha0 everywhere, so tau* = k. Each tau < tau* yields the
    head-heavy chunking at bottleneck alpha0(tau); each tau >= tau* yields it
    at bottleneck beta0(tau), and also the rebalanced chunking with tau - 1
    head chunks (the geometric chunking at tau = 1). Only tau* is yielded,
    with the tau = k candidate; the others cannot change the argmin of
    (bottleneck, tau, chunks):

    * tau <= tau*-1: the only candidate is head-heavy, at alpha0(tau) >=
      alpha0(tau*-1). The head-heavy chunking at tau*-1 is the rebalanced
      candidate at tau* (the tau = k one when tau* = k) with its head chunks
      y at their cap delta/(tau*-1). That candidate's head perceived cost
      rises in y and its tail's falls, so its y minimizes the larger of the
      two up to that cap: it is strictly lower or the same chunking.
    * tau >= tau*+1, head-heavy: beta0(tau) > beta0(tau*), the bottleneck of
      the head-heavy candidate at tau* (x > delta here, as tau* < k).
    * tau >= tau*+1, rebalanced: its tau-1 >= tau* head chunks are y <=
      delta/(tau-1) each, so they carry at most delta, and its tail carries
      at least x - delta over at most k - tau* chunks. The tail perceives at
      least beta0(tau*). Equality needs y = delta/tau* at tau = tau*+1: that
      chunking is the head-heavy one at tau*, so the tie leaves the argmin
      as it is.
    """
    x, c, o = ctx.x, ctx.cost_to_sink, ctx.outside
    p, r = b.numerator, b.denominator
    d0 = lcm(x.denominator, c.denominator, 1 if o is None else o.denominator)
    big_x, big_c = x.numerator * (d0 // x.denominator), c.numerator * (d0 // c.denominator)
    big_o = 0 if o is None else o.numerator * (d0 // o.denominator)
    big_d = big_x + big_c - big_o

    def shape(h: int, y_n: int, y_d: int, pk: int, sk: int) -> Candidate:
        # pk, sk are p**(k-h), (p-r)**(k-h); the tail perceives
        # (x - h*y) * pk / (pk - sk) + c(v->t), each head chunk b*y + outside.
        z = pk - sk
        n, m = (big_x * y_d - h * y_n) * pk + big_c * y_d * z, y_d * z
        if h:
            head_n, head_d = p * y_n + r * y_d * big_o, r * y_d
            if head_n * m >= n * head_d:
                n, m = head_n, head_d
        return n, m * d0, h, y_n, y_d * d0

    if k == 1 or o is None or big_d <= 0:
        yield shape(0, 0, 1, p**k, (p - r) ** k)
        return
    if big_d <= big_x:  # 0 < delta <= x: the window around the crossing tau*

        def head_heavy(tau: int) -> tuple[int, int, int, int]:
            # shape(tau, d/tau)'s two perceived costs as (alpha_n, alpha_d,
            # beta_n, beta_d): alpha0 = b*d/tau + outside and
            # beta0 = (x-d)/(1-q^(k-tau)) + c(v->t).
            pk, sk = p ** (k - tau), (p - r) ** (k - tau)
            z = pk - sk
            return p * big_d + r * tau * big_o, r * tau, (big_x - big_d) * pk + big_c * z, z

        lo, hi = 1, k  # tau* = the least tau < k with beta0 > alpha0, else k
        while lo < hi:
            mid = (lo + hi) // 2
            alpha_n, alpha_d, beta_n, beta_d = head_heavy(mid)
            if beta_n * alpha_d > alpha_n * beta_d:
                hi = mid
            else:
                lo = mid + 1
        tau = lo
        if tau < k:
            _, _, beta_n, beta_d = head_heavy(tau)
            yield beta_n, beta_d * d0, tau, big_d, tau * d0
            pk, sk = p ** (k - tau + 1), (p - r) ** (k - tau + 1)
            if tau == 1:
                yield shape(0, 0, 1, pk, sk)
            else:
                # Rebalanced: y* = (d*z + (1-z)*x) / (tau-1 + z*b) with
                # z = 1 - q^(k-tau+1), at most d/(tau-1).
                y_n = r * (big_d * (pk - sk) + sk * big_x)
                y_d = r * (tau - 1) * pk + p * (pk - sk)
                if y_n * (tau - 1) > big_d * y_d:
                    y_n, y_d = big_d, tau - 1
                yield shape(tau - 1, y_n, y_d, pk, sk)
    # tau = k, the only candidate when delta > x: every chain vertex leaves;
    # y = min((d + (b-1)*x) / (b*k), d/(k-1), x/(k-1)).
    y_n, y_d, cap = r * big_d + (p - r) * big_x, p * k, min(big_d, big_x)
    if y_n * (k - 1) > cap * y_d:
        y_n, y_d = cap, k - 1
    yield shape(k - 1, y_n, y_d, p, p - r)


def _head_then_geometric(
    x: Fraction, b: Fraction, k: int, h: int, y: Fraction
) -> tuple[Fraction, ...]:
    return (y,) * h + chunk_shortest_edge(x - h * y, b, k - h)


def _fill_masses(ns: Sequence[int], d0: int, big_l: int, x: Fraction) -> list[Fraction]:
    """The masses M_i = n_i / (d0 * L**i) of an int fill that reached x,
    the last cut to x."""
    return [Fraction(n, d0 * big_l**i) for i, n in enumerate(ns[:-1], 1)] + [x]


def _greedy_ints(
    big_x: int, big_c: int, big_o: Optional[int], big_l: int, bounds: Sequence[tuple[int, int]],
    k: int,
) -> tuple[list[int], bool]:
    """Most mass l chunks can carry within every type's cap, l <= k, in ints
    over one unit 1/d0: M_1..M_l, stopping at the first M_l >= x.

    Fills from the last chunk backwards, each chunk as large as every cap
    allows given the mass M_l already behind it: M_1 = min (cap - c(v->t))/b
    and M_{l+1} = M_l + min (cap - floor(M_l))/b over the types. Maximal by
    the suffix-sum exchange argument. Empty when some cap < c(v->t), since
    even a zero-mass final chunk breaks it. The fill reads k only to stop,
    so one fill at the largest k gives both the least chunk count within
    every cap (its length) and, cut to x and zero-padded, the chunking for
    any count at least that (`_fill_masses`, `padded_chunking`).

    big_x, big_c and big_o are x, c(v->t) and outside (None: no way out)
    times d0. The caller fixes L, a common multiple of the biases'
    numerators, and gives each type's bound as (w, cap times d0) with
    w = r * L / p for its bias p/r. Returns (n_1..n_l, reached) with
    M_i = n_i / (d0 * L**i), the last uncut: (cap - floor)/b over
    d0 * L**(i+1) is w * (cap - floor) over d0 * L**i.
    """
    masses: list[int] = []
    mass, floor, lp = 0, big_c, 1  # lp = L**i; the last chunk's floor is c(v->t)
    for _ in range(k):
        step = min([w * (top * lp - floor) for w, top in bounds])
        if step < 0:
            if masses:
                raise InvariantViolation("greedy step went negative with every cap >= c(v->t)")
            break
        mass, lp = mass * big_l + step, lp * big_l
        masses.append(mass)
        if mass >= big_x * lp:
            return masses, True
        floor = _floor(None if big_o is None else big_o * lp, mass + big_c * lp)
    return masses, False


def padded_chunking(edge: Edge, fill: Sequence[Fraction], n: int) -> Chunking:
    """The n-chunking of a fill of at most n masses: zero head chunks, then its steps."""
    steps = [mass - before for before, mass in zip((Fraction(0), *fill), fill)]
    return Chunking(*edge, (Fraction(0),) * (n - len(fill)) + tuple(reversed(steps)))


def min_chunks_to_beat(
    g: TaskGraph,
    dist: DistanceMap,
    edge: Edge,
    b: Fraction,
    alpha: Fraction,
    k_max: int,
) -> Optional[int]:
    """Least l <= k_max whose optimal l-chunking bottleneck is <= alpha.

    Returns None when even k_max chunks cannot reach alpha. Some l-chunking
    keeps every perceived cost within alpha exactly when the greedy mass
    M_l >= x (pad the greedy fill with zero head chunks), so one greedy fill,
    in ints over lcm(g.scale, alpha's denominator), answers it in O(k_max)
    integer steps, with no optimization.
    """
    if k_max < 1:
        raise InvalidParams("k_max must be >= 1")
    x, c, outside = scaled_edge_scan(g, dist, edge)
    unit = lcm(g.scale, alpha.denominator)
    f = unit // g.scale
    cap = alpha.numerator * (unit // alpha.denominator)
    big_o = None if outside is None else outside * f
    ns, reached = _greedy_ints(x * f, c * f, big_o, b.numerator, ((b.denominator, cap),), k_max)
    return len(ns) if reached else None


def _check_params(b: Fraction, k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise InvalidParams(f"k must be a positive integer, got {k!r}")
    if b <= 1:
        raise InvalidParams(f"bias must be > 1, got {b}")
