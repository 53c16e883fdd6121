"""Weighted task-DAG model: exact costs, validation, distances, generators, IO."""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import (
    CycleDetected,
    GridTooLarge,
    InvalidParams,
    InvalidSpec,
    MissingSourceOrSink,
    NegativeCost,
    ParseError,
    SinkUnreachable,
    UnknownEdge,
)
from .oracle_limits import enumeration_cap
from .rational import RatLike, dump_json, format_rat, parse_rat, rat

Edge = tuple[str, str]


class TaskGraph:
    """A weighted DAG with a designated source and sink.

    Immutable after construction. Edge costs are exact nonnegative rationals;
    at most one edge per ordered vertex pair, no self-loops. Each cost is
    kept once, as a Python int over one common denominator, `scale` (the lcm
    of the cost denominators), in the one adjacency that the exact integer
    relaxations of the distances, the planners' DPs and every walk read;
    `cost`, `out_edges` and `edges` build `Fraction`s from those ints.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str, RatLike]],
        source: str,
        sink: str,
        *,
        _exact: bool = False,  # edges carry (numerator, denominator) in lowest terms
    ) -> None:
        self.vertices: tuple[str, ...] = tuple(vertices)
        seen = set(self.vertices)
        if len(seen) != len(self.vertices) or not all(self.vertices):
            for i, v in enumerate(self.vertices):  # walked only to name the first bad id
                if not v:
                    raise ParseError("vertices", "vertex ids must be non-empty")
                if v in self.vertices[:i]:
                    raise ParseError("vertices", f"duplicate vertex id {v!r}")
        if source not in seen or sink not in seen:
            raise MissingSourceOrSink(
                f"source {source!r} and sink {sink!r} must both be vertices"
            )
        self.source = source
        self.sink = sink

        costs: dict[Edge, tuple[int, int]] = {}
        for tail, head, raw in edges:
            if tail not in seen or head not in seen:
                raise ParseError("edges", f"edge ({tail}, {head}) references unknown vertex")
            if tail == head:
                raise ParseError("edges", f"self-loop at {tail}")
            if (tail, head) in costs:
                raise ParseError("edges", f"duplicate edge ({tail}, {head})")
            num, den = raw if _exact else rat(raw).as_integer_ratio()
            if num < 0:  # every denominator is positive
                raise NegativeCost(tail, head, Fraction(num, den))
            costs[(tail, head)] = (num, den)
        scale = self.scale = lcm(*{den for _, den in costs.values()})
        out: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for (tail, head), (num, den) in costs.items():
            out[tail].append((head, num * (scale // den)))
        # Each vertex's adjacency lists its heads ascending, which keeps
        # every downstream iteration deterministic.
        for hops in out.values():
            hops.sort()
        self._scaled_out = {v: tuple(hops) for v, hops in out.items()}
        self._order: tuple[str, ...] | None = None  # set by the first validate()

    @cached_property
    def edges(self) -> tuple[tuple[str, str, Fraction], ...]:
        """Every (tail, head, cost), sorted by (tail, head); built on first read."""
        out = self._scaled_out
        return tuple((u, h, Fraction(c, self.scale)) for u in sorted(out) for h, c in out[u])

    def out_edges(self, u: str) -> tuple[tuple[str, Fraction], ...]:
        """u's (head, cost) pairs, heads ascending, built from scaled_out_edges(u)."""
        return tuple((h, Fraction(c, self.scale)) for h, c in self._scaled_out[u])

    def scaled_out_edges(self, u: str) -> tuple[tuple[str, int], ...]:
        """u's (head, cost times `scale`) pairs, heads ascending; the one adjacency."""
        return self._scaled_out[u]

    def _scaled_cost(self, u: str, v: str) -> int:
        """The cost of edge (u, v) times `scale`; UnknownEdge if there is no such edge."""
        for head, cost in self._scaled_out.get(u, ()):
            if head == v:
                return cost
        raise UnknownEdge(u, v)

    def cost(self, u: str, v: str) -> Fraction:
        """The cost of edge (u, v); UnknownEdge if there is no such edge."""
        return Fraction(self._scaled_cost(u, v), self.scale)

    def has_vertex(self, v: str) -> bool:
        return v in self._scaled_out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskGraph({len(self.vertices)} vertices, {len(self.edges)} edges, "
            f"{self.source}->{self.sink})"
        )


def validate(g: TaskGraph) -> tuple[str, ...]:
    """Return a topological order (lexicographic among ready vertices).

    Raises CycleDetected naming a back edge if the graph is not acyclic. The
    graph is immutable, so the first order found is kept on it and returned
    by every later call; a cyclic graph keeps nothing and raises every time.
    """
    if g._order is not None:
        return g._order
    out = g._scaled_out
    indegree = dict.fromkeys(out, 0)
    for hops in out.values():
        for head, _ in hops:
            indegree[head] += 1
    ready = [v for v, n in indegree.items() if not n]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for head, _ in out[v]:
            indegree[head] -= 1
            if not indegree[head]:
                heapq.heappush(ready, head)
    if len(order) != len(out):
        leftover = out.keys() - order
        for u in sorted(leftover):
            for v, _ in out[u]:
                if v in leftover:
                    raise CycleDetected(u, v)
        raise CycleDetected("?", "?")  # pragma: no cover - leftover always has an edge
    g._order = tuple(order)
    return g._order


@dataclass(frozen=True)
class DistanceMap:
    """Exact shortest-path-to-sink costs plus one witness successor per vertex.

    scaled holds each distance times `scale`, the graph's cost scale, as an int.
    """

    successor: Mapping[str, str]
    scaled: Mapping[str, int]
    scale: int

    def __getitem__(self, vertex: str) -> Fraction:
        return Fraction(self.scaled[vertex], self.scale)

    def scaled_for(self, g: TaskGraph) -> Mapping[str, int]:
        """The scaled distances, in units of 1/g.scale like g's scaled costs."""
        if self.scale != g.scale:
            raise InvalidParams(
                f"distances are scaled by {self.scale}, the graph's costs by {g.scale}"
            )
        return self.scaled


def shortest_to_sink(g: TaskGraph) -> DistanceMap:
    """Reverse-topological relaxation of exact distances to the sink, in ints.

    The recorded successor is the lexicographically least head among
    minimizers. Raises SinkUnreachable listing vertices with no sink path.
    """
    order = validate(g)
    scaled: dict[str, int] = {g.sink: 0}
    succ: dict[str, str] = {}
    for u in reversed(order):
        best: int | None = None
        for head, cost in g._scaled_out[u]:  # heads ascending: least head wins ties
            rest = scaled.get(head)
            if rest is not None:
                total = cost + rest
                if best is None or total < best:
                    best, best_head = total, head
        if best is not None and u != g.sink:
            scaled[u] = best
            succ[u] = best_head
    if len(scaled) != len(order):
        raise SinkUnreachable(tuple(v for v in g.vertices if v not in scaled))
    return DistanceMap(successor=succ, scaled=scaled, scale=g.scale)


def path_cost(g: TaskGraph, path: Sequence[str]) -> Fraction:
    return Fraction(sum(g._scaled_cost(u, v) for u, v in zip(path, path[1:])), g.scale)


def all_paths(g: TaskGraph) -> list[tuple[str, ...]]:
    """Every source-sink path in depth-first order (heads ascending).

    Raises GridTooLarge once the count passes the enumeration cap.
    """
    cap = enumeration_cap()
    paths: list[tuple[str, ...]] = []

    def walk(prefix: list[str]) -> None:
        if len(paths) > cap:
            raise GridTooLarge(f"more than {cap} source-sink paths")
        u = prefix[-1]
        if u == g.sink:
            paths.append(tuple(prefix))
            return
        for head, _ in g.scaled_out_edges(u):
            walk(prefix + [head])

    walk([g.source])
    return paths


def path_pairs_by_cost(g: TaskGraph) -> list[tuple[Fraction, tuple[str, ...], tuple[str, ...]]]:
    """Every (total cost, P, Q) over ordered source-sink path pairs, ascending.

    Raises GridTooLarge when the number of pairs passes the enumeration cap.
    """
    paths = all_paths(g)
    if len(paths) ** 2 > enumeration_cap():
        raise GridTooLarge(f"{len(paths) ** 2} path pairs exceed the cap")
    costs = [path_cost(g, p) for p in paths]
    return sorted(
        (cp + cq, p, q) for p, cp in zip(paths, costs) for q, cq in zip(paths, costs)
    )


@dataclass(frozen=True)
class FanSpec:
    """Parameters of the n-fan family: spine of free hops, exits costing c^i."""

    n: int
    c: Fraction


def make_n_fan(spec: FanSpec) -> TaskGraph:
    """Build the n-fan: v_0..v_n on a zero-cost spine, exit (v_i, t) costs c^i."""
    if spec.n < 1:
        raise InvalidSpec(f"fan needs n >= 1, got {spec.n}")
    c = rat(spec.c)
    if c <= 1:
        raise InvalidSpec(f"fan needs c > 1, got {c}")
    width = len(str(spec.n))
    names = [f"v{i:0{width}d}" for i in range(spec.n + 1)]
    edges: list[tuple[str, str, Fraction]] = []
    for i in range(spec.n):
        edges.append((names[i], names[i + 1], Fraction(0)))
    for i in range(spec.n + 1):
        edges.append((names[i], "t", c**i))
    return TaskGraph(names + ["t"], edges, source=names[0], sink="t")


def load_graph(data: bytes | str) -> TaskGraph:
    """Parse the graph JSON format; costs are integers or strings that `parse_rat`
    reads once each. The first defect is raised: field types, then each edge's
    fields and cost in turn, source and sink, and last `TaskGraph`'s checks.
    `json.loads` builds only exact dict, list, str, int, float, bool and None
    values, so each value's type is tested exactly."""
    try:
        payload = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except ValueError as exc:  # malformed JSON or UTF-8, or an integer past int()'s digit limit
        raise ParseError("json", str(exc)) from exc
    if type(payload) is not dict:
        raise ParseError("json", "top level must be an object")
    for key in ("vertices", "edges", "source", "sink"):
        if key not in payload:
            raise ParseError(key, "missing required field")
    vertices = payload["vertices"]
    if type(vertices) is not list or not all(type(v) is str for v in vertices):
        raise ParseError("vertices", "must be a list of strings")
    raw_edges = payload["edges"]
    if type(raw_edges) is not list:
        raise ParseError("edges", "must be a list")
    edges: list[tuple[str, str, tuple[int, int]]] = []
    for i, entry in enumerate(raw_edges):
        if type(entry) is not dict:
            raise ParseError(f"edges[{i}]", "must be an object")
        try:
            tail, head, cost_text = entry["from"], entry["to"], entry["cost"]
        except KeyError as exc:
            raise ParseError(f"edges[{i}]", f"missing field {exc.args[0]!r}") from exc
        if type(tail) is not str or type(head) is not str:
            raise ParseError(f"edges[{i}]", "'from' and 'to' must be strings")
        if type(cost_text) is int:
            cost = (cost_text, 1)
        elif type(cost_text) is str:
            try:
                cost = parse_rat(cost_text)
            except ValueError as exc:
                raise ParseError(f"edges[{i}].cost", str(exc)) from exc
        else:
            raise ParseError(f"edges[{i}].cost", "must be an exact string or integer")
        edges.append((tail, head, cost))
    if type(payload["source"]) is not str or type(payload["sink"]) is not str:
        raise ParseError("source/sink", "must be strings")
    return TaskGraph(vertices, edges, source=payload["source"], sink=payload["sink"], _exact=True)


def save_graph(g: TaskGraph) -> bytes:
    """Serialize to the graph JSON format; load(save(g)) is the identity."""
    payload = {
        "vertices": list(g.vertices),
        "edges": [
            {"from": u, "to": v, "cost": format_rat(c)} for u, v, c in g.edges
        ],
        "source": g.source,
        "sink": g.sink,
    }
    return (dump_json(payload) + "\n").encode("utf-8")


def graph_to_dot(g: TaskGraph, marked: Iterable[Edge] = ()) -> str:
    """DOT rendering; marked edges (chunk members) are drawn bold."""
    marked_set = set(marked)
    lines = ["digraph task {", "  rankdir=LR;"]
    for v in g.vertices:
        shape = "doublecircle" if v in (g.source, g.sink) else "circle"
        lines.append(f'  "{v}" [shape={shape}];')
    for u, v, c in g.edges:
        style = ", penwidth=2, color=blue" if (u, v) in marked_set else ""
        lines.append(f'  "{u}" -> "{v}" [label="{format_rat(c)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_task_graph(
    rng: random.Random,
    min_vertices: int = 3,
    max_vertices: int = 7,
    edge_prob: float = 0.55,
    max_cost: int = 24,
) -> TaskGraph:
    """Random connected DAG for randomized suites.

    Vertices are topologically ordered by construction; every vertex lies on
    some source-to-sink path. Costs are small rationals, occasionally zero.
    """
    n = rng.randint(min_vertices, max_vertices)
    # Letters a..r, then numbered names: the letters s and t are the terminals.
    inner = [chr(ord("a") + i) if i < 18 else f"n{i}" for i in range(n - 2)]
    names = ["s"] + inner + ["t"]
    dens = (1, 2, 4, 5, 10)
    edges: dict[Edge, Fraction] = {}

    def rand_cost() -> Fraction:
        if rng.random() < 0.12:
            return Fraction(0)
        return Fraction(rng.randint(1, max_cost), rng.choice(dens))

    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges[(names[i], names[j])] = rand_cost()
    for i in range(n - 1):  # every vertex must reach the sink
        if not any(tail == names[i] for tail, _ in edges):
            j = rng.randint(i + 1, n - 1)
            edges[(names[i], names[j])] = rand_cost()
    for j in range(1, n):  # and be reachable from the source
        if not any(head == names[j] for _, head in edges):
            i = rng.randint(0, j - 1)
            edges[(names[i], names[j])] = rand_cost()
    return TaskGraph(
        names,
        [(u, v, c) for (u, v), c in sorted(edges.items())],
        source="s",
        sink="t",
    )
