"""Chunk plans, their expansion into explicit graphs with chunk markers, and
the same expanded graph read as a view without building it."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional

from .edge_chunk import Chunking, _floor, scaled_edge_scan
from .errors import InvalidParams, ParseError
from .graph import DistanceMap, Edge, TaskGraph
from .rational import format_rat, rat


@dataclass(frozen=True)
class ChunkPlan:
    """Map from edges to chunkings, with optional planner metadata.

    Budget accounting: an edge absent from the plan consumes 0 budget; an
    edge chunked into j pieces consumes j (a 1-chunking is a real entry: it
    marks the edge so ties break toward it).
    """

    chunkings: tuple[Chunking, ...]
    mode: Optional[str] = None
    k: Optional[int] = None
    planned_paths: tuple[tuple[str, ...], ...] = ()
    predicted_cost: Optional[Fraction] = None
    biases: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        seen: set[Edge] = set()
        for ch in self.chunkings:
            if ch.edge in seen:
                raise InvalidParams(f"duplicate chunking for edge {ch.edge}")
            seen.add(ch.edge)

    def by_edge(self) -> dict[Edge, Chunking]:
        return {ch.edge: ch for ch in self.chunkings}

    @property
    def total_chunks(self) -> int:
        return sum(ch.k for ch in self.chunkings)

    def validate_against(self, g: TaskGraph) -> None:
        for ch in self.chunkings:
            cost = g.cost(*ch.edge)
            if ch.total != cost:
                raise InvalidParams(f"chunking of {ch.edge} sums to {ch.total}, edge costs {cost}")

    def to_json(self) -> dict:
        payload: dict = {"chunkings": [ch.to_json() for ch in self.chunkings]}
        if self.mode is not None:
            payload["mode"] = self.mode
        if self.k is not None:
            payload["k"] = self.k
        if self.planned_paths:
            payload["planned_paths"] = [list(p) for p in self.planned_paths]
        if self.predicted_cost is not None:
            payload["predicted_cost"] = format_rat(self.predicted_cost)
        if self.biases:
            payload["biases"] = [format_rat(b) for b in self.biases]
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "ChunkPlan":
        """Parse to_json's format; any malformed field raises ParseError."""
        if not isinstance(payload, dict) or "chunkings" not in payload:
            raise ParseError("plan", "missing 'chunkings' field")
        field = "plan.chunkings"
        try:
            chunkings = []
            for i, entry in enumerate(_json_list(payload["chunkings"])):
                field = f"plan.chunkings[{i}]"
                if not isinstance(entry["from"], str) or not isinstance(entry["to"], str):
                    raise TypeError("'from' and 'to' must be strings")
                chunks = tuple(rat(x) for x in _json_list(entry["chunks"]))
                chunkings.append(Chunking(entry["from"], entry["to"], chunks))
            field = "plan.mode"
            mode = payload.get("mode")
            if mode not in (None, "local", "global"):
                raise ValueError(f"expected 'local' or 'global', got {mode!r}")
            field = "plan.k"
            k = payload.get("k")
            if k is not None and (type(k) is not int or k < 0):
                raise ValueError(f"expected an integer >= 0, got {k!r}")
            field = "plan.planned_paths"
            paths = tuple(
                tuple(_json_list(p)) for p in _json_list(payload.get("planned_paths", []))
            )
            if not all(isinstance(v, str) for p in paths for v in p):
                raise TypeError("path vertices must be strings")
            field = "plan.predicted_cost"
            predicted = rat(payload["predicted_cost"]) if "predicted_cost" in payload else None
            field = "plan.biases"
            biases = tuple(rat(b) for b in _json_list(payload.get("biases", [])))
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(field, str(exc)) from exc
        return cls(
            chunkings=tuple(chunkings),
            mode=mode,
            k=k,
            planned_paths=paths,
            predicted_cost=predicted,
            biases=biases,
        )


def _json_list(value: object) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def single_edge_plan(chunking: Chunking) -> ChunkPlan:
    return ChunkPlan(chunkings=(chunking,))


@dataclass(frozen=True)
class ChunkedGraph:
    """A graph expanded under a plan, with chunk-membership edge markers.

    marks holds every edge that belongs to some chunking (including trivial
    1-chunkings); chains maps each chunked original edge to its full vertex
    chain (original tail, intermediate vertices, original head). Deviation
    edges copied onto chain vertices are never marked.
    """

    graph: TaskGraph
    marks: frozenset[Edge]
    chains: Mapping[Edge, tuple[str, ...]]
    original: TaskGraph

    def chain_of(self, edge: Edge) -> tuple[str, ...]:
        return self.chains[edge]


def chain_vertex(edge: Edge, i: int) -> str:
    return f"{edge[0]}>{edge[1]}#{i}"


def expand_plan(g: TaskGraph, plan: ChunkPlan) -> ChunkedGraph:
    """Replace each planned edge by its chunk chain.

    Chain vertices inherit copies of the tail's other out-edges at their
    original full costs; chunkings of those other edges are not inherited
    mid-chain (a chunking only restructures decisions made at its own tail).
    """
    plan.validate_against(g)
    by_edge = plan.by_edge()
    vertices = list(g.vertices)
    existing = set(vertices)
    edges: list[tuple[str, str, Fraction]] = []
    marks: set[Edge] = set()
    chains: dict[Edge, tuple[str, ...]] = {}

    for u, v, c in g.edges:
        if (u, v) not in by_edge:
            edges.append((u, v, c))
    for (u, v), chunking in sorted(by_edge.items()):
        k = chunking.k
        if k == 1:
            edges.append((u, v, chunking.chunks[0]))
            marks.add((u, v))
            chains[(u, v)] = (u, v)
            continue
        mids = [chain_vertex((u, v), i) for i in range(1, k)]
        for m in mids:
            if m in existing:
                raise InvalidParams(f"synthesized chain vertex {m!r} collides")
            existing.add(m)
            vertices.append(m)
        chain = [u, *mids, v]
        for i in range(k):
            edges.append((chain[i], chain[i + 1], chunking.chunks[i]))
            marks.add((chain[i], chain[i + 1]))
        deviations = [(head, cost) for head, cost in g.out_edges(u) if head != v]
        for m in mids:
            for head, cost in deviations:
                edges.append((m, head, cost))
        chains[(u, v)] = tuple(chain)

    expanded = TaskGraph(vertices, edges, source=g.source, sink=g.sink)
    return ChunkedGraph(graph=expanded, marks=frozenset(marks), chains=chains, original=g)


class PlanView:
    """The graph expand_plan(g, plan) would build, read without building it.

    Expansion leaves every original vertex's distance to the sink unchanged:
    a chain's chunks sum to the edge cost and its deviations keep full cost.
    So the view takes dist = shortest_to_sink(g) as it is. The vertex after
    chunk i of (u, v) lies `_floor(outside, chunks after i + c(v->t))` from
    the sink, outside and c(v->t) as `scaled_edge_scan` gives them. Out-edges
    use expand_plan's vertex names. The view serves agent.traverse as both
    its graph and its distances, and, like a ChunkedGraph, offers marks,
    chain_of and original. Like a TaskGraph, it keeps costs and distances as
    ints over `scale`, here the lcm of g.scale and the chunks' denominators,
    each chain vertex's computed once, at construction; it has no `Fraction`
    out-edges.

    Construction raises expand_plan's plan errors, in its order; it checks
    chunk sums in the view's ints, expand_plan in `Fraction`s.
    """

    def __init__(self, g: TaskGraph, dist: DistanceMap, plan: ChunkPlan) -> None:
        self.original = g
        self.source = g.source
        self.sink = g.sink
        self.scale = lcm(g.scale, *{x.denominator for ch in plan.chunkings for x in ch.chunks})
        f = self._factor = self.scale // g.scale
        self._scaled = {v: d * f for v, d in dist.scaled_for(g).items()}
        # ChunkPlan.validate_against's check in the view's ints, in plan order.
        scans: dict[Edge, tuple[list[int], int, Optional[int]]] = {}
        for ch in plan.chunkings:
            x, c, o = scaled_edge_scan(g, dist, ch.edge)
            xs = [x_i.numerator * (self.scale // x_i.denominator) for x_i in ch.chunks]
            if sum(xs) != x * f:
                total, cost = Fraction(sum(xs), self.scale), Fraction(x, g.scale)
                raise InvalidParams(f"chunking of {ch.edge} sums to {total}, edge costs {cost}")
            scans[ch.edge] = xs, c, o
        self._by_edge = plan.by_edge()
        self.chains: dict[Edge, tuple[str, ...]] = {}
        self._at: dict[str, tuple[Edge, int]] = {}  # chain vertex -> (edge, index)
        self._scaled_out: dict[str, tuple[tuple[str, int], ...]] = {}
        marks: set[Edge] = set()
        for (u, v), chunking in sorted(self._by_edge.items()):
            k = chunking.k
            mids = [chain_vertex((u, v), i) for i in range(1, k)]
            for i, m in enumerate(mids, start=1):
                if g.has_vertex(m) or m in self._at:
                    raise InvalidParams(f"synthesized chain vertex {m!r} collides")
                self._at[m] = ((u, v), i)
            chain = (u, *mids, v)
            self.chains[(u, v)] = chain
            marks.update(zip(chain, chain[1:]))
            if k == 1:
                continue
            xs, c, o = scans[(u, v)]
            scaled_out = [(h, c * f) for h, c in g.scaled_out_edges(u)]
            outside = None if o is None else o * f
            through = c * f  # c(v->t), then plus the chunks after chain vertex i
            for i in range(k - 1, 0, -1):
                through += xs[i]
                self._scaled[chain[i]] = _floor(outside, through)
                self._scaled_out[chain[i]] = _hop(scaled_out, v, chain[i + 1], xs[i])
            self._scaled_out[u] = _hop(self.scaled_out_edges(u), v, chain[1], xs[0])
        self.marks = frozenset(marks)

    def scaled_out_edges(self, vertex: str) -> tuple[tuple[str, int], ...]:
        """vertex's (head, cost times `scale`) pairs in the expanded graph."""
        out = self._scaled_out.get(vertex)
        if out is None:
            f = self._factor
            out = self._scaled_out[vertex] = tuple(
                (h, c * f) for h, c in self.original.scaled_out_edges(vertex)
            )
        return out

    def scaled_for(self, g: PlanView) -> Mapping[str, int]:
        """Every vertex's distance to the sink times `scale`, like DistanceMap's."""
        if g.scale != self.scale:
            raise InvalidParams(f"distances are scaled by {self.scale}, the graph's by {g.scale}")
        return self._scaled

    def __getitem__(self, vertex: str) -> Fraction:
        return Fraction(self._scaled[vertex], self.scale)

    def chain_of(self, edge: Edge) -> tuple[str, ...]:
        return self.chains[edge]


def _hop(
    out: Iterable[tuple[str, int]], v: str, head: str, cost: int
) -> tuple[tuple[str, int], ...]:
    """out with its edge to v sent to head at cost instead, in expand_plan's order."""
    return tuple(sorted((head, cost) if h == v else (h, c) for h, c in out))


def walk_follows_chunking(walk: Iterable[str], chain: tuple[str, ...]) -> bool:
    """True iff the walk traverses the full chain consecutively."""
    seq = list(walk)
    try:
        start = seq.index(chain[0])
    except ValueError:
        return False
    return tuple(seq[start : start + len(chain)]) == chain


def original_path(cg: ChunkedGraph | PlanView, walk: Iterable[str]) -> tuple[str, ...]:
    """Project an expanded-graph walk onto original vertices."""
    original = set(cg.original.vertices)
    return tuple(v for v in walk if v in original)

