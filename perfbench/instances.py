"""Seeded layered "trap" DAGs and the statistics recorded for each one.

The benchmark owns this generator instead of using
``chunkwise.graph.random_task_graph``: that function names vertices
``chr(ord('a') + i)``, so from 21 vertices up a generated name collides with
the source ``s`` (and then the sink ``t``) and ``TaskGraph`` raises
``ParseError: duplicate vertex id 's'``. The defect is left in the library;
the names here are ``L03n05`` (layer 3, vertex 5), which never collide.

A trap DAG is layered. Every middle vertex is either a *trap* or *good*.
Edges into a trap are cheap and edges out of a trap carry a surcharge, so a
present-biased agent (who scales only the next edge by b) is drawn into
traps and overpays, and chunking the dearer edges into good vertices is what
the planners must decide. Everything is a pure function of the ``random.Random``
passed in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from chunkwise import BiasProfile, TaskGraph, shortest_to_sink, traverse
from chunkwise.edge_chunk import edge_context

DENOMINATORS = (1, 2, 4, 5, 10)
REFERENCE_BIAS = Fraction(2)


def vertex_name(layer: int, index: int) -> str:
    return f"L{layer:02d}n{index:02d}"


def _cost(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(lo * den, hi * den), den)


def trap_dag(
    rng: random.Random, n_vertices: int, width: int, degree: int = 3
) -> TaskGraph:
    """Layered trap DAG with exactly ``n_vertices`` vertices.

    Layer 0 holds the source and the last layer the sink; the middle layers
    hold ``width`` vertices each (the last middle layer may hold fewer). Two
    fifths of every middle layer are traps. The source feeds all of layer 1,
    every other middle vertex has ``degree`` edges into the next layer
    (covering it), each middle layer but the last two sends one skip edge
    over the next, and the last middle layer feeds the sink. So the shape,
    and the edge count, depend only on the three sizes; the seed picks the
    wiring, the traps and the costs.
    """
    if n_vertices < 4 or width < 2 or degree < 1:
        raise ValueError("a trap DAG needs 4 vertices, width 2 and degree 1")
    middle = n_vertices - 2
    layers: list[list[str]] = [[vertex_name(0, 0)]]
    while middle > 0:
        size = min(width, middle)
        layers.append([vertex_name(len(layers), i) for i in range(size)])
        middle -= size
    layers.append([vertex_name(len(layers), 0)])
    traps: set[str] = set()
    for layer in layers[1:-1]:
        traps.update(rng.sample(layer, round(0.4 * len(layer))))
    sink = layers[-1][0]

    edges: dict[tuple[str, str], Fraction] = {}

    def add(u: str, v: str) -> None:
        if v == sink:
            cost = _cost(rng, 2, 6)
        elif v in traps:
            cost = _cost(rng, 0, 2)
        else:
            cost = _cost(rng, 8, 12)
        if u in traps:
            cost += _cost(rng, 10, 15)
        edges[(u, v)] = cost

    for i in range(len(layers) - 1):
        nxt = rng.sample(layers[i + 1], len(layers[i + 1]))
        fan = len(nxt) if i == 0 else min(degree, len(nxt))
        for j, u in enumerate(layers[i]):
            for d in range(fan):
                add(u, nxt[(j * fan + d) % len(nxt)])
        if 0 < i and i + 2 < len(layers) - 1:
            add(rng.choice(layers[i]), rng.choice(layers[i + 2]))
    vertices = [v for layer in layers for v in layer]
    return TaskGraph(
        vertices,
        [(u, v, c) for (u, v), c in sorted(edges.items())],
        source=layers[0][0],
        sink=sink,
    )


@dataclass(frozen=True)
class InstanceStats:
    """What an instance offers the planners, recorded at set-up."""

    vertices: int
    edges: int
    delta_le0: int  # edge starts a shortest path: one geometric candidate
    delta_interior: int  # 0 < delta <= x: the quadratic candidate loop
    delta_gt_x: int  # every chain vertex would leave: one candidate
    overpay: Fraction  # unaided bias-2 cost / optimum

    def to_json(self) -> dict:
        return {
            "V": self.vertices,
            "E": self.edges,
            "delta_le0": self.delta_le0,
            "delta_interior": self.delta_interior,
            "delta_gt_x": self.delta_gt_x,
            "overpay_b2": str(self.overpay),
        }


def delta_regime(g: TaskGraph, dist, edge: tuple[str, str]) -> str | None:
    """'le0', 'interior' or 'gt_x'; None when the tail has no other edge."""
    ctx = edge_context(g, dist, edge)
    if ctx.outside is None:
        return None
    d = ctx.x + ctx.cost_to_sink - ctx.outside
    if d <= 0:
        return "le0"
    return "interior" if d <= ctx.x else "gt_x"


def instance_stats(g: TaskGraph) -> InstanceStats:
    dist = shortest_to_sink(g)
    regimes = [delta_regime(g, dist, (u, v)) for u, v, _ in g.edges]
    biased = traverse(g, dist, BiasProfile(REFERENCE_BIAS)).total
    return InstanceStats(
        vertices=len(g.vertices),
        edges=len(g.edges),
        delta_le0=regimes.count("le0"),
        delta_interior=regimes.count("interior"),
        delta_gt_x=regimes.count("gt_x"),
        overpay=biased / dist[g.source],
    )
