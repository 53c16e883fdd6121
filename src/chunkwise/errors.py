"""Exception types shared across the package."""

from __future__ import annotations


class ChunkwiseError(Exception):
    """Base class for all domain errors raised by this package."""


class CycleDetected(ChunkwiseError):
    """The graph is not acyclic; names one back edge."""

    def __init__(self, tail: str, head: str) -> None:
        self.tail = tail
        self.head = head
        super().__init__(f"cycle detected through back edge ({tail} -> {head})")


class MissingSourceOrSink(ChunkwiseError):
    pass


class SinkUnreachable(ChunkwiseError):
    """Some vertex has no path to the sink."""

    def __init__(self, vertices: tuple[str, ...]) -> None:
        self.vertices = vertices
        super().__init__(f"no path to sink from: {', '.join(vertices)}")


class ParseError(ChunkwiseError):
    """Malformed graph/plan input; carries the offending field."""

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        super().__init__(f"{field}: {message}")


class NegativeCost(ChunkwiseError):
    def __init__(self, tail: str, head: str, cost: object) -> None:
        try:
            shown = str(cost)
        except ValueError:  # past Python's limit on digits in int-to-str
            shown = "with too many digits to print"
        super().__init__(f"edge ({tail} -> {head}) has negative cost {shown}")


class InvalidParams(ChunkwiseError):
    pass


class InvalidSpec(InvalidParams):
    """A generator spec out of range, such as a fan with n < 1 or c <= 1."""


class UnknownEdge(ChunkwiseError):
    def __init__(self, tail: str, head: str) -> None:
        super().__init__(f"edge ({tail} -> {head}) does not exist")


class DeadEnd(ChunkwiseError):
    def __init__(self, vertex: str) -> None:
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has no usable out-edges")


class Stuck(ChunkwiseError):
    def __init__(self, vertex: str) -> None:
        self.vertex = vertex
        super().__init__(f"agent is stuck at non-sink vertex {vertex}")


class ZeroShortestPath(ChunkwiseError):
    pass


class NoAlternative(ChunkwiseError):
    """The edge's tail has no other out-edge, so no outside option exists."""

    def __init__(self, tail: str, head: str) -> None:
        super().__init__(f"({tail} -> {head}) is the only way out of {tail}")


class InfeasibleChunking(ChunkwiseError):
    """No chunking satisfies every agent's threshold; carries the reason."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


class TakerRefuses(ChunkwiseError):
    """Even the taker-optimal chunking exceeds the taker's outside option."""


class InvariantViolation(ChunkwiseError):
    """An internal invariant failed: a bug in the package, not in the input."""


class GridTooLarge(ChunkwiseError):
    """Brute-force enumeration would exceed the configured cap."""
