"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper under every name that binds the original, in every
``chunkwise.*`` namespace and in the benchmark's own modules. (``validate``,
for example, is imported by name into ``graph_chunk`` and ``multi_agent``;
wrapping only ``chunkwise.graph.validate`` would miss the planners' calls.)
A span records its function, its parent span, its op and its start and end;
spans stay in memory and are written out once, at the end. A span's self
time is its duration minus the durations of its child spans (calls are
sequential, so children never overlap).

The two-agent planner's exhaustive fallback is a private branch inside
``two_agent_plan``; how often it fires cannot be seen from here and is left
to counters inside the program.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

LAYERS = (
    "graph",
    "edge_chunk",
    "graph_chunk",
    "expansion",
    "agent",
    "multi_agent",
    "oracle",
    "cli",
)

# function -> the per-layer metrics reported for it
REPORTED = {
    "graph.validate": ("calls", "self_s"),
    "graph.shortest_to_sink": ("calls", "self_s"),
    "graph.load_graph": ("self_s",),
    "edge_chunk.optimal_edge_chunking": ("calls", "self_s"),
    "edge_chunk.evaluate_chunking": ("calls",),
    "edge_chunk.min_chunks_to_beat": ("calls", "self_s"),
    "graph_chunk.persuasion_profile": ("calls", "self_s"),
    "graph_chunk.chunk_budget_needed": ("calls",),
    "graph_chunk.global_cost_table": ("self_s",),
    "expansion.expand_plan": ("calls", "self_s"),
    "agent.simulate_plan": ("calls",),
    "agent.traverse": ("calls", "self_s"),
    "multi_agent.chunk_split": ("calls", "self_s"),
    "multi_agent.compatible_pairs": ("calls", "self_s"),
    "multi_agent.chunk_same_path": ("calls", "self_s"),
    "oracle.brute_force_edge_chunking": ("calls", "self_s"),
    "oracle.brute_force_graph_plan": ("self_s",),
    "oracle.brute_force_two_agent_plan": ("self_s",),
    "cli.main": ("calls", "self_s"),
}


def returned_den_bits(value: Any) -> int:
    """Largest denominator, in bits, of any Fraction inside a returned value."""
    if isinstance(value, Fraction):
        return value.denominator.bit_length()
    if isinstance(value, (tuple, list)):
        return max((returned_den_bits(v) for v in value), default=0)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return max((returned_den_bits(getattr(value, f.name)) for f in dataclasses.fields(value)), default=0)
    return 0


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.func = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.op_kinds: list[str] = []
        self.counters: Counter = Counter()
        self.max_den_bits = 0
        self.split_keys: set = set()
        self.recording = False
        self._stack: list[int] = [-1]
        self._restore: list[tuple[ModuleType, str, Callable]] = []

    def _fid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, fid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.func.append(fid)
        self.op.append(len(self.op_kinds) - 1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(sid)
        self.start[sid] = time.perf_counter_ns()
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    # -- ops ---------------------------------------------------------------

    def run_op(self, kind: str, call: Callable[[], Any]) -> Any:
        """Run one op as a root span; layer spans inside it are its children."""
        self.op_kinds.append(kind)
        self.recording = True
        sid = self._open(self._fid("op"))
        try:
            return call()
        finally:
            self._close(sid)
            self.recording = False

    # -- wrappers ----------------------------------------------------------

    def _extra(self, name: str) -> Callable[[tuple, dict, Any], None] | None:
        if name.startswith("edge_chunk."):
            def bits(args, kwargs, result):
                self.max_den_bits = max(self.max_den_bits, returned_den_bits(result))
            return bits
        if name == "expansion.expand_plan":
            return lambda a, kw, r: self.counters.update(
                {"expansion.expanded_vertices": len(r.graph.vertices)}
            )
        if name == "agent.traverse":
            return lambda a, kw, r: self.counters.update({"agent.tie_events": len(r.tie_events)})
        if name == "multi_agent.chunk_split":
            def key(args, kwargs, result):
                self.split_keys.add(
                    (len(self.op_kinds), _arg(args, kwargs, 2, "edge"), _arg(args, kwargs, 3, "b1"),
                     _arg(args, kwargs, 4, "b2"), _arg(args, kwargs, 5, "k"),
                     _arg(args, kwargs, 6, "taker", 1))
                )
            return key
        if name == "oracle.brute_force_edge_chunking":
            return lambda a, kw, r: self.counters.update(
                {"oracle.grid_points": _arg(a, kw, 4, "grid").size}
            )
        return None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        fid = self._fid(name)
        extra = self._extra(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return wrapper

    def install(self, extra_namespaces: tuple[ModuleType, ...] = ()) -> None:
        """Wrap each layer's public functions wherever they are bound."""
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"chunkwise.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        namespaces = [
            m for n, m in sys.modules.items() if n == "chunkwise" or n.startswith("chunkwise.")
        ]
        for module in [*namespaces, *extra_namespaces]:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._restore.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summarize(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass (totals over the traced passes / passes)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        op_fid = self._fid("op")
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        local_min_chunks = 0
        mcb = self._fid("edge_chunk.min_chunks_to_beat")
        for i in range(n):
            f = self.func[i]
            calls[f] += 1
            self_ns[f] += own[i]
            incl_ns[f] += dur[i]
            if f == mcb and self.op_kinds[self.op[i]] == "chunk_graph_local":
                local_min_chunks += 1
        op_ns = incl_ns[op_fid] or 1

        def per_pass(x: float) -> float:
            return x / passes

        out: dict[str, float] = {}
        for name, kinds in REPORTED.items():
            f = self._fid(name)
            if "calls" in kinds:
                out[f"{name}.calls"] = per_pass(calls[f])
            if "self_s" in kinds:
                out[f"{name}.self_s"] = per_pass(self_ns[f] / 1e9)
        evaluated = calls[self._fid("edge_chunk.evaluate_chunking")]
        optimal = calls[self._fid("edge_chunk.optimal_edge_chunking")]
        out["edge_chunk.candidate_yield"] = optimal / evaluated if evaluated else 0.0
        out["edge_chunk.min_chunks_to_beat.local_op_calls"] = per_pass(local_min_chunks)
        out["edge_chunk.max_den_bits"] = float(self.max_den_bits)
        for counter in ("expansion.expanded_vertices", "agent.tie_events", "oracle.grid_points",
                        "cli.stdout_bytes"):
            out[counter] = per_pass(self.counters[counter])
        splits = calls[self._fid("multi_agent.chunk_split")]
        out["multi_agent.chunk_split.repeat_ratio"] = (
            splits / len(self.split_keys) if self.split_keys else 0.0
        )
        out["multi_agent.compatible_pairs.incl_share"] = (
            incl_ns[self._fid("multi_agent.compatible_pairs")] / op_ns
        )
        for layer in LAYERS:
            ns = sum(self_ns[f] for f, name in enumerate(self.names) if name.startswith(layer + "."))
            out[f"{layer}.self_s"] = per_pass(ns / 1e9)
            out[f"{layer}.self_share"] = ns / op_ns
        out["trace.spans"] = per_pass(n)
        return out

    def write_spans(self, path: Path) -> None:
        """One line per span: id, parent, op, op kind, function, start, end (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\top\top_kind\tfunction\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                op = self.op[i]
                fh.write(
                    f"{i}\t{self.parent[i]}\t{op}\t{self.op_kinds[op]}\t{self.names[self.func[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
