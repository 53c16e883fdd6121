"""The benchmark's four workloads: seeded op lists, per-op checks, canonical output.

A workload is one *pass*: a fixed list of ops built from the seed. An op is
one call into chunkwise's public API (a planner, the edge chunker, or
``chunkwise.cli.main``). Every op carries a check, which runs outside the
timed interval and shares no formula with the code it checks, and a
canonical rendering of its output (exact ``p/q`` text) that is digested.

Why each workload exists, and which layer it stresses and which it bypasses,
is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import chunkwise.cli
from chunkwise import (
    AgentSet,
    BiasProfile,
    BudgetSpec,
    Chunking,
    ChunkPlan,
    TaskGraph,
    TraversalTrace,
    chunk_graph_global,
    chunk_graph_local,
    load_graph,
    m_agent_single_path_plan,
    optimal_edge_chunking,
    save_graph,
    shortest_to_sink,
    simulate_plan,
    traverse,
    two_agent_plan,
)
from chunkwise.agent import best_alternative, chunking_perceived_by_expansion
from chunkwise.edge_chunk import edge_context
from chunkwise.errors import DeadEnd
from chunkwise.expansion import original_path, single_edge_plan, walk_follows_chunking
from chunkwise.oracle import EXPERIMENT_HEADER, independent_min_bottleneck, max_mass_under_cap

import instances

F = Fraction


@dataclass
class Op:
    """One timed call: ``call`` is timed; ``check`` and ``canon`` are not.

    ``check`` returns failure messages (empty when the output is right);
    ``canon`` renders the output as exact text for the digest.
    """

    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    canon: Callable[[Any], str]


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    warmup: Op
    instances: dict[str, dict] = field(default_factory=dict)


def den_bits(text: str) -> int:
    """Largest denominator, in bits, among the exact numbers in canonical text.

    Every rational renders as ``p/q``; the experiment CSVs carry their
    ratios as separate numerator and denominator columns.
    """
    bits = [int(q).bit_length() for q in re.findall(r"-?\d+/(\d+)", text)]
    if text.startswith(",".join(EXPERIMENT_HEADER)):
        for row in list(csv.reader(io.StringIO(text)))[1:]:
            bits += [int(row[5]).bit_length(), int(row[7]).bit_length()]
    return max(bits, default=1)


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def _family(workload: str, seed: int, widths: dict[int, int], degree: int, per_size: int):
    """``per_size`` trap DAGs per vertex count (``widths`` maps it to the
    layer width), named ``V<n>#<i>``."""
    graphs: dict[str, TaskGraph] = {}
    for n, width in widths.items():
        for i in range(per_size):
            rng = _rng(workload, seed, f"V{n}#{i}")
            graphs[f"V{n}#{i}"] = instances.trap_dag(rng, n, width, degree)
    return graphs


def _stats(graphs: dict[str, TaskGraph]) -> dict[str, dict]:
    return {name: instances.instance_stats(g).to_json() for name, g in graphs.items()}


# ---------------------------------------------------------------------------
# Checks shared by several workloads
# ---------------------------------------------------------------------------


def check_edge_chunking(g: TaskGraph, dist, edge, b: F, k: int, result) -> list[str]:
    """Chunks sum to the edge cost and the bottleneck is the greedy-mass optimum.

    ``max_mass_under_cap(beta)`` is strictly increasing for beta above
    c(v->t), so the reported bottleneck equals
    ``oracle.independent_min_bottleneck`` exactly when the greedy mass at it
    is the edge cost (or, at beta = c(v->t), covers it). Testing that one
    point is O(k); solving for beta over all k branch patterns is O(k^2)
    with large rationals and takes seconds at k = 256.
    """
    chunking, report = result
    ctx = edge_context(g, dist, edge)
    errors = []
    if chunking.edge != tuple(edge) or chunking.k != k:
        errors.append(f"chunked {chunking.edge} into {chunking.k}, asked {edge} into {k}")
    if sum(chunking.chunks) != ctx.x:
        errors.append(f"chunks sum to {sum(chunking.chunks)}, edge costs {ctx.x}")
    if report.bottleneck != max(report.perceived):
        errors.append("bottleneck is not the largest perceived cost")
    if report.perceived != chunking_perceived_by_expansion(g, chunking, b):
        errors.append("perceived costs differ from the expanded graph's")
    beta = report.bottleneck
    mass = max_mass_under_cap(ctx, b, beta, k)
    at_floor = beta == ctx.cost_to_sink and mass is not None and mass >= ctx.x
    if not (at_floor or (beta > ctx.cost_to_sink and mass == ctx.x)):
        errors.append(f"bottleneck {beta} is not the greedy-mass optimum")
    return errors


def check_plan(g: TaskGraph, plan: ChunkPlan) -> list[str]:
    """Re-simulate every agent type with its own bias on the expanded plan.

    Each type must realize its planned original path, and the types' totals
    must add up to the plan's predicted cost.
    """
    errors = []
    if len(plan.biases) != len(plan.planned_paths):
        return [f"{len(plan.biases)} biases but {len(plan.planned_paths)} paths"]
    total = F(0)
    for b, path in zip(plan.biases, plan.planned_paths):
        trace, cg = simulate_plan(g, plan, BiasProfile(b))
        realized = original_path(cg, trace.path)
        if realized != tuple(path):
            errors.append(f"type b={b} took {realized}, plan says {tuple(path)}")
        total += trace.total
    if total != plan.predicted_cost:
        errors.append(f"simulated total {total} != predicted {plan.predicted_cost}")
    return errors


def _canon_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canon_edge(result) -> str:
    chunking, report = result
    return _canon_json(
        {
            "edge": list(chunking.edge),
            "chunks": [str(x) for x in chunking.chunks],
            "perceived": [str(p) for p in report.perceived],
            "tau": report.tau,
            "bottleneck": str(report.bottleneck),
            "delta": None if report.delta is None else str(report.delta),
            "selective_bias": str(report.selective_bias),
        }
    )


def canon_plan(result) -> str:
    """Plan plus what the planner returned beside it: one trace, a trace per
    type, or (m-agent) the shared path."""
    plan, rest = result
    if isinstance(rest, TraversalTrace):
        extra = [rest.to_json()]
    elif rest and isinstance(rest[0], str):
        extra = list(rest)
    else:
        extra = [t.to_json() for t in rest]
    return _canon_json({"plan": plan.to_json(), "returned": extra})


# ---------------------------------------------------------------------------
# edge-deep
# ---------------------------------------------------------------------------

EDGE_BIASES = (F(3, 2), F(7, 4), F(2), F(5, 2), F(3))
# Ops per chunk count. Each group's first op is s32's (u, v); each group of
# ten or more also holds one edge with delta <= 0 and one with delta > x; the
# rest are interior trap-DAG edges (0 < delta <= x).
EDGE_K_OPS = {8: 64, 16: 56, 32: 40, 64: 28, 128: 12, 256: 1}
S32_EDGE = ("u", "v")  # interior: delta = 71/10, x = 14


def _edge_op(g: TaskGraph, dist, edge, b: F, k: int, label: str) -> Op:
    return Op(
        kind=f"optimal_edge_chunking k={k}",
        label=f"{label} {edge[0]},{edge[1]} b={b} k={k}",
        call=lambda: optimal_edge_chunking(g, dist, edge, b, k),
        check=lambda r: check_edge_chunking(g, dist, edge, b, k, r),
        canon=canon_edge,
    )


def build_edge_deep(seed: int, root: Path) -> Workload:
    s32 = load_graph((root / "fixtures" / "s32.json").read_bytes())
    s32_dist = shortest_to_sink(s32)
    graphs = _family("edge-deep", seed, {40: 4}, 3, 3)
    pool: dict[str, list] = {"le0": [], "interior": [], "gt_x": []}
    for name, g in graphs.items():
        dist = shortest_to_sink(g)
        for u, v, _ in g.edges:
            regime = instances.delta_regime(g, dist, (u, v))
            if regime is not None:
                pool[regime].append((name, g, dist, (u, v)))
    rng = _rng("edge-deep", seed, "ops")
    ops: list[Op] = []
    for gi, (k, count) in enumerate(EDGE_K_OPS.items()):
        regimes = ["interior"] * count
        if count >= 10:
            regimes[-2:] = ["le0", "gt_x"]
        for j, regime in enumerate(regimes):
            b = EDGE_BIASES[(gi + j) % len(EDGE_BIASES)]
            if j == 0:
                ops.append(_edge_op(s32, s32_dist, S32_EDGE, b, k, "s32"))
                continue
            name, g, dist, edge = rng.choice(pool[regime])
            ops.append(_edge_op(g, dist, edge, b, k, name))
    rng.shuffle(ops)
    warmup = _edge_op(s32, s32_dist, S32_EDGE, F(2), 8, "s32")
    return Workload("edge-deep", seed, ops, warmup, _stats(graphs))


# ---------------------------------------------------------------------------
# plan-trap
# ---------------------------------------------------------------------------

PLAN_BIASES = (F(7, 4), F(2), F(3))
PLAN_KS = (2, 4, 8)
PLAN_SIZES = {40: 4, 80: 6, 160: 8}  # vertices -> layer width
PLAN_REPEATS = {40: 4, 80: 3, 160: 1}  # times each (mode, b, k) runs per size
PLAN_PER_SIZE = 12


def _plan_op(g: TaskGraph, name: str, mode: str, b: F, k: int) -> Op:
    planner = chunk_graph_local if mode == "local" else chunk_graph_global
    return Op(
        kind=f"chunk_graph_{mode}",
        label=f"{name} {mode} b={b} k={k}",
        call=lambda: planner(g, b, k),
        check=lambda r: check_plan(g, r[0]),
        canon=canon_plan,
    )


def build_plan_trap(seed: int, root: Path) -> Workload:
    graphs = _family("plan-trap", seed, PLAN_SIZES, 3, PLAN_PER_SIZE)
    rng = _rng("plan-trap", seed, "ops")
    ops: list[Op] = []
    for n in PLAN_SIZES:
        # every (mode, b, k) PLAN_REPEATS[n] times, dealt over that size's instances
        combos = [
            (m, b, k) for m in ("local", "global") for b in PLAN_BIASES for k in PLAN_KS
        ] * PLAN_REPEATS[n]
        rng.shuffle(combos)
        for c, (mode, b, k) in enumerate(combos):
            name = f"V{n}#{c % PLAN_PER_SIZE}"
            ops.append(_plan_op(graphs[name], name, mode, b, k))
    rng.shuffle(ops)
    warmup = _plan_op(graphs["V40#0"], "V40#0", "local", F(2), 2)
    return Workload("plan-trap", seed, ops, warmup, _stats(graphs))


# ---------------------------------------------------------------------------
# multi-agent
# ---------------------------------------------------------------------------

PAIR_BIASES = ((F(7, 4), F(3)), (F(2), F(4)))
# three-type bias sets, in order of preference (see shared_default_path)
TRIPLE_BIASES = tuple(
    tuple(F(b) for b in triple.split(","))
    for triple in ("7/4,2,3", "2,5/2,4", "3/2,7/4,2", "5/2,3,4", "2,5/2,3", "2,3,4", "7/4,2,5/2")
)
MULTI_SIZES = {14: 4, 21: 4, 28: 4}  # vertices -> layer width
MULTI_PER_SIZE = 12
M_AGENT_BUDGETS = (("local", 2), ("global", 2), ("local", 3), ("global", 3))


def _multi_family(workload: str, seed: int) -> dict[str, TaskGraph]:
    return _family(workload, seed, MULTI_SIZES, 2, MULTI_PER_SIZE)


def _pair_op(g: TaskGraph, name: str, b1: F, b2: F, mode: str, k: int) -> Op:
    return Op(
        kind=f"two_agent_plan {mode}",
        label=f"{name} two-agent {mode} b={b1},{b2} k={k}",
        call=lambda: two_agent_plan(g, b1, b2, BudgetSpec(mode, k)),
        check=lambda r: check_plan(g, r[0]),
        canon=canon_plan,
    )


def shared_default_path(g: TaskGraph, biases) -> bool:
    """Do all types walk the same path unaided?

    ``m_agent_single_path_plan`` assumes the types' common default path is
    always available to it. When the unaided paths differ and no shared path
    can be persuaded it raises a bare ``AssertionError("default path must
    survive")`` instead of reporting infeasibility (see README.md), so the
    m-agent ops only use bias sets with one shared unaided path.
    """
    dist = shortest_to_sink(g)
    return len({traverse(g, dist, BiasProfile(b)).path for b in biases}) == 1


def shared_triples(graphs: dict[str, TaskGraph], count: int) -> list[tuple[str, tuple]]:
    """``count`` (instance, triple) pairs, taking each instance's most
    preferred triple with a shared default path first, round-robin."""
    usable = {
        name: [t for t in TRIPLE_BIASES if shared_default_path(g, t)] for name, g in graphs.items()
    }
    picked = []
    for rank in range(len(TRIPLE_BIASES)):
        for name, triples in usable.items():
            if rank < len(triples) and len(picked) < count:
                picked.append((name, triples[rank]))
    return picked


def _m_op(g: TaskGraph, name: str, biases, mode: str, k: int) -> Op:
    return Op(
        kind=f"m_agent_single_path_plan {mode}",
        label=f"{name} m-agent {mode} b={','.join(map(str, biases))} k={k}",
        call=lambda: m_agent_single_path_plan(g, AgentSet(biases), BudgetSpec(mode, k)),
        check=lambda r: check_plan(g, r[0]),
        canon=canon_plan,
    )


def build_multi_agent(seed: int, root: Path) -> Workload:
    graphs = _multi_family("multi-agent", seed)
    rng = _rng("multi-agent", seed, "ops")
    ops: list[Op] = []
    for n in MULTI_SIZES:
        # every (pair, mode, k) three times per size: two ops per instance
        combos = [
            (pair, mode, k) for pair in PAIR_BIASES for mode in ("local", "global") for k in (2, 3)
        ] * 3
        rng.shuffle(combos)
        for c, ((b1, b2), mode, k) in enumerate(combos):
            name = f"V{n}#{c % MULTI_PER_SIZE}"
            ops.append(_pair_op(graphs[name], name, b1, b2, mode, k))
    for i, (name, triple) in enumerate(shared_triples(graphs, len(graphs))):
        mode, k = M_AGENT_BUDGETS[i % len(M_AGENT_BUDGETS)]
        ops.append(_m_op(graphs[name], name, triple, mode, k))
    rng.shuffle(ops)
    warmup = _pair_op(graphs["V14#0"], "V14#0", F(2), F(4), "local", 2)
    return Workload("multi-agent", seed, ops, warmup, _stats(graphs))


# ---------------------------------------------------------------------------
# cli-verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """``chunkwise.cli.main(argv)`` in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = chunkwise.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def canon_cli(r: CliResult) -> str:
    return f"exit {r.code}\n{r.stdout}\n--- stderr\n{r.stderr}"


def _expect(code: int, *more: Callable[[CliResult], list[str]]):
    def check(r: CliResult) -> list[str]:
        if r.code != code:
            return [f"exit code {r.code}, expected {code}: {r.stderr.strip()[:200]}"]
        errors: list[str] = []
        for extra in more:
            errors += extra(r)
        return errors

    return check


def _same_bytes(path: Path) -> Callable[[CliResult], list[str]]:
    golden = path.read_text(encoding="utf-8")
    return lambda r: [] if r.stdout == golden else [f"stdout differs from {path.name}"]


def _total_is(value: F) -> Callable[[CliResult], list[str]]:
    return lambda r: [] if F(json.loads(r.stdout)["total"]) == value else [
        f"total {json.loads(r.stdout)['total']}, expected {value}"
    ]


def _trace_adds_up(r: CliResult) -> list[str]:
    payload = json.loads(r.stdout)
    steps = sum((F(s["cost"]) for s in payload["steps"]), F(0))
    return [] if steps == F(payload["total"]) else [f"steps sum to {steps}, total {payload['total']}"]


def _plan_replays(g: TaskGraph) -> Callable[[CliResult], list[str]]:
    return lambda r: check_plan(g, ChunkPlan.from_json(json.loads(r.stdout)))


def _edge_output_ok(g: TaskGraph, edge, b: F, k: int) -> Callable[[CliResult], list[str]]:
    def check(r: CliResult) -> list[str]:
        payload = json.loads(r.stdout)
        chunks = tuple(F(x) for x in payload["chunks"])
        if sum(chunks) != g.cost(*edge):
            return [f"chunks sum to {sum(chunks)}, edge costs {g.cost(*edge)}"]
        dist = shortest_to_sink(g)
        best = independent_min_bottleneck(g, dist, edge, b, k)
        got = F(payload["report"]["bottleneck"])
        return [] if got == best else [f"bottleneck {got} != independent optimum {best}"]

    return check


def _taker_refuses(g: TaskGraph, edge, b: F, k: int) -> bool:
    """Independent verdict: can any k-chunking beat the taker's outside option?"""
    dist = shortest_to_sink(g)
    try:
        _, alpha = best_alternative(g, dist, BiasProfile(b), edge[0], exclude_head=edge[1])
    except DeadEnd:
        return False
    return independent_min_bottleneck(g, dist, edge, b, k) > alpha


def _split_check(g: TaskGraph, edge, b: F, k: int) -> Callable[[CliResult], list[str]]:
    def check(r: CliResult) -> list[str]:
        code = 1 if _taker_refuses(g, edge, b, k) else 0
        if r.code != code:
            return [f"split-edge exit {r.code}, independent verdict says {code}"]
        if code == 1:
            return [] if json.loads(r.stdout)["infeasible"] == "taker-refuses" else ["bad refusal"]
        chunks = tuple(F(x) for x in json.loads(r.stdout)["chunks"])
        return _follows(g, edge, chunks, (b,))

    return check


def _follows(g: TaskGraph, edge, chunks, biases) -> list[str]:
    """Simulate each bias from the tail on the single-edge plan."""
    if sum(chunks) != g.cost(*edge):
        return [f"chunks sum to {sum(chunks)}, edge costs {g.cost(*edge)}"]
    plan = single_edge_plan(Chunking(edge[0], edge[1], chunks))
    errors = []
    for b in biases:
        trace, cg = simulate_plan(g, plan, BiasProfile(b), start=edge[0])
        if not walk_follows_chunking(trace.path, cg.chain_of(edge)):
            errors.append(f"type b={b} abandons the chunking of {edge}")
    return errors


def _same_path_check(g: TaskGraph, edge, biases) -> Callable[[CliResult], list[str]]:
    def check(r: CliResult) -> list[str]:
        payload = json.loads(r.stdout)
        if r.code == 1:
            return [] if payload.get("infeasible") == "same-path" else ["bad infeasibility report"]
        if r.code != 0:
            return [f"exit code {r.code}"]
        return _follows(g, edge, tuple(F(x) for x in payload["chunks"]), biases)

    return check


def _csv_within_bound(r: CliResult) -> list[str]:
    rows = list(csv.reader(io.StringIO(r.stdout)))
    if rows[0] != EXPERIMENT_HEADER or len(rows) < 2:
        return ["bad experiment CSV"]
    bad = [row[0] for row in rows[1:] if F(int(row[4]), int(row[5])) > F(int(row[6]), int(row[7]))]
    return [f"ratio above bound at n={bad}"] if bad else []


def _verify_ok(r: CliResult) -> list[str]:
    lines = [line for line in r.stdout.splitlines() if line.startswith("[")]
    return [] if len(lines) == 3 and all(line.startswith("[ok]") for line in lines) else [
        "verify reported a failure"
    ]


def _fan_ok(n: int, fmt: str) -> Callable[[CliResult], list[str]]:
    def check(r: CliResult) -> list[str]:
        if fmt == "dot":
            return [] if r.stdout.startswith("digraph") else ["not DOT"]
        return [] if len(load_graph(r.stdout).vertices) == n + 2 else ["wrong fan size"]

    return check


def _errors_on_stderr(r: CliResult) -> list[str]:
    return [] if r.stderr.startswith("error:") and not r.stdout else ["usage error not on stderr"]


def _cli_op(argv: list[str], check) -> Op:
    return Op(
        kind=f"cli {argv[0]}",
        label=" ".join(argv),
        call=lambda: run_cli(argv),
        check=check,
        canon=canon_cli,
    )


def build_cli_verify(seed: int, root: Path, workdir: Path) -> Workload:
    """Every subcommand on fixtures/ and on generated graph files.

    Paths in argv are relative to ``root``, which must be the working
    directory when the ops run, so outputs never embed an absolute path.
    """
    fx = Path("fixtures")
    s32_path = str(fx / "s32.json")
    s32 = load_graph((root / s32_path).read_bytes())
    golden_plan = str(fx / "golden_plan_local_k3.json")
    ops = [
        _cli_op(["chunk-edge", "-g", s32_path, "-e", "u,v", "-b", "2", "-k", "3"],
                _expect(0, _same_bytes(root / fx / "golden_chunk_edge_uv_k3.json"))),
        _cli_op(["chunk-graph", "-g", s32_path, "--biases", "2", "-k", "3"],
                _expect(0, _same_bytes(root / golden_plan))),
        _cli_op(["chunk-graph", "-g", s32_path, "--biases", "2", "--mode", "global", "-k", "3"],
                _expect(0, _plan_replays(s32))),
        _cli_op(["chunk-graph", "-g", s32_path, "--biases", "2,10", "-k", "3"],
                _expect(0, _plan_replays(s32))),
        _cli_op(["chunk-graph", "-g", s32_path, "--biases", "2,3", "-k", "3", "--single-path"],
                _expect(0, _plan_replays(s32))),
        _cli_op(["simulate", "-g", s32_path, "-b", "2"], _expect(0, _total_is(F(76)))),
        _cli_op(["simulate", "-g", s32_path, "-b", "2", "--plan", golden_plan],
                _expect(0, _total_is(F(741, 10)))),
        _cli_op(["simulate", "-g", str(fx / "fan_n3_c1.5.json"), "-b", "2"],
                _expect(0, _total_is(F(27, 8)))),
        _cli_op(["split-edge", "-g", s32_path, "-e", "u,v", "--biases", "2,10", "-k", "3"],
                _split_check(s32, ("u", "v"), F(2), 3)),
        _cli_op(["same-path-edge", "-g", s32_path, "-e", "u,v", "--biases", "2,3", "-k", "3"],
                _expect(1, _same_path_check(s32, ("u", "v"), (F(2), F(3))))),
        _cli_op(["fan", "-n", "3", "-c", "3/2"], _expect(0, _fan_ok(3, "json"))),
        _cli_op(["fan", "-n", "12", "-c", "9/8", "--format", "dot"], _expect(0, _fan_ok(12, "dot"))),
        _cli_op(["experiment", "cost-ratio", "-b", "2", "-c", "9/8", "-k", "3", "--n-max", "12"],
                _expect(0, _csv_within_bound)),
        _cli_op(["experiment", "chunks-needed", "-b", "2", "-c", "2", "--n-min", "8", "--n-max", "64"],
                _expect(0, _csv_within_bound)),
        _cli_op(["verify", "--suite", "all", "--seed", str(seed), "--trials", "3", "-k", "3", "-d", "16"],
                _expect(0, _verify_ok)),
        _cli_op(["chunk-edge", "-g", str(fx / "no-such-graph.json"), "-e", "u,v", "-b", "2", "-k", "3"],
                _expect(2, _errors_on_stderr)),
        _cli_op(["chunk-edge", "-g", s32_path, "-e", "u,v", "-b", "1/2", "-k", "3"],
                _expect(2, _errors_on_stderr)),
        _cli_op(["chunk-graph", "-g", s32_path, "--biases", "2,3,4", "-k", "3"],
                _expect(2, _errors_on_stderr)),
        _cli_op(["chunk-edge", "-g", s32_path, "-e", "u,x", "-b", "2", "-k", "3"], _expect(1)),
    ]

    graphs = _multi_family("cli-verify", seed)
    workdir.mkdir(parents=True, exist_ok=True)
    rel = workdir.relative_to(root)
    rng = _rng("cli-verify", seed, "ops")
    for name, g in graphs.items():
        stem = name.replace("#", "_")
        path = str(rel / f"{stem}.json")
        (root / path).write_bytes(save_graph(g))
        plan_path = str(rel / f"{stem}.plan.json")
        plan, _ = chunk_graph_local(g, F(2), 3)
        (root / plan_path).write_text(json.dumps(plan.to_json()), encoding="utf-8")
        dist = shortest_to_sink(g)
        interior = [
            (u, v) for u, v, _ in g.edges if instances.delta_regime(g, dist, (u, v)) == "interior"
        ]
        edge = rng.choice(interior)
        e = f"{edge[0]},{edge[1]}"
        ops += [
            _cli_op(["simulate", "-g", path, "-b", "2"], _expect(0, _trace_adds_up)),
            _cli_op(["simulate", "-g", path, "-b", "2", "--plan", plan_path],
                    _expect(0, _total_is(plan.predicted_cost))),
            _cli_op(["chunk-edge", "-g", path, "-e", e, "-b", "2", "-k", "3"],
                    _expect(0, _edge_output_ok(g, edge, F(2), 3))),
            _cli_op(["chunk-graph", "-g", path, "--biases", "2", "-k", "3"],
                    _expect(0, _plan_replays(g))),
            _cli_op(["chunk-graph", "-g", path, "--biases", "2", "--mode", "global", "-k", "3"],
                    _expect(0, _plan_replays(g))),
        ]
        triples = shared_triples({name: g}, 1)
        if triples:
            biases = ",".join(map(str, triples[0][1]))
            ops.append(_cli_op(["chunk-graph", "-g", path, "--biases", biases, "-k", "2", "--single-path"],
                               _expect(0, _plan_replays(g))))
        ops += [
            _cli_op(["split-edge", "-g", path, "-e", e, "--biases", "2,4", "-k", "3"],
                    _split_check(g, edge, F(2), 3)),
            _cli_op(["same-path-edge", "-g", path, "-e", e, "--biases", "7/4,2,3", "-k", "3"],
                    _same_path_check(g, edge, (F(7, 4), F(2), F(3)))),
        ]
        if name.endswith("#0"):
            ops.append(_cli_op(["chunk-graph", "-g", path, "--biases", "2,3", "-k", "2"],
                               _expect(0, _plan_replays(g))))
    rng.shuffle(ops)
    warmup = _cli_op(["chunk-edge", "-g", s32_path, "-e", "u,v", "-b", "2", "-k", "3"], _expect(0))
    stats = _stats(graphs)
    return Workload("cli-verify", seed, ops, warmup, stats)


def build(name: str, seed: int, root: Path) -> Workload:
    """The seeded pass of workload ``name``; files go under ``root/.perfbench``."""
    if name == "edge-deep":
        return build_edge_deep(seed, root)
    if name == "plan-trap":
        return build_plan_trap(seed, root)
    if name == "multi-agent":
        return build_multi_agent(seed, root)
    if name == "cli-verify":
        return build_cli_verify(seed, root, root / ".perfbench" / f"cli-verify-seed{seed}")
    raise ValueError(f"unknown workload {name!r}")
