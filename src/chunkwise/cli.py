"""Command-line surface: simulate, chunk, split, generate, verify, experiment.

All machine output renders rationals as exact "p/q" strings with a fixed key
order, so identical inputs produce byte-identical outputs. Exit codes:
0 success, 1 domain infeasibility (reported as structured JSON on stdout),
2 input/usage errors (reported on stderr).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .agent import BiasProfile, traverse, walk_plan
from .edge_chunk import evaluate_chunking, optimal_edge_chunking
from .errors import (
    ChunkwiseError,
    CycleDetected,
    InfeasibleChunking,
    InvalidParams,
    ParseError,
    SinkUnreachable,
    TakerRefuses,
)
from .expansion import ChunkPlan, expand_plan
from .graph import (
    FanSpec,
    TaskGraph,
    graph_to_dot,
    load_graph,
    make_n_fan,
    save_graph,
    shortest_to_sink,
)
from .graph_chunk import BudgetSpec, shared_path_plan
from .multi_agent import AgentSet, chunk_same_path, chunk_split, two_agent_plan
from .oracle import EXPERIMENT_HEADER, chunks_needed_rows, cost_ratio_curve
from .rational import dump_json, format_rat, rat
from .verify import SUITES

MULTI_AGENT_MAX_K, MULTI_AGENT_MAX_D = 2, 32  # the multi-agent suite's caps on -k and -d


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    _emit(args, dump_json(payload) + "\n")


def _read_graph(path: str) -> TaskGraph:
    with open(path, "rb") as f:
        return load_graph(f.read())


def _parse_edge(text: str) -> tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2 or not all(parts):
        raise ParseError("edge", f"expected 'tail,head', got {text!r}")
    return parts[0], parts[1]


def _parse_bias(text: str) -> Fraction:
    value = rat(text)
    if value <= 1:
        raise ParseError("bias", f"bias must be > 1, got {text}")
    return value


def _parse_biases(text: str) -> tuple[Fraction, ...]:
    return tuple(sorted(_parse_bias(part) for part in text.split(",")))


def _report_json(report, decimal: bool) -> dict:
    payload = {
        "edge": list(report.edge),
        "perceived": [format_rat(p) for p in report.perceived],
        "tau": report.tau,
        "bottleneck": format_rat(report.bottleneck),
        "delta": None if report.delta is None else format_rat(report.delta),
        "selective_bias": format_rat(report.selective_bias),
    }
    if decimal:
        payload["bottleneck_decimal"] = float(report.bottleneck)
        payload["perceived_decimal"] = [float(p) for p in report.perceived]
    return payload


def cmd_fan(args: argparse.Namespace) -> int:
    g = make_n_fan(FanSpec(args.n, rat(args.c)))
    if args.format == "dot":
        _emit(args, graph_to_dot(g))
    else:
        _emit(args, save_graph(g).decode("utf-8"))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    profile = BiasProfile(_parse_bias(args.bias))
    if args.plan:
        plan = ChunkPlan.from_json(json.loads(Path(args.plan).read_bytes().decode("utf-8")))
        try:
            dist = shortest_to_sink(g)
        except (CycleDetected, SinkUnreachable):
            # The expanded graph fails too. Expanding it reports a plan error
            # first, else the failure in the expanded graph's vertex names.
            shortest_to_sink(expand_plan(g, plan).graph)
            raise
        trace, _ = walk_plan(g, dist, plan, profile)
    else:
        trace = traverse(g, shortest_to_sink(g), profile)
    payload = trace.to_json()
    if args.decimal:
        payload["total_decimal"] = float(trace.total)
    _emit_json(args, payload)
    return 0


def cmd_chunk_edge(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    dist = shortest_to_sink(g)
    edge = _parse_edge(args.edge)
    chunking, report = optimal_edge_chunking(g, dist, edge, _parse_bias(args.bias), args.k)
    payload = chunking.to_json()
    payload["report"] = _report_json(report, args.decimal)
    _emit_json(args, payload)
    return 0


def cmd_chunk_graph(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    budget = BudgetSpec(args.mode, args.k)
    biases = _parse_biases(args.biases)
    if len(biases) == 1 or args.single_path:
        plan, traces = shared_path_plan(g, AgentSet(biases).biases, budget)
    elif len(biases) == 2:
        plan, traces = two_agent_plan(g, biases[0], biases[1], budget)
    else:
        raise ParseError(
            "biases", "more than two types require --single-path"
        )
    payload = plan.to_json()
    payload["traces"] = [t.to_json() for t in traces]
    _emit_json(args, payload)
    return 0


def cmd_split_edge(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    dist = shortest_to_sink(g)
    biases = _parse_biases(args.biases)
    if len(biases) != 2:
        raise ParseError("biases", "split-edge needs exactly two biases")
    edge = _parse_edge(args.edge)
    try:
        chunking, repelled = chunk_split(
            g, dist, edge, biases[0], biases[1], args.k, taker=args.taker
        )
    except TakerRefuses as exc:
        _emit_json(args, {"infeasible": "taker-refuses", "reason": str(exc)})
        return 1
    payload = chunking.to_json()
    payload["repelled_bottleneck"] = format_rat(repelled)
    payload["report"] = _report_json(
        evaluate_chunking(g, dist, chunking, biases[0] if args.taker == 1 else biases[1]),
        args.decimal,
    )
    _emit_json(args, payload)
    return 0


def cmd_same_path_edge(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    dist = shortest_to_sink(g)
    edge = _parse_edge(args.edge)
    agents = AgentSet(_parse_biases(args.biases))
    try:
        chunking = chunk_same_path(g, dist, edge, agents, args.k)
    except InfeasibleChunking as exc:
        _emit_json(args, {"infeasible": "same-path", "reason": exc.reason})
        return 1
    _emit_json(args, chunking.to_json())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, value in (("--trials", args.trials), ("-k", args.k), ("-d", args.d)):
        if value < 1:
            raise InvalidParams(f"verify needs {flag} >= 1, got {value}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        kwargs = {"seed": args.seed, "trials": args.trials}
        if name == "edge-oracle":
            kwargs.update(k_max=args.k, d=args.d)
        elif name == "graph-dp":
            kwargs.update(k_max=args.k)
        else:
            kwargs.update(k=min(args.k, MULTI_AGENT_MAX_K), d=min(args.d, MULTI_AGENT_MAX_D))
        ok, lines = SUITES[name](**kwargs)
        all_ok &= ok
        status = "ok" if ok else "FAIL"
        sys.stdout.write(f"[{status}] {lines[0]}\n")
        for line in lines[1:]:
            sys.stdout.write(f"    {line}\n")
    return 0 if all_ok else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    b, c = _parse_bias(args.bias), rat(args.c)
    if args.which == "cost-ratio":
        rows = cost_ratio_curve(b, c, range(1, args.n_max + 1), args.k)
    else:
        rows = chunks_needed_rows(b, c, range(args.n_min, args.n_max + 1))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EXPERIMENT_HEADER)
    for row in rows:
        writer.writerow(row.csv_fields())
    _emit(args, buf.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="chunkwise",
        description="Plan chunkings of weighted task DAGs for present-biased agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        p = commands[name] = sub.add_parser(name, help=help)
        return p

    def add_common(p: argparse.ArgumentParser, graph: bool = True) -> None:
        if graph:
            p.add_argument("-g", "--graph", required=True, help="graph JSON file")
        p.add_argument("-o", "--output", help="write output to this file")
        p.add_argument(
            "--decimal", action="store_true", help="add display-only decimal columns"
        )

    p = add_command("fan", "generate an n-fan graph")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-c", required=True, help="exit growth factor, exact rational > 1")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    add_common(p, graph=False)

    p = add_command("simulate", "walk a biased agent and emit its trace")
    add_common(p)
    p.add_argument("-b", "--bias", required=True)
    p.add_argument("--plan", help="chunk plan JSON to install first")

    p = add_command("chunk-edge", "optimally chunk one edge")
    add_common(p)
    p.add_argument("-e", "--edge", required=True, help="tail,head")
    p.add_argument("-b", "--bias", required=True)
    p.add_argument("-k", type=int, required=True)

    p = add_command("chunk-graph", "plan chunks across the whole graph")
    add_common(p)
    p.add_argument("--biases", required=True, help="comma-separated biases")
    p.add_argument("--mode", choices=("local", "global"), default="local")
    p.add_argument("-k", type=int, required=True)
    p.add_argument(
        "--single-path", action="store_true", help="force all types onto one path"
    )

    p = add_command("split-edge", "chunk an edge so the types separate")
    add_common(p)
    p.add_argument("-e", "--edge", required=True)
    p.add_argument("--biases", required=True, help="low,high")
    p.add_argument("--taker", type=int, choices=(1, 2), default=1)
    p.add_argument("-k", type=int, required=True)

    p = add_command("same-path-edge", "chunk an edge every type accepts")
    add_common(p)
    p.add_argument("-e", "--edge", required=True)
    p.add_argument("--biases", required=True)
    p.add_argument("-k", type=int, required=True)

    p = add_command("verify", "run randomized oracle cross-checks")
    p.add_argument(
        "--suite", choices=("all", *SUITES), default="all"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("-k", type=int, default=3, help="most chunks per edge (edge-oracle) or the "
                   f"chunk budget; the multi-agent suite caps it at {MULTI_AGENT_MAX_K}")
    p.add_argument("-d", type=int, default=64, help="grid denominator of the grid oracles; "
                   f"the multi-agent suite caps it at {MULTI_AGENT_MAX_D}")

    p = add_command("experiment", "emit experiment CSVs")
    p.add_argument("which", choices=("cost-ratio", "chunks-needed"))
    p.add_argument("-b", "--bias", required=True)
    p.add_argument("-c", required=True)
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("-o", "--output")

    return parser, commands


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # Built once per process: building the subcommand tree costs more than
    # most commands. Parsing leaves the parser unchanged, and argparse looks
    # up sys.stdout and sys.stderr when it writes, so reuse is invisible.
    return _build_parsers()


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """What the full parser makes of argv, scanning it once where it can.

    A known command's own parser reads the rest of argv, as the full parser
    would hand it on; when nothing is left over, its Namespace with the
    command is the full parser's. Anything else (no argv, an unknown
    command, an option before it, or leftover arguments) goes through the
    full parser, so help, usage errors and exit codes are argparse's own.
    """
    parser, commands = _parser()
    args = sys.argv[1:] if argv is None else list(argv)
    if args and args[0] in commands:
        namespace, extra = commands[args[0]].parse_known_args(args[1:])
        if not extra:
            namespace.command = args[0]
            return namespace
    return parser.parse_args(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # The command is looked up on every call, not stored in the cached
    # parser, so a cmd_* function replaced on this module (by a tracer or a
    # test) still runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (InvalidParams, ParseError, FileNotFoundError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ChunkwiseError as exc:
        sys.stdout.write(dump_json({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
