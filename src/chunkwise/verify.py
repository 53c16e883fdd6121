"""Randomized cross-check suites shared by the CLI and the test suite.

Each suite returns (ok, lines): a verdict plus one human-readable line per
check group. Suites are deterministic given the seed. The planners walk their
plans on a view of the expanded graph; the suites walk every returned plan
again on the graph expand_plan builds, and a trace that differs between the
two routes is a violation. The edge-oracle suite also compares the view's
distances with the expanded graph's on each optimal chunking, whose chain
vertices often have a cheaper way out than the rest of the chain. The
multi-agent suite checks one split per trial against `oracle.grid_max_repelled`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .agent import BiasProfile, simulate_plan, walk_plan
from .edge_chunk import optimal_edge_chunking
from .expansion import PlanView, expand_plan, original_path, single_edge_plan
from .graph import random_task_graph, shortest_to_sink
from .graph_chunk import BudgetSpec, chunk_graph_global, chunk_graph_local
from .multi_agent import (
    AgentSet,
    chunk_split,
    m_agent_single_path_plan,
    two_agent_plan,
)
from .oracle import (
    GridSpec,
    brute_force_edge_chunking,
    brute_force_graph_plan,
    brute_force_two_agent_plan,
    grid_max_repelled,
)
from .errors import InfeasibleChunking, TakerRefuses

SuiteResult = tuple[bool, list[str]]


def _random_bias(rng: random.Random) -> Fraction:
    den = rng.choice((1, 2, 3, 4))
    return Fraction(rng.randint(den + 1, 4 * den), den)


def _random_graph_with_dist(rng: random.Random, max_vertices: int):
    g = random_task_graph(rng, min_vertices=3, max_vertices=max_vertices)
    return g, shortest_to_sink(g)


def edge_oracle_suite(seed: int, trials: int, k_max: int = 4, d: int = 64) -> SuiteResult:
    """Optimizer bottleneck never exceeds the best grid chunking's, and the
    plan view's distances on that chunking are the expanded graph's."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    for trial in range(trials):
        g, dist = _random_graph_with_dist(rng, 6)
        edges = [e[:2] for e in g.edges if e[0] != g.sink]
        if not edges:
            continue
        edge = edges[rng.randrange(len(edges))]
        b = _random_bias(rng)
        k = rng.randint(1, k_max)
        chunking, report = optimal_edge_chunking(g, dist, edge, b, k)
        _, grid_best = brute_force_edge_chunking(g, dist, edge, b, GridSpec(d, k))
        checked += 1
        if report.bottleneck > grid_best:
            failures.append(
                f"trial {trial}: optimizer {report.bottleneck} > grid {grid_best} "
                f"on edge {edge} (b={b}, k={k})"
            )
        plan = single_edge_plan(chunking)
        view = PlanView(g, dist, plan)
        expanded = shortest_to_sink(expand_plan(g, plan).graph)
        for v in view.chain_of(edge)[1:-1]:
            if view[v] != expanded[v]:
                failures.append(
                    f"trial {trial}: view distance {view[v]} != expanded {expanded[v]} "
                    f"at chain vertex {v} (b={b}, k={k})"
                )
    ok = not failures and checked >= trials // 2
    lines = [f"edge-oracle: {checked} comparisons, {len(failures)} violations"]
    lines += failures[:5]
    return ok, lines


def graph_dp_suite(seed: int, trials: int, k_max: int = 3) -> SuiteResult:
    """Local and global planners match the exhaustive path oracle exactly."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    for trial in range(trials):
        g, _ = _random_graph_with_dist(rng, 7)
        b = _random_bias(rng)
        k = rng.randint(1, k_max)
        for mode, planner in (("local", chunk_graph_local), ("global", chunk_graph_global)):
            plan, trace = planner(g, b, k)
            oracle_cost, _ = brute_force_graph_plan(g, b, BudgetSpec(mode, k))
            checked += 1
            if simulate_plan(g, plan, BiasProfile(b))[0] != trace:
                failures.append(
                    f"trial {trial} ({mode}, b={b}, k={k}): the walked trace differs "
                    f"from the expanded graph's"
                )
            if trace.total != oracle_cost:
                failures.append(
                    f"trial {trial} ({mode}, b={b}, k={k}): planner {trace.total} "
                    f"!= oracle {oracle_cost}"
                )
    ok = not failures and checked > 0
    lines = [f"graph-dp: {checked} comparisons, {len(failures)} violations"]
    lines += failures[:5]
    return ok, lines


def multi_agent_suite(seed: int, trials: int, k: int = 2, d: int = 32) -> SuiteResult:
    """Joint-simulation soundness, oracle equality, and split dominance."""
    rng = random.Random(seed)
    failures = []
    sims = dp_checks = split_checks = infeasible = 0
    for trial in range(trials):
        g, dist = _random_graph_with_dist(rng, 6)
        b1 = _random_bias(rng)
        b2 = b1 + Fraction(rng.randint(1, 8), 4)
        mode = rng.choice(("local", "global"))
        budget = BudgetSpec(mode, k)
        plan, traces = two_agent_plan(g, b1, b2, budget)
        sims += 1
        for b, path, walked in zip((b1, b2), plan.planned_paths, traces):
            trace, cg = simulate_plan(g, plan, BiasProfile(b))
            if original_path(cg, trace.path) != path:
                failures.append(f"trial {trial}: two-agent plan fails joint simulation")
                break
            if trace != walked:
                failures.append(f"trial {trial}: two-agent trace differs from the expanded graph's")
                break
        pair_cost = traces[0].total + traces[1].total
        oracle_cost, _ = brute_force_two_agent_plan(g, b1, b2, budget)
        dp_checks += 1
        if pair_cost != oracle_cost:
            failures.append(
                f"trial {trial} ({mode}): two-agent {pair_cost} != oracle {oracle_cost}"
            )
        agents = AgentSet((b1, b2))
        try:
            mplan, mpath = m_agent_single_path_plan(g, agents, budget)
        except InfeasibleChunking:
            infeasible += 1  # no path both types can be persuaded to share
        else:
            for b in agents.biases:
                trace, cg = simulate_plan(g, mplan, BiasProfile(b))
                if original_path(cg, trace.path) != mpath:
                    failures.append(f"trial {trial}: single-path plan fails for b={b}")
                    break
                if trace != walk_plan(g, dist, mplan, BiasProfile(b))[0]:
                    failures.append(
                        f"trial {trial}: single-path trace for b={b} differs from the "
                        f"expanded graph's"
                    )
                    break
        edges = [e[:2] for e in g.edges if e[0] != g.sink]
        if edges:
            edge = edges[rng.randrange(len(edges))]
            split_checks += 1
            try:
                _, repelled = chunk_split(g, dist, edge, b1, b2, k, taker=1)
            except TakerRefuses:
                continue
            grid_best = grid_max_repelled(g, dist, edge, b1, b2, GridSpec(d, k))
            if grid_best is not None and repelled < grid_best:
                failures.append(f"trial {trial}: split beaten by a grid chunking on {edge}")
    ok = not failures and sims > 0
    lines = [
        f"multi-agent: {sims} joint sims, {dp_checks} oracle comparisons, "
        f"{split_checks} split dominance checks, {len(failures)} violations"
        + (f", {infeasible} infeasible" if infeasible else "")
    ]
    lines += failures[:5]
    return ok, lines


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "edge-oracle": edge_oracle_suite,
    "graph-dp": graph_dp_suite,
    "multi-agent": multi_agent_suite,
}
