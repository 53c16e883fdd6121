"""Mutant catalogue: small faults that the named tests must catch.

The runner uses only the standard library; the suites it runs need pytest
and hypothesis. Run it from anywhere:

    python tests/mutants.py

Each entry is (file, old text, new text, selector, why). The runner first
runs each distinct selector in an unmutated copy of the repository, where it
must pass. Then, for each entry, it copies the repository to a temporary
directory, requires the old text to occur exactly once in the file, applies
the mutant and runs the selector, which must fail. Every entry is killed by
a fixed example (a plain test or an `@example`), not only by a drawn one;
hypothesis also runs with a fixed seed, so under one hypothesis version the
draws repeat too. A refactor that moves
the old text must update its entry; a mutant that survives is a missing
test, so fix the test, never the entry. pytest does not collect this file:
its name does not match `test_*.py`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench")
WORKERS = 2  # each entry runs pytest in its own copy, two at a time


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    selector: str
    why: str


CATALOGUE = (
    Mutant(
        "src/chunkwise/graph.py",
        "if best is None or total < best:",
        "if best is None or total <= best:",
        "tests/test_graph.py tests/test_scaled_graph.py::test_scaled_costs_and_distances_match_fractions",
        "shortest_to_sink: the least head must win a distance tie",
    ),
    Mutant(
        "src/chunkwise/agent.py",
        "if best_val is None or val < best_val:",
        "if best_val is None or val <= best_val:",
        "tests/test_agent.py tests/test_graph_chunk.py",
        "scaled_top_two: the least head must win a perceived-cost tie",
    ),
    Mutant(
        "src/chunkwise/agent.py",
        "            second_head, second_val = best_head, best_val\n",
        "",
        "tests/test_graph_chunk.py::test_the_scorer_and_its_runner_up_match_a_brute_force",
        "scaled_top_two: a new best demotes the old best to runner-up",
    ),
    Mutant(
        "src/chunkwise/agent.py",
        "            if len(marked) == 1:\n",
        "            if marked:\n",
        "tests/test_integer_kernels.py::test_integer_walks_match_the_fraction_walk",
        "traverse: a tie goes to a marked head only when exactly one is marked",
    ),
    Mutant(
        "src/chunkwise/agent.py",
        "dist[v], v) < (alpha, head)",
        "dist[v],) <= (alpha,)",
        "tests/test_agent.py::test_selective_bias_check_at_an_exact_tie_goes_to_the_least_head",
        "selective_bias_equivalence_check: at a tie the b' agent crosses only toward the least head",
    ),
    Mutant(
        "src/chunkwise/agent.py",
        "dist[v], v) < (alpha, head)",
        "dist[v],) < (alpha,)",
        "tests/test_agent.py::test_selective_bias_check_at_an_exact_tie_goes_to_the_least_head",
        "selective_bias_equivalence_check: the b' agent crosses a tie when its head is least",
    ),
    Mutant(
        "src/chunkwise/agent.py",
        "    if u not in traverse(g, dist, profile, until=(u,)).path:\n"
        "        return not crossed_chunked\n",
        "",
        "tests/test_agent.py::test_selective_bias_check_off_the_walk_is_uncrossed_on_both_sides",
        "selective_bias_equivalence_check: an agent that never reaches u does not cross",
    ),
    Mutant(
        "src/chunkwise/agent.py",
        "if trace.path != route or trace.total != cost:",
        "if trace.path != route:",
        "tests/test_agent.py::test_replay_plan_checks_each_walk_at_its_paths_cost",
        "replay_plan: a walk off its path's cost fails the plan",
    ),
    Mutant(
        "src/chunkwise/agent.py",
        "trace.path != route",
        "tuple(v for v in trace.path if v in originals) != path",
        "tests/test_agent.py::test_replay_plan_rejects_a_walk_through_another_edges_chain",
        "replay_plan: a walk is checked step for step, not projected onto original vertices",
    ),
    Mutant(
        "src/chunkwise/agent.py",
        "trace.path != route",
        "trace.path[:2] != route[:2]",
        "tests/test_agent.py::test_replay_plan_rejects_a_hop_that_leaves_its_chain_at_the_planned_cost",
        "replay_plan: a type sent into a chain must cross the whole chain",
    ),
    Mutant(
        "src/chunkwise/agent.py",
        "trace.path != route",
        "trace.path[-1:] != route[-1:]",
        "tests/test_agent.py::test_replay_plan_rejects_a_walk_through_another_edges_chain",
        "replay_plan: a type planned over an edge must take it, not another edge's chain",
    ),
    Mutant(
        "src/chunkwise/expansion.py",
        "self._scaled[chain[i]] = _floor(outside, through)",
        "self._scaled[chain[i]] = through",
        "tests/test_plan_view.py",
        "PlanView: a chain vertex's distance is floored by the outside option",
    ),
    Mutant(
        "src/chunkwise/expansion.py",
        "scaled_out = [(h, c * f) for h, c in g.scaled_out_edges(u)]",
        "scaled_out = list(g.scaled_out_edges(u))",
        "tests/test_plan_view.py",
        "PlanView: a chunked tail's deviations are rescaled to the view's scale",
    ),
    Mutant(
        "src/chunkwise/expansion.py",
        "if sum(xs) != x * f:",
        "if sum(xs) < x * f:",
        "tests/test_plan_view.py::test_view_raises_what_expansion_raises_in_the_same_order",
        "PlanView: chunks summing to more than their edge's cost are refused",
    ),
    Mutant(
        "src/chunkwise/expansion.py",
        "self.scale = lcm(g.scale, *",
        "self.scale = max(g.scale, *",
        "tests/test_plan_view.py",
        "PlanView: the view's scale is the lcm of the graph's and the chunks' denominators",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "if big_o is not None and big_o < through:",
        "if big_o is not None and big_o <= through:",
        "tests/test_edge_chunk.py::test_transition_vertex_stays_on_the_chain_at_an_exact_tie",
        "_suffix_walk: at an exact tie the chain vertex stays on the chain (tau)",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "        if not tau:\n",
        "        if True:\n",
        "tests/test_edge_chunk.py::test_evaluate_balanced_chunking_s32",
        "_suffix_walk: tau is the last chain vertex that leaves, not the first",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "    through = floor = big_c\n",
        "    through = big_c\n    floor = _floor(big_o, big_c)\n",
        "tests/test_edge_chunk.py::test_optimal_edge_chunking_delta_above_x",
        "_suffix_walk: the last chunk's floor is c(v->t), not min(outside, c(v->t))",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "        if not out or n != last:\n",
        "        if not out:\n",
        "tests/test_edge_chunk.py::test_evaluate_geometric_chunking_s32",
        "_runs: a Fraction is reused only while its numerator repeats",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "            tied.append((h, y_n, y_d))\n",
        "            pass\n",
        "tests/test_edge_chunk.py::test_optimizer_breaks_a_screen_tie_on_tau_and_chunks",
        "optimal_edge_chunking: every tied candidate is walked, not only the first",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "Fraction(top - r * big_c, r * big_x)",
        "Fraction(top - big_c, r * big_x)",
        "tests/test_cli.py::test_large_k_golden_output_fixture_matches",
        "_report: the selective bias subtracts c(v->t) in the walk's r * unit",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "Fraction(big_x + big_c - big_o, unit)",
        "Fraction(big_x + big_c, unit)",
        "tests/test_cli.py::test_optimizer_branch_golden_output_fixtures_match",
        "_report: delta is x + c(v->t) - outside",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "if beta_n * alpha_d > alpha_n * beta_d:",
        "if beta_n * alpha_d >= alpha_n * beta_d:",
        "tests/test_edge_chunk.py::test_candidate_screen_is_exact",
        "_candidates: tau* is where the head-heavy tail strictly exceeds its head",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "        tau = lo\n",
        "        tau = max(1, lo - 1)\n",
        "tests/test_edge_chunk.py::test_candidate_screen_is_exact",
        "_candidates: the screen's transition vertex is tau*, not tau*-1",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "        if mass >= big_x * lp:\n",
        "        if mass > big_x * lp:\n",
        "tests/test_edge_chunk.py::test_min_chunks_to_beat_examples",
        "_greedy_ints: a fill that carries exactly x has reached it",
    ),
    Mutant(
        "src/chunkwise/rational.py",
        "body.isascii() and body.isdigit()",
        "body.isdigit()",
        "tests/test_scaled_graph.py::test_load_graph_pinned_costs",
        "rat: only ASCII digits are accepted",
    ),
    Mutant(
        "src/chunkwise/rational.py",
        "text.isascii() and num.isdigit() and (not sep or low.isdigit())",
        "num.isdigit() and (not sep or low.isdigit())",
        "tests/test_scaled_graph.py::test_load_graph_pinned_costs "
        "tests/test_scaled_graph.py::test_load_graph_accepts_exactly_what_rat_accepts",
        "parse_rat: the saved forms' fast road reads only ASCII digits",
    ),
    Mutant(
        "src/chunkwise/graph.py",
        "if len(seen) != len(self.vertices) or not all(self.vertices):",
        "if len(seen) != len(self.vertices):",
        "tests/test_graph.py::test_task_graph_errors_name_the_first_bad_input",
        "TaskGraph: the one set test of the vertex ids also refuses an empty id",
    ),
    Mutant(
        "src/chunkwise/graph.py",
        "if len(scaled) != len(order):",
        "if len(succ) != len(scaled) - 1:",
        "tests/test_graph.py::test_shortest_unreachable_vertex",
        "shortest_to_sink: a vertex with no sink path is missing from the distances",
    ),
    Mutant(
        "src/chunkwise/rational.py",
        "len(top) <= MAX_DIGITS",
        "len(top) < MAX_DIGITS",
        "tests/test_scaled_graph.py::test_load_graph_accepts_exactly_what_rat_accepts",
        "parse_rat: a numerator of exactly MAX_DIGITS digits is accepted",
    ),
    Mutant(
        "src/chunkwise/rational.py",
        " and len(low) <= MAX_DIGITS\n",
        "\n",
        "tests/test_scaled_graph.py::test_load_graph_accepts_exactly_what_rat_accepts",
        "parse_rat: a denominator past MAX_DIGITS digits is refused before any int()",
    ),
    Mutant(
        "src/chunkwise/rational.py",
        "    if not items:\n        return brackets\n",
        "",
        "tests/test_cli.py::test_dump_json_writes_what_json_dumps_writes",
        "dump_json: an empty list or dict is written on one line",
    ),
    Mutant(
        "src/chunkwise/agent.py",
        "if best_val is None or val < best_val:",
        "if best_val is None or val <= best_val:",
        "tests/test_graph_chunk.py::test_group_defaults_take_the_least_head_at_a_tie",
        "GroupNeeds: the least head is a type's default at a perceived-cost tie",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "        elif outside is None or cost + scaled[head] < outside:\n",
        "        if outside is None or cost + scaled[head] < outside:\n",
        "tests/test_graph_chunk.py::test_a_tails_only_edge_is_carried_by_one_chunk "
        "tests/test_edge_chunk.py::test_delta_examples",
        "scaled_edge_scan: the outside option is scanned over the tail's other edges only",
    ),
    Mutant(
        "src/chunkwise/graph_chunk.py",
        "big_r // b.denominator, top)",
        "big_r, top)",
        "tests/test_graph_chunk.py::test_one_types_needs_are_its_least_persuading_counts",
        "GroupNeeds: a type's alpha over b.denominator * g.scale is rescaled to R * g.scale",
    ),
    Mutant(
        "src/chunkwise/graph_chunk.py",
        "for top in self.top_two[1:]:",
        "for top in self.top_two[1:1]:",
        "tests/test_graph_chunk.py::test_a_group_default_is_one_every_type_takes",
        "GroupNeeds: an edge is the group's default only when every type takes it unaided",
    ),
    Mutant(
        "src/chunkwise/graph_chunk.py",
        "if worst is not None and bound > worst:",
        "if worst is not None and bound >= worst:",
        "tests/test_graph_chunk.py",
        "cheapest_paths: a move whose bound ties the costliest level may still win its tie",
    ),
    Mutant(
        "src/chunkwise/graph_chunk.py",
        "            if worst is not None and bound > worst:\n"
        "                break\n",
        "",
        "tests/test_graph_chunk.py::test_cheapest_paths_breaks_ties_on_chunks_before_head "
        "tests/test_graph_chunk.py::test_a_detour_that_cannot_win_is_never_counted",
        "cheapest_paths: a move whose bound cannot win any level is never asked for its chunks",
    ),
    Mutant(
        "src/chunkwise/graph_chunk.py",
        "return self.mode == \"local\" or total <= self.k",
        "return self.mode == \"local\" or total < self.k",
        "tests/test_multi_agent.py",
        "BudgetSpec.fits: a plan using exactly k chunks fits a global budget",
    ),
    Mutant(
        "src/chunkwise/graph_chunk.py",
        "if best[i] is None or offer < best[i]:",
        "if best[i] is None or offer[::2] < best[i][::2]:",
        "tests/test_graph_chunk.py::test_cheapest_paths_breaks_ties_on_chunks_before_head "
        "tests/test_multi_agent.py::test_a_global_plan_at_the_unaided_cost_installs_no_chunking",
        "cheapest_paths: at equal cost the move taking fewer chunks wins before the least head",
    ),
    Mutant(
        "src/chunkwise/graph_chunk.py",
        "if len(self.biases) > 1:",
        "if len(self.biases) >= 1:",
        "tests/test_graph_chunk.py::test_optimizer_runs_only_for_the_chunked_plan_edges",
        "GroupNeeds.chunking: one bias gets the optimal edge chunking, not the greedy fill",
    ),
    Mutant(
        "src/chunkwise/graph_chunk.py",
        "self.biases = tuple(dict.fromkeys(biases))",
        "self.biases = tuple(biases)",
        "tests/test_multi_agent.py::test_two_agent_equal_types_reduce_to_single",
        "GroupNeeds: a repeated bias is one type",
    ),
    Mutant(
        "src/chunkwise/multi_agent.py",
        "elif pos[u] < pos[y]:",
        "elif pos[u] > pos[y]:",
        "tests/test_multi_agent.py::test_two_agent_dp_charges_a_shared_edge_once",
        "_two_agent_dp: of two types apart, the one behind moves",
    ),
    Mutant(
        "src/chunkwise/multi_agent.py",
        "elif pos[u] < pos[y]:",
        "elif u < y:",
        "tests/test_multi_agent.py::test_two_agent_dp_moves_the_topologically_earlier_type",
        "_two_agent_dp: behind means earlier in topological order, not in name order",
    ),
    Mutant(
        "src/chunkwise/multi_agent.py",
        "moves.solo[mover].need",
        "moves.solo[1 - mover].need",
        "tests/test_multi_agent.py::test_two_agent_plan_finds_a_split_below_a_failing_full_row",
        "_two_agent_dp: a type moving alone is charged from its own needs table",
    ),
    Mutant(
        "src/chunkwise/multi_agent.py",
        "frontier.extend(head for head, _ in reached[pair])",
        "frontier.extend(head for head, _ in reached[pair] if t not in head or head == (t, t))",
        "tests/test_multi_agent.py::test_the_pair_dp_solves_the_reachable_pairs_as_the_full_one",
        "_two_agent_dp: the reachable walk follows a move that brings one type to t",
    ),
    Mutant(
        "src/chunkwise/multi_agent.py",
        "reached[pair] = list(pair_moves(pair))",
        "reached[pair] = pair_moves(pair)",
        "tests/test_multi_agent.py::test_the_pair_dp_solves_the_reachable_pairs_as_the_full_one",
        "_two_agent_dp: the DP reads each pair's moves as the walk listed them, not a spent generator",
    ),
    Mutant(
        "src/chunkwise/edge_chunk.py",
        "unit = lcm(g.scale, alpha.denominator)",
        "unit = g.scale",
        "tests/test_edge_chunk.py::test_min_chunks_to_beat_at_a_threshold_off_the_graphs_scale",
        "min_chunks_to_beat: alpha is scaled by lcm(g.scale, its denominator), not g.scale alone",
    ),
    Mutant(
        "src/chunkwise/oracle.py",
        "steps.append(min(mass, ctx.x) - before)",
        "steps.append(mass - before)",
        "tests/test_multi_agent.py::test_same_path_one_type_is_the_saturated_greedy_fill",
        "saturated_chunking: the mass that reaches x is cut to x",
    ),
    Mutant(
        "src/chunkwise/multi_agent.py",
        "    if not ns:\n",
        "    if len(ns) <= k:\n",
        "tests/test_multi_agent.py::test_same_path_infeasible_cases",
        "chunk_same_path: only an empty fill is forced negative; a short one is a mass deficit",
    ),
    Mutant(
        "src/chunkwise/graph_chunk.py",
        "raise InvariantViolation(f\"{u!r}'s move to {head!r} is read before its row\") from None",
        "continue",
        "tests/test_graph_chunk.py::test_cheapest_paths_raises_on_a_head_read_before_its_row",
        "cheapest_paths: a head read before its row raises instead of counting as no path",
    ),
    Mutant(
        "src/chunkwise/cli.py",
        "        if not extra:\n            namespace.command = args[0]\n            return namespace\n",
        "        namespace.command = args[0]\n        return namespace\n",
        "tests/test_cli.py::test_main_reuses_one_parser",
        "main: a command's own parser answers only when no argument is left over",
    ),
)


def _pytest(tree: Path, selector: str, *flags: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    args = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    return subprocess.run(
        [*args, *flags, *selector.split()], cwd=tree, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def _in_copy(run: Callable[[Path], str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        return run(tree)


def _unmutated(selector: str) -> str:
    return _in_copy(lambda tree: "" if _pytest(tree, selector) == 0 else f"BROKEN {selector}")


def _mutated(m: Mutant) -> str:
    def run(tree: Path) -> str:
        path = tree / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return f"STALE  {m.file} holds the old text {text.count(m.old)} times: {m.old!r}"
        path.write_text(text.replace(m.old, m.new))
        return "killed" if _pytest(tree, m.selector, "-x") != 0 else "SURVIVED"

    start = time.perf_counter()
    status = _in_copy(run)
    return f"{status:8} {time.perf_counter() - start:5.1f}s  {m.why}"


def main() -> int:
    with ThreadPoolExecutor(WORKERS) as pool:
        broken = [b for b in pool.map(_unmutated, dict.fromkeys(m.selector for m in CATALOGUE)) if b]
        if broken:
            print("\n".join(b + " fails unmutated" for b in broken))
            return 2
        lines = list(pool.map(_mutated, CATALOGUE))
    print("\n".join(lines))
    killed = sum(line.startswith("killed") for line in lines)
    print(f"{killed} of {len(CATALOGUE)} mutants killed")
    return 0 if killed == len(CATALOGUE) else 1


if __name__ == "__main__":
    sys.exit(main())
