"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench

They check that inputs are a pure function of the seed, that two traced runs
count exactly the same work, and that the per-op checks catch a corrupted
output and count it as a failed op.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import instances  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from chunkwise import save_graph  # noqa: E402

ROOT = run.ROOT
SEED = 5  # not the default seed, so truncated passes are not held to digests.json

EXACT = (
    ".calls",
    "max_den_bits",
    "expanded_vertices",
    "grid_points",
    "tie_events",
    "stdout_bytes",
    "repeat_ratio",
    "candidate_yield",
    "trace.spans",
)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_trap_dag_is_a_pure_function_of_the_seed():
    first = instances.trap_dag(random.Random("t:1"), 160, 8)
    again = instances.trap_dag(random.Random("t:1"), 160, 8)
    other = instances.trap_dag(random.Random("t:2"), 160, 8)
    assert save_graph(first) == save_graph(again) != save_graph(other)
    assert len(first.vertices) == len(other.vertices) == 160
    assert len(first.edges) == len(other.edges)  # the shape depends on the sizes only
    assert first.vertices[:2] == ("L00n00", "L01n00")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_inputs_are_a_pure_function_of_the_seed(name):
    first = workloads.build(name, SEED, ROOT)
    again = workloads.build(name, SEED, ROOT)
    other = workloads.build(name, SEED + 1, ROOT)
    assert [op.label for op in first.ops] == [op.label for op in again.ops]
    assert first.instances == again.instances
    assert first.instances != other.instances


def _tiny_traced_run(name: str, pick):
    wl = workloads.build(name, SEED, ROOT)
    wl.ops = pick(wl.ops)
    return run.per_layer(wl, SEED, 0.0)


@pytest.mark.parametrize(
    "name, pick",
    [
        ("cli-verify", lambda ops: [op for op in ops if op.kind in ("cli verify", "cli chunk-graph")][:4]),
        ("multi-agent", lambda ops: [op for op in ops if "V14" in op.label][:3]),
        ("plan-trap", lambda ops: [op for op in ops if "V40" in op.label and "k=2" in op.label][:2]),
    ],
)
def test_two_tiny_traced_runs_count_exactly_the_same(name, pick):
    first, a = _tiny_traced_run(name, pick)
    second, b = _tiny_traced_run(name, pick)
    assert first.failed == second.failed == 0
    assert first.digests == second.digests
    exact = sorted(k for k in a if k.endswith(EXACT))
    assert {k: a[k]["value"] for k in exact} == {k: b[k]["value"] for k in exact}
    assert a["trace.spans"]["value"] > 0


def test_edge_check_catches_a_perturbed_chunk():
    wl = workloads.build("edge-deep", SEED, ROOT)
    op = next(op for op in wl.ops if op.label.startswith("s32 ") and op.label.endswith("k=8"))
    chunking, report = op.call()
    assert op.check((chunking, report)) == []
    moved = list(chunking.chunks)
    moved[0] += Fraction(1, 7)
    moved[-1] -= Fraction(1, 7)
    assert op.check((replace(chunking, chunks=tuple(moved)), report))  # same sum, other costs
    assert op.check((chunking, replace(report, bottleneck=report.bottleneck + 1)))


def test_cli_check_catches_a_wrong_exit_code_and_changed_bytes():
    wl = workloads.build("cli-verify", SEED, ROOT)
    golden = next(
        op for op in wl.ops if op.label == "chunk-edge -g fixtures/s32.json -e u,v -b 2 -k 3"
    )
    result = golden.call()
    assert golden.check(result) == []
    assert golden.check(replace(result, code=1))
    assert golden.check(replace(result, stdout=result.stdout.replace("211/60", "211/61", 1)))


def test_a_corrupted_output_counts_as_a_failed_op(monkeypatch):
    wl = workloads.build("plan-trap", SEED, ROOT)
    wl.ops = [op for op in wl.ops if "V40" in op.label and "k=2" in op.label][:3]
    honest = wl.ops[0].call

    def corrupted():
        plan, trace = honest()
        return replace(plan, predicted_cost=plan.predicted_cost + 1), trace

    wl.ops[0] = replace(wl.ops[0], call=corrupted)
    monkeypatch.setattr(run, "MIN_OPS", 3)
    outcome, metrics = run.end_to_end(wl, SEED, 0.0, setup_s=0.0)
    assert (outcome.attempted, outcome.failed) == (3, 1)
    assert metrics["ops_ok_frac"]["value"] == pytest.approx(2 / 3)


def test_an_op_that_raises_counts_as_a_failed_op(monkeypatch):
    wl = workloads.build("cli-verify", SEED, ROOT)
    wl.ops = wl.ops[:2]

    def broken():
        raise RuntimeError("boom")

    wl.ops[1] = replace(wl.ops[1], call=broken)
    monkeypatch.setattr(run, "MIN_OPS", 2)
    outcome, _ = run.end_to_end(wl, SEED, 0.0, setup_s=0.0)
    assert outcome.failed == 1 and "boom" in outcome.failures[0]


def test_default_seed_outputs_match_the_recorded_digests():
    wl = workloads.build("cli-verify", run.DEFAULT_SEED, ROOT)
    expected = run.expected_digests("cli-verify", run.DEFAULT_SEED)
    assert expected is not None and len(expected) == len(wl.ops)
    outcome = run.Outcome()
    run.run_pass(wl, outcome, expected)
    assert outcome.failed == 0, outcome.failures
    tampered = list(expected)
    tampered[0] = "0" * 16
    outcome = run.Outcome()
    run.run_pass(wl, outcome, tampered)
    assert outcome.failed == 1
