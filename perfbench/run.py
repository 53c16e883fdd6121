"""chunkwise benchmark: one seeded workload, timed end to end or traced per layer.

Run from the root of a checkout (the directory holding ``src/`` and
``fixtures/``):

    python3 perfbench/run.py --workload plan-trap --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a human-readable summary goes to stderr. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. The exit code is 0 only when every op passed its check.

One client runs ops back to back (a closed loop) in this process, with no
extra threads. The timed loop runs whole passes over the workload's op list
until at least ``--seconds`` of op time and at least ``MIN_OPS`` ops are in,
so every run times the same mix of ops.

Times are calibrated: a fixed exact-rational loop that never touches
chunkwise (``reference``) is timed right before and right after every op,
and the op's wall time is scaled by ``REFERENCE_S`` over the mean of the two.
On a shared host the CPU speed drifts by tens of percent within seconds;
the drift hits the op and the loop around it alike, so the scaled time
measures the op's own cost. Raw wall-time percentiles go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
MIN_OPS = 100  # so that ten samples lie beyond op_p90_ms
SETUP_REPEATS = 3
MEMORY_CAP = 3 << 30  # address-space cap: a runaway op fails instead of swapping
REFERENCE_S = 0.001  # nominal duration of reference(); about its median on a 2-core Xeon host
WORKLOADS = ("edge-deep", "plan-trap", "multi-agent", "cli-verify")


@dataclass
class Outcome:
    """What the timed loop saw: op times, failures and output facts."""

    times: list[float] = field(default_factory=list)  # calibrated, seconds
    wall: list[float] = field(default_factory=list)  # raw, seconds
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)  # first pass, by op index
    max_den_bits: int = 1
    passes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def reference() -> float:
    """Time one fixed exact-rational loop that never touches chunkwise."""
    start = time.perf_counter()
    x, q = Fraction(0), Fraction(7, 4)
    for i in range(1, 80):
        x = x * q / (q + i) + Fraction(i, 3)
    return time.perf_counter() - start


def calibrated(call):
    """Run ``call``; return its result, its calibrated and its raw wall time."""
    before = reference()
    start = time.perf_counter()
    try:
        result = call()
    finally:
        wall = time.perf_counter() - start
        after = reference()
    return result, wall * 2 * REFERENCE_S / (before + after), wall


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def pass_digest(op_digests: list[str]) -> str:
    return digest("\n".join(op_digests))


def expected_digests(workload: str, seed: int) -> list[str] | None:
    """Recorded per-op digests for the default seed, if this run uses it."""
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    entry = recorded.get("workloads", {}).get(workload)
    return None if entry is None else entry["op_digests"]


def run_pass(wl, outcome: Outcome, expected: list[str] | None, runner=None) -> None:
    """Time every op of the pass once; check each output outside the timing.

    The first pass runs each op's check and records its digest; later passes
    must reproduce that digest byte for byte. ``runner`` (the tracer) wraps
    each call when the run is traced.
    """
    import workloads

    first = outcome.passes == 0
    for i, op in enumerate(wl.ops):
        error, result, scaled, wall = None, None, float("nan"), float("nan")
        call = (lambda: runner(op.kind, op.call)) if runner else op.call
        start = time.perf_counter()
        try:
            result, scaled, wall = calibrated(call)
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc(limit=3)
            scaled = wall = time.perf_counter() - start
        outcome.times.append(scaled)
        outcome.wall.append(wall)
        if error is not None:
            outcome.fail(f"{op.label}: raised\n{error}")
            if first:
                outcome.digests.append("error")
            continue
        try:
            text = op.canon(result)
            problems = op.check(result) if first else []
        except Exception:
            text, problems = "", [f"check raised\n{traceback.format_exc(limit=3)}"]
        d = digest(text)
        if first:
            outcome.digests.append(d)
            outcome.max_den_bits = max(outcome.max_den_bits, workloads.den_bits(text))
            if expected is not None and (i >= len(expected) or expected[i] != d):
                problems.append("output digest differs from the one recorded for the default seed")
        elif d != outcome.digests[i]:
            problems.append("output differs from the first pass")
        if problems:
            outcome.fail(f"{op.label}: " + "; ".join(problems))
    outcome.passes += 1


def timed_loop(wl, seconds: float, expected) -> Outcome:
    """Whole passes until ``seconds`` of op time and ``MIN_OPS`` ops are in."""
    outcome = Outcome()
    while outcome.passes == 0 or sum(outcome.times) < seconds or outcome.attempted < MIN_OPS:
        run_pass(wl, outcome, expected)
    return outcome


def percentile_ms(times: list[float], which: int) -> float:
    """``which``-th decile (5 = median, 9 = p90) in milliseconds."""
    if len(times) < 2:
        return times[0] * 1e3
    return statistics.quantiles(times, n=10)[which - 1] * 1e3


def setup(workload: str, seed: int):
    """Import chunkwise, build the seeded pass and run one warm-up op.

    Timed (calibrated) ``SETUP_REPEATS`` times; each repeat drops the
    chunkwise and benchmark modules first, so it pays the import again.
    Returns the last workload and the median set-up time.
    """
    times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        for name in list(sys.modules):
            if name.split(".")[0] in ("chunkwise", "workloads", "instances"):
                del sys.modules[name]
        gc.collect()

        def build():
            built = importlib.import_module("workloads").build(workload, seed, ROOT)
            built.warmup.call()
            return built

        wl, scaled, _ = calibrated(build)
        times.append(scaled)
    return wl, statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, seed: int, seconds: float, setup_s: float) -> tuple[Outcome, dict]:
    outcome = timed_loop(wl, seconds, expected_digests(wl.name, seed))
    ok = 1 - outcome.failed / outcome.attempted
    metrics = {
        "op_p50_ms": metric(percentile_ms(outcome.times, 5), "ms"),
        "op_p90_ms": metric(percentile_ms(outcome.times, 9), "ms"),
        "ops_per_s": metric(outcome.attempted / sum(outcome.times), "1/s"),
        "ops_ok_frac": metric(ok, "fraction"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "max_den_bits": metric(outcome.max_den_bits, "bits"),
        "setup_s": metric(setup_s, "s"),
    }
    return outcome, metrics


# unit of a per-layer metric, by the last part of its name
PER_LAYER_UNITS = {
    "calls": "count",
    "local_op_calls": "count",
    "expanded_vertices": "count",
    "tie_events": "count",
    "grid_points": "count",
    "spans": "count",
    "self_s": "s",
    "self_share": "fraction",
    "incl_share": "fraction",
    "candidate_yield": "ratio",
    "repeat_ratio": "ratio",
    "overhead_ratio": "ratio",
    "max_den_bits": "bits",
    "stdout_bytes": "bytes",
    "untraced_op_p50_ms": "ms",
    "op_p50_ms": "ms",
}


def per_layer(wl, seed: int, seconds: float) -> tuple[Outcome, dict]:
    """One untraced pass for reference, then traced passes until ``seconds``.

    Traced passes stop before one would overrun ``seconds``; there is always
    at least one. Every metric is a per-pass value.
    """
    import tracing
    import workloads

    expected = expected_digests(wl.name, seed)
    plain = Outcome()
    run_pass(wl, plain, expected)
    tracer = tracing.Tracer()
    tracer.install((workloads,))
    traced = Outcome()
    traced.digests = plain.digests
    traced.passes = 1  # outputs must match the untraced pass

    def runner(kind, call):
        result = tracer.run_op(kind, call)
        if isinstance(result, workloads.CliResult):
            tracer.counters["cli.stdout_bytes"] += len(result.stdout.encode("utf-8"))
        return result

    try:
        while True:
            before = sum(traced.times)
            run_pass(wl, traced, None, runner)
            lap = sum(traced.times) - before
            if before + 2 * lap > seconds:
                break
    finally:
        tracer.uninstall()
    passes = traced.passes - 1
    values = tracer.summarize(passes)
    untraced_p50 = percentile_ms(plain.times, 5)
    traced_p50 = percentile_ms(traced.times, 5)
    values["trace.untraced_op_p50_ms"] = untraced_p50
    values["trace.op_p50_ms"] = traced_p50
    values["trace.overhead_ratio"] = traced_p50 / untraced_p50
    tracer.write_spans(ROOT / ".perfbench" / "spans" / f"{wl.name}-seed{seed}.tsv.gz")
    outcome = Outcome(
        times=plain.times + traced.times,
        wall=plain.wall + traced.wall,
        failed=plain.failed + traced.failed,
        failures=plain.failures + traced.failures,
        digests=plain.digests,
        passes=passes,
    )
    metrics = {name: metric(v, PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]) for name, v in values.items()}
    return outcome, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare() -> bool:
    """Check that this is a checkout, put its sources first on the path and
    work from its root; cap the address space so a runaway op fails loudly."""
    for needed in (ROOT / "src" / "chunkwise" / "__init__.py", ROOT / "fixtures" / "s32.json"):
        if not needed.is_file():
            sys.stderr.write(f"error: {needed} is missing; run from a chunkwise checkout\n")
            return False
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    wl, setup_s = setup(args.workload, args.seed)
    if args.trace:
        outcome, metrics = per_layer(wl, args.seed, args.seconds)
    else:
        outcome, metrics = end_to_end(wl, args.seed, args.seconds, setup_s)
    report(wl, args, outcome, metrics)
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def report(wl, args, outcome: Outcome, metrics: dict) -> None:
    """Human-readable summary on stderr."""
    err = sys.stderr
    passes = f"1 untraced + {outcome.passes} traced" if args.trace else str(outcome.passes)
    err.write(
        f"# {wl.name} seed={args.seed}: {outcome.attempted} ops in {passes} passes "
        f"of {len(wl.ops)}, {outcome.failed} failed\n"
    )
    err.write(f"# pass digest {pass_digest(outcome.digests)}\n")
    stats = list(wl.instances.values())
    if stats:
        regimes = {r: sum(st[r] for st in stats) for r in ("delta_le0", "delta_interior", "delta_gt_x")}
        overpay = statistics.mean(float(Fraction(st["overpay_b2"])) for st in stats)
        err.write(
            f"# {len(stats)} trap DAGs, V {min(st['V'] for st in stats)}-{max(st['V'] for st in stats)}, "
            f"E {min(st['E'] for st in stats)}-{max(st['E'] for st in stats)}, edges by delta regime "
            f"{regimes}, mean unaided bias-2 overpay {overpay:.4f}\n"
        )
        path = ROOT / ".perfbench" / "instances" / f"{wl.name}-seed{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(wl.instances, indent=1) + "\n", encoding="utf-8")
    if not args.trace:
        err.write(f"  {'ops_failed_frac':44s} {outcome.failed / outcome.attempted:.6g}\n")
        err.write(f"  {'raw wall op_p50_ms':44s} {percentile_ms(outcome.wall, 5):.6g} ms\n")
        err.write(f"  {'raw wall op_p90_ms':44s} {percentile_ms(outcome.wall, 9):.6g} ms\n")
    for name, m in metrics.items():
        err.write(f"  {name:44s} {m['value']:.6g} {m['unit']}\n")
    for failure in outcome.failures:
        err.write(f"FAILED {failure}\n")


if __name__ == "__main__":
    sys.exit(main())
