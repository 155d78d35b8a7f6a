"""One benchmark child: set a workload up, print READY, run it, report JSON.

    python perfbench/worker.py --workload scenario_mix --seed 1 --seconds 20 [--setup-only | --trace] [--smoke]

``run.py`` starts it and times set-up from the launch to the READY line.
Then the worker runs whole blocks of ops in a closed loop with one client
until ``--seconds`` have passed, checks every op's output, and prints one
JSON line of raw measurements. With ``--trace`` it runs the traced passes
instead and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import time
import tracemalloc
from time import perf_counter_ns

import proc
import tracing
import workloads

MAX_PROBLEMS = 5
PACE_PERIOD_NS = 200_000_000


class Run:
    """What a sequence of ops produced: counts, latencies, output hash."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies_ns: list[int] = []
        self.starts_ns: list[int] = []
        self.blocks: list[int] = []  # latencies recorded per block
        self.pace: list[tuple[int, int]] = []  # (start, duration) of each reference run
        self.sha = hashlib.sha256()
        self.hashed_ops = 0
        self.bytes_out = 0
        self.child_rss_kb = 0

    def pace_check(self, force: bool = False) -> None:
        """Time the reference kernel if the last timing is old enough."""
        start = perf_counter_ns()
        if force or not self.pace or start - self.pace[-1][0] >= PACE_PERIOD_NS:
            self.pace.append((start, proc.time_reference()))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "outputs_sha256": self.sha.hexdigest(),
            "outputs_ops": self.hashed_ops,
        }


def set_up(name: str, seed: int, smoke: bool):
    """Import, generate the first block, warm up and run the set-up checks."""
    workload = workloads.WORKLOADS[name](smoke)
    proc.use_source()
    if workload.in_process:
        import hedgesim.scenario_io
        import hedgesim.semantics

        workload.bind(hedgesim)
    blocks = workload.blocks(random.Random(seed))
    first = next(blocks)
    proc.time_reference()  # the first run pays one-off costs
    problems = []
    for inp in workload.warmup_inputs(random.Random(f"warm-up {seed}")):
        problems += workload.check(inp, workload.run(inp))
    problems += workload.setup_checks()
    return workload, first, blocks, problems


def run_block(workload, block, run: Run, hashed: bool, after_op=None) -> int:
    """Run and check one block of ops; returns the ns spent inside the ops."""
    spent = 0
    timed = len(run.latencies_ns)
    for inp in block:
        run.attempted += 1
        run.pace_check()
        start = perf_counter_ns()
        try:
            result = workload.run(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            run.fail(f"{inp}: {type(exc).__name__}: {exc}")
            continue
        end = perf_counter_ns()
        run.pace_check()
        spent += end - start
        run.latencies_ns.append(end - start)
        run.starts_ns.append(start)
        try:
            problems = workload.check(inp, result)
        except Exception as exc:
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            run.fail(f"{inp}: {problems[0]}")
        if hashed:
            data = workload.output_bytes(result)
            run.sha.update(data)
            run.hashed_ops += 1
            run.bytes_out += len(data)
        if isinstance(result, proc.Finished):
            run.child_rss_kb = max(run.child_rss_kb, result.maxrss_kb)
        if after_op is not None:
            after_op(inp, result, start, end)
    run.blocks.append(len(run.latencies_ns) - timed)
    return spent


def measure(workload, first, blocks, seconds: float) -> dict:
    run = Run()
    start = time.perf_counter()
    block, index = first, 0
    while True:
        run_block(workload, block, run, hashed=index == 0)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
        block = next(blocks)
    run.pace_check(force=True)
    return {
        **run.summary(),
        "latencies_ns": run.latencies_ns,
        "starts_ns": run.starts_ns,
        "pace": run.pace,
        "blocks": run.blocks,
        "child_rss_kb": run.child_rss_kb,
    }


# ---------------------------------------------------------------------------
# Traced passes. The pass for the named workload alternates untraced and
# traced blocks for ``seconds``, which gives the tracing overhead; the other
# workloads get one traced block each, so every per-layer metric is reported.


def alternate(workload, first, blocks, seconds, run_traced_block, run: Run):
    """Returns per-block (traced, ops, ns)."""
    timeline = []
    start = time.perf_counter()
    block, index = first, 0
    while True:
        is_traced = seconds is None or index % 2 == 1
        if is_traced:
            spent = run_traced_block(block, hashed=index == 0)
        else:
            spent = run_block(workload, block, run, hashed=index == 0)
        timeline.append((is_traced, len(block), spent))
        index += 1
        if seconds is None or (index >= 2 and time.perf_counter() - start >= seconds):
            return timeline
        block = next(blocks)


def overhead(timeline) -> dict:
    per_op = {}
    for flag in (False, True):
        ops = sum(n for traced, n, _ in timeline if traced is flag)
        spent = sum(ns for traced, _, ns in timeline if traced is flag)
        per_op[flag] = spent / ops if ops else None
    if per_op[False] is None:
        return {}
    return {"trace.overhead_share": per_op[True] / per_op[False] - 1.0}


def traced_ops(timeline) -> int:
    return sum(n for traced, n, _ in timeline if traced)


def trace_scenarios(workload, first, blocks, seconds, tracer, run):
    def traced_block(block, hashed):
        with tracing.traced(tracer, tracing.SCENARIO_LAYERS):
            return run_block(workload, block, run, hashed, after_op=next_op)

    def next_op(*_):
        tracer.op += 1

    timeline = alternate(workload, first, blocks, seconds, traced_block, run)
    ops = traced_ops(timeline)
    totals = tracer.totals()
    metrics = {
        f"{span}.us_per_op": totals.get(span, {"self_ns": 0})["self_ns"] / ops / 1e3
        for span in sorted({span for _, _, span in tracing.SCENARIO_LAYERS})
        if span != "scenario_io.run_scenario"
    }
    whole = totals["scenario_io.run_scenario"]
    metrics["scenario_io.run_scenario.self_share"] = whole["self_ns"] / whole["ns"]
    metrics["scenario_io.bytes_out"] = run.bytes_out
    return metrics, timeline


def trace_sweeps(workload, first, blocks, seconds, tracer, run):
    rows = {"csv": 0, "json": 0}

    def count_rows(inp, *_):
        rows[inp.fmt] += inp.k * inp.k
        tracer.op += 1

    def traced_block(block, hashed):
        with tracing.traced(tracer, tracing.SWEEP_LAYERS):
            return run_block(workload, block, run, hashed, after_op=count_rows)

    timeline = alternate(workload, first, blocks, seconds, traced_block, run)
    totals = tracer.totals()
    metrics = {
        "game.sweep.us_per_row": totals["game.sweep"]["self_ns"] / sum(rows.values()) / 1e3,
        "game.sweep.rows": sum(inp.k * inp.k for inp in first),
    }
    for fmt in ("csv", "json"):
        span = f"scenario_io.render_sweep_{fmt}"
        metrics[f"{span}.us_per_row"] = totals[span]["self_ns"] / rows[fmt] / 1e3
    # Allocation tracing slows every allocation, so memory gets a pass of
    # its own, at the largest size, outside the timed blocks.
    k = max(inp.k for inp in first)
    game = workload.hs.game
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = game.threshold_sweep(game.grid(k), game.grid(k), tau=0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    metrics["game.sweep.peak_kb_per_krow"] = peak / 1024 / (len(held) / 1000)
    return metrics, timeline


def median_wall_ms(argv: list[str], repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        finished = proc.run_child(argv, workloads.CHILD_TIMEOUT_S)
        if finished.returncode != 0:
            raise RuntimeError(f"python {' '.join(argv)} exited {finished.returncode}")
        walls.append(finished.wall_s * 1e3)
    return statistics.median(walls)


def trace_cli(workload, first, blocks, seconds, tracer, run, repeats=5):
    stats = {"steps": 0, "peak_kb": 0}

    def record_child(inp, finished, start, end):
        if finished.returncode == 0:  # a failed child is already a failed op
            report = json.loads(finished.stderr.decode().splitlines()[-1])
            parent = tracer.add("cli.op", start, end)
            for name, child_start, child_end in report["spans"]:
                tracer.add(name, child_start, child_end, parent)
            stats["steps"] += inp.steps
            stats["peak_kb"] = max(stats["peak_kb"], report["run_hedging_peak_kb"])
        tracer.op += 1

    def traced_block(block, hashed):
        workload.prefix = workloads.TRACED_HEDGE
        try:
            return run_block(workload, block, run, hashed, after_op=record_child)
        finally:
            workload.prefix = workloads.CLI_MODULE

    timeline = alternate(workload, first, blocks, seconds, traced_block, run)
    totals = tracer.totals()
    ops = traced_ops(timeline)
    interpreter_ms = median_wall_ms(["-c", "pass"], repeats)
    import_ms = median_wall_ms(["-c", "import hedgesim.cli"], repeats) - interpreter_ms
    # A child's spans all share the monotonic clock with the worker, so the
    # op span's self time is what happens outside the stand-in's own stages:
    # interpreter start-up and exit, and the pipe back to the worker.
    outside_ms = totals["cli.op"]["self_ns"] / ops / 1e6
    metrics = {
        "hedging.run.us_per_step": totals["hedging.run"]["self_ns"] / stats["steps"] / 1e3,
        "scenario_io.render_hedging.us_per_step": (
            totals["scenario_io.render_hedging"]["self_ns"] / stats["steps"] / 1e3
        ),
        "hedging.run.peak_kb": stats["peak_kb"],
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "cli.unaccounted_ms": outside_ms - interpreter_ms,
        "hedging.steps": sum(inp.steps for inp in first),
    }
    return metrics, timeline


TRACE_PASSES = {
    "scenario_mix": trace_scenarios,
    "sweep_grid": trace_sweeps,
    "cli_hedge": trace_cli,
}


def trace(named: str, seed: int, seconds: float, smoke: bool) -> dict:
    metrics: dict[str, float] = {}
    passes = {}
    spans_path = proc.OUT_DIR / f"spans-{named}.jsonl"
    spans_path.write_text("", encoding="utf-8")
    for name in [named, *(n for n in TRACE_PASSES if n != named)]:
        workload, first, blocks, problems = set_up(name, seed, smoke)
        run = Run()
        for problem in problems:
            run.fail(f"set-up: {problem}")
        tracer = tracing.Tracer()
        budget = seconds if name == named else None
        found, timeline = TRACE_PASSES[name](workload, first, blocks, budget, tracer, run)
        metrics.update(found)
        if name == named:
            metrics.update(overhead(timeline))
        passes[name] = {**run.summary(), "span_totals": tracer.totals()}
        tracer.write(spans_path, name)
    return {
        "attempted": sum(p["attempted"] for p in passes.values()),
        "failed": sum(p["failed"] for p in passes.values()),
        "problems": [f"{n}: {m}" for n, p in passes.items() for m in p["problems"]],
        "per_layer": metrics,
        "passes": passes,
        "spans_file": str(spans_path.relative_to(proc.ROOT)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    proc.OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        print("READY", flush=True)
        result = trace(args.workload, args.seed, args.seconds, args.smoke)
    else:
        workload, first, blocks, problems = set_up(args.workload, args.seed, args.smoke)
        print("READY", flush=True)
        if args.setup_only:
            return
        result = measure(workload, first, blocks, args.seconds)
        result["setup_problems"] = problems
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
