"""hedgesim benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py [--workload scenario_mix|sweep_grid|cli_hedge|all]
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Each workload runs in a fresh child interpreter (worker.py), one at a time,
as a closed loop with one client. Set-up is timed over several launches and
reported as their median. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A fuller record, with
provenance and the output hash, goes to ``.perfbench_out/``. See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import proc
import workloads


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening, as a share
    moves: str | None = None  # per-layer only: the end-to-end metric it should move


END_TO_END = (
    Metric("ops_per_s", "1/s", "higher", 0.2),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_tail_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ok_rate", "ratio", "higher", 0.01),
)

_MIX_SPEED = "ops_per_s and latency on scenario_mix"
_SWEEP_SPEED = "ops_per_s and latency on sweep_grid"
_CLI_START = "latency on cli_hedge, setup_s everywhere"
PER_LAYER = (
    *(
        Metric(f"{layer}.us_per_op", "us/op", "lower", moves=_MIX_SPEED)
        for layer in (
            "scenario_io.parse",
            "scenario_io.render",
            "scenario_io.audit",
            "worlds.pool",
            "worlds.common_belief",
            "assertion.signal",
            "assertion.update",
            "assertion.posterior",
            "semantics.frame",
            "game.equilibrium",
        )
    ),
    Metric("hedging.run.us_per_op", "us/op", "lower", moves="latency on scenario_mix"),
    Metric("scenario_io.run_scenario.self_share", "ratio", "lower", moves="ops_per_s on scenario_mix"),
    Metric("scenario_io.bytes_out", "count", "lower", moves="count over scenario_mix's first block"),
    Metric("game.sweep.us_per_row", "us/row", "lower", moves=_SWEEP_SPEED),
    Metric("scenario_io.render_sweep_csv.us_per_row", "us/row", "lower", moves=_SWEEP_SPEED),
    Metric("scenario_io.render_sweep_json.us_per_row", "us/row", "lower", moves=_SWEEP_SPEED),
    Metric("game.sweep.peak_kb_per_krow", "KB/krow", "lower", moves="peak_rss_mb on sweep_grid"),
    Metric("game.sweep.rows", "count", "lower", moves="count over sweep_grid's first block"),
    Metric("hedging.run.us_per_step", "us/step", "lower", moves="latency on cli_hedge"),
    Metric("scenario_io.render_hedging.us_per_step", "us/step", "lower", moves="latency on cli_hedge"),
    Metric("hedging.run.peak_kb", "KB", "lower", moves="peak_rss_mb on cli_hedge"),
    Metric("cli.interpreter_ms", "ms", "lower", moves=_CLI_START),
    Metric("cli.import_ms", "ms", "lower", moves=_CLI_START),
    Metric("cli.unaccounted_ms", "ms", "lower", moves=_CLI_START),
    Metric("hedging.steps", "count", "lower", moves="count over cli_hedge's first block"),
    Metric("trace.overhead_share", "ratio", "lower", moves="none: traced vs untraced time per op on the named workload"),
)

REFERENCE_NS = 5_000_000  # nominal time of proc.reference_kernel
SETUP_LAUNCHES = 7
SETUP_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 170.0
# Highest first; a run falls back down this ladder only when it has fewer
# than ten samples beyond its workload's fixed tail percentile.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0, 60.0, 50.0)


def percentile(ordered: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    rank = pct / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(ordered: list[float], preferred: float) -> tuple[float, float, int]:
    """(percentile, latency, samples beyond it) with at least ten beyond if possible."""
    for pct in (preferred, *(p for p in TAIL_LADDER if p < preferred)):
        value = percentile(ordered, pct)
        beyond = sum(1 for x in ordered if x > value)
        if beyond >= 10:
            break
    return pct, value, beyond


def paced(raw: dict) -> list[float]:
    """Op latencies in ms, scaled to the reference kernel's nominal speed.

    Each op is scaled by REFERENCE_NS over the mean of the reference
    timings just before and just after it started.
    """
    times = [t for t, _ in raw["pace"]]
    durations = [d for _, d in raw["pace"]]
    scaled = []
    for start, latency in zip(raw["starts_ns"], raw["latencies_ns"]):
        after = bisect.bisect_right(times, start)
        reference = (durations[max(after - 1, 0)] + durations[min(after, len(times) - 1)]) / 2
        scaled.append(latency / 1e6 * REFERENCE_NS / reference)
    return scaled


def timing(latencies_ms: list[float], blocks: list[int], preferred_tail: float) -> dict:
    """Throughput (the median over blocks), median and tail latency of one run."""
    edges = list(itertools.accumulate(blocks, initial=0))
    ordered = sorted(latencies_ms)
    pct, value, beyond = tail(ordered, preferred_tail)
    return {
        "ops_per_s": statistics.median(
            1e3 * (end - start) / sum(latencies_ms[start:end])
            for start, end in zip(edges, edges[1:])
            if end > start
        ),
        "latency_p50_ms": percentile(ordered, 50.0),
        "latency_tail_ms": value,
        "tail": {"percentile": pct, "samples_beyond": beyond, "samples": len(ordered)},
    }


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=proc.ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(proc.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(proc.SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def worker_argv(name: str, seed: int, seconds: float, smoke: bool, *extra: str) -> list[str]:
    argv = [str(proc.HERE / "worker.py"), "--workload", name, "--seed", str(seed)]
    argv += ["--seconds", repr(seconds), *(["--smoke"] if smoke else []), *extra]
    return argv


def launch(argv: list[str], timeout_s: float) -> tuple[proc.Finished, float]:
    """Run a worker; also returns its set-up time scaled to the reference speed."""
    reference = proc.time_reference()
    finished = proc.run_child(argv, timeout_s, wait_ready=True, capture_stderr=False)
    if finished.returncode != 0:
        sys.exit(f"perfbench: worker {' '.join(argv[1:])} exited {finished.returncode}")
    return finished, finished.ready_s * REFERENCE_NS / reference


def measure(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    argv = worker_argv(name, seed, seconds, smoke)
    setups = [launch(argv + ["--setup-only"], SETUP_TIMEOUT_S) for _ in range(SETUP_LAUNCHES - 1)]
    finished, _ = last = launch(argv, RUN_TIMEOUT_S)
    setups.append(last)
    raw = json.loads(finished.stdout.decode().splitlines()[-1])
    scaled = timing(paced(raw), raw["blocks"], workload.tail_percentile)
    unscaled = timing([ns / 1e6 for ns in raw["latencies_ns"]], raw["blocks"], workload.tail_percentile)
    unscaled["reference_ms_median"] = statistics.median(d for _, d in raw["pace"]) / 1e6
    unscaled["setup_s"] = statistics.median(f.ready_s for f, _ in setups)
    attempted = raw["attempted"]
    rss_kb = finished.maxrss_kb if workload.in_process else raw["child_rss_kb"]
    values = {
        "ops_per_s": scaled["ops_per_s"],
        "latency_p50_ms": scaled["latency_p50_ms"],
        "latency_tail_ms": scaled["latency_tail_ms"],
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(scaled_s for _, scaled_s in setups),
        "ok_rate": (attempted - raw["failed"]) / attempted,
    }
    return {
        "workload": name,
        "why": workload.why,
        "correct": raw["failed"] == 0 and not raw["setup_problems"],
        "attempted": attempted,
        "failed": raw["failed"],
        "problems": raw["setup_problems"] + raw["problems"],
        "metrics": values,
        "unscaled": unscaled,
        "error_rate": raw["failed"] / attempted,
        "tail": scaled["tail"],
        "setup_samples_s": [scaled_s for _, scaled_s in setups],
        "blocks": len(raw["blocks"]),
        "outputs_sha256": raw["outputs_sha256"],
        "outputs_ops": raw["outputs_ops"],
    }


def trace(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    finished, _ = launch(worker_argv(name, seed, seconds, smoke, "--trace"), RUN_TIMEOUT_S)
    raw = json.loads(finished.stdout.decode().splitlines()[-1])
    missing = [m.name for m in PER_LAYER if m.name not in raw["per_layer"]]
    if missing:
        sys.exit(f"perfbench: the traced run did not yield {', '.join(missing)}")
    return {
        "workload": name,
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "problems": raw["problems"],
        "metrics": {m.name: raw["per_layer"][m.name] for m in PER_LAYER},
        "moves": {m.name: m.moves for m in PER_LAYER},
        "span_totals": raw["passes"],
        "spans_file": raw["spans_file"],
    }


def print_human(result: dict, specs) -> None:
    print(f"# {result['workload']}: attempted {result['attempted']}, failed {result['failed']}")
    for spec in specs:
        value = result["metrics"][spec.name]
        note = ""
        if spec.name == "latency_tail_ms":
            t = result["tail"]
            note = f"  (p{t['percentile']:g}, {t['samples_beyond']} of {t['samples']} samples beyond)"
        print(f"  {spec.name:44s} {value:14.6g} {spec.unit}{note}")
    if "error_rate" in result:
        print(f"  {'error_rate':44s} {result['error_rate']:14.6g} ratio")
        print(f"  outputs_sha256 {result['outputs_sha256']} over the first {result['outputs_ops']} ops")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, seed 0 and a short run, for the benchmark's tests"
    )
    args = parser.parse_args()
    proc.require_source()
    # One CPU for this process and, by inheritance, every child: the
    # reference kernel then times the CPU that the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    proc.time_reference()  # the first run pays one-off costs
    if args.smoke:
        args.seed, args.seconds = 0, min(args.seconds, 0.2)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    specs = PER_LAYER if args.trace else END_TO_END
    started = provenance(args.seed)
    results = [
        (trace if args.trace else measure)(name, args.seed, args.seconds, args.smoke) for name in names
    ]
    proc.OUT_DIR.mkdir(exist_ok=True)
    for result in results:
        print_human(result, specs)
        record = {"provenance": started, "seconds": args.seconds, "smoke": args.smoke, **result}
        path = proc.OUT_DIR / f"result-{result['workload']}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"# seed {args.seed}, records in {proc.OUT_DIR.relative_to(proc.ROOT)}/")

    def keyed(result, name):
        return name if len(results) == 1 else f"{result['workload']}.{name}"

    units = {spec.name: spec.unit for spec in specs}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            keyed(r, name): {"value": value, "unit": units[name]}
            for r in results
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
