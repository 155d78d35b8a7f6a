"""Smoke tests: the benchmark's tiny mode end to end, its registry against
BENCHMARK.json, and its output checks against corrupted outputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import proc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_smoke_run_reports_every_end_to_end_metric():
    result = last_json(bench("--smoke"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{m.name}" for w in workloads.WORKLOADS for m in run.END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_smoke_trace_reports_every_per_layer_metric():
    result = last_json(bench("--smoke", "--workload", "scenario_mix", "--trace", "1"))
    assert result["correct"] is True
    assert set(result["metrics"]) == {m.name for m in run.PER_LAYER}
    record = json.loads((proc.OUT_DIR / "result-scenario_mix-trace1.json").read_text())
    assert record["provenance"]["seed"] == 0


def test_benchmark_json_matches_the_metric_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in run.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in run.PER_LAYER
    ]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--smoke", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_tail_falls_back_when_too_few_samples_lie_beyond():
    ordered = [float(x) for x in range(100)]
    assert run.tail(ordered, 99.0)[0] == 90.0
    assert run.tail(ordered, 50.0)[2] == 50


def test_checks_reject_a_wrong_hedging_step():
    inp = workloads.HedgeInput(steps=4, delta=0.7, gamma=0.2, fmt="csv")
    values = workloads.recurrence(4)
    rows = ["n,p_speaker_a,p_listener_a,eu_a,eu_b"]
    for n in range(5):
        speaker, listener = workloads.propensities(values, n)
        eu_a, eu_b = workloads.hedged_eu(0.7, 0.2, speaker, listener)
        rows.append(",".join([str(n)] + [format(x, ".12g") for x in (speaker, listener, eu_a, eu_b)]))
    good = "\n".join(rows) + "\n"
    finished = proc.Finished(good.encode(), b"", 0, 0, 0.0, None)
    assert workloads.CliHedge.check(inp, finished) == []
    bad = good.replace(rows[3].split(",")[1], "0.5", 1)
    assert workloads.CliHedge.check(inp, proc.Finished(bad.encode(), b"", 0, 0, 0.0, None))
    assert workloads.CliHedge.check(inp, proc.Finished(good.encode(), b"boom", 1, 0, 0.0, None))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_checks_reject_a_wrong_sweep_region(fmt):
    proc.use_source()
    import hedgesim

    sweep = workloads.SweepGrid(smoke=True)
    sweep.bind(hedgesim)
    inp = workloads.SweepInput(k=5, tau=0.3, fmt=fmt)
    text = sweep.run(inp)
    assert sweep.check(inp, text) == []
    assert "AA" in text
    assert sweep.check(inp, text.replace("AA", "BB", 1))
