"""The benchmark's smoke run writes the same outputs: its hashes are pinned.

``perfbench/run.py --smoke`` drives each workload over seeded random inputs
(scenario files, sweep grids, ``hedge`` runs) and hashes the text every
operation wrote. Pinning those hashes extends byte-stability beyond the
golden files to the benchmark's random forced marches and grids.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"

SMOKE_SHA256 = {
    "scenario_mix": "dbf3756a5e94b9f4714e1375a212b2ee856b5af49924ff6883e8266974504aff",
    "sweep_grid": "98b129a86bc18ef78e200322d8cc3d8eb1610f23ef8c5c9750ca2e4edd49c2b2",
    "cli_hedge": "c1be2c7dbb7007f6cdeb155d54a8958578e0f299f5ff2d58f2b615505d7bdaa6",
}


def test_smoke_outputs_keep_their_hashes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
    hashes = {
        workload: json.loads((OUT_DIR / f"result-{workload}-trace0.json").read_text())["outputs_sha256"]
        for workload in SMOKE_SHA256
    }
    assert hashes == SMOKE_SHA256
