"""Paths, child processes and the reference kernel, shared by the benchmark's scripts.

Every child is started with the interpreter running the benchmark, reaped
with ``os.wait4`` so its peak RSS is known, and killed if it outlives its
time limit, so no process is left behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def require_source() -> None:
    """Exit with code 1 unless the program's sources sit beside the benchmark."""
    if not (SRC / "hedgesim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hedgesim sources under {SRC}; run from a full checkout")


def use_source() -> None:
    """Import hedgesim from the checkout's src/, never from an installed copy."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def reference_kernel() -> int:
    """A fixed slice of pure-Python work (floats, formatting, dicts, JSON)
    like hedgesim's own, timed next to the ops to follow the host's speed."""
    payload = [
        {"x": format(i / 977, ".12g"), "y": format((i * 7919) % 1000 / 1000 * (1 - i / 977), ".12g")}
        for i in range(1500)
    ]
    return len(json.dumps(payload))


def time_reference() -> int:
    """Nanoseconds one run of the reference kernel takes now."""
    start = perf_counter_ns()
    reference_kernel()
    return perf_counter_ns() - start


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


@dataclass
class Finished:
    """A reaped child: its output, exit code, peak RSS and timings."""

    stdout: bytes
    stderr: bytes
    returncode: int
    maxrss_kb: int
    wall_s: float
    ready_s: float | None  # launch to the first stdout line, when asked for


def run_child(
    argv: list[str], timeout_s: float, wait_ready: bool = False, capture_stderr: bool = True
) -> Finished:
    """Run ``python argv...`` to completion and reap it with ``os.wait4``.

    With ``wait_ready`` the first stdout line is timed separately: the child
    prints it once its set-up is done. A child still running after
    ``timeout_s`` is killed; it is reaped either way.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else None,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    # A session of its own lets the watchdog take down the child's own
    # children as well.
    watchdog = threading.Timer(timeout_s, os.killpg, (child.pid, signal.SIGKILL))
    watchdog.start()
    status = None
    try:
        ready_s = None
        first = b""
        if wait_ready:
            first = child.stdout.readline()
            ready_s = time.perf_counter() - start
        stdout = first + child.stdout.read()
        # Children write little to stderr, so reading it after stdout's end
        # cannot fill the pipe and stall them.
        stderr = child.stderr.read() if capture_stderr else b""
        _, status, usage = os.wait4(child.pid, 0)
        wall_s = time.perf_counter() - start
    finally:
        watchdog.cancel()
        if status is None:
            os.killpg(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
        # The child is reaped here, so Popen must not wait for it again.
        child.returncode = -9 if status is None else os.waitstatus_to_exitcode(status)
        child.stdout.close()
        if capture_stderr:
            child.stderr.close()
    return Finished(
        stdout=stdout,
        stderr=stderr,
        returncode=child.returncode,
        maxrss_kb=usage.ru_maxrss,
        wall_s=wall_s,
        ready_s=ready_s,
    )
