"""Spans around calls into hedgesim's layers, recorded from outside the package.

A traced run swaps each named public function for a wrapper that records a
span (name, start, end, parent span, op id) and calls the original. The
swap covers every ``hedgesim`` module that holds the function, so calls
between the package's own modules are traced too. Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

# (module, public name, span name). A dotted name is a method on a class.
SCENARIO_LAYERS = (
    ("hedgesim.scenario_io", "parse_scenario", "scenario_io.parse"),
    ("hedgesim.scenario_io", "run_scenario", "scenario_io.run_scenario"),
    ("hedgesim.scenario_io", "audit_report", "scenario_io.audit"),
    ("hedgesim.scenario_io", "render_report_json", "scenario_io.render"),
    ("hedgesim.scenario_io", "render_report_csv", "scenario_io.render"),
    ("hedgesim.scenario_io", "render_dialogue_jsonl", "scenario_io.render"),
    ("hedgesim.worlds", "pool_states", "worlds.pool"),
    ("hedgesim.worlds", "common_belief", "worlds.common_belief"),
    ("hedgesim.assertion", "speaker_signal", "assertion.signal"),
    ("hedgesim.assertion", "update", "assertion.update"),
    ("hedgesim.assertion", "SignalLikelihoods.for_common_ground", "assertion.posterior"),
    ("hedgesim.assertion", "listener_posterior", "assertion.posterior"),
    ("hedgesim.semantics", "check_frame", "semantics.frame"),
    ("hedgesim.game", "equilibrium_region", "game.equilibrium"),
    ("hedgesim.hedging", "run_hedging", "hedging.run"),
)
SWEEP_LAYERS = (
    ("hedgesim.game", "threshold_sweep", "game.sweep"),
    ("hedgesim.scenario_io", "render_sweep_csv", "scenario_io.render_sweep_csv"),
    ("hedgesim.scenario_io", "render_sweep_json", "scenario_io.render_sweep_json"),
)


class Tracer:
    """Collects spans as (name, start_ns, end_ns, parent index, op id)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def add(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Record a span timed elsewhere; returns its index."""
        self.spans.append((name, start, end, parent, self.op))
        return len(self.spans) - 1

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive time and self time in ns.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += end - start - covered[index]
        return dict(totals)

    def write(self, path: Path, workload: str) -> None:
        """Append the spans to ``path``, one JSON array per line."""
        with path.open("a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([workload, *span]) + "\n")


def _resolve(module_name: str, dotted: str):
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def traced(tracer: Tracer, layers):
    """Trace calls to ``layers`` inside the block, then put the originals back."""
    restore = []
    try:
        for module_name, dotted, span in layers:
            owner, attr = _resolve(module_name, dotted)
            if isinstance(owner, type):
                restore.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, staticmethod(tracer.wrap(span, getattr(owner, attr))))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(span, original)
            for name, module in list(sys.modules.items()):
                if name != "hedgesim" and not name.startswith("hedgesim."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
