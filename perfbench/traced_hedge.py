"""Traced stand-in for ``python -m hedgesim hedge ...``, one fresh interpreter per op.

It does what the ``hedge`` subcommand does, through hedgesim's public
names, and times each stage: the import, argument parsing, ``GameConfig``,
``run_hedging``, the render and the write. Nothing runs before it in the
interpreter, so the recurrence cache is as cold as in the real CLI. It
prints the CLI's exact output on stdout, then one JSON line on stderr with
the spans and the RSS growth during ``run_hedging``:

    PYTHONPATH=src python perfbench/traced_hedge.py hedge --delta 0.7 --gamma 0.2 --steps 500
"""

import json
import resource
import sys
from time import perf_counter_ns

spans = []


def timed(name, fn, *args, **kwargs):
    start = perf_counter_ns()
    value = fn(*args, **kwargs)
    spans.append((name, start, perf_counter_ns()))
    return value


def write(text):
    sys.stdout.write(text)
    sys.stdout.flush()


def main(argv):
    start = perf_counter_ns()
    import hedgesim.cli as cli
    from hedgesim import scenario_io
    from hedgesim.game import GameConfig
    from hedgesim.hedging import run_hedging

    spans.append(("cli.import", start, perf_counter_ns()))
    args = timed("cli.parse_args", lambda: cli.build_parser().parse_args(argv))
    config = timed("game.config", GameConfig, delta=args.delta, gamma=args.gamma)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = timed("hedging.run", run_hedging, config, max_steps=args.steps, tolerance=args.tolerance)
    rss_growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
    json_format = args.format == "json"
    render = scenario_io.render_hedging_json if json_format else scenario_io.render_hedging_csv
    text = timed("scenario_io.render_hedging", render, trace)
    timed("cli.write", write, text)
    sys.stderr.write(json.dumps({"spans": spans, "run_hedging_peak_kb": rss_growth}) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
