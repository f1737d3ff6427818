"""Run one onticlab CLI invocation with timing hooks, optionally traced.

    python3 bench/child.py TIMING_JSON [SPANS_JSONL] -- CLI_ARGS...

The CLI entry point `onticlab.cli.main` runs unchanged.  The only hook wraps
the CLI's check runners to stamp the start of the first check; the end is
stamped after the reports are written and stdout is flushed.  Times use
`time.perf_counter`, which on Linux reads CLOCK_MONOTONIC, the same clock the
parent reads before it spawns this process, so the parent can subtract them.
With SPANS_JSONL the tracer in `spans.py` wraps every layer first.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    own, cli_args = argv[:sep], argv[sep + 1:]
    timing_path = own[0]
    spans_path = own[1] if len(own) > 1 else None

    from onticlab import cli

    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    first: dict[str, float] = {}

    def stamp_first(runner):
        def timed(*args, **kwargs):
            if not first:
                first["wall"] = time.perf_counter()
                first["cpu"] = time.process_time()
            return runner(*args, **kwargs)
        return timed

    for name, runner in list(cli.CHECK_RUNNERS.items()):
        cli.CHECK_RUNNERS[name] = stamp_first(runner)

    code = cli.main(cli_args)
    sys.stdout.flush()
    end_wall, end_cpu = time.perf_counter(), time.process_time()

    timing = {
        "first_check": first.get("wall"),
        "wall_s": end_wall - first["wall"] if first else None,
        "cpu_s": end_cpu - first["cpu"] if first else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": _thread_count(),
    }
    if tracer is not None:
        timing["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
