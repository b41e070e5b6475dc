"""``repro serve`` with the benchmark's layer probe installed.

Usage (the arguments are those of ``repro serve``)::

    PERFBENCH_TRACE_DIR=DIR python3 perfbench/serve_traced.py --jobs 2 ...

The server's main thread is profiled and its spans are kept in memory;
both are written to ``DIR/server.json`` once the server has drained
after SIGTERM.  Pool workers forked by the server append one record per
job to ``DIR/worker-<pid>.jsonl``.
"""

from __future__ import annotations

import cProfile
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from measure import Tracer  # noqa: E402


def main() -> int:
    trace_dir = Path(os.environ["PERFBENCH_TRACE_DIR"])
    tracer = Tracer()
    probe = layers.LayerProbe(tracer, worker_dir=trace_dir).install()
    from repro.cli import main as repro_main

    # The loop thread mostly blocks in epoll: profile its CPU time only.
    profile = cProfile.Profile(time.thread_time)
    profile.enable()
    try:
        return repro_main(["serve", *sys.argv[1:]])
    finally:
        profile.disable()
        probe.harvest()
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / "server.json", "w", encoding="utf-8") as fh:
            json.dump({"counters": tracer.counters,
                       "spans": [list(s) for s in tracer.spans],
                       "layer_s": layers.layer_times(profile)}, fh)


if __name__ == "__main__":
    sys.exit(main())
