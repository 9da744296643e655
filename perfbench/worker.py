"""Run one workload's timed CLI commands in a fresh process.

Usage: python3 worker.py SPEC.json

SPEC names the checkout's `src` directory, the argv of each command in one
round, the output files a round writes, the run length and whether to trace.
The worker repeats whole rounds through `spvs.cli.main` until the run length
has passed, then writes a result JSON to SPEC["result"]: per-round wall times
and output digests, the process's peak resident memory, and, when tracing,
the tracer's aggregates.  With tracing, a first untraced warm-up round is
followed by rounds that alternate traced and untraced, so that one process
measures both sides of the tracing overhead after its one-time costs.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from spvs import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    rounds = []
    start = time.perf_counter()
    while True:
        warmup = tracer is not None and not rounds
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        times = []
        try:
            for argv in spec["commands"]:
                t0 = time.perf_counter()
                rc = cli.main(argv)
                times.append(time.perf_counter() - t0)
                if rc != 0:
                    print(f"command {argv[0]} exited {rc}", file=sys.stderr)
                    return 1
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({
            "traced": traced,
            "warmup": warmup,
            "wall_s": sum(times),
            "command_s": times,
            "digest": _digest(spec["outputs"]),
        })
        done = time.perf_counter() - start >= spec["seconds"]
        if done and (tracer is None or len(rounds) >= 3):
            break

    result = {
        "rounds": rounds,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.export() if tracer else None,
    }
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
