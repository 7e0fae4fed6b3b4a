"""One phase of one benchmark iteration, in a fresh interpreter.

    python3 perfbench/phase.py <phase> --seed N --workdir DIR --out FILE
        [--spawned-at T] [--trace]

``run.py`` starts this once per phase so each phase pays its own
imports, like ``repro run`` and ``repro report`` do.  The result (the
timed region, the phase's correctness evidence and, with ``--trace``,
the span table) is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

SPAWN_CLOCK = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

PHASES = {
    "paper-slice-crawl": lambda args, region: workloads.paper_slice_crawl(
        args.seed, args.workdir, region
    ),
    "paper-slice-report": lambda args, region: workloads.paper_slice_report(
        os.path.join(args.workdir, "paper-slice.jsonl.gz"), region
    ),
    "local-durable": lambda args, region: workloads.local_durable_crawl(
        args.seed, args.workdir, region
    ),
    "serve-zipf": lambda args, region: workloads.serve_zipf(args.seed, region),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=sorted(PHASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--spawned-at",
        type=float,
        default=SPAWN_CLOCK,
        help="time.monotonic() when the parent started this process",
    )
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    fileops = contextlib.nullcontext()
    if args.trace:
        import tracing
        from repro.store.fileops import use_fileops

        tracer = tracing.PhaseTracer(args.workdir)
        fileops = use_fileops(tracer.fileops)
    region = workloads.Region(args.spawned_at, tracer)
    with fileops:
        out = PHASES[args.phase](args, region)
    result = {"region": region.result(), "out": out}
    if tracer is not None:
        result["trace"] = tracer.result(region.wall_s)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
