"""Record the correctness gate's reference digests into ``golden.json``.

    python3 perfbench/record_golden.py --seeds 0-15

For each seed it runs every workload's inputs through the reference
path, in this one process: the paper-slice crawl and figures 2-8 over
the in-memory dataset (no save/load round trip), the local-durable
crawl at ``workers=1`` with no checkpoint or event log (so every
benchmark run also pins worker-count and durability byte parity), and
the serve-zipf stream.  Re-record only when a change is meant to alter
outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def paper_slice(seed: int) -> dict:
    from repro.core.report import StudyReport
    from repro.core.runner import Study

    dataset = Study(workloads.paper_slice_config(seed)).run()
    text = workloads.render_figures(StudyReport(dataset))
    return {
        "dataset_sha256": workloads.records_digest(dataset),
        "figures_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def serve_zipf(seed: int) -> dict:
    region = workloads.Region(0.0)
    return {"responses_sha256": workloads.serve_zipf(seed, region)["responses_sha256"]}


RECORDERS = {
    "paper-slice": paper_slice,
    "local-durable": lambda seed: {
        "dataset_sha256": workloads.local_durable_reference(seed)
    },
    "serve-zipf": serve_zipf,
}


def parse_seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="a seed or an inclusive range, e.g. 0-11")
    args = parser.parse_args()
    path = os.path.join(HERE, "golden.json")
    with open(path, encoding="utf-8") as handle:
        golden = json.load(handle)
    for workload in sorted(RECORDERS):
        for seed in parse_seeds(args.seeds):
            digests = RECORDERS[workload](seed)
            golden["digests"].setdefault(workload, {})[str(seed)] = digests
            print(workload, seed, digests, flush=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(golden, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
