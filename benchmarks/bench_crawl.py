"""Crawl-executor benchmark: worker-count sweep with parity proof.

Not a paper figure — this seeds the repo's perf trajectory.  Each cell
runs the same study config with a different number of crawl worker
processes; the sweep asserts every parallel dataset is byte-identical
to the sequential baseline and writes per-worker-count throughput to
``BENCH_crawl.json`` (machine-readable history for future perf PRs).

Run standalone for the full sweep::

    PYTHONPATH=src python benchmarks/bench_crawl.py --workers 1,2,4,8

or via pytest for the smoke tier (``CRAWL_BENCH_WORKERS`` /
``CRAWL_BENCH_SCALE`` scale it up)::

    PYTHONPATH=src python -m pytest benchmarks/bench_crawl.py -q
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro.parallel.bench import main, run_crawl_bench

WORKER_COUNTS = tuple(
    int(part)
    for part in os.environ.get("CRAWL_BENCH_WORKERS", "1,2").split(",")
    if part
)
SCALE = os.environ.get("CRAWL_BENCH_SCALE", "smoke")
OUT = Path(os.environ.get("CRAWL_BENCH_OUT", "BENCH_crawl.json"))


def test_crawl_worker_sweep(render_sink):
    """Sweep worker counts; parallel must stay byte-identical."""
    report = run_crawl_bench(worker_counts=WORKER_COUNTS, scale=SCALE, out=OUT)
    render_sink("bench_crawl", report.render())
    assert report.parity_ok, "parallel dataset differs from sequential baseline"
    assert all(cell.pages == report.cells[0].pages for cell in report.cells)
    # Injection-off overhead of the always-wired fault layer (calm
    # plan): must be recorded and byte-identical to the plain run.
    assert report.fault_layer is not None
    assert report.fault_layer["byte_identical_to_sequential"]
    # Tracing-off overhead of the always-wired obs layer: recorded, and
    # neither the disabled-tracer re-run nor the traced run may perturb
    # the dataset.
    assert report.obs_layer is not None
    assert report.obs_layer["byte_identical_to_sequential"]
    assert report.obs_layer["traced_byte_identical_to_sequential"]
    assert report.obs_layer["trace_spans"] > 0
    # Recovery cost: the kill-one-worker run must merge back
    # byte-identical, and the injected kill must actually have been
    # recovered from.
    assert report.supervise_layer is not None
    assert report.supervise_layer["kill_recover"]["byte_identical_to_sequential"]
    assert report.supervise_layer["kill_recover"]["recoveries"] >= 1


def test_crawl_worker_sweep_via_gateway(render_sink):
    """Same sweep with the serving gateway in the crawl path."""
    report = run_crawl_bench(
        worker_counts=WORKER_COUNTS, scale=SCALE, route_via_gateway=True
    )
    render_sink("bench_crawl_gateway", report.render())
    assert report.parity_ok, "gateway-path parallel dataset differs from sequential"


if __name__ == "__main__":
    sys.exit(main())
