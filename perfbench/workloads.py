"""Inputs and timed bodies of the three benchmark workloads.

Every input is a pure function of the benchmark seed: the study config
(query sample, study seed) for the crawls and the request stream for
the fleet.  Each phase function below runs in its own fresh
interpreter (see ``phase.py``), builds its inputs untimed, then times
only the public entry points a user of the system calls.

The phase functions return plain dicts: the phase's timings, the
correctness evidence (digests, structural checks) and the counters the
orchestrator turns into ``attempted``/``failed``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import random
import resource
import time

#: The study seed of ``repro``'s examples; the benchmark seed offsets it.
BASE_STUDY_SEED = 20151028

#: paper-slice query sample, in the paper's category proportions
#: (33 local / 87 controversial / 120 politician of 240 terms): 1/24 of
#: the study's query-days, so a run takes the median of several
#: iterations while keeping every location pair and the 5-day series.
PAPER_SLICE_SAMPLE = {"local": 1, "controversial": 4, "politician": 5}
PAPER_SLICE_DAYS = 5

LOCAL_DURABLE_DAYS = 2
LOCAL_DURABLE_WORKERS = 2

SERVE_SHARDS = 2
SERVE_REPLICATION = 2
SERVE_CACHE_SIZE = 4096
SERVE_CLIENTS = 1_000_000
SERVE_RATE_PER_MINUTE = 40.0
SERVE_WARMUP_REQUESTS = 1_000
SERVE_TIMED_REQUESTS = 3_000
#: Start of the virtual clock: ~25 virtual minutes of warm-up at 40/min,
#: then midnight (minute 1440) falls about halfway into the timed pass,
#: so day-rollover expiry into the stale store is inside the measurement.
SERVE_START_MINUTES = 1380.0


def study_seed(seed: int) -> int:
    return BASE_STUDY_SEED + seed


def paper_slice_config(seed: int):
    """Full paper geography, a seeded 10-query sample, 5 days, no faults."""
    from repro.core.experiment import StudyConfig
    from repro.queries.corpus import build_corpus

    corpus = list(build_corpus())
    rng = random.Random(f"paper-slice:{seed}")
    chosen = set()
    for category, count in PAPER_SLICE_SAMPLE.items():
        pool = [i for i, q in enumerate(corpus) if q.category.value == category]
        chosen.update(rng.sample(pool, count))
    queries = [corpus[i] for i in sorted(chosen)]
    return StudyConfig(
        seed=study_seed(seed), queries=queries, days=PAPER_SLICE_DAYS
    )


def local_durable_config(seed: int):
    """All 33 local queries over the full paper geography, 2 days."""
    from repro.core.experiment import StudyConfig
    from repro.queries.corpus import build_corpus
    from repro.queries.model import QueryCategory

    queries = build_corpus().by_category(QueryCategory.LOCAL)
    return StudyConfig(
        seed=study_seed(seed), queries=list(queries), days=LOCAL_DURABLE_DAYS
    )


# -- measurement helpers ------------------------------------------------------


def _cpu_seconds() -> float:
    """User+sys CPU of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """Largest peak RSS of this process or any waited-for child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Region:
    """The timed region of one phase: wall and CPU from first to last call.

    ``tracer`` (traced runs only) is told where the region starts and
    which study or fleet it measures, so set-up work stays out of the
    per-layer numbers.
    """

    def __init__(self, spawned_at: float, tracer=None):
        self.spawned_at = spawned_at
        self.tracer = tracer
        self.started = None
        self.cpu_started = None
        self.wall_s = None
        self.cpu_s = None

    def begin(self, *, study=None, fleet=None) -> None:
        self.started = time.monotonic()
        if self.tracer is not None:
            self.tracer.begin(study=study, fleet=fleet)
            self.started = time.monotonic()
        self.cpu_started = _cpu_seconds()

    def end(self) -> None:
        self.wall_s = time.monotonic() - self.started
        self.cpu_s = _cpu_seconds() - self.cpu_started

    def result(self) -> dict:
        return {
            "setup_s": self.started - self.spawned_at,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mib": _peak_rss_mib(),
        }


def dataset_digest(path) -> str:
    """SHA-256 of a saved dataset's uncompressed JSONL bytes.

    Hashing the decompressed stream keeps the gzip header's mtime out
    of the digest.
    """
    digest = hashlib.sha256()
    with gzip.open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def records_digest(dataset) -> str:
    """SHA-256 of a dataset exactly as :meth:`SerpDataset.save` writes it."""
    digest = hashlib.sha256()
    for record in dataset:
        digest.update((json.dumps(record.to_dict()) + "\n").encode("utf-8"))
    return digest.hexdigest()


def _crawl_counts(study) -> dict:
    rounds = study.round_count()
    return {
        "rounds": rounds,
        "scheduled": rounds * len(study.treatments),
        "failed": len(study.failures),
    }


def _log_bytes(path) -> int:
    """Size of a record log, rotated segments included."""
    from repro.store import segment_paths

    return sum(
        os.path.getsize(segment)
        for segment in segment_paths(path)
        if os.path.exists(segment)
    )


# -- paper-slice ----------------------------------------------------------------


def paper_slice_crawl(seed: int, workdir: str, region: Region) -> dict:
    """Crawl phase, as ``repro run``: ``Study.run`` then ``SerpDataset.save``."""
    from repro.core.runner import Study

    study = Study(paper_slice_config(seed))
    out = os.path.join(workdir, "paper-slice.jsonl.gz")
    region.begin(study=study)
    started = time.monotonic()
    dataset = study.run()
    crawl_s = time.monotonic() - started
    dataset.save(out)
    region.end()
    counts = _crawl_counts(study)
    return {
        "crawl_s": crawl_s,
        "save_s": region.wall_s - crawl_s,
        "collected": len(dataset),
        **counts,
        "dataset_sha256": dataset_digest(out),
        "dataset_bytes": os.path.getsize(out),
    }


def render_figures(report) -> str:
    """Figures 2-8 as ``repro report`` prints them."""
    sections = [
        report.render_fig2(),
        report.render_fig3(),
        report.render_fig4(),
        report.render_fig5(),
        report.render_fig6(),
        report.render_fig7(),
    ]
    for granularity in report.granularities():
        sections.append(report.render_fig8(granularity))
    return "\n\n".join(sections)


def paper_slice_report(dataset_path: str, region: Region) -> dict:
    """Report phase, as ``repro report``: load, then figures 2-8."""
    from repro.core.datastore import SerpDataset
    from repro.core.report import StudyReport

    region.begin()
    dataset = SerpDataset.load(dataset_path)
    text = render_figures(StudyReport(dataset))
    region.end()
    return {
        "records": len(dataset),
        "figures_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


# -- local-durable ----------------------------------------------------------------


def local_durable_crawl(seed: int, workdir: str, region: Region) -> dict:
    """Two-worker crawl with the checkpoint journal and event log on."""
    from repro.core.runner import Study
    from repro.obs.events import validate_events
    from repro.store import fsck_path

    study = Study(local_durable_config(seed))
    checkpoint = os.path.join(workdir, "local-durable.ckpt")
    events = os.path.join(workdir, "local-durable.events.jsonl")
    region.begin(study=study)
    dataset = study.run(
        workers=LOCAL_DURABLE_WORKERS, checkpoint=checkpoint, events=events
    )
    region.end()
    fsck = fsck_path(checkpoint)
    return {
        "crawl_s": region.wall_s,
        "collected": len(dataset),
        **_crawl_counts(study),
        "dataset_sha256": records_digest(dataset),
        "journal_clean": fsck.corrupt_records == 0 and not fsck.truncated,
        "event_problems": validate_events(events),
        "checkpoint_bytes": _log_bytes(checkpoint),
        "events_bytes": _log_bytes(events),
    }


def local_durable_reference(seed: int) -> str:
    """The golden digest: the same crawl at ``workers=1``, in memory."""
    from repro.core.runner import Study

    return records_digest(Study(local_durable_config(seed)).run())


# -- serve-zipf -------------------------------------------------------------------


def build_serve(seed: int):
    """The fleet and its full request stream (warm-up prefix + timed pass)."""
    from repro.engine.datacenters import DatacenterCluster
    from repro.queries.corpus import build_corpus
    from repro.serve.fleet import build_fleet
    from repro.serve.loadgen import LazyClientPopulation, LoadGenerator
    from repro.web.world import WebWorld

    world_seed = study_seed(seed)
    corpus = build_corpus()
    world = WebWorld(world_seed)
    cluster = DatacenterCluster()
    population = LazyClientPopulation(world_seed, SERVE_CLIENTS, cluster)
    fleet = build_fleet(
        world,
        cluster,
        population.geoip_view(),
        count=SERVE_SHARDS,
        corpus=corpus,
        seed=world_seed + 1,
        cache_size=SERVE_CACHE_SIZE,
        replication=SERVE_REPLICATION,
    )
    # The load generator's seed fixes which queries are hot.  It stays
    # constant: with a seeded ranking, a local query landing at the head
    # of the Zipf curve made one seed's timed pass 50% slower than the
    # next, so the seed varies the world, the engine and the million
    # users the stream is drawn from, not the popularity profile.
    loadgen = LoadGenerator(
        list(corpus),
        population,
        BASE_STUDY_SEED,
        rate_per_minute=SERVE_RATE_PER_MINUTE,
        start_minutes=SERVE_START_MINUTES,
    )
    requests = list(loadgen.requests(SERVE_WARMUP_REQUESTS + SERVE_TIMED_REQUESTS))
    return fleet, requests


def _outcome(result) -> str:
    from repro.engine.request import ResponseStatus

    status = result.response.status
    if result.degraded:
        return "degraded"
    if status is ResponseStatus.OK:
        return "ok"
    if status is ResponseStatus.RATE_LIMITED:
        return "rate_limited"
    return "overloaded"


def serve_zipf(seed: int, region: Region) -> dict:
    """Warm-up prefix untimed, then every timed ``GatewayFleet.submit`` timed."""
    fleet, requests = build_serve(seed)
    for request in requests[:SERVE_WARMUP_REQUESTS]:
        fleet.submit(request)
    timed = requests[SERVE_WARMUP_REQUESTS:]
    latencies = []
    outcomes = {"ok": 0, "degraded": 0, "rate_limited": 0, "overloaded": 0}
    digest = hashlib.sha256()
    clock = time.perf_counter
    region.begin(fleet=fleet)
    for request in timed:
        started = clock()
        result = fleet.submit(request)
        latencies.append(clock() - started)
        outcomes[_outcome(result)] += 1
        digest.update(result.response.status.name.encode())
        digest.update(b"D" if result.degraded else b"F")
        digest.update(result.response.html.encode("utf-8"))
    region.end()
    latencies.sort()
    stats = fleet.stats
    return {
        "requests": len(timed),
        "outcomes": outcomes,
        "latency_p50_ms": 1000.0 * latencies[len(latencies) // 2],
        "latency_p99_ms": 1000.0 * latencies[int(len(latencies) * 0.99)],
        "responses_sha256": digest.hexdigest(),
        "fleet_requests": stats.requests,
        "fleet_partition": stats.served_fresh
        + stats.served_stale
        + stats.shed
        + stats.failed,
    }
