"""Outside-in per-layer tracing for the benchmark's traced run.

Nothing in ``src/`` records these spans.  :func:`install` replaces the
public functions of each layer with timing wrappers *where their
callers look them up*: callers that ``from x import f`` hold their own
reference, so e.g. ``edit_distance`` is patched in
``repro.core.comparisons``, not in ``repro.core.metrics``.

A span's self time is its duration minus the part its child spans
cover.  Wrapped calls nest strictly (one thread per process), so the
covered part is the sum of the direct children's durations.

In a forked crawl worker the wrapper on ``Study.run_shard`` starts a
fresh table and writes it, with the worker's CPU, peak RSS and cache
counters, to ``<workdir>/shard-<pid>.json`` before returning.  The
parent reads those files back in :meth:`PhaseTracer.result`.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import resource
import time

#: (owner import path, attribute, span name).  An owner is a module or a
#: class; a class attribute is patched on the class, so every instance
#: and subclass that does not override it is traced.
PATCHES = [
    ("repro.core.runner:Study", "run", "runner.run"),
    ("repro.core.runner:Study", "prefork_warmup", "batch.prefork_warmup"),
    ("repro.engine.ranking:Ranker", "prewarm", "engine.prewarm"),
    ("repro.engine.ranking:Ranker", "prewarm_maps", "engine.prewarm_maps"),
    ("repro.web.pois:PoiDatabase", "pois_in_cell", "web.pois_in_cell"),
    ("repro.web.pois:PoiDatabase", "pois_near", "web.pois_near"),
    ("repro.web.world:WebWorld", "maps_places", "web.maps_places"),
    ("repro.engine.frontend:SearchEngine", "handle", "engine.handle"),
    ("repro.engine.ranking:Ranker", "build_page", "engine.build_page"),
    ("repro.engine.frontend", "render_page", "engine.render_page"),
    ("repro.core.browser:Network", "submit", "browser.submit"),
    ("repro.core.runner", "parse_serp_html", "parser.parse"),
    ("repro.faults.checkpoint:CheckpointWriter", "append_round", "checkpoint.append_round"),
    ("repro.obs.events:CrawlEventBuilder", "add_round", "events.add_round"),
    ("repro.core.datastore:SerpDataset", "save", "datastore.save"),
    ("repro.core.datastore:SerpDataset", "load", "datastore.load"),
    ("repro.core.report:StudyReport", "__init__", "report.init"),
    ("repro.core.report:StudyReport", "render_fig2", "report.fig2"),
    ("repro.core.report:StudyReport", "render_fig3", "report.fig3"),
    ("repro.core.report:StudyReport", "render_fig4", "report.fig4"),
    ("repro.core.report:StudyReport", "render_fig5", "report.fig5"),
    ("repro.core.report:StudyReport", "render_fig6", "report.fig6"),
    ("repro.core.report:StudyReport", "render_fig7", "report.fig7"),
    ("repro.core.report:StudyReport", "render_fig8", "report.fig8"),
    ("repro.core.comparisons", "compare_records", "comparisons.compare_records"),
    ("repro.core.consistency", "compare_records", "comparisons.compare_records"),
    ("repro.core.comparisons", "edit_distance", "metrics.edit_distance"),
    ("repro.core.comparisons", "jaccard_index", "metrics.jaccard_index"),
    ("repro.serve.fleet:GatewayFleet", "submit", "fleet.submit"),
    ("repro.serve.gateway:Gateway", "submit", "gateway.submit"),
    ("repro.serve.cache:SerpCache", "get", "cache.get"),
    ("repro.serve.cache:SerpCache", "put", "cache.put"),
]


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class SpanTable:
    """Per-name call count, total and self seconds of wrapped calls."""

    def __init__(self):
        self.stats = {}
        self.stack = []
        self.top_level_s = 0.0
        self.top_level_self_s = 0.0
        self.counters = {}
        self.marks = {}
        #: Distinct (record, record) pairs ``compare_records`` saw.
        self.pairs = set()

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.stack.clear()
        self.top_level_s = 0.0
        self.top_level_self_s = 0.0
        for key in self.counters:
            self.counters[key] = 0
        self.marks.clear()
        self.pairs.clear()

    def wrap(self, name, fn, observe=None):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args)
            children = [0.0]
            stack.append(children)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                stack.pop()
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_level_s += duration
                    self.top_level_self_s += duration - children[0]

        return wrapper

    def to_dict(self) -> dict:
        return {
            "spans": {name: list(entry) for name, entry in self.stats.items()},
            "top_level_s": self.top_level_s,
            "top_level_self_s": self.top_level_self_s,
            "counters": dict(self.counters),
            "marks": dict(self.marks),
        }


def _resolve(owner: str):
    import importlib

    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def _observers(table: SpanTable) -> dict:
    """Counters measured at the call boundary: input properties."""
    counters = table.counters
    counters.update(edit_identical=0)
    pairs = table.pairs

    def edit_inputs(args) -> None:
        if args[0] == args[1]:
            counters["edit_identical"] += 1

    def record_pair(args) -> None:
        pairs.add((id(args[0]), id(args[1])))

    return {
        "metrics.edit_distance": edit_inputs,
        "comparisons.compare_records": record_pair,
    }


def install(table: SpanTable, workdir: str) -> None:
    """Wrap every layer in :data:`PATCHES` for the life of this process."""
    observers = _observers(table)
    for owner, attribute, name in PATCHES:
        target = _resolve(owner)
        raw = vars(target).get(attribute) if isinstance(target, type) else None
        if isinstance(raw, classmethod):
            wrapped = table.wrap(name, raw.__func__, observers.get(name))
            setattr(target, attribute, classmethod(wrapped))
        else:
            original = getattr(target, attribute)
            setattr(target, attribute, table.wrap(name, original, observers.get(name)))
    _install_run_marks(table)
    _install_shard_dump(table, workdir)


def _install_run_marks(table: SpanTable) -> None:
    """Record the crawl parent's wall and CPU at the run/warmup boundaries."""
    from repro.core.runner import Study

    run, warmup = Study.run, Study.prefork_warmup

    @functools.wraps(run)
    def traced_run(self, *args, **kwargs):
        table.marks["run_start"] = (time.perf_counter(), _cpu_self())
        try:
            return run(self, *args, **kwargs)
        finally:
            table.marks["run_end"] = (time.perf_counter(), _cpu_self())

    @functools.wraps(warmup)
    def traced_warmup(self):
        try:
            return warmup(self)
        finally:
            table.marks["warmup_end"] = (time.perf_counter(), _cpu_self())

    Study.run, Study.prefork_warmup = traced_run, traced_warmup


def _cache_counters(rankers) -> dict:
    """Ranker memo and seed digest cache hits/misses, cumulative."""
    from repro.seeding import digest_cache_info

    infos = [ranker.cache_info() for ranker in rankers]
    digests = digest_cache_info().values()
    return {
        "ranker_hits": sum(info["hits"] for info in infos),
        "ranker_misses": sum(info["misses"] for info in infos),
        "digest_hits": sum(cache["hits"] for cache in digests),
        "digest_misses": sum(cache["misses"] for cache in digests),
    }


def _rankers(study, fleet) -> list:
    """The distinct rankers behind a study or a fleet (fleets share one)."""
    if study is not None:
        return [study.engine.ranker]
    unique = {
        id(replica.engine.ranker): replica.engine.ranker
        for shard in fleet.shards.values()
        for replica in shard.gateway.replicas
    }
    return list(unique.values())


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def _install_shard_dump(table: SpanTable, workdir: str) -> None:
    """In a forked worker, trace ``run_shard`` into a file of its own."""
    from repro.core.runner import Study

    shard = table.wrap("parallel.shard", Study.run_shard)
    parent_pid = os.getpid()

    @functools.wraps(Study.run_shard)
    def traced_shard(self, treatment_indices, **kwargs):
        if os.getpid() == parent_pid:
            return shard(self, treatment_indices, **kwargs)
        table.reset()
        rankers = [self.engine.ranker]
        caches_before = _cache_counters(rankers)
        cpu_before = _cpu_self()
        result = shard(self, treatment_indices, **kwargs)
        dump = table.to_dict()
        dump.update(
            first_treatment=min(treatment_indices),
            cpu_s=_cpu_self() - cpu_before,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            caches=_delta(_cache_counters(rankers), caches_before),
            ranker_bytes=self.engine.ranker.cache_bytes(),
        )
        path = os.path.join(workdir, f"shard-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dump, handle)
        return result

    Study.run_shard = traced_shard


def counting_fileops():
    """A :class:`FileOps` that counts what durable writers send to disk."""
    from repro.store.fileops import FileOps

    class CountingFileOps(FileOps):
        def __init__(self):
            self.reset()

        def reset(self):
            self.write_calls = 0
            self.bytes_written = 0
            self.fsyncs = 0
            self.fsync_s = 0.0

        def write(self, handle, data):
            self.write_calls += 1
            self.bytes_written += len(data)
            super().write(handle, data)

        def fsync(self, handle):
            started = time.perf_counter()
            super().fsync(handle)
            self.fsyncs += 1
            self.fsync_s += time.perf_counter() - started

        def fsync_dir(self, dirpath):
            started = time.perf_counter()
            super().fsync_dir(dirpath)
            self.fsyncs += 1
            self.fsync_s += time.perf_counter() - started

        def counters(self) -> dict:
            return {
                "store.write_calls": self.write_calls,
                "store.bytes_written": self.bytes_written,
                "store.fsyncs": self.fsyncs,
                "store.fsync_s": self.fsync_s,
            }

    return CountingFileOps()


class PhaseTracer:
    """Everything one traced phase process records.

    ``begin`` is called at the start of the timed region, so spans from
    set-up (the fleet's warm-up prefix, for one) are not counted.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.table = SpanTable()
        install(self.table, workdir)
        self.fileops = counting_fileops()
        self.rankers = []
        self.fleet = None
        self._caches = {}
        self._fleet = {}

    def begin(self, *, study=None, fleet=None) -> None:
        self.table.reset()
        self.fileops.reset()
        self.fleet = fleet
        if study is not None or fleet is not None:
            self.rankers = _rankers(study, fleet)
        self._caches = _cache_counters(self.rankers)
        if fleet is not None:
            self._fleet = _fleet_counters(fleet)

    def result(self, region_wall_s: float) -> dict:
        dump = self.table.to_dict()
        dump["region_wall_s"] = region_wall_s
        dump["distinct_pairs"] = len(self.table.pairs)
        dump["counters"].update(self.fileops.counters())
        dump["caches"] = _delta(_cache_counters(self.rankers), self._caches)
        dump["ranker_bytes"] = max(
            (ranker.cache_bytes() for ranker in self.rankers), default=0
        )
        dump["shards"] = _read_shards(self.workdir)
        if self.fleet is not None:
            dump["fleet"] = _delta(_fleet_counters(self.fleet), self._fleet)
        return dump


def _read_shards(workdir: str) -> list:
    shards = []
    for path in glob.glob(os.path.join(workdir, "shard-*.json")):
        with open(path, encoding="utf-8") as handle:
            shards.append(json.load(handle))
        os.remove(path)
    shards.sort(key=lambda shard: shard["first_treatment"])
    return shards


def _fleet_counters(fleet) -> dict:
    """The serving layer's cumulative cache and routing counters."""
    gateways = [shard.gateway.stats for shard in fleet.shards.values()]
    return {
        "cache_hits": sum(stats.cache_hits for stats in gateways),
        "cache_misses": sum(stats.cache_misses for stats in gateways),
        "cache_evictions": sum(stats.cache_evictions for stats in gateways),
        "cache_expirations": sum(stats.cache_expirations for stats in gateways),
        "hot_promotions": fleet.stats.hot_promotions,
        "rerouted": fleet.stats.rerouted,
    }
