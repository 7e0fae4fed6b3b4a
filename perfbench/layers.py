"""Per-layer metrics of a traced run, from its span tables and counters.

Only the values are computed here; ``BENCHMARK.json`` names the metrics
and their units.  Every workload reports every metric.  A layer that a
workload never enters reads 0 there (0 calls, 0 s), which is the "flat
on" side of the predictions in ``README.md``; a ratio whose denominator
is 0 also reads 0.
"""

from __future__ import annotations

import statistics

def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _add(target: dict, source: dict) -> None:
    """Sum a span table (name -> [calls, total, self]) or counters into ``target``."""
    for key, value in source.items():
        if isinstance(value, list):
            entry = target.setdefault(key, [0, 0.0, 0.0])
            for index, part in enumerate(value):
                entry[index] += part
        else:
            target[key] = target.get(key, 0) + value


def _merge_traces(traces) -> dict:
    """Sum the span tables and counters of one iteration's processes.

    ``traces`` are the phase processes' dumps; a crawl phase's dump also
    carries its forked workers' tables under ``shards``.
    """
    spans, counters, caches, fleet = {}, {}, {}, {}
    merged = {
        "region_wall_s": 0.0,
        "top_level_s": 0.0,
        "top_level_self_s": 0.0,
        "distinct_pairs": 0,
    }
    shards, ranker_bytes = [], 0
    for trace in traces:
        for key in merged:
            merged[key] += trace[key]
        _add(spans, trace["spans"])
        _add(counters, trace["counters"])
        _add(caches, trace["caches"])
        _add(fleet, trace.get("fleet", {}))
        ranker_bytes = max(ranker_bytes, trace.get("ranker_bytes", 0))
        for shard in trace["shards"]:
            _add(spans, shard["spans"])
            _add(caches, shard["caches"])
            ranker_bytes = max(ranker_bytes, shard["ranker_bytes"])
            shards.append(shard)
    merged.update(
        spans=spans,
        counters=counters,
        caches=caches,
        shards=shards,
        fleet=fleet,
        ranker_bytes=ranker_bytes,
        marks=traces[0].get("marks", {}),
    )
    return merged


def _outs(record) -> dict:
    """Every phase's ``out`` dict of one iteration, merged by key."""
    merged = {}
    for phase in record["phases"]:
        merged.update(phase["out"])
    return merged


def _workload_end_to_end(workload: str, untraced) -> dict:
    """The workload-specific end-to-end numbers, medians of untraced passes."""
    median = statistics.median
    metrics = dict.fromkeys(
        ("time_to_paper_s", "crawl_s", "report_s", "report_peak_rss_mib",
         "serve_rps", "serve_p50_ms", "serve_p99_ms"),
        0.0,
    )
    if workload == "paper-slice":
        metrics["time_to_paper_s"] = median(r["wall_s"] for r in untraced)
        metrics["crawl_s"] = median(r["phases"][0]["out"]["crawl_s"] for r in untraced)
        metrics["report_s"] = median(r["phases"][1]["region"]["wall_s"] for r in untraced)
        metrics["report_peak_rss_mib"] = median(
            r["phases"][1]["region"]["peak_rss_mib"] for r in untraced
        )
    elif workload == "local-durable":
        metrics["crawl_s"] = median(r["wall_s"] for r in untraced)
    else:
        metrics["serve_rps"] = median(
            _outs(r)["requests"] / r["wall_s"] for r in untraced
        )
        metrics["serve_p50_ms"] = median(_outs(r)["latency_p50_ms"] for r in untraced)
        metrics["serve_p99_ms"] = median(_outs(r)["latency_p99_ms"] for r in untraced)
    metrics["failed_frac"] = _ratio(
        sum(r["failed"] for r in untraced), sum(r["attempted"] for r in untraced)
    )
    return metrics


def per_layer_metrics(workload: str, untraced, traced) -> dict:
    trace = _merge_traces([phase["trace"] for phase in traced["phases"]])
    spans, counters, caches = trace["spans"], trace["counters"], trace["caches"]
    out = _outs(traced)

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    values = {
        "batch.prefork_warmup_s": total("batch.prefork_warmup"),
        "engine.prewarm.calls": calls("engine.prewarm"),
        "engine.prewarm.self_s": own("engine.prewarm"),
        "engine.prewarm_maps.self_s": own("engine.prewarm_maps"),
        "engine.handle.calls": calls("engine.handle"),
        "engine.handle.self_s": own("engine.handle"),
        "engine.build_page.calls": calls("engine.build_page"),
        "engine.build_page.self_s": own("engine.build_page"),
        "engine.render_page.self_s": own("engine.render_page"),
        "engine.ranker_cache.hits": caches.get("ranker_hits", 0),
        "engine.ranker_cache.misses": caches.get("ranker_misses", 0),
        "engine.ranker_cache.hit_ratio": _ratio(
            caches.get("ranker_hits", 0),
            caches.get("ranker_hits", 0) + caches.get("ranker_misses", 0),
        ),
        "engine.ranker_cache.bytes": trace["ranker_bytes"],
        "runner.rounds": out.get("rounds", 0),
        "runner.cells": out.get("scheduled", 0),
        "runner.failed_cells": out.get("failed", 0),
        "runner.run.self_s": own("runner.run"),
        "checkpoint.bytes": out.get("checkpoint_bytes", 0),
        "events.bytes": out.get("events_bytes", 0),
        "datastore.save_s": total("datastore.save"),
        "datastore.load_s": total("datastore.load"),
        "datastore.file_bytes": out.get("dataset_bytes", 0),
        "comparisons.distinct_pairs": trace["distinct_pairs"],
        "comparisons.useful_ratio": _ratio(
            trace["distinct_pairs"], calls("comparisons.compare_records")
        ),
        "metrics.edit_distance.identical_share": _ratio(
            counters.get("edit_identical", 0), calls("metrics.edit_distance")
        ),
        "cache.hit_ratio": _ratio(
            trace["fleet"].get("cache_hits", 0),
            trace["fleet"].get("cache_hits", 0) + trace["fleet"].get("cache_misses", 0),
        ),
        "cache.evictions": trace["fleet"].get("cache_evictions", 0),
        "cache.expirations": trace["fleet"].get("cache_expirations", 0),
        "fleet.hot_promotions": trace["fleet"].get("hot_promotions", 0),
        "fleet.rerouted": trace["fleet"].get("rerouted", 0),
        "seeding.digest_cache.hit_ratio": _ratio(
            caches.get("digest_hits", 0),
            caches.get("digest_hits", 0) + caches.get("digest_misses", 0),
        ),
    }
    for name in ("web.pois_in_cell", "web.pois_near", "browser.submit",
                 "parser.parse", "checkpoint.append_round",
                 "comparisons.compare_records", "metrics.edit_distance"):
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = own(name)
    values["web.maps_places.calls"] = calls("web.maps_places")
    values["metrics.jaccard_index.calls"] = calls("metrics.jaccard_index")
    values["events.add_round.self_s"] = own("events.add_round")
    for figure in range(2, 9):
        values[f"report.fig{figure}_s"] = total(f"report.fig{figure}")
    for name in ("fleet.submit", "gateway.submit", "cache.get", "cache.put"):
        values[f"{name}.self_s"] = own(name)
    values["cache.put.calls"] = calls("cache.put")
    for key in ("store.write_calls", "store.bytes_written", "store.fsyncs", "store.fsync_s"):
        values[key] = counters.get(key, 0)
    values.update(_parallel(trace))

    untraced_wall = statistics.median(record["wall_s"] for record in untraced)
    values["trace.overhead_share"] = traced["wall_s"] / untraced_wall - 1.0
    # Time no layer below the entry points accounts for: gaps between
    # top-level spans plus the top-level spans' own self time.
    values["trace.unattributed_share"] = _ratio(
        trace["region_wall_s"] - trace["top_level_s"] + trace["top_level_self_s"],
        trace["region_wall_s"],
    )
    values.update(_workload_end_to_end(workload, untraced))
    return values


def _parallel(trace) -> dict:
    """The executor's numbers; all 0 when the crawl never forked workers."""
    values = {
        "parallel.parent_cpu_s": 0.0,
        "parallel.worker_cpu_s": 0.0,
        "parallel.parent_idle_s": 0.0,
        "parallel.shard.0.self_s": 0.0,
        "parallel.shard.1.self_s": 0.0,
        "parallel.worker_peak_rss_mib": 0.0,
    }
    shards = trace["shards"]
    if not shards:
        return values
    marks = trace["marks"]
    (run_wall0, run_cpu0), (run_wall1, run_cpu1) = marks["run_start"], marks["run_end"]
    warm_wall, warm_cpu = marks["warmup_end"]
    values["parallel.parent_cpu_s"] = run_cpu1 - run_cpu0
    values["parallel.worker_cpu_s"] = sum(shard["cpu_s"] for shard in shards)
    values["parallel.parent_idle_s"] = (run_wall1 - warm_wall) - (run_cpu1 - warm_cpu)
    for index, shard in enumerate(shards[:2]):
        values[f"parallel.shard.{index}.self_s"] = shard["spans"]["parallel.shard"][2]
    values["parallel.worker_peak_rss_mib"] = max(shard["peak_rss_mib"] for shard in shards)
    return values
