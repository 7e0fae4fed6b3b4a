"""The production-style search-serving layer.

Everything the single-process crawl bypasses when it calls
``SearchEngine.handle()`` directly: a :class:`Gateway` fronting one
engine replica per datacenter, with pluggable routing policies
(round-robin / least-outstanding / geo-affinity), a deterministic SERP
cache (LRU + virtual-day TTL, keyed on the geo-ranker's snap cell),
bounded per-replica admission queues with retry and hedging, and a
seeded load generator for throughput measurement.

See ``docs/SERVING.md`` for the architecture and
``benchmarks/bench_serve.py`` for the numbers.
"""

from repro.serve.admission import DEFAULT_SERVICE_MINUTES, QueueSlot, ReplicaQueue
from repro.serve.cache import CacheKey, SerpCache
from repro.serve.chaos import ServeChaos, ServeChaosReport
from repro.serve.fleet import (
    BrownoutPolicy,
    FleetShard,
    GatewayFleet,
    HashRing,
    build_fleet,
    build_fleet_registry,
    shard_key_of,
)
from repro.serve.gateway import Gateway, GatewayResult, Replica, build_replicas
from repro.serve.loadgen import (
    ClientPopulation,
    LazyClientGeoIP,
    LazyClientPopulation,
    LoadGenerator,
    LoadReport,
    SyntheticClient,
    ZipfSampler,
    run_load,
)
from repro.serve.routing import (
    ROUTING_POLICIES,
    GeoAffinityPolicy,
    LeastOutstandingPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    make_policy,
)
from repro.serve.stats import FleetStats, GatewayStats, LatencyAccumulator

__all__ = [
    "DEFAULT_SERVICE_MINUTES",
    "QueueSlot",
    "ReplicaQueue",
    "CacheKey",
    "SerpCache",
    "Gateway",
    "GatewayResult",
    "Replica",
    "build_replicas",
    "BrownoutPolicy",
    "FleetShard",
    "GatewayFleet",
    "HashRing",
    "build_fleet",
    "build_fleet_registry",
    "shard_key_of",
    "ServeChaos",
    "ServeChaosReport",
    "ClientPopulation",
    "LazyClientGeoIP",
    "LazyClientPopulation",
    "LoadGenerator",
    "LoadReport",
    "SyntheticClient",
    "ZipfSampler",
    "run_load",
    "ROUTING_POLICIES",
    "GeoAffinityPolicy",
    "LeastOutstandingPolicy",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "make_policy",
    "FleetStats",
    "GatewayStats",
    "LatencyAccumulator",
]
