"""The audit service: registered audits, shared stats, one metrics surface.

:class:`AuditService` is the daemon-facing wrapper around
:class:`~repro.audit.scheduler.AuditScheduler`: it owns the service-wide
:class:`AuditServiceStats`, exposes them through a
:class:`~repro.obs.metrics.MetricsRegistry` (the ``/metrics`` endpoint
renders it as Prometheus text), serializes all mutation behind one lock
so the HTTP API can read while cycles run, and builds the ``status``
view the CLI and API serve.

:func:`build_smoke_service` is the CI entry point: a tiny but complete
audit (4 queries, 1 day, 2 locations per granularity, paired controls
intact) whose drift monitor has a 1-cycle baseline so the whole
pipeline — including alerting state — exercises in seconds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.audit.drift import DriftConfig, sliding_mann_whitney
from repro.audit.scheduler import AuditScheduler, AuditSpec, CycleOutcome
from repro.core.experiment import DEFAULT_STUDY_SEED, StudyConfig
from repro.obs.events import NULL_RECORDER
from repro.obs.metrics import MetricSet, MetricsRegistry
from repro.queries.corpus import build_corpus

__all__ = ["AuditService", "AuditServiceStats", "build_smoke_service"]


@dataclass
class AuditServiceStats(MetricSet):
    """Service-wide counters, one instance per :class:`AuditService`."""

    cycles_completed: int = 0
    records_ingested: int = 0
    pairs_compared: int = 0
    alerts_emitted: int = 0
    http_requests: int = 0
    alerts_by_audit: Dict[str, int] = field(default_factory=dict)


class AuditService:
    """Registered audits plus the service's observable surface."""

    def __init__(self, store_dir: str):
        self.stats = AuditServiceStats()
        self._lock = threading.RLock()
        self._scheduler = AuditScheduler(store_dir, stats=self.stats)
        self._registry: Optional[MetricsRegistry] = None
        #: Wide-event recorder for the ``audit`` stream (one event per
        #: completed cycle, carrying its drift alerts); off by default.
        self.events = NULL_RECORDER

    # -- lifecycle -----------------------------------------------------------

    @property
    def store_dir(self) -> str:
        return self._scheduler.store_dir

    def register(self, spec: AuditSpec):
        with self._lock:
            return self._scheduler.register(spec)

    def close(self) -> None:
        with self._lock:
            self._scheduler.close()

    def __enter__(self) -> "AuditService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def run_cycle(self, name: str, **kwargs) -> CycleOutcome:
        with self._lock:
            outcome = self._scheduler.run_cycle(name, **kwargs)
            self._emit_cycle_event(outcome)
            return outcome

    def run_once(self, *, cycles: int = 1, **kwargs) -> List[CycleOutcome]:
        """Advance every pending audit by up to ``cycles`` cycles."""
        with self._lock:
            outcomes = self._scheduler.run_once(cycles=cycles, **kwargs)
            for outcome in outcomes:
                self._emit_cycle_event(outcome)
            return outcomes

    def _emit_cycle_event(self, outcome: CycleOutcome) -> None:
        """One ``audit`` wide event per completed cycle."""
        if not self.events.enabled:
            return
        self.events.emit(
            "audit",
            key=(outcome.audit, outcome.cycle),
            ts=float(outcome.cycle),
            audit=outcome.audit,
            cycle=outcome.cycle,
            alerts=len(outcome.alerts),
            alert_series=sorted(alert.series for alert in outcome.alerts),
        )

    def pending(self) -> List[str]:
        with self._lock:
            return self._scheduler.pending()

    # -- observability -------------------------------------------------------

    def registry(self) -> MetricsRegistry:
        """The service's metric registry (built once, reads live stats)."""
        with self._lock:
            if self._registry is None:
                registry = MetricsRegistry()
                stats = self.stats
                counter_help = {
                    "cycles_completed": "audit cycles journaled durably",
                    "records_ingested": "SERP records streamed through sinks",
                    "pairs_compared": "streaming pairwise comparisons",
                    "alerts_emitted": "drift alerts journaled",
                    "http_requests": "API requests served",
                }
                for attr, help_text in counter_help.items():
                    registry.register_counter(
                        f"audit_{attr}_total", stats, attr, help=help_text
                    )
                registry.register_labeled(
                    "audit_alerts_total",
                    stats,
                    "alerts_by_audit",
                    label="audit",
                    help="drift alerts by audit",
                )
                registry.register_gauge(
                    "audit_registered",
                    self,
                    "_registered_count",
                    help="audits currently registered",
                )
                self._registry = registry
            return self._registry

    @property
    def _registered_count(self) -> int:
        return len(self._scheduler.audits)

    def status(self) -> dict:
        """The JSON status view served by ``/audits`` and the CLI.

        Per audit: cycle progress, journaled alert count, and per-series
        drift state (latest value, live CUSUM sums, and the sliding
        Mann–Whitney cross-check once two windows exist).
        """
        with self._lock:
            audits = {}
            for name, audit in self._scheduler.audits.items():
                spec = audit.spec
                results = audit.store.results()
                curves: Dict[str, List[float]] = {}
                for result in results:
                    for series, value in AuditScheduler._series_values(
                        result
                    ).items():
                        curves.setdefault(series, []).append(value)
                series_status = {}
                for series in sorted(curves):
                    values = curves[series]
                    detector = audit.monitor.state(series)
                    mw = sliding_mann_whitney(values, window=spec.drift.mw_window)
                    series_status[series] = {
                        "points": len(values),
                        "latest": values[-1],
                        "cusum_high": detector.s_high if detector else 0.0,
                        "cusum_low": detector.s_low if detector else 0.0,
                        "mw_significant": None if mw is None else mw.significant,
                    }
                audits[name] = {
                    "cycles": len(audit.store.cycles),
                    "budget": spec.cycles,
                    "done": audit.done,
                    "interval_minutes": spec.cycle_interval(),
                    "workers": spec.workers,
                    "alerts": len(audit.store.alerts()),
                    "series": series_status,
                }
            return {
                "store_dir": self.store_dir,
                "audits": audits,
                "stats": self.stats.capture_state(),
            }

    def render_status(self) -> str:
        """Human-readable status for ``repro audit status``."""
        status = self.status()
        lines = [f"audit store: {status['store_dir']}"]
        if not status["audits"]:
            lines.append("  (no audits registered)")
        for name, audit in sorted(status["audits"].items()):
            budget = audit["budget"]
            progress = f"{audit['cycles']}/{budget}" if budget else str(audit["cycles"])
            lines.append(
                f"  {name}: cycles {progress}, alerts {audit['alerts']}, "
                f"every {audit['interval_minutes']:g} min"
                + (" [done]" if audit["done"] else "")
            )
            for series, state in audit["series"].items():
                mw = state["mw_significant"]
                mw_text = "n/a" if mw is None else ("SIGNIFICANT" if mw else "ns")
                lines.append(
                    f"    {series}: latest {state['latest']:.4f} "
                    f"cusum +{state['cusum_high']:.2f}/-{state['cusum_low']:.2f} "
                    f"mw {mw_text}"
                )
        return "\n".join(lines)


def build_smoke_service(
    store_dir: str,
    *,
    seed: int = DEFAULT_STUDY_SEED,
    cycles: int = 3,
    workers: int = 1,
    name: str = "smoke",
) -> AuditService:
    """A service with one tiny registered audit, for CI and quick checks."""
    config = StudyConfig.small(
        list(build_corpus())[:4], seed=seed, days=1, locations_per_granularity=2
    )
    service = AuditService(store_dir)
    service.register(
        AuditSpec(
            name=name,
            config=config,
            cycles=cycles,
            workers=workers,
            drift=DriftConfig(baseline_cycles=1, mw_window=1),
        )
    )
    return service
