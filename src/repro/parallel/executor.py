"""Process-parallel crawl execution with byte-identical parity.

The paper's crawl ran on 44 machines precisely because lock-step
rounds are embarrassingly parallel: within a round, every treatment
issues the same query independently.  This executor exploits the same
structure on one host, and keeps the fleet's other property — a dead
machine rejoins without spoiling the rest — through the supervisor in
:mod:`repro.supervise`, which every multi-worker run goes through.

Design
------
* **Sharding is machine-granular.**  Treatments are grouped by the
  crawl machine their browser is bound to (``index % machine_count`` —
  the fleet assignment in :meth:`Study._build_treatments`), and
  machines are dealt round-robin to workers.  The per-IP rate limiter
  is the only cross-treatment coupling in the engine, and its
  decisions depend only on the per-IP request sequence — keeping every
  browser of a machine in one worker preserves that sequence exactly,
  so admission (and therefore CAPTCHAs, retries, and failures) is
  identical to the sequential run.
* **Workers inherit, they do not rebuild.**  The parent constructs and
  pre-warms the whole apparatus once (world, engine, ranking pools,
  digest caches — :meth:`Study.prefork_warmup`), then forked workers
  inherit it copy-on-write; ``spawn`` platforms receive the same built
  study pickled.  Everything inherited is either pure in the seed
  (world, caches — shared bytes, never diverge) or freshly zeroed
  serving state (sessions, rate-limiter windows, nonce counters — the
  state a rebuilt worker would start with anyway), so shard output is
  byte-identical to rebuilding from the config.  Workers rebuild only
  to recover a shard (the inherited object was advanced by the
  incarnation that died) or when the study will not pickle under
  ``spawn``; ``Study.worker_rebuilds`` counts both (0 on a clean fork
  run — the invariant the tests pin).
* **Everything else is request-determined.**  Nonces derive from
  (browser id, per-browser ordinal); DNS rotation keys on the nonce;
  per-datacenter index skew keys on the DNS-resolved frontend IP;
  sessions key on per-browser cookies.  None of it depends on how
  requests from different treatments interleave.
* **The merge is a canonical-order sort.**  Workers stream one message
  per completed round; the parent flushes rounds in schedule order,
  each round's outcomes sorted by treatment index — the exact order
  the in-process run produces.  :class:`CrawlStats` counters are sums
  and merge associatively.
* **Checkpoints are merge-time.**  Every worker ships its
  :meth:`Study.capture_state` snapshot with every round (the
  supervisor recovers dead workers from it); under ``checkpoint=path``
  the parent's :class:`~repro.core.runner.RunOutputs` also journals a
  round (outcomes + all shard states) durably *before* releasing it to
  the dataset and sink.  On resume, every shard restores its own
  snapshot and re-enters the schedule at the first un-journalled round
  — a worker that had raced ahead of the durable prefix simply
  re-crawls, byte-identically, because its state was reset to the
  prefix boundary.

The result: ``SerpDataset``, ``CrawlStats``, and the failure list are
byte-identical to ``Study.run()`` on a single core, for any worker
count, with or without the serving gateway in the path, and with or
without worker deaths or a kill-and-resume in between.
"""

from __future__ import annotations

import multiprocessing
import pickle
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.datastore import SerpDataset
from repro.core.runner import RunOutputs, Study
from repro.supervise.stats import SupervisorReport
from repro.supervise.supervisor import KillSpec, SupervisorPolicy, _Supervisor

__all__ = ["ShardPlan", "plan_shards", "run_parallel"]

#: Per-worker message-queue slack before backpressure kicks in.
_QUEUE_DEPTH_PER_WORKER = 8


@dataclass(frozen=True)
class ShardPlan:
    """Treatment → worker assignment for one study."""

    workers: int
    """Effective worker count (clamped to the number of machine groups)."""

    assignments: Tuple[Tuple[int, ...], ...]
    """Per worker, the treatment indices it crawls (ascending)."""

    def __post_init__(self) -> None:
        seen = set()
        for shard in self.assignments:
            for index in shard:
                if index in seen:
                    raise ValueError(f"treatment {index} assigned twice")
                seen.add(index)


def plan_shards(
    treatment_count: int, machine_count: int, workers: int
) -> ShardPlan:
    """Partition treatments so no crawl machine spans two workers.

    Treatments sharing a machine share a client IP; the engine's
    rolling per-IP rate limiter must see that IP's requests as one
    ordered sequence for parity, so the machine group is the atomic
    unit of sharding.  Workers the plan cannot feed (more workers than
    occupied machines) are dropped rather than spawned idle.
    """
    if treatment_count < 1:
        raise ValueError("need at least one treatment")
    if machine_count < 1:
        raise ValueError("need at least one machine")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    occupied_machines = min(machine_count, treatment_count)
    effective = min(workers, occupied_machines)
    shards: List[List[int]] = [[] for _ in range(effective)]
    for index in range(treatment_count):
        machine = index % machine_count
        shards[machine % effective].append(index)
    return ShardPlan(
        workers=effective,
        assignments=tuple(tuple(shard) for shard in shards),
    )


def _preferred_start_method() -> str:
    """``fork`` where the platform offers it (cheap: workers inherit the
    parent's warmed study copy-on-write), else the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def run_parallel(
    study: Study,
    *,
    workers: int,
    sink=None,
    start_method: Optional[str] = None,
    checkpoint: Optional[str] = None,
    trace: Optional[str] = None,
    events: Optional[str] = None,
    policy: Optional[SupervisorPolicy] = None,
    kill_specs: Sequence[KillSpec] = (),
) -> SerpDataset:
    """Run ``study``'s full schedule sharded across supervised workers.

    The parent merges worker results back in canonical (round,
    treatment) order, feeds ``sink`` record-by-record in that order,
    and leaves ``study.stats`` / ``study.failures`` holding the merged
    counters — exactly the observable state a sequential
    :meth:`Study.run` leaves behind.  Crashed, hung or erroring workers
    are recovered (see :mod:`repro.supervise`); the
    :class:`~repro.supervise.SupervisorReport` (counters + ordered
    recovery ledger) is left on ``study.supervisor``.

    Args:
        study: A freshly constructed study (its browsers must not have
            issued any requests — per-browser nonce streams restart in
            each worker).
        workers: Requested worker count; the effective count is
            clamped to the number of occupied crawl machines.  Even
            ``1`` runs in a separate, killable worker process.
        sink, checkpoint, trace, events: As in :meth:`Study.run`, and
            handled by the same :class:`~repro.core.runner.RunOutputs`.
            A round is released once *every* shard has reported it; the
            trace gains ``supervisor.*`` spans for recovery events.
        start_method: ``multiprocessing`` start method override
            (default: ``fork`` when available).
        policy: Detection/recovery knobs (default
            :class:`~repro.supervise.SupervisorPolicy`).
        kill_specs: :class:`~repro.supervise.KillSpec` murder points
            (tests and the chaos CLI).

    Returns:
        The merged :class:`SerpDataset`.
    """
    if study.stats.requests or study.failures:
        raise ValueError(
            "parallel run requires a freshly constructed Study "
            "(this one has already crawled)"
        )
    plan = plan_shards(len(study.treatments), len(study.fleet), workers)
    report = SupervisorReport(workers=plan.workers)
    study.supervisor = report
    outputs = RunOutputs(
        study,
        workers=plan.workers,
        sink=sink,
        checkpoint=checkpoint,
        trace=trace,
        events=events,
    )
    supervisor = None
    try:
        context = multiprocessing.get_context(
            start_method or _preferred_start_method()
        )
        # Zero-rebuild delivery: warm every pure cache once in the
        # parent, then hand first-generation workers the built study
        # itself — inherited copy-on-write under fork, pickled by
        # multiprocessing under spawn.  Only a study that cannot pickle
        # makes spawn workers rebuild from the config.
        payload = study
        study.prefork_warmup()
        if context.get_start_method() != "fork":
            try:
                pickle.dumps(study)
            except Exception:
                payload = study.config
        supervisor = _Supervisor(
            study,
            plan,
            policy or SupervisorPolicy(),
            report,
            context,
            context.Queue(maxsize=plan.workers * _QUEUE_DEPTH_PER_WORKER),
            payload=payload,
            outputs=outputs,
            kill_specs=tuple(kill_specs),
        )
        supervisor.run()
    finally:
        if outputs.trace is not None and report.events:
            outputs.trace.add_trees(
                supervisor.event_trees(
                    outputs.trace.trace_id, study.tracer.study_span_id()
                )
            )
        outputs.close()
        if supervisor is not None:
            supervisor.shutdown()
    return outputs.dataset
