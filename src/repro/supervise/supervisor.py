"""Self-healing parallel execution: the one crawl executor.

The paper's 44-machine lock-step crawl only worked because a dead
machine could be re-imaged and rejoined without invalidating the other
43.  Every multi-worker run (``Study.run(workers=N)``, i.e.
:func:`repro.parallel.run_parallel`) has the same property on one host:
worker processes are monitored, failures are classified, and the failed
worker's shard is re-executed from its last state snapshot — on a
respawned process or reassigned to a surviving worker — with the merged
dataset staying byte-identical to the sequential run.

Execution model
---------------
Workers are *shard executors*, not one-shot processes: each worker
loops on a private command queue, receiving ``("run", shard, indices,
start_ordinal, state, generation)`` assignments and streaming results
back over the shared result queue.  That is what makes reassignment
cheap — handing a dead worker's shard to an idle survivor is just
another command, no new process required — and what lets the pool
degrade gracefully from N workers to N−1 … 1.

A shard's first incarnation (generation 0) crawls the study the worker
*inherited*: the parent's built-and-warmed study, copy-on-write under
``fork`` or pickled under ``spawn``.  Recovery incarnations (generation
≥ 1) rebuild a fresh :class:`Study` from the config and restore the
shard's snapshot, because the inherited object was already advanced by
the incarnation that died.

Detection
---------
* **Crash** — the worker process has an exit code while its shard is
  unfinished (OOM kill, ``os._exit``, interpreter abort).  Detected by
  polling ``Process.exitcode``; in-flight messages are drained first so
  the resume point is as far forward as the worker actually got.
* **Stall** — the worker is alive but silent.  Liveness is virtual-time
  first: every worker heartbeats at each round boundary with its
  schedule position, so a worker ``stall_rounds`` behind the leader
  that has also been wall-silent for ``stall_grace_seconds`` missed its
  deadline.  A pure wall-clock watchdog (``stall_timeout_seconds``)
  backstops the case where *no* leader is advancing (e.g. workers=1).
  Stalled workers are SIGKILLed and handled like crashes.
* **Worker error** — the shard raised inside a live worker; the worker
  reports a traceback and stays in the pool.

Recovery
--------
The shard's last accepted per-round snapshot (the same
:meth:`Study.capture_state` payload checkpoint resume uses) restores
engine/browser/stats state exactly, so re-execution resumes at the
first unreceived round and is byte-identical — the partial round a
crash discarded is re-crawled from the same state it started from.  A
shard that fails ``quarantine_after`` consecutive times *without
delivering a round* is deterministic-failure-quarantined: its crawled
prefix is kept, every remaining (round × treatment) cell becomes a
structured ``CrawlFailure(kind="shard-quarantined")``, and the hole
stays visible in ``per_location_coverage`` — never silent loss.

Journal
-------
With a checkpoint journal, a round is journalled at flush time —
outcomes in canonical order plus every shard's post-round snapshot —
*before* it is released to the dataset and sink.  A quarantined shard's
state line carries a ``quarantine`` marker (resume point and failure
count), so a resumed run re-quarantines the shard instead of replaying
its stale snapshot.

Determinism under test
----------------------
:class:`KillSpec` murders workers at exact points (round boundary or
the Nth request of a round) for the parity matrix, and
``FaultPlan.worker_fault`` drives chaos-style crashes/stalls keyed on
(request nonce, incarnation generation) — generation keying is what
lets a respawned worker get *past* the request that killed its
predecessor, so plan-driven crashes recover instead of looping.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.runner import CrawlFailure, CrawlStats, RunOutputs, Study
from repro.faults.injector import FaultStats
from repro.seeding import stable_hash
from repro.supervise.stats import SupervisorEvent, SupervisorReport

__all__ = ["KillSpec", "SupervisorPolicy"]

#: Exit codes chosen by injected kills (visible in ledger details).
_BOUNDARY_CRASH_EXIT = 73
_MIDROUND_CRASH_EXIT = 74
_PLAN_CRASH_EXIT = 57


@dataclass(frozen=True)
class SupervisorPolicy:
    """Detection/recovery knobs for one supervised run.

    The defaults are deliberately conservative: false stall positives
    only cost wasted re-execution (parity is unaffected and the
    quarantine counter resets on progress), but a too-eager watchdog
    on a loaded CI host would churn.
    """

    quarantine_after: int = 3
    """Consecutive failures *without progress* before a shard is
    quarantined.  The counter resets every time the shard delivers a
    round, so an unlucky chaos plan does not look deterministic."""

    max_respawns: Optional[int] = None
    """Replacement-process budget for the whole run (``None`` =
    unlimited).  Once exhausted, recovery degrades to reassigning
    shards to surviving workers."""

    stall_timeout_seconds: float = 120.0
    """Wall-clock silence after which a busy worker is presumed hung,
    regardless of schedule position (the watchdog fallback)."""

    stall_grace_seconds: float = 10.0
    """Minimum wall-clock silence before the virtual deadline below
    may fire (absorbs scheduler hiccups on loaded hosts)."""

    stall_rounds: int = 2
    """Virtual-time liveness deadline: a silent worker this many rounds
    behind the most advanced shard has missed its heartbeat."""

    poll_seconds: float = 0.2
    """Result-queue poll interval (bounds detection latency)."""

    def __post_init__(self) -> None:
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.max_respawns is not None and self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0 or None")
        if self.stall_rounds < 1:
            raise ValueError("stall_rounds must be >= 1")


@dataclass(frozen=True)
class KillSpec:
    """Kill a worker at an exact, reproducible point (test harness).

    A spec targets a *shard* (not a worker slot — reassignment moves
    shards between slots) and fires inside whichever incarnation is
    executing it.
    """

    shard: int
    """Shard the kill targets."""

    ordinal: int
    """Schedule round the kill fires in."""

    request: Optional[int] = None
    """``None`` kills at the round boundary, *after* the round's result
    message is flushed to the parent; ``n`` kills mid-round, before the
    shard's n-th engine request of that round is dispatched."""

    mode: str = "crash"
    """``"crash"`` = ``os._exit`` (SIGKILL-equivalent); ``"stall"`` =
    block forever (exercises the hang watchdog)."""

    generation: Optional[int] = 0
    """Which incarnation dies: ``0`` = only the first (recovery
    succeeds), ``None`` = every incarnation (deterministic failure —
    the quarantine path)."""

    def __post_init__(self) -> None:
        if self.mode not in ("crash", "stall"):
            raise ValueError(f"unknown kill mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _WorkerHarness:
    """One shard execution inside a worker process.

    Bridges three things into the running :class:`Study`:
    heartbeats/results onto the parent's queue, :class:`KillSpec`
    murder points, and the ``FaultPlan`` worker-fault context (the
    injector calls :meth:`crash`/:meth:`stall` through the duck-typed
    ``worker_context`` hook, keyed on :attr:`generation`).
    """

    def __init__(
        self,
        worker_id: int,
        shard_id: int,
        generation: int,
        result_queue,
        kill_specs: Sequence[KillSpec],
    ) -> None:
        self.worker_id = worker_id
        self.shard_id = shard_id
        self.generation = generation
        self.queue = result_queue
        self.specs = [
            spec
            for spec in kill_specs
            if spec.shard == shard_id
            and spec.generation in (None, generation)
        ]
        self._ordinal = -1
        self._submits = 0

    def arm(self, study: Study) -> None:
        self.study = study
        network = study.network
        # Plan-driven worker faults fire only inside worker processes:
        # the injector consults this context (when the plan carries
        # worker rates) before dispatching each request.
        network.worker_context = self
        if any(spec.request is not None for spec in self.specs):
            original = network.submit

            def submit(*args, **kwargs):
                self._submits += 1
                for spec in self.specs:
                    if (
                        spec.request is not None
                        and spec.ordinal == self._ordinal
                        and spec.request == self._submits
                    ):
                        self._die(spec.mode, flush=False)
                return original(*args, **kwargs)

            network.submit = submit

    def heartbeat(self, ordinal: int, timestamp: float) -> None:
        self._ordinal = ordinal
        self._submits = 0
        self.queue.put(
            ("heartbeat", self.worker_id, self.shard_id, ordinal, timestamp)
        )

    def emit_round(self, scheduled, outcomes, spans) -> None:
        # Recovery resumes a shard from its last accepted round, so a
        # worker snapshots every round, journal or not.
        ordinal = scheduled.ordinal
        state = self.study.capture_state(scheduled.timestamp)
        self.queue.put(
            ("round", self.worker_id, self.shard_id, ordinal, outcomes, state, spans)
        )
        for spec in self.specs:
            if spec.request is None and spec.ordinal == ordinal:
                self._die(spec.mode, flush=True)

    # -- murder weapons (also the FaultPlan worker_context protocol) ----------

    def crash(self) -> None:
        """Plan-driven crash, pre-dispatch: nothing of the partial
        round escapes the process, so resume is byte-exact."""
        self._flush_queue()
        os._exit(_PLAN_CRASH_EXIT)

    def stall(self) -> None:
        """Plan-driven hang: block until the supervisor SIGKILLs us."""
        while True:
            time.sleep(3600)

    def _flush_queue(self) -> None:
        """Drain the feeder thread before dying.

        ``multiprocessing.Queue`` writes happen on a background feeder
        thread under a write lock *shared across processes*.  Exiting
        while our feeder is mid-write would take that lock to the
        grave and wedge every surviving worker's queue — so even
        "dirty" deaths drain first.  The current partial round is still
        discarded with the process: its round message was never
        enqueued, only already-complete rounds and heartbeats flush.
        """
        try:
            self.queue.close()
            self.queue.join_thread()
        except Exception:
            pass

    def _die(self, mode: str, *, flush: bool) -> None:
        self._flush_queue()
        if mode == "stall":
            self.stall()
        os._exit(_BOUNDARY_CRASH_EXIT if flush else _MIDROUND_CRASH_EXIT)


def _inherits(payload, generation: int) -> bool:
    """Whether an incarnation crawls the worker's inherited study.

    Only a shard's first incarnation may: a recovery incarnation
    follows one that already advanced the inherited object, and a
    :class:`StudyConfig` payload (a study that would not pickle under
    ``spawn``) has nothing to inherit.
    """
    return generation == 0 and isinstance(payload, Study)


def _worker_loop(
    worker_id: int,
    payload,
    result_queue,
    command_queue,
    kill_specs: Tuple[KillSpec, ...],
    trace: bool,
) -> None:
    """Worker loop: execute shard assignments until told to exit.

    ``payload`` is the parent's built-and-warmed :class:`Study` (or its
    :class:`StudyConfig` on the rebuild fallback and in respawned
    workers).  A generation-0 assignment crawls the inherited study
    as-is; later generations rebuild from the config.  Either way the
    shard's snapshot, if one is given, is restored first, so a resumed,
    reassigned or respawned shard continues exactly where the last
    *accepted* round left off.
    """
    config = payload.config if isinstance(payload, Study) else payload
    while True:
        command = command_queue.get()
        if command[0] == "exit":
            return
        _, shard_id, indices, start_ordinal, state, generation = command
        try:
            study = payload if _inherits(payload, generation) else Study(config)
            if state is not None:
                study.restore_state(state)
            harness = _WorkerHarness(
                worker_id, shard_id, generation, result_queue, kill_specs
            )
            harness.arm(study)
            study.run_shard(
                list(indices),
                on_round=harness.emit_round,
                on_round_start=harness.heartbeat,
                start_ordinal=start_ordinal,
                trace=trace,
            )
            result_queue.put(
                ("shard-done", worker_id, shard_id, study.stats, study.fault_stats)
            )
        except BaseException:
            result_queue.put(
                ("error", worker_id, shard_id, traceback.format_exc())
            )


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclass
class _ShardState:
    """Parent-side bookkeeping for one shard's lifecycle."""

    shard_id: int
    indices: Tuple[int, ...]
    next_ordinal: int = 0
    """First round not yet accepted — the resume point."""
    snapshot: Optional[dict] = None
    """Last accepted round's :meth:`Study.capture_state` payload."""
    generation: int = 0
    """Total failures so far == incarnation number of the next run."""
    failures_since_progress: int = 0
    done: bool = False
    quarantined: bool = False
    worker: Optional[int] = None
    """Slot currently executing this shard (None = unassigned)."""
    last_virtual: float = 0.0
    """Virtual minutes of the last heartbeat (schedule position)."""

    @classmethod
    def from_journal(
        cls, shard_id: int, indices, next_ordinal: int, state: Optional[dict]
    ) -> "_ShardState":
        """The shard as a journal's durable prefix left it."""
        if state is None or "quarantine" not in state:
            return cls(shard_id, tuple(indices), next_ordinal, state)
        snapshot = dict(state)
        marker = snapshot.pop("quarantine")
        return cls(
            shard_id,
            tuple(indices),
            marker["next_ordinal"],
            snapshot or None,
            failures_since_progress=marker["failures"],
            quarantined=True,
        )

    def journal_state(self) -> dict:
        """This shard's state line once quarantined: the kept prefix's
        snapshot plus the marker :meth:`from_journal` reads back."""
        marker = {
            "next_ordinal": self.next_ordinal,
            "failures": self.failures_since_progress,
        }
        return dict(self.snapshot or {}, quarantine=marker)


@dataclass
class _WorkerSlot:
    """Parent-side bookkeeping for one worker slot."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    command_queue: object
    shard: Optional[int] = None
    """Shard this slot is executing (None = idle)."""
    dead: bool = False
    retired: bool = False
    """Counted as lost capacity already (degradation N -> N-1)."""
    last_message_wall: float = field(default_factory=time.monotonic)

    @property
    def available(self) -> bool:
        return not self.dead and self.shard is None


class _Supervisor:
    """The parent-side supervision loop for one run.

    ``payload`` is what first-generation workers inherit (the warmed
    study, or its config on the rebuild fallback); ``outputs`` is the
    run's :class:`~repro.core.runner.RunOutputs`, whose durable journal
    prefix seeds every shard's resume point and snapshot, and which
    receives every merged round.
    """

    def __init__(
        self,
        study: Study,
        plan,
        policy: SupervisorPolicy,
        report: SupervisorReport,
        context,
        result_queue,
        *,
        payload,
        outputs: RunOutputs,
        kill_specs: Tuple[KillSpec, ...] = (),
    ) -> None:
        self.study = study
        self.policy = policy
        self.report = report
        self.stats = report.stats
        self.context = context
        self.result_queue = result_queue
        self.payload = payload
        self.outputs = outputs
        self.kill_specs = kill_specs
        self.total_rounds = study.round_count()
        self.slots: List[_WorkerSlot] = []
        self.orphans: deque = deque()
        self.respawns_used = 0
        # Merge state: arrivals hold shard-id *sets* (a shard's round
        # can arrive from any incarnation, but only once); round_states
        # hold each shard's post-round snapshot until the round is
        # journalled.
        self.pending: Dict[int, list] = {}
        self.spans: Dict[int, list] = {}
        self.arrivals: Dict[int, Set[int]] = {}
        self.round_states: Dict[int, Dict[int, dict]] = {}
        self.next_flush = outputs.next_ordinal
        self.shards = [
            _ShardState.from_journal(
                i, indices, self.next_flush, outputs.resume_states.get(i)
            )
            for i, indices in enumerate(plan.assignments)
        ]
        self._all_shards = frozenset(s.shard_id for s in self.shards)
        for shard in self.shards:
            if shard.quarantined:
                self.stats.quarantined_shards += 1
                self._forfeit(shard)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for shard in self.shards:
            if not shard.quarantined:
                slot = self._spawn_slot(len(self.slots), self.payload)
                self.slots.append(slot)
                self._assign(shard, slot)

    def _spawn_slot(self, worker_id: int, payload) -> _WorkerSlot:
        command_queue = self.context.Queue()
        process = self.context.Process(
            target=_worker_loop,
            args=(
                worker_id,
                payload,
                self.result_queue,
                command_queue,
                self.kill_specs,
                self.outputs.trace is not None,
            ),
            name=f"crawl-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        return _WorkerSlot(
            worker_id=worker_id, process=process, command_queue=command_queue
        )

    def _assign(self, shard: _ShardState, slot: _WorkerSlot) -> None:
        shard.worker = slot.worker_id
        slot.shard = shard.shard_id
        slot.last_message_wall = time.monotonic()
        # Generation-0 assignments only ever go to the initial slots,
        # which hold ``self.payload``; everything else rebuilds.
        if not _inherits(self.payload, shard.generation):
            self.study.worker_rebuilds += 1
        slot.command_queue.put(
            (
                "run",
                shard.shard_id,
                shard.indices,
                shard.next_ordinal,
                shard.snapshot,
                shard.generation,
            )
        )

    def run(self) -> None:
        self.start()
        while not all(s.done or s.quarantined for s in self.shards):
            try:
                message = self.result_queue.get(timeout=self.policy.poll_seconds)
            except queue_module.Empty:
                self._watchdog()
                continue
            self._dispatch(message)
            self._watchdog()
        self._flush_ready()
        if self.next_flush != self.total_rounds:
            raise RuntimeError(
                f"merge incomplete: flushed {self.next_flush} "
                f"of {self.total_rounds} rounds"
            )

    def shutdown(self) -> None:
        for slot in self.slots:
            if slot.dead:
                continue
            try:
                slot.command_queue.put(("exit",))
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        for slot in self.slots:
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for slot in self.slots:
            if slot.process.is_alive():
                slot.process.terminate()
        for slot in self.slots:
            slot.process.join()

    # -- message handling ----------------------------------------------------

    def _dispatch(self, message) -> None:
        kind = message[0]
        if kind == "heartbeat":
            _, worker_id, shard_id, ordinal, timestamp = message
            shard = self.shards[shard_id]
            if ordinal < shard.next_ordinal:
                return  # stale incarnation
            self._touch(worker_id)
            shard.last_virtual = timestamp
            self.stats.heartbeats += 1
        elif kind == "round":
            _, worker_id, shard_id, ordinal, outcomes, state, round_spans = message
            shard = self.shards[shard_id]
            self._touch(worker_id)
            if shard.done or shard.quarantined or ordinal != shard.next_ordinal:
                return  # duplicate from a dead incarnation
            self.pending.setdefault(ordinal, []).extend(outcomes)
            if round_spans is not None:
                self.spans.setdefault(ordinal, []).extend(round_spans)
            if self.outputs.journal is not None:
                self.round_states.setdefault(ordinal, {})[shard_id] = state
            self.arrivals.setdefault(ordinal, set()).add(shard_id)
            shard.snapshot = state
            shard.next_ordinal = ordinal + 1
            shard.failures_since_progress = 0
            self.stats.rounds_received += 1
            self._flush_ready()
        elif kind == "shard-done":
            _, worker_id, shard_id, stats, fault_stats = message
            shard = self.shards[shard_id]
            self._touch(worker_id)
            if shard.done or shard.quarantined:
                return
            if shard.next_ordinal != self.total_rounds:
                return  # stale incarnation that resumed behind a newer one
            shard.done = True
            shard.worker = None
            # The completing incarnation restored the shard's snapshot,
            # so its counters cover the *whole* shard — merge once.
            self.study.stats.merge(stats)
            self.study.fault_stats.merge(fault_stats)
            self._release_slot(self.slots[worker_id])
        else:  # "error"
            _, worker_id, shard_id, tb = message
            self._touch(worker_id)
            slot = self.slots[worker_id]
            slot.shard = None
            self.stats.worker_errors += 1
            detail = tb.strip().splitlines()[-1] if tb.strip() else "unknown error"
            self._handle_failure(
                self.shards[shard_id], slot, "worker-error", detail
            )

    def _touch(self, worker_id: int) -> None:
        self.slots[worker_id].last_message_wall = time.monotonic()

    def _flush_ready(self) -> None:
        """Release every round all shards have delivered, in order.

        :meth:`RunOutputs.release` journals the round (outcomes in
        canonical order plus every shard's state) *before* its records
        reach the dataset and sink.
        """
        while self.arrivals.get(self.next_flush) == self._all_shards:
            ordinal = self.next_flush
            outcomes = sorted(self.pending.pop(ordinal), key=lambda pair: pair[0])
            del self.arrivals[ordinal]
            self.outputs.release(
                ordinal,
                outcomes,
                self.round_states.pop(ordinal, None),
                self.spans.pop(ordinal, None),
            )
            self.next_flush += 1

    # -- detection -----------------------------------------------------------

    def _watchdog(self) -> None:
        now = time.monotonic()
        leader = max(
            (s.next_ordinal for s in self.shards if not s.quarantined),
            default=0,
        )
        for slot in self.slots:
            if slot.dead or slot.shard is None:
                continue
            shard = self.shards[slot.shard]
            if slot.process.exitcode is not None:
                # Drain in-flight messages first: the dead worker's
                # final rounds may still sit in the queue, and accepting
                # them moves the resume point forward.
                self._drain()
                if slot.dead or slot.shard is None:
                    continue  # the drain resolved it (e.g. shard-done)
                self.stats.crashes_detected += 1
                slot.dead = True
                slot.shard = None
                self._handle_failure(
                    shard,
                    slot,
                    "crash-detected",
                    f"exit code {slot.process.exitcode}",
                )
                continue
            silence = now - slot.last_message_wall
            wall_stalled = silence >= self.policy.stall_timeout_seconds
            virtual_stalled = (
                silence >= self.policy.stall_grace_seconds
                and leader - shard.next_ordinal >= self.policy.stall_rounds
            )
            if wall_stalled or virtual_stalled:
                self.stats.stalls_detected += 1
                slot.process.kill()
                slot.process.join()
                slot.dead = True
                slot.shard = None
                deadline = (
                    "wall watchdog" if wall_stalled else "virtual deadline"
                )
                self._handle_failure(
                    shard,
                    slot,
                    "stall-detected",
                    f"{deadline}: silent {silence:.1f}s at round "
                    f"{shard.next_ordinal} (leader {leader})",
                )

    def _drain(self) -> None:
        """Process every message already in the queue, without blocking."""
        while True:
            try:
                message = self.result_queue.get_nowait()
            except queue_module.Empty:
                return
            self._dispatch(message)

    # -- recovery ------------------------------------------------------------

    def _event(self, kind: str, shard: _ShardState, worker: int, detail: str) -> None:
        self.report.record(
            SupervisorEvent(
                kind=kind,
                worker=worker,
                shard=shard.shard_id,
                generation=shard.generation,
                resume_ordinal=shard.next_ordinal,
                virtual_minutes=shard.last_virtual,
                detail=detail,
            )
        )

    def _handle_failure(
        self, shard: _ShardState, slot: _WorkerSlot, kind: str, detail: str
    ) -> None:
        if shard.done or shard.quarantined:
            return
        shard.worker = None
        shard.generation += 1
        shard.failures_since_progress += 1
        self._event(kind, shard, slot.worker_id, detail)
        if shard.failures_since_progress >= self.policy.quarantine_after:
            self._quarantine(shard)
            return
        self._recover(shard)

    def _recover(self, shard: _ShardState) -> None:
        # Cheapest first: an idle surviving worker takes the shard with
        # no new process.  Otherwise respawn (within budget) to keep
        # pool capacity; otherwise park the shard until a survivor goes
        # idle — graceful degradation from N workers to N-1 ... 1.
        for slot in self.slots:
            if slot.available and slot.process.is_alive():
                self._reassign(shard, slot)
                return
        budget_left = (
            self.policy.max_respawns is None
            or self.respawns_used < self.policy.max_respawns
        )
        survivors = any(
            not slot.dead and slot.process.is_alive() for slot in self.slots
        )
        if budget_left or not survivors:
            # A respawn past the budget only happens when the pool is
            # empty — the alternative is deadlock, not degradation.
            self._respawn(shard)
            return
        self.orphans.append(shard.shard_id)

    def _respawn(self, shard: _ShardState) -> None:
        self.respawns_used += 1
        self.stats.respawns += 1
        # A replacement never runs a first incarnation, so it rebuilds
        # from the config rather than inheriting (or unpickling) the study.
        slot = self._spawn_slot(len(self.slots), self.study.config)
        self.slots.append(slot)
        self._assign(shard, slot)
        self._event(
            "respawned",
            shard,
            slot.worker_id,
            f"replacement process (generation {shard.generation})",
        )

    def _reassign(self, shard: _ShardState, slot: _WorkerSlot) -> None:
        self.stats.reassignments += 1
        self._retire_dead_slots()
        self._assign(shard, slot)
        self._event(
            "reassigned",
            shard,
            slot.worker_id,
            f"to surviving worker {slot.worker_id} "
            f"(generation {shard.generation})",
        )

    def _retire_dead_slots(self) -> None:
        """Book lost capacity once per dead slot we chose not to replace."""
        for slot in self.slots:
            if slot.dead and not slot.retired:
                slot.retired = True
                self.stats.workers_lost += 1

    def _release_slot(self, slot: _WorkerSlot) -> None:
        slot.shard = None
        if self.orphans:
            shard = self.shards[self.orphans.popleft()]
            self._reassign(shard, slot)

    # -- quarantine ----------------------------------------------------------

    def _quarantine(self, shard: _ShardState) -> None:
        """Give up on a deterministically failing shard — loudly."""
        shard.quarantined = True
        self.stats.quarantined_shards += 1
        self._event(
            "quarantined",
            shard,
            -1,
            f"after {shard.failures_since_progress} consecutive failures "
            f"without progress; rounds {shard.next_ordinal}.."
            f"{self.total_rounds - 1} forfeited",
        )
        self._forfeit(shard)

    def _forfeit(self, shard: _ShardState) -> None:
        """Account a quarantined shard's kept prefix and lost rounds.

        The crawled prefix is kept (stats from the last snapshot, rounds
        already merged); every remaining (round × treatment) cell
        becomes a structured failure that flows through
        ``per_location_coverage`` like any other, so the hole is
        visible, attributable, and never silent.  On resume the rounds
        before ``next_flush`` were already replayed from the journal,
        so only their counters are booked here.
        """
        if shard.snapshot is not None:
            prefix_stats = CrawlStats()
            prefix_stats.restore_state(shard.snapshot["stats"])
            self.study.stats.merge(prefix_stats)
            prefix_faults = FaultStats()
            prefix_faults.restore_state(shard.snapshot["fault_stats"])
            self.study.fault_stats.merge(prefix_faults)
        reason = (
            f"shard {shard.shard_id} quarantined after "
            f"{shard.failures_since_progress} consecutive worker failures"
        )
        state = shard.journal_state() if self.outputs.journal is not None else None
        for scheduled in self.study.iter_rounds():
            ordinal = scheduled.ordinal
            if ordinal < shard.next_ordinal:
                continue
            replayed = ordinal < self.next_flush
            for index in shard.indices:
                self.study.stats.record_failure_kind("shard-quarantined")
                self.stats.quarantined_failures += 1
                if replayed:
                    continue
                treatment = self.study.treatments[index]
                self.pending.setdefault(ordinal, []).append(
                    (
                        index,
                        CrawlFailure(
                            query=scheduled.query.text,
                            location_name=treatment.region.qualified_name,
                            day=scheduled.day_offset,
                            copy_index=treatment.copy_index,
                            reason=reason,
                            kind="shard-quarantined",
                        ),
                    )
                )
            if replayed:
                continue
            if state is not None:
                self.round_states.setdefault(ordinal, {})[shard.shard_id] = state
            self.arrivals.setdefault(ordinal, set()).add(shard.shard_id)

    # -- trace integration ---------------------------------------------------

    def event_trees(self, trace_id: str, root_id: str) -> List[dict]:
        """The recovery ledger as zero-length spans under the study root."""
        from repro.obs.trace import format_id

        trees = []
        for seq, event in enumerate(self.report.events):
            trees.append(
                {
                    "id": format_id(
                        stable_hash("supervisor-span", trace_id, seq)
                    ),
                    "parent": root_id,
                    "name": f"supervisor.{event.kind}",
                    "start": event.virtual_minutes,
                    "end": event.virtual_minutes,
                    "attrs": {
                        "worker": event.worker,
                        "shard": event.shard,
                        "generation": event.generation,
                        "resume_ordinal": event.resume_ordinal,
                        "detail": event.detail,
                    },
                    "events": [],
                    "children": [],
                }
            )
        return trees
