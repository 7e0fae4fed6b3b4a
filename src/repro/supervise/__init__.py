"""Self-healing supervision for parallel crawls.

Every multi-worker run (:func:`repro.parallel.run_parallel`, reachable
as ``Study.run(workers=N)``) executes under the supervisor in
:mod:`repro.supervise.supervisor`: crash/hang detection, deterministic
recovery, quarantine, and the round journal.  Public surface:

* :class:`SupervisorPolicy` — detection/recovery knobs;
* :class:`KillSpec` — reproducible worker-murder points for tests and
  the ``repro chaos --kill-workers`` CLI;
* :class:`SupervisorStats` / :class:`SupervisorReport` /
  :class:`SupervisorEvent` — counters plus the ordered recovery ledger.
"""

from repro.supervise.stats import (
    SupervisorEvent,
    SupervisorReport,
    SupervisorStats,
)
from repro.supervise.supervisor import KillSpec, SupervisorPolicy

__all__ = [
    "KillSpec",
    "SupervisorEvent",
    "SupervisorPolicy",
    "SupervisorReport",
    "SupervisorStats",
]
