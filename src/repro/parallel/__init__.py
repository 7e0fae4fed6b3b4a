"""Parallel crawl execution: shard the lock-step study across processes.

Public surface:

* :func:`run_parallel` — execute a :class:`~repro.core.runner.Study`
  sharded over N supervised worker processes, byte-identical to the
  sequential run (reachable as ``Study.run(workers=N)``);
* :func:`plan_shards` / :class:`ShardPlan` — the machine-granular
  treatment partition the parity argument rests on.
"""

from repro.parallel.executor import (
    ShardPlan,
    plan_shards,
    run_parallel,
)

__all__ = [
    "ShardPlan",
    "plan_shards",
    "run_parallel",
]
