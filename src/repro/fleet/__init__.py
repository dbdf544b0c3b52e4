"""Distributed resumable experiment fleet.

The package behind ``pgss-sim jobs`` and ``pgss-sim worker``:

* :mod:`repro.fleet.queue` — the shared-directory :class:`JobQueue`
  (atomic claims, leases with heartbeats, priorities, retry budgets).
* :mod:`repro.fleet.worker` — the :class:`Worker` loop that claims
  cells, executes them (:meth:`Worker.run_one` is the only place a cell
  runs) with mid-cell checkpointing, and publishes through the result
  cache.
* :mod:`repro.fleet.service` — the :class:`ExperimentService` facade
  (``submit`` / ``status`` / ``fetch`` / ``cancel``), the one supported
  way to run experiments, with :class:`QueueService` (shared queue) and
  :class:`LocalService` (private queue drained by local workers)
  backends.
"""

from .queue import (
    DEFAULT_LEASE_S,
    ClaimedTask,
    JobQueue,
    JobState,
    QueueSweep,
    context_from_doc,
    context_to_doc,
)
from .service import ExperimentService, JobHandle, LocalService, QueueService
from .worker import (
    DEFAULT_CHECKPOINT_WINDOWS,
    DEFAULT_POLL_S,
    DEFAULT_TIMEOUT_S,
    Worker,
    run_worker,
)

__all__ = [
    "DEFAULT_CHECKPOINT_WINDOWS",
    "DEFAULT_LEASE_S",
    "DEFAULT_POLL_S",
    "DEFAULT_TIMEOUT_S",
    "ClaimedTask",
    "ExperimentService",
    "JobHandle",
    "JobQueue",
    "JobState",
    "LocalService",
    "QueueService",
    "QueueSweep",
    "Worker",
    "context_from_doc",
    "context_to_doc",
    "run_worker",
]
