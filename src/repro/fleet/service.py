"""The experiment service: the one supported way to run experiments.

Every driver — ``pgss-sim run-all``, ``figure``, ``report``, the
``jobs`` CLI, and any future sweep — goes through the same four-verb
facade::

    service = LocalService(ctx, jobs=4)          # or QueueService(ctx, dir)
    handle  = service.submit(figures="2,12")     # enqueue cells
    status  = service.wait(handle)               # or poll service.status()
    text    = service.fetch(handle)              # assemble the report
    service.cancel(handle)                       # abandon pending work

Two backends implement the interface, over one orchestration path:

* :class:`QueueService` — the fleet backend.  ``submit()`` writes tasks
  into a shared :class:`~repro.fleet.queue.JobQueue` directory and
  returns immediately; any number of ``pgss-sim worker`` processes on
  any number of hosts execute them, and ``wait()`` just polls the queue.
* :class:`LocalService` — the single-host backend: a
  :class:`QueueService` over a private temporary queue whose ``wait()``
  drains it with the same :class:`~repro.fleet.worker.Worker` loop, in
  the calling process (``jobs=1``) or in N worker processes.
  ``run-all --jobs N`` is ``submit`` + ``wait`` + ``fetch`` on it.

Both publish results exclusively through the content-addressed
:class:`~repro.experiments.cache.ResultCache`, so a report fetched after
a fleet run is byte-identical to one fetched after a serial run.
"""

from __future__ import annotations

import abc
import multiprocessing
import multiprocessing.connection
import shutil
import tempfile
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..errors import FleetError
from ..experiments.cells import ExperimentCell, enumerate_cells
from ..experiments.report import generate_report, resolve_figure_ids
from ..experiments.runner import ExperimentContext
from .queue import (
    DEFAULT_LEASE_S,
    JobQueue,
    JobState,
    context_from_doc,
    context_to_doc,
)
from .worker import DEFAULT_TIMEOUT_S, Worker

__all__ = [
    "ExperimentService",
    "JobHandle",
    "LocalService",
    "QueueService",
]

FigureSpec = Union[str, Sequence[str], None]

#: Default number of retries after a failed or lost attempt.
DEFAULT_RETRIES = 1

#: Queue poll interval of local workers.  Short, because a draining
#: worker polls until its siblings release their last leases.
_LOCAL_POLL_S = 0.02


@dataclass(frozen=True)
class JobHandle:
    """Opaque reference to one submitted job.

    The ``job_id`` string round-trips through the CLI (``pgss-sim jobs
    status <id>``); ``figures`` carries the submitted figure numbers so
    ``fetch`` can assemble exactly the requested report.
    """

    job_id: str
    figures: Optional[Tuple[str, ...]] = None

    def __str__(self) -> str:
        return self.job_id


class ExperimentService(abc.ABC):
    """Abstract front door: submit experiment cells, poll, fetch figures."""

    def __init__(self, ctx: ExperimentContext) -> None:
        self.ctx = ctx

    # -- the four verbs -------------------------------------------------

    @abc.abstractmethod
    def submit(
        self,
        figures: FigureSpec = None,
        cells: Optional[Sequence[ExperimentCell]] = None,
    ) -> JobHandle:
        """Enqueue a job: either figure ids (default: all) or raw cells."""

    @abc.abstractmethod
    def status(self, handle: Union[JobHandle, str]) -> JobState:
        """Current aggregate state of the job."""

    @abc.abstractmethod
    def wait(
        self,
        handle: Union[JobHandle, str],
        timeout_s: Optional[float] = None,
    ) -> JobState:
        """Block until the job reaches a terminal state (or *timeout_s*)."""

    @abc.abstractmethod
    def cancel(self, handle: Union[JobHandle, str]) -> bool:
        """Prevent pending cells from running; True if anything changed."""

    # -- shared behaviour ----------------------------------------------

    def fetch(
        self,
        handle: Union[JobHandle, str],
        figures: FigureSpec = None,
    ) -> str:
        """Assemble the job's report from the (now warm) result cache.

        Requires the job to be ``done``; fetching earlier would silently
        recompute missing cells in-process, defeating the fleet.
        """
        state = self.status(handle)
        if state.state != "done":
            raise FleetError(
                f"job {state.job_id} is {state.state}, not done; "
                "fetch() only assembles completed jobs "
                f"(counts: {state.counts}, failures: {state.failures})"
            )
        numbers = self._fetch_figures(handle, figures)
        return generate_report(self.ctx, figures=numbers)

    def _fetch_figures(
        self, handle: Union[JobHandle, str], figures: FigureSpec
    ) -> Optional[List[str]]:
        if figures is not None:
            numbers, _ = resolve_figure_ids(figures)
            return numbers
        if isinstance(handle, JobHandle) and handle.figures is not None:
            return list(handle.figures)
        return None

    @staticmethod
    def _job_id(handle: Union[JobHandle, str]) -> str:
        return handle.job_id if isinstance(handle, JobHandle) else str(handle)


class QueueService(ExperimentService):
    """Fleet backend over a shared :class:`JobQueue` directory."""

    def __init__(
        self,
        ctx: ExperimentContext,
        queue_dir: Path,
        lease_s: float = DEFAULT_LEASE_S,
        priority: int = 50,
        retries: int = DEFAULT_RETRIES,
        poll_s: float = 0.5,
    ) -> None:
        super().__init__(ctx)
        self.queue = JobQueue(Path(queue_dir), lease_s=lease_s)
        self.priority = priority
        self.retries = retries
        self.poll_s = max(float(poll_s), 0.01)

    @classmethod
    def from_queue(cls, queue_dir: Path, job_id: str) -> "QueueService":
        """Rebuild a service for an existing job from its manifest.

        Lets ``pgss-sim jobs status/fetch/cancel <id>`` run in a fresh
        process: the manifest's context document is authoritative, so the
        report is assembled against exactly the submitted scale,
        machine, cache directory, and benchmark list.
        """
        queue = JobQueue(Path(queue_dir))
        manifest = queue.manifest(job_id)
        return QueueService(context_from_doc(manifest["spec"]), Path(queue_dir))

    def handle(self, job_id: str) -> JobHandle:
        """A full handle (with figure ids) for an existing job."""
        manifest = self.queue.manifest(job_id)
        figures = tuple(manifest.get("figures") or ()) or None
        return JobHandle(job_id, figures)

    def submit(
        self,
        figures: FigureSpec = None,
        cells: Optional[Sequence[ExperimentCell]] = None,
    ) -> JobHandle:
        numbers, modules = resolve_figure_ids(figures)
        if cells is None:
            cells = enumerate_cells(self.ctx, figures=modules)
        job_id = self.queue.submit(
            cells,
            context_to_doc(self.ctx),
            figures=numbers,
            priority=self.priority,
            retries=self.retries,
        )
        return JobHandle(job_id, tuple(numbers) if numbers else None)

    def status(self, handle: Union[JobHandle, str]) -> JobState:
        return self.queue.status(self._job_id(handle))

    def wait(
        self,
        handle: Union[JobHandle, str],
        timeout_s: Optional[float] = None,
    ) -> JobState:
        # Orchestration wall clock: bounds how long we poll a shared
        # directory for workers elsewhere; never touches simulated state.
        deadline = (
            None
            if timeout_s is None
            else time.time() + timeout_s  # simlint: disable=DET004
        )
        while True:
            state = self.status(handle)
            if state.finished:
                return state
            if deadline is not None and time.time() >= deadline:  # simlint: disable=DET004
                return state
            time.sleep(self.poll_s)

    def cancel(self, handle: Union[JobHandle, str]) -> bool:
        return self.queue.cancel(self._job_id(handle))

    def fetch(
        self,
        handle: Union[JobHandle, str],
        figures: FigureSpec = None,
    ) -> str:
        if figures is None and not isinstance(handle, JobHandle):
            handle = self.handle(str(handle))
        return super().fetch(handle, figures=figures)


def _drain_queue(
    queue_dir: Path,
    timeout_s: Optional[float],
    progress: Optional[Callable[[str], None]],
) -> int:
    """Run one draining local worker over *queue_dir*; cells executed."""
    worker = Worker(
        queue_dir,
        timeout_s=timeout_s,
        poll_s=_LOCAL_POLL_S,
        drain=True,
        checkpoint_windows=0,
        progress=progress,
    )
    return worker.run()


class LocalService(QueueService):
    """Single-host backend: a :class:`QueueService` over a private queue.

    The queue lives in a temporary directory the service owns.
    ``submit`` enqueues the job's cells there; ``wait`` drains the queue
    with the fleet :class:`~repro.fleet.worker.Worker` loop — in the
    calling process for ``jobs=1``, in *jobs* worker processes
    otherwise — so claims, retries and time budgets are the fleet's
    own.  Handles resolve only through this service instance.

    Args:
        ctx: experiment context the cells run against.
        jobs: worker count; 1 runs the cells in the calling process.
        timeout_s: per-cell wall-clock budget (None disables it).
        retries: additional attempts after a failed or lost attempt.
        progress: callable receiving one line per claimed/finished cell
            (None = silent); worker processes inherit it.
    """

    def __init__(
        self,
        ctx: ExperimentContext,
        jobs: int = 1,
        timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
        retries: int = DEFAULT_RETRIES,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if jobs < 1:
            raise FleetError(f"jobs must be >= 1, got {jobs}")
        queue_dir = tempfile.mkdtemp(prefix="pgss-local-queue-")
        weakref.finalize(self, shutil.rmtree, queue_dir, ignore_errors=True)
        super().__init__(ctx, Path(queue_dir), retries=retries)
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.progress = progress

    def wait(
        self,
        handle: Union[JobHandle, str],
        timeout_s: Optional[float] = None,
    ) -> JobState:
        """Drain the private queue until the job is finished.

        Local workers execute every queued cell, so *timeout_s* is not
        consulted.  If every worker exits while the job is unfinished (a
        worker process died holding a lease), another round starts; each
        reaped lease charges an attempt, so the rounds end once retry
        budgets are spent.
        """
        state = self.status(handle)
        while not state.finished:
            if self.jobs == 1:
                _drain_queue(self.queue.root, self.timeout_s, self.progress)
            else:
                self._drain_in_processes()
            state = self.status(handle)
        return state

    def _drain_in_processes(self) -> None:
        """One round of ``jobs`` draining worker processes."""
        args = (self.queue.root, self.timeout_s, self.progress)
        procs = [
            multiprocessing.Process(target=_drain_queue, args=args)
            for _ in range(self.jobs)
        ]
        for proc in procs:
            proc.start()
        alive = {proc.sentinel: proc for proc in procs}
        try:
            while alive:
                # Join each worker as soon as it exits: an unjoined child
                # stays a zombie, and a zombie's pid still looks alive to
                # the queue's lease check, stranding its lease.
                ready = multiprocessing.connection.wait(list(alive))
                for sentinel in [s for s in alive if s in ready]:
                    alive.pop(sentinel).join()
        finally:
            for proc in alive.values():
                proc.terminate()
                proc.join()
