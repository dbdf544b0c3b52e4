"""The fleet worker: claims cells from a queue and executes them.

``pgss-sim worker --queue DIR`` runs this loop, and so does
:class:`~repro.fleet.service.LocalService` over its private queue:
:meth:`Worker.run_one` is the only place a cell is executed.  Each
claimed task runs against a context rebuilt from the document embedded
in the task, under a ``SIGALRM`` time budget — so a cell produces the
same cache bytes whether it runs in-process, in a local worker process,
or on a fleet worker three hosts away.  Results never travel through
the queue: they are published into the shared :class:`ResultCache`, and
the queue only records small outcome documents.

While a cell runs, a daemon heartbeat thread refreshes the task's lease
at a third of the lease interval.  If this process dies, the heartbeats
stop, the lease expires, and the next worker to scan the queue reaps
the claim and retries the cell — resuming mid-cell from the checkpoint
the dead worker left behind (long DETAIL cells checkpoint periodically;
see DESIGN.md §17).
"""

from __future__ import annotations

import math
import os
import signal
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from ..errors import FleetError, OrchestrationError
from ..experiments.cells import ExperimentCell, run_cell
from ..experiments.runner import ExperimentContext
from .queue import DEFAULT_LEASE_S, ClaimedTask, JobQueue, context_from_doc

__all__ = [
    "DEFAULT_CHECKPOINT_WINDOWS",
    "DEFAULT_POLL_S",
    "DEFAULT_TIMEOUT_S",
    "Worker",
    "run_worker",
]

#: Seconds an idle worker sleeps between queue scans.
DEFAULT_POLL_S = 0.5

#: Windows between two mid-cell checkpoint saves on fleet workers.
DEFAULT_CHECKPOINT_WINDOWS = 32

#: Default per-cell wall-clock budget.
DEFAULT_TIMEOUT_S = 600.0


class _CellTimeout(OrchestrationError):
    """Raised inside a worker when a cell exceeds its time budget."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise _CellTimeout("cell exceeded its time budget")


def _execute_cell(
    ctx: ExperimentContext,
    cell: ExperimentCell,
    timeout_s: Optional[float],
) -> Dict[str, Any]:
    """Run one cell against *ctx*; return a small status record.

    Results stay in the on-disk cache.  The timeout is enforced with
    ``SIGALRM``, so a hung cell cannot hold its lease forever.
    """
    # SIGALRM can only be armed on the main thread; a worker driven from
    # a helper thread (tests, embedders) runs without the in-process
    # timeout and relies on the queue's lease expiry instead.
    use_alarm = (
        bool(timeout_s)
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    previous_handler = None
    # Host timing here measures orchestration wall time for reporting; it
    # never influences simulated state.
    start = time.perf_counter()  # simlint: disable=DET005
    try:
        if use_alarm:
            previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
            signal.alarm(max(int(math.ceil(timeout_s or 0.0)), 1))
        run_cell(ctx, cell)
        status, error = "ok", ""
    except _CellTimeout:
        status, error = "timeout", f"exceeded {timeout_s:.0f}s budget"
    except Exception as exc:
        status, error = "error", f"{type(exc).__name__}: {exc}"
    finally:
        if use_alarm:
            signal.alarm(0)
            # The in-process worker shares the host's signal table;
            # leaving _on_alarm installed would turn any later alarm in
            # the host into a stray _CellTimeout.
            if previous_handler is not None:
                signal.signal(signal.SIGALRM, previous_handler)
    elapsed = time.perf_counter() - start  # simlint: disable=DET005
    return {"status": status, "seconds": elapsed, "error": error}


class Worker:
    """Claims, executes, heartbeats, and retires queue tasks.

    Args:
        queue: the shared :class:`JobQueue` (or a directory path).
        worker_id: stable identity recorded in leases and outcomes;
            defaults to ``<host>:<pid>:<token>``.
        timeout_s: per-cell wall-clock budget (enforced in-process via
            ``SIGALRM``).
        poll_s: idle sleep between scans when no task is claimable.
        drain: exit once the queue has no pending tasks and no active
            leases, instead of waiting for new work forever.
        max_cells: stop after executing this many cells (0 = unlimited);
            mainly for tests and batch-scheduler time slicing.
        checkpoint_windows: trace-cell checkpoint interval in windows.
        progress: callable receiving one line per claimed/finished cell.
    """

    def __init__(
        self,
        queue: "JobQueue | Path | str",
        worker_id: Optional[str] = None,
        timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
        poll_s: float = DEFAULT_POLL_S,
        drain: bool = False,
        max_cells: int = 0,
        checkpoint_windows: int = DEFAULT_CHECKPOINT_WINDOWS,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.queue = queue if isinstance(queue, JobQueue) else JobQueue(Path(queue))
        self.worker_id = worker_id or (
            f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"
        )
        self.timeout_s = timeout_s
        self.poll_s = max(float(poll_s), 0.01)
        self.drain = drain
        self.max_cells = int(max_cells)
        self.checkpoint_windows = int(checkpoint_windows)
        self.progress = progress
        self.executed = 0

    def _emit(self, line: str) -> None:
        if self.progress:
            self.progress(line)

    # ------------------------------------------------------------------

    def run(self) -> int:
        """The worker loop; returns the number of cells executed."""
        while True:
            if self.max_cells and self.executed >= self.max_cells:
                return self.executed
            task = self.queue.claim_next(self.worker_id)
            if task is None:
                if self.drain and self.queue.drained():
                    return self.executed
                time.sleep(self.poll_s)
                continue
            self.run_one(task)

    def run_one(self, task: ClaimedTask) -> Dict[str, Any]:
        """Execute one claimed task to an outcome record."""
        self._emit(
            f"{self.worker_id} claimed {task.cell.cell_id} "
            f"(attempt {task.attempts}/{1 + task.retries})"
        )
        self.queue.append_log(
            task.name,
            f"claim cell={task.cell.cell_id} worker={self.worker_id} "
            f"attempt={task.attempts}/{1 + task.retries}",
        )
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(task, stop), daemon=True
        )
        beat.start()
        try:
            ctx = context_from_doc(
                task.spec_doc,
                checkpoint_dir=task.checkpoint_dir,
                checkpoint_windows=self.checkpoint_windows,
            )
            record = _execute_cell(ctx, task.cell, self.timeout_s)
        except Exception as exc:  # e.g. a malformed context document
            record = {
                "status": "error",
                "seconds": 0.0,
                "error": f"{type(exc).__name__}: {exc}",
            }
        finally:
            stop.set()
            beat.join(timeout=5.0)
        self.executed += 1
        error = str(record.get("error", "") or "")
        self.queue.append_log(
            task.name,
            f"finish cell={task.cell.cell_id} worker={self.worker_id} "
            f"status={record['status']} "
            f"seconds={float(record.get('seconds', 0.0)):.1f}"
            + (f" error={error}" if error else ""),
        )
        if record["status"] == "ok":
            task.complete(record)
        else:
            task.fail(record)
        self._emit(
            f"{self.worker_id} finished {task.cell.cell_id}: "
            f"{record['status']} ({record.get('seconds', 0.0):.1f}s)"
        )
        return record

    def _heartbeat_loop(self, task: ClaimedTask, stop: threading.Event) -> None:
        interval = self.queue.lease_s / 3.0
        while not stop.wait(interval):
            try:
                task.heartbeat()
            except OSError:
                # A failed heartbeat (queue dir unreachable) is not fatal
                # here; the lease simply risks expiring and being retried.
                pass


def run_worker(
    queue_dir: Path,
    lease_s: float = DEFAULT_LEASE_S,
    **kwargs: Any,
) -> int:
    """Convenience wrapper used by the CLI: build a worker and run it."""
    if not Path(queue_dir).exists():
        raise FleetError(f"queue directory {queue_dir} does not exist")
    worker = Worker(JobQueue(Path(queue_dir), lease_s=lease_s), **kwargs)
    return worker.run()
