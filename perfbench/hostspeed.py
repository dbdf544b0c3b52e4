"""Host-speed probe and reference seconds for the PGSS-Sim benchmark.

A shared host's speed drifts with its neighbours' load. This module times
a fixed pure-Python loop from a background thread while work runs, and
converts host seconds into reference seconds: the time the work would
take on the reference host. It imports nothing from :mod:`repro`, so a
set-up probe can start it before the simulator is imported, and no change
to the simulator can move it.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Any, Dict, List, Tuple

#: Thread CPU seconds a warm :func:`probe` takes on the reference host, a
#: 2-vCPU Xeon VM at 2.1 GHz (about its median there while the benchmark
#: runs). Host time is reported in reference seconds: the time the work
#: would take on that host at that speed.
REFERENCE_PROBE_S = 0.00060

#: Seconds between two probes of :class:`HostSpeedProbe`.
PROBE_INTERVAL_S = 0.05

_PROBE_TABLE = list(range(1 << 12))


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self, value: int) -> None:
        self.value = value
        self.hits = 0

    def touch(self, x: int) -> int:
        self.hits += 1
        return self.value ^ x


def probe() -> float:
    """Thread CPU seconds of three fixed pure-Python loops (about 0.6 ms).

    The loops do list indexing, dict updates, integer arithmetic, object
    allocation, attribute access and method calls, the operations the
    simulator's hot loops are made of; mixing them keeps any one
    micro-architectural effect from setting the reading. They use no code
    of :mod:`repro`, so a change to the simulator never moves the probe.
    """
    start = time.thread_time()
    table = _PROBE_TABLE
    counts: Dict[int, int] = {}
    acc = 0
    x = 12345
    for i in range(1400):
        x = (x * 1103515245 + 12345) & 0xFFF
        acc += table[x] ^ (i & 255)
        key = x & 255
        counts[key] = counts.get(key, 0) + i
    last: Dict[int, Tuple[int, int]] = {}
    for i in range(1400):
        acc = (acc * 31 + i) & 0xFFFF
        last[acc & 127] = (i, acc)
    cells = [_Cell(v) for v in range(64)]
    for i in range(1000):
        acc = cells[i & 63].touch(acc) + (i & 7)
    return time.thread_time() - start


def reference_seconds(host_s: float, probe_s: float) -> float:
    """*host_s* rescaled to the reference host's speed.

    *probe_s* is the mean :func:`probe` time while the work ran; on a host
    that runs the probe in :data:`REFERENCE_PROBE_S`, the result equals
    *host_s*.
    """
    return host_s * REFERENCE_PROBE_S / probe_s


class HostSpeedProbe:
    """Samples the host's speed from a background thread while work runs.

    A shared host's speed drifts with its neighbours' load, by up to 1.8x
    within seconds, and CPU time drifts with it. Every :data:`PROBE_INTERVAL_S`
    the thread runs :func:`probe` twice and keeps the second reading, taken
    in its own CPU time with warm caches, so neither waiting for the GIL
    nor the cache state the simulator left behind counts. Dividing a run's
    host seconds by the mean probe time during that run removes the drift.
    The probes take about 2% of the host time they sample.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            probe()
            self.samples.append(probe())

    def __enter__(self) -> "HostSpeedProbe":
        probe()
        self.samples.append(probe())
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        """A position in the samples, for :meth:`since`."""
        return len(self.samples)

    def since(self, mark: int) -> float:
        """Mean probe seconds from *mark* on (the latest if none is newer)."""
        return statistics.fmean(self.samples[mark:] or self.samples[-1:])
