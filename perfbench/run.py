"""PGSS-Sim benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sampled-compute --seed 0 \\
        --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, measured with tracing off; ``--trace 1``
reports the per-layer metrics of a separate traced pass (see README.md).

``--record-digests`` re-records ``digests.json`` (the expected simulated
outputs for the default and the held-out seed); run it only when the
simulated model is meant to change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (fleet caches, span files).
WORK_DIR = ROOT / ".perfbench_work"
#: Set-up is measured this many times per run, in fresh interpreters.
SETUP_PROBES = 3


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="set up, then exit (internal)"
    )
    parser.add_argument(
        "--record-digests", action="store_true",
        help="re-record digests.json for the default and held-out seeds",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    return args


class Setup:
    """What a run needs before it measures: programs, or a fleet service."""

    def __init__(self, workload: Any, seed: int) -> None:
        import suite

        self.workload = workload
        if workload.is_fleet:
            probe_dir = WORK_DIR / "setup-probe"
            suite.make_fleet_service(workload, probe_dir)
            shutil.rmtree(probe_dir, ignore_errors=True)
            self.reference = self.seeded = []
            return
        scale = workload.scale
        self.reference = [
            suite.seeded_program(n, scale, suite.DEFAULT_SEED) for n in workload.programs
        ]
        self.seeded = [suite.seeded_program(n, scale, seed) for n in workload.programs]
        # Warm-up: every technique once on a miniature of the first program,
        # so imports and lazily built tables are in place before timing.
        from repro import Scale

        tiny = suite.seeded_program(workload.programs[0], Scale.QUICK, suite.DEFAULT_SEED)
        for label in workload.techniques:
            suite.make_technique(label, Scale.QUICK).run(tiny)


def measure_setup(args: argparse.Namespace) -> float:
    """Median wall time of fresh interpreters that only set up.

    Each child probes the host's speed while it sets up and prints the mean
    probe time; its wall time is converted to reference seconds with it.
    """
    import hostspeed

    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
            ],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - start
        probe_s = float(child.stdout.split()[-1])
        times.append(hostspeed.reference_seconds(elapsed, probe_s))
    return statistics.median(times)


def setup_probe(args: argparse.Namespace) -> int:
    """Set up in this fresh interpreter; print the mean probe time."""
    import hostspeed

    with hostspeed.HostSpeedProbe() as speed:
        import suite

        Setup(suite.WORKLOADS[args.workload], args.seed)
    print(speed.since(0))
    return 0


def run_pass(
    setup: Setup, book: Any, reference: bool, seed: int, speed: Any = None
) -> Any:
    import suite

    workload = setup.workload
    if workload.is_fleet:
        return suite.run_fleet_pass(workload, WORK_DIR, book, speed)
    if reference:
        return suite.run_simulation_pass(
            workload, setup.reference, f"seed{suite.DEFAULT_SEED}", book, speed
        )
    return suite.run_simulation_pass(workload, setup.seeded, f"seed{seed}", book, speed)


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    import spans
    import suite

    workload = suite.WORKLOADS[args.workload]
    setup_s = measure_setup(args)
    setup = Setup(workload, args.seed)
    book = suite.DigestBook(workload.name, suite.load_digests())

    # The host-speed probe samples only while the untraced passes run.
    with suite.HostSpeedProbe() as speed:
        start = time.perf_counter()
        deadline = start + args.seconds
        reference = run_pass(setup, book, True, args.seed, speed)
        passes = []
        # Leave room for the traced pass, which runs after the timed ones.
        reserve = 2 if args.trace else 1
        while True:
            estimate = statistics.median([reference.seconds] + [p.seconds for p in passes])
            if passes and time.perf_counter() + reserve * estimate > deadline:
                break
            passes.append(run_pass(setup, book, False, args.seed, speed))
    everything = [reference, *passes]

    if args.trace:
        # Fleet cells run in worker processes the tracer cannot see, so the
        # fleet's traced pass is an ordinary pass read through its counters.
        tracer = spans.Tracer()
        if not workload.is_fleet:
            tracer.install()
        try:
            traced = run_pass(setup, book, False, args.seed)
        finally:
            tracer.uninstall()
        if not workload.is_fleet:
            tracer.write(WORK_DIR / f"spans-{workload.name}-{args.seed}.json")
        everything.append(traced)
        values = _per_layer(workload, tracer, traced, [reference, *passes])
        units = dict(spans.PER_LAYER)
    else:
        values = suite.end_to_end_metrics(workload, reference, passes, setup_s)
        units = dict(suite.END_TO_END)

    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def _per_layer(workload: Any, tracer: Any, traced: Any, untraced: List[Any]) -> Dict[str, float]:
    import spans
    import suite

    values = {name: 0.0 for name, _ in spans.PER_LAYER}
    if not workload.is_fleet:
        values.update(spans.layer_metrics(tracer, traced, suite.unit_medians(untraced)))
    else:
        everything = [*untraced, traced]
        values["fleet.wait_s"] = statistics.median(p.wait_s for p in everything)
        values["fleet.fetch_s"] = statistics.median(p.fetch_s for p in everything)
        values["fleet.cells"] = traced.cells
        values["fleet.failed_cells"] = traced.failed_cells
        values["experiments.cache.entries"] = traced.cache_entries
        values["experiments.cache.hits"] = traced.cache_hits
    baseline = statistics.median(p.seconds for p in untraced)
    values["trace.overhead_pct"] = 100.0 * (traced.seconds / baseline - 1.0)
    return values


def record_digests() -> None:
    """Re-record the expected digests for the default and held-out seeds."""
    import suite

    table: Dict[str, Any] = {}
    for workload in suite.WORKLOADS.values():
        if workload.is_fleet:
            book = suite.DigestBook(workload.name, {})
            suite.run_fleet_pass(workload, WORK_DIR, book)
            table[workload.name] = book.seen
            continue
        entry: Dict[str, Any] = {}
        for seed in (suite.DEFAULT_SEED, suite.HELD_OUT_SEED):
            book = suite.DigestBook(workload.name, {})
            programs = [suite.seeded_program(n, workload.scale, seed) for n in workload.programs]
            suite.run_simulation_pass(workload, programs, f"seed{seed}", book)
            entry.update(book.seen)
        table[workload.name] = entry
    with open(suite.DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    import suite

    if args.record_digests:
        record_digests()
        return 0
    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    finally:
        shutil.rmtree(WORK_DIR / "fleet-cache", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
