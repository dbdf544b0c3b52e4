"""Workload definitions for the PGSS-Sim benchmark.

Everything the benchmark runs is declared here: the four workloads, the
one place each technique is constructed, how the workload seed turns the
calibrated programs into seeded inputs, one timed *pass* over a workload,
the per-run digests that check the simulated outputs, and the end-to-end
metrics computed from a run's passes.

Only public APIs of :mod:`repro` are used.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hostspeed import REFERENCE_PROBE_S, HostSpeedProbe, reference_seconds
from repro import Program, Scale, ScaleConfig, get_workload
from repro.experiments import ExperimentContext
from repro.fleet import LocalService
from repro.sampling import (
    FullDetail,
    OnlineSimPoint,
    OnlineSimPointConfig,
    Pgss,
    PgssConfig,
    RankedSetConfig,
    RankedSetSampling,
    SamplingResult,
    SamplingTechnique,
    SimPoint,
    SimPointConfig,
    Smarts,
    SmartsConfig,
    TurboSmarts,
    TurboSmartsConfig,
    TwoPhaseStratified,
    TwoPhaseStratifiedConfig,
)

#: The seed whose inputs are the calibrated programs themselves.
DEFAULT_SEED = 0
#: The second seed whose digests are recorded (never used to tune).
HELD_OUT_SEED = 1

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Technique label of the ground-truth run.
FULL = "full"

#: Sampled technique labels understood by :func:`make_technique`.
SAMPLED_TECHNIQUES = (
    "smarts",
    "pgss_bbv",
    "turbosmarts",
    "simpoint",
    "online_simpoint",
    "stratified",
    "ranked",
    "pgss_mav",
    "pgss_concat",
)

#: SimPoint and Online SimPoint have no ``from_scale``, so their
#: configurations are fixed here: the scale's middle SimPoint interval,
#: k chosen by BIC (the SimPoint 3.0 default) and a 0.10 pi threshold.
OLSP_THRESHOLD_PI = 0.10


def make_technique(label: str, scale: ScaleConfig) -> SamplingTechnique:
    """Build technique *label* for programs at *scale* (the only place)."""
    if label == FULL:
        return FullDetail()
    if label == "smarts":
        return Smarts(SmartsConfig.from_scale(scale))
    if label == "turbosmarts":
        return TurboSmarts(TurboSmartsConfig.from_scale(scale))
    if label == "simpoint":
        return SimPoint(SimPointConfig(scale.simpoint_intervals[1]))
    if label == "online_simpoint":
        return OnlineSimPoint(
            OnlineSimPointConfig(scale.simpoint_intervals[1], OLSP_THRESHOLD_PI)
        )
    if label == "stratified":
        return TwoPhaseStratified(TwoPhaseStratifiedConfig.from_scale(scale))
    if label == "ranked":
        return RankedSetSampling(RankedSetConfig.from_scale(scale))
    if label.startswith("pgss_"):
        signal = label[len("pgss_"):]
        return Pgss(PgssConfig.from_scale(scale, phase_signal=signal))
    raise ValueError(f"unknown technique label {label!r}")


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    A simulation workload runs every technique on every program per pass;
    ``fleet`` workloads submit ``figures`` to a :class:`LocalService`.
    """

    name: str
    scale: ScaleConfig
    programs: Tuple[str, ...]
    techniques: Tuple[str, ...] = ()
    figures: Tuple[str, ...] = ()
    jobs: int = 1

    @property
    def is_fleet(self) -> bool:
        """Fleet workloads do not depend on the seed."""
        return bool(self.figures)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sampled-compute",
            Scale.SCALED,
            ("177.mesa", "183.equake"),
            (FULL, "smarts", "pgss_bbv"),
        ),
        Workload(
            "detail-membound",
            Scale.QUICK,
            ("181.mcf", "adv.stride_flip"),
            (FULL,),
        ),
        Workload(
            "phase-zoo",
            Scale.QUICK,
            ("adv.stride_flip", "adv.footprint_step"),
            (
                FULL,
                "turbosmarts",
                "simpoint",
                "online_simpoint",
                "stratified",
                "ranked",
                "pgss_mav",
                "pgss_concat",
            ),
        ),
        Workload(
            "fleet-cold",
            Scale.QUICK,
            ("164.gzip", "183.equake"),
            figures=("11", "12"),
            jobs=2,
        ),
    )
}


def seeded_program(name: str, scale: ScaleConfig, seed: int) -> Program:
    """Calibrated program *name* with its stream RNG shifted by *seed*.

    Blocks, behaviours and phase script are the calibrated ones; only the
    stream seed (iteration jitter, random branches) moves, so
    ``seed == DEFAULT_SEED`` reproduces the calibrated program exactly.
    """
    base = get_workload(name, scale)
    return Program(
        base.name,
        base.blocks,
        base.behaviors.values(),
        base.script,
        seed=base.seed + seed - DEFAULT_SEED,
    )


# -- digests ----------------------------------------------------------------


def result_digest(result: SamplingResult) -> str:
    """Digest of a result's simulated outputs (estimate, cost, samples, CI)."""
    ci = "none" if result.ci is None else f"{result.ci.low.hex()},{result.ci.high.hex()}"
    material = (
        f"{float(result.ipc_estimate).hex()}|{result.detailed_ops}|"
        f"{result.n_samples}|{ci}"
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def report_digest(report: str) -> str:
    """Digest of a fetched fleet report."""
    return hashlib.sha256(report.encode()).hexdigest()[:16]


def load_digests(path: Path = DIGESTS_PATH) -> Dict[str, Any]:
    """The recorded digest table (empty when the file is absent)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def digest_key(program: str, technique: str) -> str:
    return f"{program}/{technique}"


class DigestBook:
    """Expected digests for one run, and the check against them.

    Digests recorded in ``digests.json`` (the default and the held-out
    seed) are authoritative. For any other seed the first pass that
    produces a digest fixes it, and every later pass, and the traced
    pass, must reproduce it.
    """

    def __init__(self, workload: str, recorded: Dict[str, Any]) -> None:
        self.recorded = recorded.get(workload, {})
        self.seen: Dict[str, Dict[str, str]] = {}

    def expected(self, seed_key: str, key: str) -> Optional[str]:
        table = self.recorded.get(seed_key)
        if table is not None:
            return table.get(key, "<missing>")
        return self.seen.get(seed_key, {}).get(key)

    def check(self, seed_key: str, key: str, digest: str) -> bool:
        """True when *digest* matches the expected one (recording it if new)."""
        want = self.expected(seed_key, key)
        if want is None:
            self.seen.setdefault(seed_key, {})[key] = digest
            return True
        return want == digest


# -- one pass ----------------------------------------------------------------


@dataclass
class RunRecord:
    """One technique run (a simulation workload's unit of work).

    ``probe_s`` is the mean host-speed probe time during the run.
    """

    program: str
    technique: str
    seconds: float
    result: Optional[SamplingResult]
    ok: bool
    probe_s: float = REFERENCE_PROBE_S

    @property
    def ref_seconds(self) -> float:
        return reference_seconds(self.seconds, self.probe_s)


@dataclass
class PassRecord:
    """Outcome of one pass over a workload."""

    seconds: float
    attempted: int
    failed: int
    runs: List[RunRecord] = field(default_factory=list)
    wait_s: float = 0.0
    fetch_s: float = 0.0
    cells: int = 0
    failed_cells: int = 0
    cache_entries: int = 0
    cache_hits: int = 0
    probe_s: float = REFERENCE_PROBE_S


def run_simulation_pass(
    workload: Workload,
    programs: Sequence[Program],
    seed_key: str,
    book: DigestBook,
    speed: Optional[HostSpeedProbe] = None,
) -> PassRecord:
    """Run every technique on every program once; check each result.

    With *speed*, each run records the mean probe time while it ran.
    """
    runs: List[RunRecord] = []
    start = time.perf_counter()
    for program in programs:
        for label in workload.techniques:
            technique = make_technique(label, workload.scale)
            mark = speed.mark() if speed else 0
            t0 = time.perf_counter()
            try:
                result: Optional[SamplingResult] = technique.run(program)
            except Exception as exc:  # a failed operation, counted below
                print(f"perfbench: {program.name}/{label} raised {exc!r}", file=sys.stderr)
                result = None
            seconds = time.perf_counter() - t0
            probe_s = speed.since(mark) if speed else REFERENCE_PROBE_S
            ok = result is not None and math.isfinite(result.ipc_estimate)
            if result is not None and ok:
                digest = result_digest(result)
                if not book.check(seed_key, digest_key(program.name, label), digest):
                    print(
                        f"perfbench: digest mismatch for {program.name}/{label} "
                        f"at {seed_key}: got {digest}",
                        file=sys.stderr,
                    )
                    ok = False
            runs.append(RunRecord(program.name, label, seconds, result, ok, probe_s))
    elapsed = time.perf_counter() - start
    failed = sum(1 for r in runs if not r.ok)
    return PassRecord(seconds=elapsed, attempted=len(runs), failed=failed, runs=runs)


def _cache_entries(directory: Path) -> int:
    return sum(
        1 for p in directory.rglob("*") if p.is_file() and p.suffix in (".json", ".npz")
    )


def make_fleet_service(workload: Workload, cache_dir: Path) -> LocalService:
    """The context and service of one cold fleet pass."""
    ctx = ExperimentContext(
        workload.scale, cache_dir=cache_dir, benchmarks=list(workload.programs)
    )
    return LocalService(ctx, jobs=workload.jobs)


def run_fleet_pass(
    workload: Workload,
    work_dir: Path,
    book: DigestBook,
    speed: Optional[HostSpeedProbe] = None,
) -> PassRecord:
    """Submit, wait for and fetch the workload's figures on an empty cache."""
    cache_dir = work_dir / "fleet-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    mark = speed.mark() if speed else 0
    start = time.perf_counter()
    service = make_fleet_service(workload, cache_dir)
    handle = service.submit(figures=list(workload.figures))
    t0 = time.perf_counter()
    state = service.wait(handle)
    t1 = time.perf_counter()
    report: Optional[str] = None
    if state.state == "done":
        report = service.fetch(handle)
    t2 = time.perf_counter()
    elapsed = t2 - start
    cells = state.total
    failed_cells = cells - state.counts.get("ok", 0)
    failed = failed_cells
    if report is None or not book.check("any", "report", report_digest(report)):
        print(f"perfbench: fleet job {state.state}, report digest mismatch", file=sys.stderr)
        failed = cells
    record = PassRecord(
        seconds=elapsed,
        attempted=cells,
        failed=failed,
        wait_s=t1 - t0,
        fetch_s=t2 - t1,
        cells=cells,
        failed_cells=failed_cells,
        cache_entries=_cache_entries(cache_dir),
        cache_hits=service.ctx.cache.hits,
        probe_s=speed.since(mark) if speed else REFERENCE_PROBE_S,
    )
    shutil.rmtree(cache_dir, ignore_errors=True)
    return record


# -- end-to-end metrics ------------------------------------------------------

#: End-to-end metric names and units, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sampled_mops", "Mops/s"),
    ("full_mops", "Mops/s"),
    ("cells_per_s", "cells/s"),
    ("ipc_error_pct", "%"),
    ("ipc_error_max_pct", "%"),
    ("ci_coverage", "fraction"),
    ("detailed_ops_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)

#: Value reported for a metric that a workload does not exercise.
NOT_EXERCISED = 1.0


def program_ops(record: PassRecord) -> Dict[str, int]:
    """Each program's dynamic length, from the pass's FullDetail runs."""
    return {
        r.program: r.result.total_ops
        for r in record.runs
        if r.technique == FULL and r.result is not None
    }


def unit_medians(
    passes: Sequence[PassRecord], reference: bool = False
) -> Dict[Tuple[str, str], float]:
    """Median seconds of each (program, technique) run over *passes*.

    Host seconds, or with *reference* reference seconds.
    """
    times: Dict[Tuple[str, str], List[float]] = {}
    for record in passes:
        for r in record.runs:
            if r.result is not None:
                seconds = r.ref_seconds if reference else r.seconds
                times.setdefault((r.program, r.technique), []).append(seconds)
    return {key: statistics.median(v) for key, v in times.items()}


def host_rates(passes: Sequence[PassRecord]) -> Dict[str, float]:
    """Host-time metrics of a simulation workload from its passes.

    Each (program, technique) run is timed in every pass, in reference
    seconds; the metrics are built from the per-run medians, so one slow
    run in one pass moves nothing. ``wall_s`` is their sum: the time of one
    typical pass.
    """
    medians = unit_medians(passes, reference=True)
    lengths: Dict[str, int] = {}
    for record in passes:
        lengths.update(program_ops(record))
    sampled_ops = sampled_s = full_ops = full_s = 0.0
    for (program, technique), seconds in medians.items():
        if technique == FULL:
            full_ops += lengths[program]
            full_s += seconds
        elif program in lengths:
            sampled_ops += lengths[program]
            sampled_s += seconds
    wall = sum(medians.values())
    out = {"wall_s": wall, "cells_per_s": len(medians) / wall}
    if full_s:
        out["full_mops"] = full_ops / full_s / 1e6
    if sampled_s:
        out["sampled_mops"] = sampled_ops / sampled_s / 1e6
    return out


def accuracy(record: PassRecord) -> Optional[Dict[str, float]]:
    """Accuracy and cost of a pass's sampled runs against its FullDetail.

    ``ci_coverage`` is the add-half estimate ``(covered + 0.5) / (pairs +
    1)``, so it is never 0 while no interval covers; a pair without an
    interval counts as a miss.
    """
    truth = {
        r.program: r.result.ipc_estimate
        for r in record.runs
        if r.technique == FULL and r.result is not None
    }
    lengths = program_ops(record)
    errors: List[float] = []
    covered = 0
    detailed = 0
    answered = 0
    for r in record.runs:
        if r.technique == FULL or r.result is None or r.program not in truth:
            continue
        true_ipc = truth[r.program]
        errors.append(r.result.percent_error(true_ipc))
        ci = r.result.ci
        if ci is not None and ci.low <= true_ipc <= ci.high:
            covered += 1
        detailed += r.result.detailed_ops
        answered += lengths[r.program]
    if not errors:
        return None
    return {
        "ipc_error_pct": statistics.fmean(errors),
        "ipc_error_max_pct": max(errors),
        "ci_coverage": (covered + 0.5) / (len(errors) + 1),
        "detailed_ops_frac": detailed / answered,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(
    workload: Workload,
    reference: PassRecord,
    passes: Sequence[PassRecord],
    setup_s: float,
) -> Dict[str, float]:
    """The end-to-end metrics of one run.

    Host-time metrics are medians over all passes; accuracy and cost come
    from the reference pass over the calibrated programs, so they are the
    same for every seed.
    """
    everything = [reference, *passes]
    out: Dict[str, float] = {"setup_s": setup_s}
    if workload.is_fleet:
        out["wall_s"] = statistics.median(
            reference_seconds(p.seconds, p.probe_s) for p in everything
        )
        out["cells_per_s"] = statistics.median(
            p.cells / reference_seconds(p.wait_s, p.probe_s) for p in everything
        )
    else:
        out.update(host_rates(everything))
        acc = accuracy(reference)
        if acc is not None:
            out.update(acc)
    out["peak_rss_mb"] = peak_rss_mb()
    return {name: out.get(name, NOT_EXERCISED) for name, _ in END_TO_END}
