"""Layer spans for the benchmark's traced run.

:class:`Tracer` wraps the public entry points of each simulator layer with
timing wrappers, from outside the program: it patches the class or module
attribute through which callers reach the entry point, and
:meth:`Tracer.uninstall` puts every original back. Spans nest; a span's
self time is its duration minus the time its child spans cover. Counts
are taken at the same boundaries, and only at a layer's outermost span,
so a layer calling itself (``ConcatenatedSignal`` fanning out to its
child trackers, a batched path falling back to the scalar one) is not
counted twice. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.phase.profile
import repro.sampling.online_simpoint
import repro.sampling.pgss
import repro.sampling.ranked
import repro.sampling.simpoint
import repro.sampling.smarts
import repro.sampling.stratified
import repro.sampling.turbosmarts
from repro import BbvTracker, ConcatenatedSignal, MavTracker, ProgramStream, SimulationEngine
from repro.cpu import Mode
from repro.cpu.functional import FunctionalWarmer
from repro.cpu.pipeline import InOrderPipeline
from repro.phase import OnlinePhaseClassifier
from repro.sampling import (
    FullDetail,
    OnlineSimPoint,
    Pgss,
    RankedSetSampling,
    SamplingSession,
    SimPoint,
    Smarts,
    TurboSmarts,
    TwoPhaseStratified,
)

import suite

#: Hook run after an outermost span: (tracer, args, result, before-token).
After = Callable[["Tracer", Tuple[Any, ...], Any, Any], None]
#: Hook run before a span; its return value is passed to the After hook.
Before = Callable[[Tuple[Any, ...]], Any]

#: Layers in report order.
LAYERS = (
    "program",
    "cpu.functional",
    "cpu.pipeline",
    "signals",
    "phase",
    "clustering",
    "stats",
    "cpu.engine",
    "sampling",
)

#: Cache levels reported under ``memory``, keyed by the hierarchy's names.
CACHE_LEVELS = (("L1I", "l1i"), ("L1D", "l1d"), ("L2", "l2"))


def _run_ops(run: Any) -> int:
    return int(run.n * run.block.n_ops)


def _count_runs(tracer: "Tracer", args: Tuple[Any, ...], runs: Any, _: Any) -> None:
    tracer.counts["program.runs"] += len(runs)
    tracer.counts["program.ops"] += sum(_run_ops(r) for r in runs)


def _count_event(tracer: "Tracer", args: Tuple[Any, ...], event: Any, _: Any) -> None:
    if event is not None:
        tracer.counts["program.runs"] += 1
        tracer.counts["program.ops"] += event.block.n_ops


def _ops_hook(layer: str, batched: bool) -> After:
    def hook(tracer: "Tracer", args: Tuple[Any, ...], result: Any, before: Any) -> None:
        ops = _run_ops(args[1]) if batched else args[1].block.n_ops
        tracer.counts[f"{layer}.ops"] += ops
        if batched:
            tracer.counts[f"{layer}.batched_ops"] += ops
        if before is not None:
            tracer.counts[f"{layer}.cycles"] += args[0].cycle - before

    return hook


def _pipeline_cycle(args: Tuple[Any, ...]) -> int:
    return int(args[0].cycle)


def _counter(name: str) -> After:
    def hook(tracer: "Tracer", args: Tuple[Any, ...], result: Any, before: Any) -> None:
        tracer.counts[name] += 1

    return hook


def _count_observe(tracer: "Tracer", args: Tuple[Any, ...], decision: Any, _: Any) -> None:
    tracer.counts["phase.observations"] += 1
    if decision.changed:
        tracer.counts["phase.changes"] += 1


def _machine_stats(args: Tuple[Any, ...]) -> Tuple[Dict[str, Tuple[int, int]], int, int]:
    engine = args[0]
    stats = engine.predictor.stats
    return engine.hierarchy.stats_summary(), stats.predictions, stats.mispredictions


def _count_engine_run(tracer: "Tracer", args: Tuple[Any, ...], result: Any, before: Any) -> None:
    caches, predictions, mispredictions = before
    after_caches, after_pred, after_mis = _machine_stats(args)
    tracer.counts["cpu.engine.calls"] += 1
    for name, label in CACHE_LEVELS:
        accesses = after_caches[name][0] - caches[name][0]
        hits = after_caches[name][1] - caches[name][1]
        tracer.counts[f"memory.{label}.accesses"] += accesses
        tracer.counts[f"memory.{label}.misses"] += accesses - hits
    tracer.counts["branch.predictions"] += after_pred - predictions
    tracer.counts["branch.mispredictions"] += after_mis - mispredictions


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self) -> None:
        self.layer_ids: Dict[str, int] = {name: i for i, name in enumerate(LAYERS)}
        # Open spans: [layer, start, child seconds, span index].
        self.stack: List[List[Any]] = []
        #: Finished spans: (layer id, start, end, parent span index or -1).
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        after: Optional[After] = None,
        before: Optional[Before] = None,
        nested: bool = False,
    ) -> Callable[..., Any]:
        """*fn* wrapped in a span of *layer*.

        Hooks fire only on the layer's outermost span unless *nested*.
        """
        tracer = self
        layer_id = self.layer_ids[layer]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer.stack
            parent = stack[-1] if stack else None
            outermost = nested or parent is None or parent[0] != layer
            token = before(args) if (before is not None and outermost) else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [layer, time.perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                tracer.self_s[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                tracer.spans[index] = (
                    layer_id,
                    frame[1],
                    end,
                    parent[3] if parent is not None else -1,
                )
            if after is not None and outermost:
                after(tracer, args, result, token)
            return result

        return wrapper

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        after: Optional[After] = None,
        before: Optional[Before] = None,
        nested: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a wrapped version until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original, after, before, nested))

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        self.patch(ProgramStream, "next_events", "program", _count_runs)
        self.patch(ProgramStream, "next_event", "program", _count_event)
        self.patch(FunctionalWarmer, "execute_run", "cpu.functional", _ops_hook("cpu.functional", True))
        self.patch(FunctionalWarmer, "execute_event", "cpu.functional", _ops_hook("cpu.functional", False))
        self.patch(
            InOrderPipeline, "execute_run", "cpu.pipeline",
            _ops_hook("cpu.pipeline", True), _pipeline_cycle,
        )
        self.patch(
            InOrderPipeline, "execute_event", "cpu.pipeline",
            _ops_hook("cpu.pipeline", False), _pipeline_cycle,
        )
        for tracker in (BbvTracker, MavTracker, ConcatenatedSignal):
            self.patch(tracker, "record_batch", "signals", _counter("signals.batches"))
            self.patch(tracker, "record", "signals", _counter("signals.scalar_records"))
            self.patch(tracker, "take_vector", "signals", _counter("signals.vectors"))
        self.patch(OnlinePhaseClassifier, "observe", "phase", _count_observe)
        for name in ("kmeans", "choose_k"):
            self.patch(repro.sampling.simpoint, name, "clustering", _counter("clustering.calls"))
        # Statistics, each under the name through which its caller calls it.
        for module, names in (
            (repro.sampling.smarts, ("normal_ci",)),
            (repro.sampling.turbosmarts, ("normal_ci",)),
            (repro.sampling.ranked, ("t_value",)),
            (repro.sampling.stratified, ("stratified_ratio_ipc", "neyman_allocation", "stratified_mean_ci")),
            (repro.sampling.simpoint, ("stratified_ratio_ipc",)),
            (repro.sampling.online_simpoint, ("stratified_ratio_ipc",)),
            (repro.sampling.pgss, ("stratified_ratio_ipc",)),
            (repro.phase.profile, ("student_t_ci",)),
        ):
            for name in names:
                self.patch(module, name, "stats")
        self.patch(SimulationEngine, "run", "cpu.engine", _count_engine_run, _machine_stats)
        # Segments run inside a technique's own (sampling) span: count them all.
        self.patch(
            SamplingSession, "run_segment", "sampling",
            _counter("sampling.segments"), nested=True,
        )
        for technique in (
            FullDetail, Smarts, TurboSmarts, SimPoint, OnlineSimPoint,
            Pgss, TwoPhaseStratified, RankedSetSampling,
        ):
            self.patch(technique, "run", "sampling")

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON (layer names + span tuples)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"layers": list(LAYERS), "spans": self.spans}, fh)


# -- per-layer metrics -------------------------------------------------------

MODES = ("detail", "detail_warm", "func_warm", "func_fast")

#: Every per-layer metric and its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("cpu.functional.self_s", "s"),
    ("cpu.functional.ops", "count"),
    ("cpu.functional.mops", "Mops/s"),
    ("cpu.functional.batched_share", "fraction"),
    ("cpu.functional.share_of_sampled", "fraction"),
    ("cpu.pipeline.self_s", "s"),
    ("cpu.pipeline.ops", "count"),
    ("cpu.pipeline.mops", "Mops/s"),
    ("cpu.pipeline.batched_share", "fraction"),
    ("cpu.pipeline.cycles", "cycles"),
    ("cpu.pipeline.share_of_wall", "fraction"),
    ("signals.self_s", "s"),
    ("signals.batches", "count"),
    ("signals.vectors", "count"),
    ("signals.scalar_records", "count"),
    ("program.self_s", "s"),
    ("program.ops", "count"),
    ("program.runs", "count"),
    ("program.ops_per_run", "ops"),
    ("phase.self_s", "s"),
    ("phase.observations", "count"),
    ("phase.changes", "count"),
    ("clustering.self_s", "s"),
    ("clustering.calls", "count"),
    ("stats.self_s", "s"),
    ("cpu.engine.self_s", "s"),
    ("cpu.engine.calls", "count"),
    *((f"cpu.engine.mode_s.{m}", "s") for m in MODES),
    *((f"cpu.engine.mode_ops.{m}", "count") for m in MODES),
    ("sampling.self_s", "s"),
    ("sampling.segments", "count"),
    ("sampling.samples", "count"),
    ("sampling.measured_share", "fraction"),
    *((f"sampling.speedup_vs_full.{t}", "ratio") for t in suite.SAMPLED_TECHNIQUES),
    ("memory.l1i.miss_rate", "fraction"),
    ("memory.l1d.miss_rate", "fraction"),
    ("memory.l2.miss_rate", "fraction"),
    ("memory.accesses", "count"),
    ("branch.predictions", "count"),
    ("branch.mispredict_rate", "fraction"),
    ("fleet.wait_s", "s"),
    ("fleet.fetch_s", "s"),
    ("fleet.cells", "count"),
    ("fleet.failed_cells", "count"),
    ("experiments.cache.entries", "count"),
    ("experiments.cache.hits", "count"),
    ("trace.overhead_pct", "%"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    traced: Any,
    medians: Dict[Tuple[str, str], float],
) -> Dict[str, float]:
    """Per-layer metrics of a traced pass.

    *traced* is a :class:`suite.PassRecord`. Host-time metrics come from
    the traced pass; ``speedup_vs_full`` from *medians*, the median
    untraced seconds of each (program, technique) run.
    """
    c = tracer.counts
    s = tracer.self_s
    out: Dict[str, float] = {}
    sampled_s = sum(r.seconds for r in traced.runs if r.technique != suite.FULL)
    for layer in ("cpu.functional", "cpu.pipeline"):
        ops = c[f"{layer}.ops"]
        out[f"{layer}.self_s"] = s[layer]
        out[f"{layer}.ops"] = ops
        out[f"{layer}.mops"] = _ratio(ops, s[layer]) / 1e6
        out[f"{layer}.batched_share"] = _ratio(c[f"{layer}.batched_ops"], ops)
    out["cpu.functional.share_of_sampled"] = _ratio(s["cpu.functional"], sampled_s)
    out["cpu.pipeline.cycles"] = c["cpu.pipeline.cycles"]
    out["cpu.pipeline.share_of_wall"] = _ratio(s["cpu.pipeline"], traced.seconds)
    out["signals.self_s"] = s["signals"]
    for name in ("batches", "vectors", "scalar_records"):
        out[f"signals.{name}"] = c[f"signals.{name}"]
    out["program.self_s"] = s["program"]
    out["program.ops"] = c["program.ops"]
    out["program.runs"] = c["program.runs"]
    out["program.ops_per_run"] = _ratio(c["program.ops"], c["program.runs"])
    out["phase.self_s"] = s["phase"]
    out["phase.observations"] = c["phase.observations"]
    out["phase.changes"] = c["phase.changes"]
    out["clustering.self_s"] = s["clustering"]
    out["clustering.calls"] = c["clustering.calls"]
    out["stats.self_s"] = s["stats"]
    out["cpu.engine.self_s"] = s["cpu.engine"]
    out["cpu.engine.calls"] = c["cpu.engine.calls"]
    mode_s = {m: 0.0 for m in MODES}
    mode_ops = {m: 0 for m in MODES}
    samples = detail_ops = detailed_ops = 0
    for r in traced.runs:
        if r.result is None:
            continue
        acc = r.result.accounting
        for mode, ops in acc.ops.items():
            mode_ops[mode.value] += ops
            mode_s[mode.value] += acc.seconds[mode]
        if r.technique != suite.FULL:
            samples += r.result.n_samples
            detail_ops += acc.ops[Mode.DETAIL]
            detailed_ops += acc.detailed_ops
    for m in MODES:
        out[f"cpu.engine.mode_s.{m}"] = mode_s[m]
        out[f"cpu.engine.mode_ops.{m}"] = mode_ops[m]
    out["sampling.self_s"] = s["sampling"]
    out["sampling.segments"] = c["sampling.segments"]
    out["sampling.samples"] = samples
    out["sampling.measured_share"] = _ratio(detail_ops, detailed_ops)
    for label in suite.SAMPLED_TECHNIQUES:
        programs = [prog for (prog, t) in medians if t == label]
        full_s = sum(medians.get((prog, suite.FULL), 0.0) for prog in programs)
        tech_s = sum(medians[(prog, label)] for prog in programs)
        out[f"sampling.speedup_vs_full.{label}"] = _ratio(full_s, tech_s)
    accesses = 0.0
    for _, label in CACHE_LEVELS:
        level = c[f"memory.{label}.accesses"]
        accesses += level
        out[f"memory.{label}.miss_rate"] = _ratio(c[f"memory.{label}.misses"], level)
    out["memory.accesses"] = accesses
    out["branch.predictions"] = c["branch.predictions"]
    out["branch.mispredict_rate"] = _ratio(c["branch.mispredictions"], c["branch.predictions"])
    return out

