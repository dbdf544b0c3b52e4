"""Tests of the benchmark's own machinery (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402
from repro import BbvTracker, ConcatenatedSignal, MavTracker, ProgramStream, Scale  # noqa: E402
from repro.sampling import FullDetail  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    """A perf_counter stand-in that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch: pytest.MonkeyPatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(spans, "time", fake)
    return fake


def test_self_time_subtracts_child_spans(clock: FakeClock) -> None:
    tracer = spans.Tracer()

    def inner() -> None:
        clock.now += 2.0

    traced_inner = tracer.wrap("cpu.pipeline", inner)

    def outer() -> None:
        clock.now += 1.0
        traced_inner()
        clock.now += 0.5
        traced_inner()

    tracer.wrap("sampling", outer)()
    assert tracer.self_s["sampling"] == pytest.approx(1.5)
    assert tracer.self_s["cpu.pipeline"] == pytest.approx(4.0)
    # Spans record their parent: both pipeline spans point at the outer one.
    outer_index = next(i for i, s in enumerate(tracer.spans) if s[3] == -1)
    children = [s for s in tracer.spans if s[3] == outer_index]
    assert len(children) == 2
    assert tracer.spans[outer_index][2] - tracer.spans[outer_index][1] == pytest.approx(5.5)


def test_self_time_of_a_layer_calling_itself(clock: FakeClock) -> None:
    tracer = spans.Tracer()
    counted = spans._counter("signals.batches")
    leaf = tracer.wrap("signals", lambda: setattr(clock, "now", clock.now + 1.0), counted)

    def fan_out() -> None:
        clock.now += 0.25
        leaf()
        leaf()

    tracer.wrap("signals", fan_out, counted)()
    # Nested same-layer time is not counted twice, and only the outermost
    # call is counted as a batch.
    assert tracer.self_s["signals"] == pytest.approx(2.25)
    assert tracer.counts["signals.batches"] == 1


def _batch() -> list:
    program = suite.seeded_program("adv.footprint_step", Scale.QUICK, suite.DEFAULT_SEED)
    return ProgramStream(program).next_events(20_000)


def test_concatenated_signal_counts_once_and_nests_children() -> None:
    runs = _batch()
    signal = ConcatenatedSignal([BbvTracker(), MavTracker()])
    tracer = spans.Tracer()
    tracer.install()
    try:
        signal.record_batch(runs)
        signal.take_vector()
    finally:
        tracer.uninstall()
    assert tracer.counts["signals.batches"] == 1
    assert tracer.counts["signals.vectors"] == 1
    signal_id = tracer.layer_ids["signals"]
    roots = [i for i, s in enumerate(tracer.spans) if s[0] == signal_id and s[3] == -1]
    assert len(roots) == 2  # record_batch and take_vector
    for root in roots:
        children = [s for s in tracer.spans if s[3] == root]
        assert len(children) == 2  # one per child tracker
        start, end = tracer.spans[root][1:3]
        assert all(start <= c[1] <= c[2] <= end for c in children)
    total = sum(tracer.spans[r][2] - tracer.spans[r][1] for r in roots)
    assert tracer.self_s["signals"] == pytest.approx(total)


def test_wrappers_are_removed_after_the_traced_run() -> None:
    originals = {
        name: ProgramStream.__dict__[name] for name in ("next_events", "next_event")
    }
    record_batch = BbvTracker.__dict__["record_batch"]
    import repro.sampling.simpoint as simpoint

    kmeans = simpoint.kmeans
    run = FullDetail.__dict__["run"]
    tracer = spans.Tracer()
    tracer.install()
    assert ProgramStream.__dict__["next_events"] is not originals["next_events"]
    assert tracer.installed
    tracer.uninstall()
    assert not tracer.installed
    for name, fn in originals.items():
        assert ProgramStream.__dict__[name] is fn
    assert BbvTracker.__dict__["record_batch"] is record_batch
    assert simpoint.kmeans is kmeans
    assert FullDetail.__dict__["run"] is run
    # An untraced run after uninstall records nothing.
    before = len(tracer.spans)
    FullDetail().run(suite.seeded_program("177.mesa", Scale.QUICK, 0))
    assert len(tracer.spans) == before


def test_metric_names_and_units_are_well_formed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group, code in (("end_to_end", suite.END_TO_END), ("per_layer", spans.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[group]] == list(code)
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            assert UNIT.match(metric["unit"]), metric
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)


def test_a_perturbed_estimate_fails_the_digest_check() -> None:
    program = suite.seeded_program("177.mesa", Scale.QUICK, suite.DEFAULT_SEED)
    result = FullDetail().run(program)
    key = suite.digest_key(program.name, suite.FULL)
    book = suite.DigestBook("w", {"w": {"seed0": {key: suite.result_digest(result)}}})
    assert book.check("seed0", key, suite.result_digest(result))
    result.ipc_estimate = math.nextafter(result.ipc_estimate, math.inf)
    assert not book.check("seed0", key, suite.result_digest(result))


def test_a_perturbed_run_counts_as_failed(monkeypatch: pytest.MonkeyPatch) -> None:
    workload = suite.Workload("w", Scale.QUICK, ("177.mesa",), (suite.FULL,))
    programs = [suite.seeded_program("177.mesa", Scale.QUICK, 5)]
    book = suite.DigestBook("w", {})
    first = suite.run_simulation_pass(workload, programs, "seed5", book)
    assert (first.attempted, first.failed) == (1, 0)
    real_run = FullDetail.run

    def skewed(self, program, **kwargs):  # type: ignore[no-untyped-def]
        result = real_run(self, program, **kwargs)
        result.ipc_estimate *= 1.0 + 1e-12
        return result

    monkeypatch.setattr(FullDetail, "run", skewed)
    second = suite.run_simulation_pass(workload, programs, "seed5", book)
    assert (second.attempted, second.failed) == (1, 1)


def test_default_seed_reproduces_the_calibrated_program() -> None:
    from repro import get_workload

    calibrated = FullDetail().run(get_workload("177.mesa", Scale.QUICK))
    seeded = FullDetail().run(suite.seeded_program("177.mesa", Scale.QUICK, suite.DEFAULT_SEED))
    other = FullDetail().run(suite.seeded_program("177.mesa", Scale.QUICK, suite.HELD_OUT_SEED))
    assert suite.result_digest(seeded) == suite.result_digest(calibrated)
    assert suite.result_digest(other) != suite.result_digest(calibrated)


def test_reference_seconds_scale_with_the_probe() -> None:
    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.reference_seconds(2.0, ref) == pytest.approx(2.0)
    # A host twice as slow runs the probe in twice the time: same answer.
    assert hostspeed.reference_seconds(4.0, 2 * ref) == pytest.approx(2.0)


def test_host_speed_probe_samples_each_run_and_stops() -> None:
    workload = suite.Workload("w", Scale.QUICK, ("177.mesa",), (suite.FULL,))
    programs = [suite.seeded_program("177.mesa", Scale.QUICK, 5)]
    with hostspeed.HostSpeedProbe() as speed:
        record = suite.run_simulation_pass(
            workload, programs, "seed5", suite.DigestBook("w", {}), speed
        )
    assert not speed._thread.is_alive()
    assert speed.samples
    (run,) = record.runs
    assert min(speed.samples) <= run.probe_s <= max(speed.samples)
    assert run.ref_seconds == pytest.approx(hostspeed.reference_seconds(run.seconds, run.probe_s))
