"""Scalar vs. batched engine equivalence — the batching correctness gate.

The batched fast-forward layer (``ProgramStream.next_events`` +
``BbvTracker.record_batch`` + the engine's batched dispatch) claims to be
*bit-identical* to the scalar event loop: same stream state (including RNG
draw order), same BBV register file, same machine state, same op
accounting.  Every sampling technique rests on that claim, so it is
checked here three ways:

* stream level: run expansion reproduces the scalar event sequence and
  lands in an equal ``snapshot()`` at arbitrary batch boundaries;
* engine level (hypothesis): interleaved ``run()`` calls of random modes
  and lengths, with and without a tracker, keep a scalar and a batched
  engine in equal snapshot states after every call;
* technique level: PGSS end-to-end produces an identical
  ``SamplingResult`` on three workloads either way.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BbvTracker,
    Mode,
    ProgramStream,
    Scale,
    SimulationEngine,
    get_workload,
)
from repro.sampling.pgss import Pgss, PgssConfig
from conftest import make_two_phase_program

WORKLOADS = ("164.gzip", "197.parser", "256.bzip2")


def _workload(name):
    if name == "two_phase":
        return make_two_phase_program()
    return get_workload(name, Scale.QUICK)


class TestStreamEquivalence:
    @pytest.mark.parametrize("name", ("two_phase",) + WORKLOADS)
    def test_run_expansion_matches_scalar_events(self, name):
        program = _workload(name)
        scalar = ProgramStream(program)
        batched = ProgramStream(program)
        expanded = [
            (e.block.bid, e.taken, e.k)
            for run in batched.next_events(10**9)
            for e in run.events()
        ]
        events = [(e.block.bid, e.taken, e.k) for e in scalar]
        assert expanded == events
        assert scalar.snapshot() == batched.snapshot()

    @given(st.lists(st.integers(min_value=1, max_value=25_000), min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_snapshot_equal_at_arbitrary_batch_boundaries(self, batches):
        program = make_two_phase_program()
        scalar = ProgramStream(program)
        batched = ProgramStream(program)
        for max_ops in batches:
            # Scalar reference: the engine's while-loop contract.
            got = 0
            while got < max_ops:
                event = scalar.next_event()
                if event is None:
                    break
                got += event.block.n_ops
            runs = batched.next_events(max_ops)
            assert sum(r.ops for r in runs) == got
            assert scalar.snapshot() == batched.snapshot()

    def test_next_events_empty_after_exhaustion(self, two_phase_program):
        stream = ProgramStream(two_phase_program)
        stream.next_events(10**9)
        assert stream.exhausted
        assert stream.next_events(1_000) == []
        assert stream.next_events(0) == []

    def test_runs_collapse_loop_iterations(self, two_phase_program):
        """The whole point: far fewer runs than dynamic blocks."""
        stream = ProgramStream(two_phase_program)
        runs = stream.next_events(50_000)
        n_events = sum(r.n for r in runs)
        assert n_events > 10 * len(runs)


class TestEngineEquivalence:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_interleaved_modes_keep_snapshots_equal(self, seed, with_tracker):
        """Satellite invariant: any interleaving of run() calls leaves the
        scalar and batched engines in identical snapshot states."""
        program = make_two_phase_program()
        rng = random.Random(seed)
        t1 = BbvTracker() if with_tracker else None
        t2 = BbvTracker() if with_tracker else None
        scalar = SimulationEngine(program, signal_tracker=t1, batched=False)
        batched = SimulationEngine(program, signal_tracker=t2, batched=True)
        modes = list(Mode)
        for _ in range(12):
            mode = rng.choice(modes)
            n_ops = rng.randint(1, 25_000)
            r1 = scalar.run(mode, n_ops)
            r2 = batched.run(mode, n_ops)
            assert (r1.ops, r1.cycles, r1.exhausted) == (r2.ops, r2.cycles, r2.exhausted)
            assert scalar.snapshot() == batched.snapshot()
        assert scalar.accounting.ops == batched.accounting.ops

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [Mode.DETAIL, Mode.DETAIL_WARM, Mode.FUNC_WARM]
                ),
                st.integers(min_value=1, max_value=30_000),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_detail_windows_byte_identical_on_real_workload(self, windows):
        """The batched detailed pipeline's claim, checked the hard way:
        for arbitrary window interleavings on a real workload, every
        window's cycle count AND all cache/predictor state AND all
        statistics counters match the scalar loop exactly."""
        program = _workload("164.gzip")
        scalar = SimulationEngine(program, batched=False)
        batched = SimulationEngine(program, batched=True)
        for mode, n_ops in windows:
            r1 = scalar.run(mode, n_ops)
            r2 = batched.run(mode, n_ops)
            assert (r1.ops, r1.cycles, r1.exhausted) == (
                r2.ops,
                r2.cycles,
                r2.exhausted,
            )
            h1, h2 = scalar.hierarchy, batched.hierarchy
            assert h1.snapshot() == h2.snapshot()
            assert h1.stats_summary() == h2.stats_summary()
            assert h1.memory_accesses == h2.memory_accesses
            for c1, c2 in zip((h1.l1i, h1.l1d, h1.l2), (h2.l1i, h2.l1d, h2.l2)):
                assert c1.stats.writebacks == c2.stats.writebacks
            assert scalar.predictor.snapshot() == batched.predictor.snapshot()
            s1, s2 = scalar.predictor.stats, batched.predictor.stats
            assert (s1.predictions, s1.mispredictions) == (
                s2.predictions,
                s2.mispredictions,
            )

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_bbv_vector_sequence_identical(self, name):
        """Period-boundary BBV vectors are bit-identical on real workloads."""
        program = _workload(name)
        engines = [
            SimulationEngine(program, signal_tracker=BbvTracker(), batched=batched)
            for batched in (False, True)
        ]
        period = 8_000
        while not engines[0].exhausted:
            vecs = []
            for engine in engines:
                engine.run(Mode.FUNC_FAST, period)
                vecs.append(engine.signal_tracker.take_vector(normalize=True))
            assert (vecs[0] == vecs[1]).all()
        assert engines[1].exhausted

    def test_func_warm_batched_matches_detail_state(self, two_phase_program):
        """Batched FUNC_WARM still leaves caches/predictor exactly as
        DETAIL would — the SMARTS soundness requirement."""
        detail = SimulationEngine(two_phase_program)
        warm = SimulationEngine(two_phase_program, batched=True)
        detail.run(Mode.DETAIL, 30_000)
        warm.run(Mode.FUNC_WARM, 30_000)
        assert detail.hierarchy.snapshot() == warm.hierarchy.snapshot()
        assert detail.predictor.snapshot() == warm.predictor.snapshot()


class TestPgssEquivalence:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_pgss_end_to_end_identical(self, name):
        """PGSS produces an identical SamplingResult either way."""
        program = _workload(name)
        cfg = PgssConfig.from_scale(Scale.QUICK)
        pgss = Pgss(cfg)
        results = []
        for batched in (False, True):
            engine = SimulationEngine(
                program,
                machine=pgss.machine,
                signal_tracker=pgss._make_tracker(),
                batched=batched,
            )
            controller = pgss.make_controller(engine)
            while controller.step():
                pass
            results.append((controller.result(), controller.sample_offsets))
        (scalar, scalar_offsets), (batched, batched_offsets) = results
        assert scalar.ipc_estimate == batched.ipc_estimate
        assert scalar.detailed_ops == batched.detailed_ops
        assert scalar.total_ops == batched.total_ops
        assert scalar.n_samples == batched.n_samples
        assert scalar.accounting.ops == batched.accounting.ops
        assert scalar_offsets == batched_offsets
