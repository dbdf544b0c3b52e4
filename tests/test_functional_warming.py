"""Focused tests for the functional-warming executor."""

from dataclasses import replace

import pytest

from repro import DEFAULT_MACHINE
from repro.branch import BimodalPredictor, GsharePredictor
from repro.config import CacheConfig
from repro.cpu.functional import FunctionalWarmer
from repro.cpu.pipeline import InOrderPipeline
from repro.isa import Instruction, Op
from repro.memory import CacheHierarchy
from repro.program import MemPattern, PatternKind
from repro.program.block import BasicBlock
from repro.program.stream import BlockEvent, BlockRun


@pytest.fixture()
def warmer():
    hierarchy = CacheHierarchy(DEFAULT_MACHINE)
    predictor = GsharePredictor(12)
    return FunctionalWarmer(hierarchy, predictor)


def make_event(taken=True, k=0, with_load=True):
    pats = []
    insts = []
    if with_load:
        pats = [MemPattern(PatternKind.STREAM, base=0x400000, span=1 << 16, stride=64)]
        insts.append(Instruction(Op.LOAD, dst=1, src1=0, mem_index=0))
    insts.append(Instruction(Op.IALU, dst=2, src1=1))
    insts.append(Instruction(Op.BRANCH, src1=2))
    block = BasicBlock(0, 0x2000, insts, pats)
    return BlockEvent(block, taken, k)


class TestFunctionalWarmer:
    def test_warms_icache(self, warmer):
        warmer.execute_event(make_event())
        assert warmer.hierarchy.l1i.contains(0x2000)

    def test_warms_dcache_with_pattern_address(self, warmer):
        event = make_event(k=3)
        warmer.execute_event(event)
        addr = event.block.mem_patterns[0].address(3)
        assert warmer.hierarchy.l1d.contains(addr)

    def test_updates_predictor(self, warmer):
        warmer.execute_event(make_event(taken=True))
        assert warmer.predictor.stats.predictions == 1

    def test_execution_count_advances_addresses(self, warmer):
        e0 = make_event(k=0)
        e1 = make_event(k=1)
        a0 = e0.block.mem_patterns[0].address(0)
        a1 = e1.block.mem_patterns[0].address(1)
        assert a0 != a1
        warmer.execute_event(e0)
        warmer.execute_event(e1)
        assert warmer.hierarchy.l1d.contains(a0)
        assert warmer.hierarchy.l1d.contains(a1)

    def test_store_pattern_marks_write(self, warmer):
        pats = [
            MemPattern(
                PatternKind.REUSE, base=0x500000, span=64, stride=8, is_write=True
            )
        ]
        insts = [
            Instruction(Op.STORE, src1=1, src2=2, mem_index=0),
            Instruction(Op.BRANCH, src1=1),
        ]
        block = BasicBlock(0, 0x3000, insts, pats)
        warmer.execute_event(BlockEvent(block, True, 0))
        # Evicting the line must produce a writeback (it is dirty).
        stats = warmer.hierarchy.l1d.stats
        assert stats.accesses == 1

    def test_no_timing_state(self, warmer):
        """Warming must not require or mutate any pipeline object."""
        for k in range(50):
            warmer.execute_event(make_event(k=k))
        # Only caches and predictor were touched; nothing else to assert —
        # the absence of a pipeline dependency is the contract.
        assert warmer.hierarchy.l1d.stats.accesses == 50


# -- batched execute_run: byte-identity edge cases ---------------------------


def _arch_state(hierarchy, predictor):
    """Every architectural observable: cache contents and counters,
    memory accesses, predictor tables, history and stats."""
    caches = (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
    return (
        hierarchy.snapshot(),
        [(c.stats.accesses, c.stats.hits, c.stats.writebacks) for c in caches],
        hierarchy.memory_accesses,
        predictor.snapshot(),
        (predictor.stats.predictions, predictor.stats.mispredictions),
    )


def _assert_runs_match_scalar(runs, machine=DEFAULT_MACHINE, predictor=GsharePredictor):
    """Batched FUNC_WARM, scalar FUNC_WARM, batched DETAIL and scalar
    DETAIL leave the same architectural state after every run, and both
    DETAIL arms the same cycle count."""
    arms = [(CacheHierarchy(machine), predictor(12)) for _ in range(4)]
    scalar = FunctionalWarmer(*arms[0])
    batched = FunctionalWarmer(*arms[1])
    detail = InOrderPipeline(machine, *arms[2])
    scalar_detail = InOrderPipeline(machine, *arms[3])
    for run in runs:
        for event in run.events():
            scalar.execute_event(event)
            scalar_detail.execute_event(event)
        batched.execute_run(run)
        detail.execute_run(run)
        want = _arch_state(*arms[0])
        assert _arch_state(*arms[1]) == want
        assert _arch_state(*arms[2]) == want
        assert _arch_state(*arms[3]) == want
        assert detail.cycle == scalar_detail.cycle
    return arms[1][0]


def _block(patterns, bid=0, address=0x2000, n_alu=3, random_taken_prob=None):
    """One LOAD/STORE per pattern (program order = pattern order), a few
    ALU ops and the terminating branch."""
    insts = [
        Instruction(Op.STORE, src1=1, src2=2, mem_index=j)
        if pat.is_write
        else Instruction(Op.LOAD, dst=3 + j, src1=1, mem_index=j)
        for j, pat in enumerate(patterns)
    ]
    insts += [Instruction(Op.IALU, dst=1, src1=1)] * n_alu
    insts.append(Instruction(Op.BRANCH, src1=1))
    return BasicBlock(bid, address, insts, patterns, random_taken_prob)


def _loop_runs(block, lengths, k=0):
    """Loop-controlled runs, each ending its entry (taken..., not-taken)."""
    runs = []
    for n in lengths:
        runs.append(BlockRun(block, n, k, True))
        k += n
    return runs


def _stream(base, span=1 << 16, stride=8, write=False):
    return MemPattern(
        PatternKind.STREAM, base=base, span=span, stride=stride, is_write=write
    )


class TestBatchedWarming:
    def test_single_execution_runs(self):
        block = _block([_stream(0x400000), _stream(0x800000, write=True)])
        runs = []
        k = 0
        shape = ((1, False), (1, True), (7, False), (1, True), (1, False), (30, True))
        for n, ends in shape:
            runs.append(BlockRun(block, n, k, ends))
            k += n
        _assert_runs_match_scalar(runs)

    @pytest.mark.parametrize("n_lines", (4, 6))
    def test_fetch_lines_versus_l1i_sets(self, n_lines):
        """A block spanning more lines than the L1I has sets cannot pin
        its fetch lines; at exactly the set count it still can."""
        machine = replace(DEFAULT_MACHINE, l1i=CacheConfig(1024, 4))  # 4 sets
        block = _block([_stream(0x400000)], n_alu=16 * n_lines - 2)
        assert len(block.inst_lines) == n_lines
        h = _assert_runs_match_scalar(_loop_runs(block, (12, 40, 3)), machine)
        assert h.access_plan(block).pinned == (n_lines <= 4)

    @pytest.mark.parametrize("assoc", (4, 2))
    @pytest.mark.parametrize("kind", (PatternKind.RANDOM, PatternKind.CHASE))
    def test_never_silent_block_beyond_l1d(self, kind, assoc):
        """Every execution accesses for real: the inline 4-way path and
        the access_quiet path of other geometries."""
        machine = replace(DEFAULT_MACHINE, l1d=CacheConfig(64 * 1024, assoc))
        big = MemPattern(kind, base=0x1000000, span=1 << 20, seed=17)
        block = _block([big, _stream(0x400000, span=4096, write=True)])
        h = _assert_runs_match_scalar(_loop_runs(block, (300, 5, 800)), machine)
        assert h.access_plan(block).probe is None
        assert h.l1d.stats.misses and h.l2.stats.misses

    @pytest.mark.parametrize("assoc", (4, 2))
    def test_stores_hit_lines_loads_brought_in(self, assoc):
        """Hashed loads and stores over one region twice the L1D: writes
        land on clean lines in every way position, and dirty evictions
        write back at both levels."""
        machine = replace(
            DEFAULT_MACHINE,
            l1d=CacheConfig(16 * 1024, assoc),
            l2=CacheConfig(64 * 1024, 4, hit_latency=10),
        )
        pats = [
            MemPattern(PatternKind.RANDOM, base=0x1000000, span=32 * 1024, seed=5),
            # Another span, so the store's hash sequence is not the load's
            # shifted by a few executions.
            MemPattern(
                PatternKind.RANDOM, base=0x1000000, span=24 * 1024, seed=9,
                is_write=True,
            ),
            _stream(0x4000000, span=1 << 20, stride=32),
        ]
        runs = _loop_runs(_block(pats), (900, 40, 2000))
        h = _assert_runs_match_scalar(runs, machine)
        assert h.l1d.stats.writebacks and h.l2.stats.writebacks

    @pytest.mark.parametrize(
        "pats",
        (
            # Strided and hashed in one block: the per-pattern probe.
            [
                MemPattern(PatternKind.REUSE, base=0x400000, span=4096, stride=8),
                MemPattern(PatternKind.RANDOM, base=0x800000, span=8192, seed=3),
            ],
            # Three strided accesses: the joint net-silence probe.
            [
                MemPattern(PatternKind.REUSE, base=0x400000, span=4096, stride=8),
                MemPattern(
                    PatternKind.REUSE, base=0x410000, span=2048, stride=16,
                    is_write=True,
                ),
                _stream(0x800000, span=1 << 18, stride=8),
            ],
        ),
    )
    def test_multi_access_probes(self, pats):
        block = _block(pats)
        h = _assert_runs_match_scalar(_loop_runs(block, (700, 3, 1500, 900)))
        # Silent spans were found: far more hits than real transitions.
        assert h.l1d.stats.hit_rate > 0.9

    @pytest.mark.parametrize("offset", (0, 64, 4096))
    def test_two_accesses_in_one_set(self, offset):
        """Two strided accesses per execution on a 64-set L1D: the same
        line (offset 0), overlapping line walks (64) or the same set on
        another line (4096) — the pair probe's shared-set branches."""
        machine = replace(DEFAULT_MACHINE, l1d=CacheConfig(16 * 1024, 4))
        pats = [
            MemPattern(PatternKind.REUSE, base=0x400000, span=2048, stride=8),
            MemPattern(
                PatternKind.REUSE, base=0x400000 + offset, span=2048, stride=8,
                is_write=True,
            ),
        ]
        block = _block(pats)
        _assert_runs_match_scalar(_loop_runs(block, (500, 700, 2, 900)), machine)

    @pytest.mark.parametrize(
        "pats",
        (
            [_stream(0x400020, span=4096)],
            [_stream(0x400020, span=4096), _stream(0x800020, span=4096, stride=16)],
        ),
    )
    def test_unaligned_strided_base(self, pats):
        """A strided pattern whose base is not line-aligned: its line
        groups end at line boundaries of the absolute address, not of
        the pattern offset — otherwise a probe vouches for the first
        access of the next line without looking at it."""
        h = _assert_runs_match_scalar(_loop_runs(_block(pats), (40, 40, 600, 600)))
        assert h.l1d.stats.hit_rate > 0.8

    def test_four_access_level_codes(self):
        """Four accesses, the first two streaming from the L2 (from memory
        on the first pass): level codes from 36 up, beyond the pipeline's
        integer chain keys, under both branch outcomes from the same
        timing contexts."""
        import random

        rng = random.Random(5)
        pats = [
            _stream(0x1000000, span=128 * 1024, stride=64),
            _stream(0x2000000, span=128 * 1024, stride=64),
            MemPattern(PatternKind.REUSE, base=0x400000, span=4096, stride=8),
            MemPattern(
                PatternKind.REUSE, base=0x410000, span=2048, stride=16,
                is_write=True,
            ),
        ]
        block = _block(pats, random_taken_prob=0.5)
        runs = []
        k = 0
        for n in (2100, 300, 200, 600, 900):
            takens = tuple(rng.random() < 0.5 for _ in range(n))
            runs.append(BlockRun(block, n, k, False, takens))
            k += n
        _assert_runs_match_scalar(runs)

    def test_random_branch_takens(self):
        import random

        rng = random.Random(3)
        block = _block([_stream(0x400000)], random_taken_prob=0.5)
        runs = []
        k = 0
        for n in (1, 9, 40, 200, 3):
            takens = tuple(rng.random() < 0.5 for _ in range(n))
            runs.append(BlockRun(block, n, k, False, takens))
            k += n
        _assert_runs_match_scalar(runs)

    @pytest.mark.parametrize("predictor", (GsharePredictor, BimodalPredictor))
    def test_loop_exits_and_history_refill(self, predictor):
        """After each loop exit gshare's history refills through taken
        outcomes that index fresh table entries — the stretch the bulk
        streak must stop in and resume after; bimodal has no history."""
        a = _block([_stream(0x400000)])
        b = _block([_stream(0x800000)], bid=1, address=0x3000)
        runs = []
        ka = kb = 0
        for n in (3, 20, 1, 2, 64, 13):
            runs.append(BlockRun(a, n, ka, True))
            runs.append(BlockRun(b, n + 1, kb, n % 2 == 0))
            ka += n
            kb += n + 1
        _assert_runs_match_scalar(runs, predictor=predictor)
