"""The in-order 4-wide scoreboard pipeline (detailed timing model).

Timing semantics, per instruction, in program order:

* an instruction issues at the earliest cycle that satisfies (a) program
  order, (b) source operands ready, (c) an issue slot free this cycle within
  the machine width, (d) a functional-unit slot free for its class,
  (e) instruction fetch not stalled (I-cache miss or branch redirect);
* loads pay the full cache-hierarchy latency before their destination is
  ready; stores retire through a store buffer (no dependent latency);
* divides occupy their unpipelined unit until completion;
* a mispredicted branch stalls fetch for the machine's redirect penalty.

Register ready-times are absolute cycle numbers that persist across sample
windows; the detailed warm-up window preceding each measured sample (the
SMARTS/PGSS methodology) is what re-establishes them after a long
fast-forward, exactly as in the paper.

Two execution entry points share one timing core (:meth:`_issue_timing`):

* :meth:`execute_event` — the scalar reference path, one dynamic block at
  a time;
* :meth:`execute_run` — the batched path over run-length
  :class:`~repro.program.stream.BlockRun` records.  It first applies the
  run's *architectural* side — fetch, data accesses, predictor updates,
  none of which read the clock — through the same memory- and
  branch-layer calls functional warming makes, and keeps only their
  outcomes: the first iteration's fetch stall, the iterations that
  missed the L1D, the mispredicted ones.  The *timing* side is then a
  walk over those outcomes.  Relative timing contexts are interned to
  small integer ids and the transition for (context, level code,
  prediction outcome) is memoized, so repeated block executions walk an
  integer chain instead of running the scoreboard; stretches of L1 hits
  predicted correctly collapse further into closed form (see DESIGN.md
  §15).  The pipeline touches no cache storage itself.

Both paths leave every observable byte identical: cycle counts, cache
tag/dirty/stat state, predictor tables and stats, and op accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, Tuple

from ..branch import BranchPredictor
from ..config import MachineConfig
from ..isa import FU_CLASS, FU_LIMITS, N_REGS, Op
from ..isa.instructions import FuClass
from ..memory import CacheHierarchy
from ..program.stream import BlockEvent, BlockRun

__all__ = ["InOrderPipeline", "WindowResult"]

_OP_LOAD = int(Op.LOAD)
_OP_STORE = int(Op.STORE)
_OP_BRANCH = int(Op.BRANCH)
_OP_IDIV = int(Op.IDIV)
_OP_FDIV = int(Op.FDIV)

_FU_OF_OP: List[int] = [int(FU_CLASS[Op(i)]) for i in range(len(Op))]
_N_FU = len(FuClass)

#: Per-class issue limits as a list indexed by FuClass value.
_FU_LIMIT_LIST: List[int] = [FU_LIMITS[FuClass(i)] for i in range(_N_FU)]

#: Transition-memo size cap; distinct contexts per block are few, so this
#: is a backstop against pathological key churn, not a working-set tuner.
_MEMO_CAP = 65_536


@dataclass(frozen=True)
class WindowResult:
    """Timing outcome of one detailed window.

    Attributes:
        ops: operations executed.
        cycles: cycles elapsed.
    """

    ops: int
    cycles: int

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the window (0.0 for empty windows)."""
        return self.ops / self.cycles if self.cycles else 0.0


class InOrderPipeline:
    """Cycle-accurate in-order superscalar timing model.

    Args:
        machine: machine configuration (width, penalties).
        hierarchy: the cache hierarchy shared with the functional modes.
        predictor: the branch predictor shared with the functional modes.
    """

    def __init__(
        self,
        machine: MachineConfig,
        hierarchy: CacheHierarchy,
        predictor: BranchPredictor,
    ) -> None:
        self.machine = machine
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.cycle = 0
        self._reg_ready: List[int] = [0] * N_REGS
        self._fu_busy: List[int] = [0] * _N_FU  # unpipelined-unit next-free
        self._fetch_ready = 0
        self._width_used = 0
        self._class_used: List[int] = [0] * _N_FU
        self._l1i_hit_latency = hierarchy.l1i.hit_latency
        self._l1d_hit_latency = hierarchy.l1d.hit_latency
        #: Completion-cycle min-heap of in-flight L1 misses (<= n_mshrs
        #: live entries; completed ones are drained lazily).
        self._mshrs: List[int] = []
        # Batched-path memoization (see execute_run).  Relative timing
        # contexts are interned: _ctx_ids maps the full context tuple to a
        # small id, _ctx_states holds the tuple for materialization, and
        # _chain maps (context id, level code, prediction outcome) — one
        # int, or a tuple for codes too wide for it — to the scoreboard
        # transition it produces.  All of it is expressed relative to the
        # current cycle, so entries stay valid across windows, timing
        # resets and checkpoint restores.
        self._ctx_ids: Dict[Tuple[Any, ...], int] = {}
        self._ctx_states: List[Tuple[Any, ...]] = []
        self._chain: Dict[Any, Tuple[Any, ...]] = {}
        self._paths: Dict[int, Any] = {}

    def reset_timing(self) -> None:
        """Clear all timing state (cycle counter, scoreboards, stalls).

        The transition memo survives: its entries relate relative contexts
        and are independent of any absolute cycle numbers.
        """
        self.cycle = 0
        self._reg_ready = [0] * N_REGS
        self._fu_busy = [0] * _N_FU
        self._fetch_ready = 0
        self._width_used = 0
        self._class_used = [0] * _N_FU
        self._mshrs = []

    def execute_event(self, event: BlockEvent) -> None:
        """Run one dynamic basic-block execution through the pipeline."""
        block, taken, k = event
        hierarchy = self.hierarchy

        # Architectural phase.  Cache and predictor transitions never read
        # the clock, so running them up front (in program order: fetch,
        # data accesses, terminating branch) leaves state byte-identical
        # to issue-time interleaving while decoupling timing from them.
        fetch_stall = 0
        l1i_hit = self._l1i_hit_latency
        for line in block.inst_lines:
            extra = hierarchy.inst_latency(line) - l1i_hit
            if extra > 0:
                fetch_stall += extra

        lats: List[int] = []
        if block.mem_positions:
            patterns = block.mem_patterns
            mem_idx = block.mem_idx
            data_latency = hierarchy.data_latency
            for pos in block.mem_positions:
                pat = patterns[mem_idx[pos]]
                lats.append(data_latency(pat.address(k), pat.is_write))

        correct = self.predictor.predict_update(block.branch_address, taken)

        self._issue_timing(block, lats, fetch_stall, correct)

    def _issue_timing(
        self,
        block: Any,
        lats: Any,
        fetch_stall: int,
        correct: bool,
    ) -> None:
        """Scoreboard-issue one block execution (the shared timing core).

        Pure timing: the architectural phase has already happened and its
        outcomes arrive as arguments — per-memory-access latencies (in
        program order), the accumulated I-fetch stall beyond the pipelined
        L1 hit time, and the branch-prediction outcome.
        """
        reg_ready = self._reg_ready
        fu_busy = self._fu_busy
        class_used = self._class_used
        width = self.machine.issue_width
        limits = _FU_LIMIT_LIST
        cycle = self.cycle
        width_used = self._width_used
        fetch_ready = self._fetch_ready
        mshrs = self._mshrs
        n_mshrs = self.machine.n_mshrs
        l1d_hit = self._l1d_hit_latency

        if fetch_stall > 0:
            if fetch_ready < cycle:
                fetch_ready = cycle
            fetch_ready += fetch_stall

        mem_i = 0
        for op, fu, dst, src1, src2, lat, _mi in block.rows:
            # Earliest cycle satisfying dependences, order, and fetch.
            t = cycle
            if src1 > 0 and reg_ready[src1] > t:
                t = reg_ready[src1]
            if src2 > 0 and reg_ready[src2] > t:
                t = reg_ready[src2]
            if fetch_ready > t:
                t = fetch_ready
            if op == _OP_IDIV or op == _OP_FDIV:
                if fu_busy[fu] > t:
                    t = fu_busy[fu]
            if t > cycle:
                cycle = t
                width_used = 0
                class_used[0] = 0
                class_used[1] = 0
                class_used[2] = 0
                class_used[3] = 0
            # Structural hazards: machine width and per-class slots.
            while width_used >= width or class_used[fu] >= limits[fu]:
                cycle += 1
                width_used = 0
                class_used[0] = 0
                class_used[1] = 0
                class_used[2] = 0
                class_used[3] = 0
            width_used += 1
            class_used[fu] += 1

            if op == _OP_LOAD or op == _OP_STORE:
                mlat = lats[mem_i]
                mem_i += 1
                if mlat > l1d_hit:
                    # L1 miss: needs a free miss-status register; a full
                    # MSHR file stalls the in-order pipe until one drains.
                    while mshrs and mshrs[0] <= cycle:
                        heappop(mshrs)
                    if len(mshrs) >= n_mshrs:
                        earliest = heappop(mshrs)
                        if earliest > cycle:
                            cycle = earliest
                            width_used = 0
                            class_used[0] = 0
                            class_used[1] = 0
                            class_used[2] = 0
                            class_used[3] = 0
                    heappush(mshrs, cycle + mlat)
                if op == _OP_LOAD and dst > 0:
                    reg_ready[dst] = cycle + mlat
            elif op == _OP_BRANCH:
                if not correct:
                    stall = cycle + self.machine.mispredict_penalty
                    if stall > fetch_ready:
                        fetch_ready = stall
            else:
                if dst > 0:
                    reg_ready[dst] = cycle + lat
                if op == _OP_IDIV or op == _OP_FDIV:
                    fu_busy[fu] = cycle + lat

        self.cycle = cycle
        self._width_used = width_used
        self._fetch_ready = fetch_ready

    def _intern_context(
        self, bid: int, live_in: Tuple[int, ...], div_fus: Tuple[int, ...]
    ) -> int:
        """Intern the current relative timing context; return its id.

        The context is everything the scoreboard can read, expressed
        relative to the current cycle: issue-slot fill, per-class fill,
        fetch stall, unpipelined-unit occupancy, the block's live-in
        register ready offsets, and in-flight miss completions.  Offsets
        in the past clamp to zero — every consumer compares them against
        times at or beyond the current cycle, so the clamped context is
        behaviourally exact while maximising reuse.
        """
        cycle = self.cycle
        reg_ready = self._reg_ready
        fu_busy = self._fu_busy
        cu = self._class_used
        mshrs = self._mshrs
        if mshrs:
            mshr_rel = tuple(sorted(t - cycle for t in mshrs if t > cycle))
        else:
            mshr_rel = ()
        fr = self._fetch_ready - cycle
        state = (
            self._width_used,
            cu[0],
            cu[1],
            cu[2],
            cu[3],
            fr if fr > 0 else 0,
            tuple(
                [(v - cycle) if (v := fu_busy[f]) > cycle else 0 for f in div_fus]
            ),
            tuple(
                [(v - cycle) if (v := reg_ready[r]) > cycle else 0 for r in live_in]
            ),
            mshr_rel,
        )
        key = (bid,) + state
        sid = self._ctx_ids.get(key)
        if sid is None:
            sid = len(self._ctx_states)
            self._ctx_ids[key] = sid
            self._ctx_states.append(state)
        return sid

    def _materialize(
        self,
        sid: int,
        written_rels: Tuple[int, ...],
        live_in: Tuple[int, ...],
        written: Tuple[int, ...],
        div_fus: Tuple[int, ...],
    ) -> None:
        """Re-anchor absolute timing state from an interned context.

        While the batched path walks memoized transitions it tracks state
        only as a context id; this writes the absolute fields back (at the
        current cycle) so the scoreboard — or any later run — can read
        them.  *written_rels* carries the block's written-register offsets
        from the last applied transition (they are not part of the context
        because their stale inbound values are dead).
        """
        st = self._ctx_states[sid]
        cycle = self.cycle
        self._width_used = st[0]
        cu = self._class_used
        cu[0] = st[1]
        cu[1] = st[2]
        cu[2] = st[3]
        cu[3] = st[4]
        self._fetch_ready = cycle + st[5]
        fu_busy = self._fu_busy
        for f, rel in zip(div_fus, st[6]):
            fu_busy[f] = cycle + rel
        reg_ready = self._reg_ready
        for r, rel in zip(live_in, st[7]):
            reg_ready[r] = cycle + rel
        for r, rel in zip(written, written_rels):
            reg_ready[r] = cycle + rel
        # A sorted ascending list is already a valid heap; entries at or
        # before the current cycle were drained lazily anyway.
        self._mshrs = [cycle + t for t in st[8]]

    def _build_path(self, sid0: int, need: int) -> Any:
        """Unroll the memoized transition chain from *sid0* under constant
        all-hit inputs (every access an L1 hit, branch predicted).

        After an L1 miss the live-in register offsets decay over a dozen
        iterations before the context repeats — without this, every
        all-hit stretch walks that decay one chain hit at a time.  The
        returned path ``(cums, sids, wrels, loop_d, complete)`` lets a
        stretch apply in O(1): ``cums[j]`` is the cycle delta after j
        steps, ``sids[j]`` the context after j steps, ``wrels`` each
        step's written-register offsets.  When *complete*, the walk
        reached a self-loop fixed point and ``loop_d`` extends it to any
        length in closed form; otherwise the path is a prefix (the chain
        had no entry yet for the next step — the caller applies what
        exists and trickles on, which memoizes further steps for the next
        build).

        Walks at least *need* steps when it can; returns None when not
        even two steps are known.  The final element records the chain
        size at build time so callers can skip re-walking an incomplete
        path until new transitions exist.
        """
        chain = self._chain
        cums = [0]
        sids = [sid0]
        wrels: List[Tuple[int, ...]] = []
        s = sid0
        d = 0
        bound = need if need > 32 else 32
        if bound > 96:
            bound = 96
        complete = False
        loop_d = 0
        while len(wrels) < bound:
            t = chain.get((s << 6) | 32)
            if t is None:
                break
            d += t[0]
            cums.append(d)
            ns = t[1]
            sids.append(ns)
            wrels.append(t[2])
            if ns == s:
                complete = True
                loop_d = t[0]
                break
            s = ns
        # A one-step incomplete walk is not worth caching — but a one-step
        # *complete* walk is the common warm case: the span starts at the
        # fixed point itself.
        if not complete and len(wrels) < 2:
            return None
        return (
            tuple(cums),
            tuple(sids),
            tuple(wrels),
            loop_d,
            complete,
            len(chain),
        )

    def execute_run(self, run: BlockRun) -> None:
        """Run a whole run-length record through the pipeline, batched.

        Byte-identical in every observable (cycle count, cache and
        predictor state including stats, memory-access counters) to
        :meth:`execute_event` over ``run.events()``, but built to spend
        far fewer Python operations per block execution.

        The architectural side comes first, for the whole run, through
        exactly the calls functional warming makes
        (:meth:`FunctionalWarmer.execute_run`):
        :meth:`~repro.memory.CacheHierarchy.fetch_run` (iteration 0's
        I-fetch stall; later iterations fetch from pinned lines),
        :meth:`~repro.memory.CacheHierarchy.data_run` (the iterations
        that missed the L1D, with their level codes) and
        :meth:`~repro.branch.BranchPredictor.apply_run` (the mispredicted
        iterations).  None of it reads the clock, so the timing side can
        follow as a walk over those outcomes alone:

        * the scoreboard is memoized: the relative timing context is
          interned to an integer id and each (context, level code,
          prediction outcome) transition is recorded once, so repeats
          walk ``cycle += delta; context = next`` without touching the
          scoreboard arrays (absolute state is re-anchored on exit);
        * a stretch of iterations that all hit the L1D and predict
          correctly has constant inputs, so it applies the chain's
          unrolled path from the current context in one step, and past
          the path's self-loop fixed point in closed form
          (:meth:`_build_path`);
        * every other iteration takes one memoized chain step.

        A transition the memo does not know yet runs the real scalar
        scoreboard (:meth:`_issue_timing`) and is recorded — never an
        approximation.
        """
        block = run.block
        n = run.n
        if n == 1:
            self.execute_event(BlockEvent(block, run.taken_at(0), run.k_start))
            return
        if len(self._chain) >= _MEMO_CAP:
            self._chain.clear()
            self._ctx_ids.clear()
            self._ctx_states.clear()
            self._paths.clear()

        hierarchy = self.hierarchy
        plan = hierarchy.access_plan(block)
        if not plan.pinned:
            # Degenerate geometry: the block's own fetch lines collide
            # within a set, so iteration 0 does not pin them all at MRU.
            for event in run.events():
                self.execute_event(event)
            return
        fetch_stall = hierarchy.fetch_run(block.inst_lines, n)
        data = hierarchy.data_run(plan, run.k_start, n)
        data.append((n, 0))
        mispredicts = self.predictor.apply_run(
            block.branch_address, n, run.ends_entry, run.takens
        )
        mispredicts.append(n)

        # Completed misses from earlier runs would otherwise linger in the
        # heap and tax every context build; draining them is invisible
        # (the scalar path drains lazily, to the same effect).
        mshrs = self._mshrs
        c0 = self.cycle
        while mshrs and mshrs[0] <= c0:
            heappop(mshrs)

        n_pat = len(plan.pinfo)
        bid = block.bid
        live_in = block.live_in_regs
        written = block.written_regs
        div_fus = block.div_fus
        chain = self._chain
        chain_get = chain.get
        paths = self._paths
        paths_get = paths.get
        reg_ready = self._reg_ready
        # The next iteration with an L1D miss (and its level code) and the
        # next mispredicted one; `n` once none is left.
        di = bi = 0
        nd, dcode = data[0]
        nb = mispredicts[0]
        i = 0
        if fetch_stall:
            # Rare cold fetch: run iteration 0 through the real scoreboard
            # (the memo chain assumes stall-free fetch) and rejoin at 1.
            code = 0
            if nd == 0:
                code = dcode
                di = 1
                nd, dcode = data[1]
            correct = nb != 0
            if not correct:
                bi = 1
                nb = mispredicts[1]
            self._issue_timing(
                block, hierarchy.code_latencies(code, n_pat), fetch_stall, correct
            )
            i = 1
        stop = nd if nd < nb else nb  # end of the current all-hit stretch

        sid = self._intern_context(bid, live_in, div_fus)
        cycle = self.cycle  # local through the loop; synced around calls
        pending = None  # written-reg offsets of the last walked transition
        ckey: Any  # chain key: int, or a tuple for wide level codes
        while i < n:
            if i < stop:
                m = stop - i
                if m > 1:
                    # All-hit, correctly predicted stretch: apply the
                    # chain's unrolled path from this context at once.
                    path = paths_get(sid)
                    if path is None or (
                        not path[4] and m > len(path[2]) and len(chain) != path[5]
                    ):
                        built = self._build_path(sid, m)
                        if built is not None:
                            path = paths[sid] = built
                    if path is not None:
                        wrels = path[2]
                        last = len(wrels)
                        if m > last and path[4]:
                            # Past the fixed point: extend in closed form.
                            cycle += (m - last) * path[3]
                            i += m - last
                        # A prefix-only path applies what the chain knows;
                        # the rest trickles on, memoizing missing steps.
                        j = m if m < last else last
                        cycle += path[0][j]
                        sid = path[1][j]
                        pending = wrels[j - 1]
                        i += j
                        continue
                code = 0
                correct = True
                ckey = (sid << 6) | 32
            else:
                # An iteration with an L1D miss, a misprediction, or both.
                code = 0
                if i == nd:
                    code = dcode
                    di += 1
                    nd, dcode = data[di]
                correct = i != nb
                if not correct:
                    bi += 1
                    nb = mispredicts[bi]
                stop = nd if nd < nb else nb
                # Codes of up to three accesses fit the integer key.
                if code < 32:
                    ckey = (sid << 6) | (32 if correct else 0) | code
                else:
                    ckey = (sid, correct, code)
            t = chain_get(ckey)
            if t is not None:
                cycle += t[0]
                sid = t[1]
                pending = t[2]
            else:
                self.cycle = cycle
                if pending is not None:
                    self._materialize(sid, pending, live_in, written, div_fus)
                    pending = None
                lats = hierarchy.code_latencies(code, n_pat)
                self._issue_timing(block, lats, 0, correct)
                after = self.cycle
                nsid = self._intern_context(bid, live_in, div_fus)
                chain[ckey] = (
                    after - cycle,
                    nsid,
                    tuple(
                        [
                            (v - after) if (v := reg_ready[r]) > after else 0
                            for r in written
                        ]
                    ),
                )
                cycle = after
                sid = nsid
            i += 1

        self.cycle = cycle
        if pending is not None:
            self._materialize(sid, pending, live_in, written, div_fus)

    def run_window(self, events: List[BlockEvent]) -> WindowResult:
        """Execute a list of events and report ops/cycles for the window."""
        start = self.cycle
        ops = 0
        for event in events:
            self.execute_event(event)
            ops += event.block.n_ops
        # The final instructions issue at self.cycle; they complete a cycle
        # later at minimum.
        return WindowResult(ops=ops, cycles=self.cycle - start + 1)
