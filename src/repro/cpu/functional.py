"""Functional execution modes: warming and pure fast-forward.

*Functional warming* keeps the long-lifetime structures — caches and branch
predictor — warm while skipping all timing, exactly the SMARTS/PGSS
fast-forward mode.  *Pure fast-forward* touches nothing; it exists for
SimPoint-style skipping where architectural warmth is re-established later
(and for measuring the cost of warming itself, Fig. 13).
"""

from __future__ import annotations

from ..branch import BranchPredictor
from ..memory import AccessPlan, CacheHierarchy
from ..program.stream import BlockEvent, BlockRun

__all__ = ["FunctionalWarmer"]


class FunctionalWarmer:
    """Applies the architectural (non-timing) effects of block events.

    Shares the hierarchy and predictor objects with the detailed pipeline so
    that a switch from fast-forwarding to detailed simulation sees warm
    state, as the SMARTS methodology requires.
    """

    def __init__(self, hierarchy: CacheHierarchy, predictor: BranchPredictor) -> None:
        self.hierarchy = hierarchy
        self.predictor = predictor

    def execute_event(self, event: BlockEvent) -> None:
        """Update caches and branch predictor for one block execution."""
        block, taken, k = event
        hierarchy = self.hierarchy
        for line in block.inst_lines:
            hierarchy.warm_inst(line)
        patterns = block.mem_patterns
        for pat in patterns:
            hierarchy.warm_data(pat.address(k), pat.is_write)
        self.predictor.predict_update(block.branch_address, taken)

    def execute_run(self, run: BlockRun) -> None:
        """Apply one run-length record: the architectural half of the
        batched pipeline (:meth:`InOrderPipeline.execute_run`), no timing.

        Byte-identical in every cache, predictor and counter to
        :meth:`execute_event` over ``run.events()``.  The three sides of a
        run touch disjoint state after its first I-fetch, so each is
        applied over the whole run at once:

        * instruction fetch — the first execution fetches for real and
          pins the block's lines at MRU; the rest are arithmetic L1I hits
          (:meth:`CacheHierarchy.fetch_run`);
        * data — net-silent spans found by the block's
          :class:`~repro.memory.AccessPlan` probe cost one counter bump;
          only the other executions run the real cache transitions;
        * branch — :meth:`BranchPredictor.apply_run`.
        """
        block = run.block
        n = run.n
        hierarchy = self.hierarchy
        plan = hierarchy.access_plan(block)
        if not plan.pinned:
            for event in run.events():
                self.execute_event(event)
            return
        hierarchy.fetch_run(block.inst_lines, n)
        if plan.pinfo:
            self._warm_data_run(plan, run.k_start, n)
        self.predictor.apply_run(block.branch_address, n, run.ends_entry, run.takens)

    def _warm_data_run(self, plan: AccessPlan, k: int, n: int) -> None:
        """The data side of a run: executions ``k .. k + n - 1``.

        Only executions no probe could prove silent touch the caches.
        With the default 4-way L1D they run :meth:`Cache.access_quiet`'s
        transition inline — the L1D's recency rotation unrolled, the L2
        walked by slice search — with every counter deferred to one
        flush; other geometries call ``access_quiet`` itself.
        """
        hierarchy = self.hierarchy
        l1d = hierarchy.l1d
        l2 = hierarchy.l2
        l1d_access = l1d.access_quiet
        l2_access = l2.access_quiet
        salt = hierarchy.address_salt
        probe = plan.probe
        pinfo = plan.pinfo
        n_pat = len(pinfo)
        d_tags, d_dirty, d_shift, d_assoc, d_pow2, d_mask, d_nsets = l1d.hot_refs()
        u_tags, u_dirty, u_shift, u_assoc, u_pow2, u_mask, u_nsets = l2.hot_refs()
        inline = d_assoc == 4
        line_mask = (1 << d_shift) - 1
        # A single strided access leaves its line at MRU (dirty when it
        # writes), so the executions after it that share the line are
        # silent by construction: skip them without probing.
        hinted = n_pat == 1 and pinfo[0][0]
        end = k + n
        d_miss = u_miss = d_wb = u_wb = 0
        hint = 0
        # A silent span that stopped short ended at an execution that is
        # likely (probed: certainly) not silent: go straight to its real
        # accesses.
        skip = probe is None
        while k < end:
            if hint:
                k += hint if hint < end - k else end - k
                hint = 0
                skip = True
                continue
            if skip:
                skip = probe is None
            elif probe is not None:
                m = probe(k, end - k)
                if m:
                    k += m
                    skip = True
                    continue
            for st, bb, xx, spn, w in pinfo:
                if st:
                    a = bb + (k * xx) % spn
                    if hinted:
                        hint = ((a | line_mask) - a) // xx
                        gw = (spn - (k * xx) % spn - 1) // xx
                        if gw < hint:
                            hint = gw
                    a ^= salt
                else:
                    h = ((k + xx) * 2654435761) & 0xFFFFFFFF
                    h ^= h >> 16
                    h = (h * 0x45D9F3B) & 0xFFFFFFFF
                    h ^= h >> 16
                    a = (bb + ((h % spn) & -8)) ^ salt
                if not inline:
                    if not l1d_access(a, w):
                        d_miss += 1
                        if not l2_access(a, w):
                            u_miss += 1
                    continue
                line = a >> d_shift
                b = (line & d_mask if d_pow2 else line % d_nsets) * 4
                if d_tags[b] == line:
                    if w:
                        d_dirty[b] = True
                    continue
                if d_tags[b + 1] == line:
                    dd = d_dirty[b + 1]
                    d_tags[b + 1] = d_tags[b]
                    d_tags[b] = line
                    d_dirty[b + 1] = d_dirty[b]
                    d_dirty[b] = dd or w
                    continue
                if d_tags[b + 2] == line:
                    dd = d_dirty[b + 2]
                    d_tags[b + 2] = d_tags[b + 1]
                    d_tags[b + 1] = d_tags[b]
                    d_tags[b] = line
                    d_dirty[b + 2] = d_dirty[b + 1]
                    d_dirty[b + 1] = d_dirty[b]
                    d_dirty[b] = dd or w
                    continue
                # LRU way: a hit there rotates like a miss evicts it.
                hit = d_tags[b + 3] == line
                if hit:
                    dd = d_dirty[b + 3] or w
                else:
                    dd = w
                    if d_dirty[b + 3] and d_tags[b + 3] != -1:
                        d_wb += 1
                    d_miss += 1
                d_tags[b + 3] = d_tags[b + 2]
                d_tags[b + 2] = d_tags[b + 1]
                d_tags[b + 1] = d_tags[b]
                d_tags[b] = line
                d_dirty[b + 3] = d_dirty[b + 2]
                d_dirty[b + 2] = d_dirty[b + 1]
                d_dirty[b + 1] = d_dirty[b]
                d_dirty[b] = dd
                if hit:
                    continue
                line = a >> u_shift
                b = (line & u_mask if u_pow2 else line % u_nsets) * u_assoc
                if u_tags[b] == line:
                    if w:
                        u_dirty[b] = True
                    continue
                bend = b + u_assoc
                if line in u_tags[b + 1 : bend]:
                    j = u_tags.index(line, b + 1, bend)
                    dd = u_dirty[j]
                    u_tags[b + 1 : j + 1] = u_tags[b:j]
                    u_dirty[b + 1 : j + 1] = u_dirty[b:j]
                    u_tags[b] = line
                    u_dirty[b] = dd or w
                    continue
                if u_dirty[bend - 1] and u_tags[bend - 1] != -1:
                    u_wb += 1
                u_tags[b + 1 : bend] = u_tags[b : bend - 1]
                u_dirty[b + 1 : bend] = u_dirty[b : bend - 1]
                u_tags[b] = line
                u_dirty[b] = w
                u_miss += 1
            k += 1

        stats = l1d.stats
        stats.accesses += n * n_pat
        stats.hits += n * n_pat - d_miss
        stats.writebacks += d_wb
        if d_miss:
            stats = l2.stats
            stats.accesses += d_miss
            stats.hits += d_miss - u_miss
            stats.writebacks += u_wb
            hierarchy.memory_accesses += u_miss
