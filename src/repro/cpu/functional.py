"""Functional execution modes: warming and pure fast-forward.

*Functional warming* keeps the long-lifetime structures — caches and branch
predictor — warm while skipping all timing, exactly the SMARTS/PGSS
fast-forward mode.  *Pure fast-forward* touches nothing; it exists for
SimPoint-style skipping where architectural warmth is re-established later
(and for measuring the cost of warming itself, Fig. 13).
"""

from __future__ import annotations

from ..branch import BranchPredictor
from ..memory import CacheHierarchy
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
        * data — :meth:`CacheHierarchy.data_run`: net-silent spans found
          by the block's :class:`~repro.memory.AccessPlan` probe cost one
          counter bump; only the other executions run the real cache
          transitions;
        * branch — :meth:`BranchPredictor.apply_run`.

        The pipeline makes the same three calls and keeps what they
        return (fetch stall, L1D misses, mispredictions) for its timing
        walk; the warmer drops it.
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
        hierarchy.data_run(plan, run.k_start, n)
        self.predictor.apply_run(block.branch_address, n, run.ends_entry, run.takens)
