"""Two-level cache hierarchy with split L1 and unified L2.

Latency semantics follow the usual inclusive look-through model: an L1 hit
costs the L1 hit latency, an L1 miss that hits in L2 costs L1 + L2 latency,
and an L2 miss additionally pays the memory latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..config import MachineConfig
from ..program.mem_patterns import PatternKind
from .cache import Cache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..program.block import BasicBlock
    from ..program.mem_patterns import MemPattern

__all__ = ["AccessPlan", "AccessResult", "CacheHierarchy"]


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy access.

    Attributes:
        latency: total cycles to satisfy the access.
        level: 1 for an L1 hit, 2 for an L2 hit, 3 for main memory.
    """

    latency: int
    level: int


class AccessPlan(NamedTuple):
    """One block's memory side, prepared for whole-run execution.

    Built once per block by :meth:`CacheHierarchy.access_plan` and walked
    by :meth:`CacheHierarchy.data_run`, the one batched data walk both
    the detailed pipeline and functional warming call.

    Attributes:
        pinfo: per memory pattern, in program order, its address
            generator unpacked for inline evaluation — ``(True, base,
            stride, span, is_write, digit)`` for strided patterns,
            ``(False, base, seed, span, is_write, digit)`` for hashed
            ones (see :meth:`MemPattern.address`); *digit* is the
            pattern's place value ``3 ** (n - 1 - j)`` in the base-3
            level code :meth:`CacheHierarchy.data_run` reports.
        probe: ``probe(k_start, limit)`` returns how many consecutive
            executions from *k_start* (at most *limit*) are net-silent on
            the data side against the current cache state.  ``None`` for
            a never-silent block: some hashed pattern's footprint exceeds
            the L1D, so no iteration can be proven silent.
        pinned: the block's fetch lines fall in distinct L1I sets, so
            :meth:`CacheHierarchy.fetch_run` applies.
    """

    pinfo: Tuple[Tuple[bool, int, int, int, bool, int], ...]
    probe: Optional[Callable[[int, int], int]]
    pinned: bool


class CacheHierarchy:
    """Split L1 I/D caches backed by a unified L2 and main memory.

    The hierarchy exposes two call styles:

    * :meth:`access_data` / :meth:`access_inst` — full result objects,
      used by tests and tooling;
    * :meth:`data_latency` / :meth:`inst_latency` — bare integer latencies,
      used by the scalar pipeline, one access at a time.

    Batched consumers (functional warming and the detailed pipeline)
    apply a whole run at once instead: :meth:`fetch_run` for the
    instruction side and :meth:`data_run` for the data side, both driven
    by the block's :class:`AccessPlan`.
    """

    def __init__(
        self,
        machine: MachineConfig,
        shared_l2: Optional[Cache] = None,
        address_salt: int = 0,
    ) -> None:
        """Build the hierarchy.

        Args:
            machine: cache geometry and latencies.
            shared_l2: when given, this L2 instance is used instead of a
                private one — the chip-multiprocessor configuration where
                several cores' private L1s share one L2 (paper Section 5:
                the simulated core "is meant to be roughly representative
                of a single core on a modern chip multiprocessor").
            address_salt: high-bit XOR salt applied to every address —
                models distinct physical address spaces per core so two
                programs built from the same generator do not falsely
                share lines in the shared L2.  Must only set bits above
                any generated address (the default core salts use
                bit 36+), so private-cache behaviour is unchanged.
        """
        self.machine = machine
        self.l1i = Cache(machine.l1i, "L1I")
        self.l1d = Cache(machine.l1d, "L1D")
        self.l2 = shared_l2 if shared_l2 is not None else Cache(machine.l2, "L2")
        self.memory_accesses = 0
        self._salt = address_salt
        self._plans: Dict["BasicBlock", AccessPlan] = {}

    @property
    def address_salt(self) -> int:
        """The per-core address salt XORed into every access."""
        return self._salt

    def data_latency(self, addr: int, is_write: bool = False) -> int:
        """Access the data side; return total latency in cycles."""
        addr ^= self._salt
        lat = self.l1d.hit_latency
        if self.l1d.access(addr, is_write):
            return lat
        lat += self.l2.hit_latency
        if self.l2.access(addr, is_write):
            return lat
        self.memory_accesses += 1
        return lat + self.machine.memory_latency

    def inst_latency(self, addr: int) -> int:
        """Access the instruction side; return total latency in cycles."""
        addr ^= self._salt
        lat = self.l1i.hit_latency
        if self.l1i.access(addr):
            return lat
        lat += self.l2.hit_latency
        if self.l2.access(addr):
            return lat
        self.memory_accesses += 1
        return lat + self.machine.memory_latency

    def access_data(self, addr: int, is_write: bool = False) -> AccessResult:
        """Access the data side; return latency and the servicing level."""
        before_l2 = self.l2.stats.hits
        before_l1 = self.l1d.stats.hits
        lat = self.data_latency(addr, is_write)
        if self.l1d.stats.hits > before_l1:
            return AccessResult(lat, 1)
        if self.l2.stats.hits > before_l2:
            return AccessResult(lat, 2)
        return AccessResult(lat, 3)

    def access_inst(self, addr: int) -> AccessResult:
        """Access the instruction side; return latency and servicing level."""
        before_l2 = self.l2.stats.hits
        before_l1 = self.l1i.stats.hits
        lat = self.inst_latency(addr)
        if self.l1i.stats.hits > before_l1:
            return AccessResult(lat, 1)
        if self.l2.stats.hits > before_l2:
            return AccessResult(lat, 2)
        return AccessResult(lat, 3)

    def silent_data_span(
        self, patterns: Sequence["MemPattern"], k_start: int, limit: int
    ) -> int:
        """How many consecutive executions of *patterns* stay silent?

        Returns the largest ``m <= limit`` such that every pattern's
        accesses for ``k in [k_start, k_start + m)`` would be silent L1
        hits (see :meth:`Cache.silent_span_strided`) against the
        *current* data-cache state.  A silent L1 hit never reaches the
        L2, so it leaves the whole hierarchy byte-identical, counters
        aside, and the answer is valid for the whole span at once.
        Patterns silent one by one are silent together (lines sharing a
        set cannot all rest at MRU), so each is probed on its own and
        the span shrinks as it goes: pass the most restrictive first.

        Strided patterns are probed one cache line at a time; hashed
        patterns per execution, after a fast rejection when their
        footprint cannot possibly be L1-resident.
        """
        l1d = self.l1d
        salt = self._salt
        m = limit
        for pat in patterns:
            if m <= 0:
                return 0
            if pat.kind is PatternKind.STREAM or pat.kind is PatternKind.REUSE:
                m = l1d.silent_span_strided(
                    pat.base, pat.stride, pat.span, k_start, m, pat.is_write, salt
                )
            elif pat.span > l1d.config.size_bytes:
                return 0
            else:
                m = l1d.silent_span_hashed(pat.address, k_start, m, pat.is_write, salt)
        return m

    def access_plan(self, block: "BasicBlock") -> AccessPlan:
        """The block's :class:`AccessPlan`, built on first use."""
        plan = self._plans.get(block)
        if plan is None:
            plan = self._build_plan(block)
            self._plans[block] = plan
        return plan

    def _build_plan(self, block: "BasicBlock") -> AccessPlan:
        # BasicBlock guarantees mem_index runs 0..n-1 in program order.
        patterns = tuple(block.mem_patterns)
        strided = tuple(
            pat.kind in (PatternKind.STREAM, PatternKind.REUSE) for pat in patterns
        )
        n = len(patterns)
        pinfo = tuple(
            (
                st,
                pat.base,
                pat.stride if st else pat.seed,
                pat.span,
                pat.is_write,
                3 ** (n - 1 - j),
            )
            for j, (pat, st) in enumerate(zip(patterns, strided))
        )
        l1d_bytes = self.l1d.config.size_bytes
        never_silent = any(
            not st and pat.span > l1d_bytes for pat, st in zip(patterns, strided)
        )
        return AccessPlan(
            pinfo,
            None if never_silent else self._silent_probe(patterns, strided),
            len(block.inst_lines) <= self.l1i.n_sets,
        )

    def _silent_probe(
        self, patterns: Tuple["MemPattern", ...], strided: Tuple[bool, ...]
    ) -> Callable[[int, int], int]:
        """Pick a block's silent-span probe once.

        Single-pattern blocks use the lean per-pattern walks; all-strided
        pairs the unrolled joint walk; other all-strided blocks the joint
        net-silence walk (which also covers patterns sharing cache sets);
        anything else probes the patterns one by one, largest first.
        Closures rather than keyword ``functools.partial`` objects, which
        cost twice the call: a probe runs per non-silent iteration.
        """
        l1d = self.l1d
        salt = self._salt
        if len(patterns) == 1:
            pat = patterns[0]
            w = pat.is_write
            if strided[0]:
                span_strided = l1d.silent_span_strided
                base, stride, span = pat.base, pat.stride, pat.span

                def strided_probe(k: int, limit: int) -> int:
                    return span_strided(base, stride, span, k, limit, w, salt)

                return strided_probe
            span_hashed = l1d.silent_span_hashed
            address = pat.address

            def hashed_probe(k: int, limit: int) -> int:
                return span_hashed(address, k, limit, w, salt)

            return hashed_probe
        if patterns and all(strided):
            progs = tuple((p.base, p.stride, p.span, p.is_write) for p in patterns)
            if len(progs) == 2:
                pair_span = l1d.silent_block_pair_span
                p1, p2 = progs

                def pair_probe(k: int, limit: int) -> int:
                    return pair_span(p1, p2, k, limit, salt)

                return pair_probe
            block_span = l1d.silent_block_span

            def joint_probe(k: int, limit: int) -> int:
                return block_span(progs, k, limit, salt)

            return joint_probe
        by_size = tuple(sorted(patterns, key=lambda p: p.span, reverse=True))
        data_span = self.silent_data_span

        def pattern_probe(k: int, limit: int) -> int:
            return data_span(by_size, k, limit)

        return pattern_probe

    def fetch_run(self, lines: Sequence[int], n: int) -> int:
        """Fetch a block's instruction *lines* for *n* back-to-back
        executions; return the first execution's stall cycles beyond the
        L1I hit time.

        Only the first execution accesses for real.  It leaves every line
        at the MRU slot of its own L1I set (the plan's *pinned* condition)
        and nothing else touches the L1I during a run, so executions
        1..n-1 are pure hits whose counters are applied arithmetically.
        """
        l1i = self.l1i
        l1i_access = l1i.access_quiet
        l2 = self.l2
        l2_access = l2.access
        l2_hit = l2.hit_latency
        salt = self._salt
        stall = hits = 0
        for line in lines:
            a = line ^ salt
            if l1i_access(a):
                hits += 1
            elif l2_access(a):
                stall += l2_hit
            else:
                self.memory_accesses += 1
                stall += l2_hit + self.machine.memory_latency
        n_lines = len(lines)
        stats = l1i.stats
        stats.accesses += n * n_lines
        stats.hits += (n - 1) * n_lines + hits
        return stall

    def data_run(self, plan: AccessPlan, k: int, n: int) -> List[Tuple[int, int]]:
        """Apply the data side of *n* back-to-back executions of a block,
        ``k .. k + n - 1``; return the ones that missed the L1D.

        Byte-identical in every cache and counter to :meth:`data_latency`
        over each execution's accesses in program order.  The result is
        sparse: ``(i, code)`` for each execution ``k + i`` with at least
        one L1D miss, where *code* is the base-3 number whose digits are
        the accesses' servicing levels in program order (0 L1, 1 L2,
        2 memory; see ``AccessPlan.pinfo``).  Executions not listed hit
        the L1D on every access.

        Only executions no probe could prove silent touch the caches.
        With the default 4-way L1D they run :meth:`Cache.access_quiet`'s
        transition inline — the L1D's recency rotation unrolled, the L2
        walked by slice search — with every counter deferred to one
        flush; other geometries call ``access_quiet`` itself.
        """
        pinfo = plan.pinfo
        if not pinfo:
            return []
        n_pat = len(pinfo)
        probe = plan.probe
        l1d = self.l1d
        l2 = self.l2
        l1d_access = l1d.access_quiet
        l2_access = l2.access_quiet
        salt = self._salt
        d_tags, d_dirty, d_shift, d_assoc, d_pow2, d_mask, d_nsets = l1d.hot_refs()
        u_tags, u_dirty, u_shift, u_assoc, u_pow2, u_mask, u_nsets = l2.hot_refs()
        inline = d_assoc == 4
        line_mask = (1 << d_shift) - 1
        # A single strided access leaves its line at MRU (dirty when it
        # writes), so the executions after it that share the line are
        # silent by construction: skip them without probing.
        hinted = n_pat == 1 and pinfo[0][0]
        k0 = k
        end = k + n
        misses: List[Tuple[int, int]] = []
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
            code = 0
            for st, bb, xx, spn, w, digit in pinfo:
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
                        if l2_access(a, w):
                            code += digit
                        else:
                            u_miss += 1
                            code += 2 * digit
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
                    code += digit
                    continue
                bend = b + u_assoc
                if line in u_tags[b + 1 : bend]:
                    j = u_tags.index(line, b + 1, bend)
                    dd = u_dirty[j]
                    u_tags[b + 1 : j + 1] = u_tags[b:j]
                    u_dirty[b + 1 : j + 1] = u_dirty[b:j]
                    u_tags[b] = line
                    u_dirty[b] = dd or w
                    code += digit
                    continue
                if u_dirty[bend - 1] and u_tags[bend - 1] != -1:
                    u_wb += 1
                u_tags[b + 1 : bend] = u_tags[b : bend - 1]
                u_dirty[b + 1 : bend] = u_dirty[b : bend - 1]
                u_tags[b] = line
                u_dirty[b] = w
                u_miss += 1
                code += 2 * digit
            if code:
                misses.append((k - k0, code))
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
            self.memory_accesses += u_miss
        return misses

    def code_latencies(self, code: int, n: int) -> List[int]:
        """The per-access latencies, in program order, that a
        :meth:`data_run` level *code* stands for in a block of *n*
        accesses — what :meth:`data_latency` returned for each."""
        l1 = self.l1d.hit_latency
        l2 = l1 + self.l2.hit_latency
        levels = (l1, l2, l2 + self.machine.memory_latency)
        lats = [0] * n
        for j in range(n - 1, -1, -1):
            code, c = divmod(code, 3)
            lats[j] = levels[c]
        return lats

    def warm_data(self, addr: int, is_write: bool = False) -> None:
        """Touch the data side without caring about latency (warming mode)."""
        addr ^= self._salt
        if not self.l1d.access(addr, is_write):
            if not self.l2.access(addr, is_write):
                self.memory_accesses += 1

    def warm_inst(self, addr: int) -> None:
        """Touch the instruction side without caring about latency."""
        addr ^= self._salt
        if not self.l1i.access(addr):
            if not self.l2.access(addr):
                self.memory_accesses += 1

    def flush(self) -> None:
        """Invalidate all three caches."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()

    def reset_stats(self) -> None:
        """Zero the counters of all three caches."""
        self.l1i.stats.reset()
        self.l1d.stats.reset()
        self.l2.stats.reset()
        self.memory_accesses = 0

    def snapshot(self) -> Dict[str, Any]:
        """Capture all cache contents for checkpointing."""
        return {
            "l1i": self.l1i.snapshot(),
            "l1d": self.l1d.snapshot(),
            "l2": self.l2.snapshot(),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore contents captured by :meth:`snapshot`."""
        self.l1i.restore(state["l1i"])
        self.l1d.restore(state["l1d"])
        self.l2.restore(state["l2"])

    def stats_summary(self) -> Dict[str, Tuple[int, int]]:
        """Per-level (accesses, hits) pairs, keyed by cache name."""
        return {
            c.name: (c.stats.accesses, c.stats.hits)
            for c in (self.l1i, self.l1d, self.l2)
        }
