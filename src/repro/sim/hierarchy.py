"""Three-level cache hierarchy with prefetch issue, fill, and timeliness.

The demand path is L1 → L2 → LLC → DRAM with per-level hit latencies from
the system config.  Prefetchers are trained on L1 demand misses (as in
the paper, §5.2) and their requests are filled into L2 and LLC when the
memory access completes — *not* at issue time — so prefetch timeliness is
modelled: a demand that arrives while its prefetch is still in flight
merges with the outstanding request and only saves the remaining latency
(the paper's "accurate but late" case).
"""

from __future__ import annotations

import heapq

from repro.prefetchers.base import DemandContext, Prefetcher, NoPrefetcher
from repro.sim.cache import Cache
from repro.sim.config import SystemConfig
from repro.sim.dram import Dram
from repro.sim.mshr import MshrFile
from repro.sim.trace import TraceRecord
from repro.types import same_page


class CacheHierarchy:
    """Per-core cache stack in front of a (possibly shared) LLC and DRAM.

    Args:
        config: system description.
        prefetcher: the L2-level prefetcher under evaluation.
        dram: shared DRAM model (created if omitted).
        llc: shared LLC (created if omitted — single-core usage).
        l1_prefetcher: optional L1-level prefetcher for the multi-level
            experiments (Fig 8d); it trains on all L1 demand accesses and
            fills into L1.
        core_id: identifying index for multi-core runs.
    """

    def __init__(
        self,
        config: SystemConfig,
        prefetcher: Prefetcher | None = None,
        dram: Dram | None = None,
        llc: Cache | None = None,
        l1_prefetcher: Prefetcher | None = None,
        core_id: int = 0,
    ) -> None:
        self.config = config
        self.core_id = core_id
        self.prefetcher = prefetcher if prefetcher is not None else NoPrefetcher()
        self.l1_prefetcher = l1_prefetcher
        # The no-prefetching baseline never issues anything, so its
        # training path (context construction included) is skipped
        # entirely — observable behaviour is identical.
        self._train_l2 = type(self.prefetcher) is not NoPrefetcher
        self.l1 = Cache(f"L1[{core_id}]", config.l1)
        self.l2 = Cache(f"L2[{core_id}]", config.l2)
        self.llc = llc if llc is not None else Cache("LLC", config.llc)
        self.dram = dram if dram is not None else Dram(config.dram)
        self.mshr = MshrFile(config.llc.mshrs)
        # Hot-path hoists: bound methods and latencies resolved once so
        # the per-record demand path does no repeated attribute walks.
        self._l1_lookup = self.l1.lookup
        self._l1_fill = self.l1.fill
        self._l2_lookup = self.l2.lookup
        self._l2_fill = self.l2.fill
        self._llc_lookup = self.llc.lookup
        self._llc_fill = self.llc.fill
        self._l1_latency = self.l1.latency
        self._l2_latency = self.l2.latency
        self._llc_latency = self.llc.latency
        # Min-heap of (completion_cycle, line) pending prefetch fills.
        self._pending_fills: list[tuple[int, int]] = []
        self._inflight_prefetch: dict[int, int] = {}
        self._merged_inflight: set[int] = set()
        self.prefetches_issued = 0
        self.prefetches_dropped = 0
        self.late_prefetch_merges = 0

    # -- prefetch fill processing ---------------------------------------------

    def process_fills(self, now: int) -> None:
        """Apply all prefetch fills whose data has arrived by cycle *now*.

        The LLC and L2 fills are inlined from :meth:`Cache.fill` (keep
        the two in sync): every fill event runs two of them with ``pc=0``
        and the ``as_prefetch`` flavor, and on prefetch-heavy traces the
        method's call overhead and flavor branches were a measurable
        slice of the replay profile.  Observable behaviour — stats,
        replacement metadata, tick order, the useless-eviction callback
        firing between the two fills — is identical.
        """
        pending = self._pending_fills
        if not pending or pending[0][0] > now:
            return
        heappop = heapq.heappop
        inflight_pop = self._inflight_prefetch.pop
        merged = self._merged_inflight
        prefetcher = self.prefetcher
        on_useless = prefetcher.on_prefetch_useless
        on_fill = prefetcher.on_prefetch_fill
        llc = self.llc
        l2 = self.l2
        llc_stats = llc.stats
        l2_stats = l2.stats
        llc_tag, llc_pf, llc_used = llc._tag, llc._pf, llc._used
        llc_where, llc_filled, llc_meta = llc._where, llc._filled, llc._meta_a
        l2_tag, l2_pf, l2_used = l2._tag, l2._pf, l2._used
        l2_where, l2_filled, l2_meta = l2._where, l2._filled, l2._meta_a
        llc_nsets, llc_ways = llc.num_sets, llc.ways
        l2_nsets, l2_ways = l2.num_sets, l2.ways
        llc_is_lru = llc._policy_is_lru
        l2_is_lru = l2._policy_is_lru
        llc_policy = llc._policy
        l2_policy = l2._policy
        while pending and pending[0][0] <= now:
            completion, line = heappop(pending)
            inflight_pop(line, None)
            # A line a demand already merged into fills as demand-owned.
            as_prefetch = line not in merged
            merged.discard(line)

            # LLC fill.  Only a full-set eviction of an unused prefetched
            # line earns the useless callback (fired after the fill's
            # bookkeeping completes, as the method-call path did).
            llc._tick += 1
            slot = llc_where.get(line)
            useless_tag = -1
            if slot is not None:
                if not as_prefetch:
                    llc_pf[slot] = llc_pf[slot] and llc_used[slot]
            else:
                set_idx = line % llc_nsets
                filled = llc_filled[set_idx]
                if filled < llc_ways:
                    slot = set_idx * llc_ways + filled
                    llc_filled[set_idx] = filled + 1
                else:
                    base = set_idx * llc_ways
                    slot = (
                        llc_meta.index(min(llc_meta[base : base + llc_ways]), base)
                        if llc_is_lru
                        else llc_policy.victim(base, base + llc_ways)
                    )
                    llc_stats.evictions += 1
                    victim = llc_tag[slot]
                    if llc_pf[slot] and not llc_used[slot]:
                        llc_stats.useless_evictions += 1
                        useless_tag = victim
                    if not llc_is_lru:
                        llc_policy.on_evict(slot)
                    del llc_where[victim]
                llc_where[line] = slot
                llc_tag[slot] = line
                llc_pf[slot] = as_prefetch
                llc_used[slot] = not as_prefetch
                if llc_is_lru:
                    llc_meta[slot] = llc._tick
                else:
                    llc_policy.on_fill(slot, 0, as_prefetch, llc._tick)
                llc_stats.fills += 1
                if as_prefetch:
                    llc_stats.prefetch_fills += 1
            if useless_tag >= 0:
                on_useless(useless_tag, completion)

            # L2 fill (same shape; the caller discards the eviction).
            l2._tick += 1
            slot = l2_where.get(line)
            if slot is not None:
                if not as_prefetch:
                    l2_pf[slot] = l2_pf[slot] and l2_used[slot]
            else:
                set_idx = line % l2_nsets
                filled = l2_filled[set_idx]
                if filled < l2_ways:
                    slot = set_idx * l2_ways + filled
                    l2_filled[set_idx] = filled + 1
                else:
                    base = set_idx * l2_ways
                    slot = (
                        l2_meta.index(min(l2_meta[base : base + l2_ways]), base)
                        if l2_is_lru
                        else l2_policy.victim(base, base + l2_ways)
                    )
                    l2_stats.evictions += 1
                    if l2_pf[slot] and not l2_used[slot]:
                        l2_stats.useless_evictions += 1
                    if not l2_is_lru:
                        l2_policy.on_evict(slot)
                    del l2_where[l2_tag[slot]]
                l2_where[line] = slot
                l2_tag[slot] = line
                l2_pf[slot] = as_prefetch
                l2_used[slot] = not as_prefetch
                if l2_is_lru:
                    l2_meta[slot] = l2._tick
                else:
                    l2_policy.on_fill(slot, 0, as_prefetch, l2._tick)
                l2_stats.fills += 1
                if as_prefetch:
                    l2_stats.prefetch_fills += 1

            on_fill(line, completion)

    # -- demand path ------------------------------------------------------------

    def demand_access(self, record: TraceRecord, now: int) -> int:
        """Resolve one demand access; returns its completion cycle.

        Also trains the prefetcher(s) and issues any resulting prefetch
        requests at cycle *now*.
        """
        # Inline the empty-queue fast paths of process_fills/reclaim:
        # most records have nothing due, and the call alone costs more
        # than these peeks (sibling-class internals, same package).
        pending = self._pending_fills
        if pending and pending[0][0] <= now:
            self.process_fills(now)
        mshr_heap = self.mshr._by_completion
        if mshr_heap and mshr_heap[0][0] <= now:
            self.mshr.reclaim(now)
        pc, line = record.pc, record.line

        if self.l1_prefetcher is not None:
            self._train_l1_prefetcher(record, now)

        l1_result = self._l1_lookup(line, pc, record.is_load, False)
        if l1_result.hit:
            return now + self._l1_latency

        # L1 miss: this is the prefetcher's training event.
        if self._train_l2:
            self._train_l2_prefetcher(record, now)

        l2_result = self._l2_lookup(line, pc, record.is_load, False)
        if l2_result.hit:
            if l2_result.first_use_of_prefetch:
                self.prefetcher.on_demand_hit_prefetched(line, now)
            self._l1_fill(line, pc, False)
            return now + self._l2_latency

        # An in-flight prefetch covering this line counts as a (late)
        # covered miss: the load does not cause its own DRAM read — it
        # merges and waits only the remaining prefetch latency.
        inflight = self._inflight_prefetch.get(line)
        if inflight is not None:
            self.late_prefetch_merges += 1
            self._merged_inflight.add(line)
            stats = self.llc.stats
            stats.demand_accesses += 1
            stats.demand_hits += 1
            stats.useful_prefetches += 1
            self.prefetcher.on_demand_hit_prefetched(line, now)
            completion = max(inflight, now + self._llc_latency)
            self._l1_fill(line, pc, False)
            return completion

        llc_result = self._llc_lookup(line, pc, record.is_load, False)
        if llc_result.hit:
            if llc_result.first_use_of_prefetch:
                self.prefetcher.on_demand_hit_prefetched(line, now)
            self._l2_fill(line, pc, False)
            self._l1_fill(line, pc, False)
            return now + self._llc_latency

        entry = self.mshr.outstanding(line)
        if entry is not None:
            completion = max(entry.completion, now + self._llc_latency)
            return completion

        if self.mshr.is_full():
            # Structural stall: wait for the earliest outstanding miss.
            self.mshr.stalls += 1
            wait_until = self.mshr.earliest_completion()
            self.mshr.reclaim(wait_until)
            now = max(now, wait_until)

        completion = self.dram.access(line, now + self._llc_latency, is_prefetch=False)
        self.mshr.allocate(line, completion, is_prefetch=False)
        self._llc_fill(line, pc, False)
        self._l2_fill(line, pc, False)
        self._l1_fill(line, pc, False)
        return completion

    # -- prefetcher plumbing ------------------------------------------------------

    def _make_context(self, record: TraceRecord, now: int) -> DemandContext:
        util = self.dram.utilization(now)
        return DemandContext(
            pc=record.pc,
            line=record.line,
            cycle=now,
            is_load=record.is_load,
            bandwidth_utilization=util,
            bandwidth_high=util >= self.config.high_bw_threshold,
        )

    def _train_l2_prefetcher(self, record: TraceRecord, now: int) -> None:
        ctx = self._make_context(record, now)
        candidates = self.prefetcher.train(ctx)
        if candidates:
            self._issue_prefetches(candidates, record.line, now)

    def _train_l1_prefetcher(self, record: TraceRecord, now: int) -> None:
        assert self.l1_prefetcher is not None
        ctx = self._make_context(record, now)
        for line in self.l1_prefetcher.train(ctx)[: self.config.max_prefetch_degree]:
            if line < 0 or self.l1.probe(line):
                continue
            completion = self._fetch_for_prefetch(line, now)
            if completion is None:
                continue
            # L1 prefetches fill the whole stack immediately on completion;
            # for simplicity they use the same pending-fill path plus an
            # eager L1 fill (timeliness at L1 is second-order here).
            self.l1.fill(line, record.pc, is_prefetch=True)

    def _issue_prefetches(self, candidates: list[int], trigger_line: int, now: int) -> None:
        issued = 0
        max_degree = self.config.max_prefetch_degree
        if len(candidates) > 1:  # C-level order-preserving dedup
            candidates = list(dict.fromkeys(candidates))
        for line in candidates:
            if issued >= max_degree:
                break
            if line < 0:
                continue
            # Out-of-page prefetches are dropped by the hardware (every
            # post-L1 prefetcher works within a physical page); prefetchers
            # that want credit/penalty for them handle it internally.
            if not same_page(line, trigger_line):
                continue
            if self.l2.probe(line) or self.llc.probe(line):
                continue
            if line in self._inflight_prefetch:
                continue
            completion = self._fetch_for_prefetch(line, now)
            if completion is None:
                self.prefetches_dropped += 1
                self.prefetcher.on_prefetch_dropped(line, now)
                continue
            issued += 1
            self.prefetches_issued += 1

    def _fetch_for_prefetch(self, line: int, now: int) -> int | None:
        """Send a prefetch to LLC/DRAM; returns completion or None if dropped.

        MSHRs were already reclaimed at *now* by :meth:`demand_access`
        (prefetch issue happens within the same cycle), so no re-reclaim
        is needed here.
        """
        llc_result = self._llc_lookup(line, 0, False, True)
        if llc_result.hit:
            # LLC hit: fill into L2 quickly without DRAM traffic.
            completion = now + self._llc_latency
            heapq.heappush(self._pending_fills, (completion, line))
            self._inflight_prefetch[line] = completion
            return completion
        if self.mshr.outstanding(line) is not None:
            return None
        if self.mshr.is_full():
            return None  # shed prefetch pressure, as hardware does
        completion = self.dram.access(line, now + self._llc_latency, is_prefetch=True)
        self.mshr.allocate(line, completion, is_prefetch=True)
        heapq.heappush(self._pending_fills, (completion, line))
        self._inflight_prefetch[line] = completion
        return completion

    # -- end of run ------------------------------------------------------------

    def flush_pending(self) -> None:
        """Drain all pending prefetch fills (end-of-simulation tidy-up)."""
        if self._pending_fills:
            self.process_fills(max(c for c, _ in self._pending_fills))
