"""Batched-epoch replay kernel: the engine's columnar fast path.

:func:`replay_span` replays a record span through one core + hierarchy
exactly like the scalar loop in :mod:`repro.sim.engine` — same
operations, on the same mutable state, in the same order — but
restructured around per-epoch columns instead of per-record objects:

* the trace slice is decoded once per epoch from the memoized
  struct-of-arrays columns (:class:`repro.sim.trace.TraceColumns`);
  page/offset address math and the per-level cache set indices are
  vectorized NumPy sweeps, materialized as plain lists for the loop;
* the sequential-feedback core — SARSA training, MSHR arbitration,
  replacement — stays scalar (a record's training output changes the
  cache/DRAM state the next record sees, so it cannot be reordered),
  but the call graph around it is flattened: the core timing model,
  the L1/L2/LLC demand lookups and demand fills, the MSHR reclaim, the
  prefetch-issue filter, and the DRAM bandwidth-feedback read are all
  inlined into one loop body, and the prefetcher is trained through
  :meth:`~repro.prefetchers.base.Prefetcher.train_cols` on the decoded
  scalars (no ``DemandContext`` allocation);
* per-record counters (core cycle/instructions, prefetch issue totals)
  live in loop locals and are flushed back to their objects at span
  end — the engine only reads them at epoch boundaries, which are
  exactly where this function returns.

Bit-identity with the scalar path is a hard invariant, pinned by
``tests/test_hotpath_equivalence.py`` across fresh, windowed, and
checkpoint-resumed runs.  Every inlined block below mirrors a method of
:mod:`repro.sim.cache`, :mod:`repro.sim.core`, :mod:`repro.sim.dram`,
:mod:`repro.sim.hierarchy`, or :mod:`repro.sim.mshr` — when one of
those changes, change the matching block here (the equivalence suite
catches drift).

The kernel handles every configuration except L1 prefetching (the
multi-level Fig 8d experiments), which the native kernel and the scalar
loop train; every backend is semantically interchangeable, so the
choice is invisible outside throughput.  With native the default, this
loop replays ``replay_backend="batched"`` cells, and every span when no
C compiler is available.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappop, heappush

from repro.sim.mshr import MshrEntry
from repro.types import PAGE_SHIFT_LINES

#: Records materialized per kernel epoch.  Aligned with the engine's
#: ``_CONTROL_CHUNK`` so a controlled run's chunks decode in one epoch;
#: bounds the transient footprint of the per-epoch column lists.
EPOCH = 16_384


#: Decoded-epoch memo: (trace stamp, span, set geometry) -> the decoded
#: lists.  Keyed by the trace's *content* stamp, so a cell and its
#: no-prefetching baseline (same trace, different prefetcher) reuse one
#: decode instead of each paying the ``.tolist()`` sweeps.  Only
#: consulted when the caller passes a stamp; entries are immutable by
#: convention (every consumer just iterates them).
_DECODE_CACHE: OrderedDict = OrderedDict()
_DECODE_CACHE_ENTRIES = 16


def decode_span(cols, start, stop, n1, n2, n3, stamp=None):
    """Decode records ``[start, stop)`` into plain-list columns.

    Returns the nine per-record lists the kernel loop zips over: pc,
    line, is_load, gap, page, offset, and the L1/L2/LLC set indices for
    set counts *n1*/*n2*/*n3*.  With a *stamp* (the trace's content
    CRC), results are memoized in a small module-level LRU — columns
    are pure functions of (content, span, geometry), so sharing across
    engines cannot leak state.
    """
    key = None
    if stamp is not None:
        key = (stamp, start, stop, n1, n2, n3)
        hit = _DECODE_CACHE.get(key)
        if hit is not None:
            _DECODE_CACHE.move_to_end(key)
            return hit
    line_slice = cols.line[start:stop]
    decoded = (
        cols.pc[start:stop].tolist(),
        line_slice.tolist(),
        cols.is_load[start:stop].tolist(),
        cols.gap[start:stop].tolist(),
        cols.page[start:stop].tolist(),
        cols.offset[start:stop].tolist(),
        (line_slice % n1).tolist(),
        (line_slice % n2).tolist(),
        (line_slice % n3).tolist(),
    )
    if key is not None:
        # Safe: process-local memo of a pure function of (content stamp,
        # span, geometry) — a racing writer re-inserts identical data.
        _DECODE_CACHE[key] = decoded  # repro: ignore[concurrency]
        while len(_DECODE_CACHE) > _DECODE_CACHE_ENTRIES:
            _DECODE_CACHE.popitem(last=False)  # repro: ignore[concurrency]
    return decoded


def replay_span(hierarchy, core, cols, start, stop, stamp=None) -> None:
    """Replay records ``[start, stop)`` — bit-identical to the scalar loop.

    Args:
        hierarchy: the run's :class:`~repro.sim.hierarchy.CacheHierarchy`
            (must have no L1 prefetcher; the engine guards this).
        core: the run's :class:`~repro.sim.core.CoreModel`.
        cols: the trace's :class:`~repro.sim.trace.TraceColumns`.
        start: first record index to replay.
        stop: one past the last record index to replay.
        stamp: optional trace content stamp enabling the decoded-epoch
            memo (:func:`decode_span`).

    Mutates *hierarchy* and *core* exactly as the scalar loop would;
    there is no drain here — the engine drains at the same boundaries
    for both backends.
    """
    # -- core model state (flushed back in the finally block) --------------
    width = core._width
    rob = core._rob_size
    recip = 1.0 / width  # same value as the per-call 1.0/width division
    cycle = core.cycle
    instructions = core.instructions
    stall_cycles = core.stall_cycles
    outstanding = core._outstanding

    # -- hierarchy hoists ---------------------------------------------------
    config = hierarchy.config
    prefetcher = hierarchy.prefetcher
    train = hierarchy._train_l2
    train_cols = prefetcher.train_cols
    on_demand_hit_prefetched = prefetcher.on_demand_hit_prefetched
    on_prefetch_dropped = prefetcher.on_prefetch_dropped
    process_fills = hierarchy.process_fills
    pending = hierarchy._pending_fills
    inflight = hierarchy._inflight_prefetch
    merged = hierarchy._merged_inflight
    pf_issued = hierarchy.prefetches_issued
    pf_dropped = hierarchy.prefetches_dropped
    late_merges = hierarchy.late_prefetch_merges
    max_degree = config.max_prefetch_degree
    hi_thresh = config.high_bw_threshold
    pshift = PAGE_SHIFT_LINES

    l1, l2, llc = hierarchy.l1, hierarchy.l2, hierarchy.llc
    l1_lat, l2_lat, llc_lat = l1.latency, l2.latency, llc.latency
    l1_tag, l1_pf, l1_used, l1_meta = l1._tag, l1._pf, l1._used, l1._meta_a
    l2_tag, l2_pf, l2_used, l2_meta = l2._tag, l2._pf, l2._used, l2._meta_a
    llc_tag, llc_pf, llc_used, llc_meta = llc._tag, llc._pf, llc._used, llc._meta_a
    l1_where, l2_where, llc_where = l1._where, l2._where, llc._where
    l1_filled, l2_filled, llc_filled = l1._filled, l2._filled, llc._filled
    l1_stats, l2_stats, llc_stats = l1.stats, l2.stats, llc.stats
    l1_is_lru, l2_is_lru = l1._policy_is_lru, l2._policy_is_lru
    llc_is_lru = llc._policy_is_lru
    l1_policy, l2_policy, llc_policy = l1._policy, l2._policy, llc._policy
    l1_nsets, l2_nsets, llc_nsets = l1.num_sets, l2.num_sets, llc.num_sets
    l1_ways, l2_ways, llc_ways = l1.ways, l2.ways, llc.ways

    mshr = hierarchy.mshr
    mshr_heap = mshr._by_completion
    mshr_entries = mshr._entries
    mshr_capacity = mshr.capacity

    dram = hierarchy.dram
    dram_access = dram.access
    dram_utilization = dram.utilization
    dram_events = dram._events
    util_window = dram.config.utilization_window
    util_capacity = util_window * dram.config.channels

    try:
        for es in range(start, stop, EPOCH):
            ee = es + EPOCH
            if ee > stop:
                ee = stop
            epoch = zip(
                *decode_span(
                    cols, es, ee, l1_nsets, l2_nsets, llc_nsets, stamp=stamp
                )
            )
            for pc, line, is_load, gap, page, offset, s1, s2, s3 in epoch:
                # -- CoreModel.advance(gap), inlined -----------------------
                if gap > 0:
                    instructions += gap
                    cycle += gap / width
                    if outstanding:
                        while outstanding and outstanding[0][1] <= cycle:
                            outstanding.popleft()
                        while outstanding:
                            issued_at, wait_c = outstanding[0]
                            if instructions - issued_at < rob:
                                break
                            if wait_c > cycle:
                                stall_cycles += wait_c - cycle
                                cycle = wait_c
                            outstanding.popleft()
                            while outstanding and outstanding[0][1] <= cycle:
                                outstanding.popleft()

                # -- CacheHierarchy.demand_access, inlined ------------------
                now = int(cycle)
                if pending and pending[0][0] <= now:
                    process_fills(now)
                if mshr_heap and mshr_heap[0][0] <= now:
                    # MshrFile.reclaim, inlined.
                    while mshr_heap and mshr_heap[0][0] <= now:
                        m_comp, m_line = heappop(mshr_heap)
                        m_entry = mshr_entries.get(m_line)
                        if m_entry is not None and m_entry.completion == m_comp:
                            del mshr_entries[m_line]

                # L1 demand lookup (Cache.lookup, inlined).
                l1._tick += 1
                l1_stats.demand_accesses += 1
                slot = l1_where.get(line)
                if slot is not None:
                    if l1_is_lru:
                        l1_meta[slot] = l1._tick
                    else:
                        l1_policy.on_hit(slot, pc, l1._tick)
                    l1_stats.demand_hits += 1
                    if l1_pf[slot] and not l1_used[slot]:
                        l1_used[slot] = True
                        l1_stats.useful_prefetches += 1
                    completion = now + l1_lat
                else:
                    l1_stats.demand_misses += 1
                    if is_load:
                        l1_stats.load_misses += 1

                    # L1 miss: the prefetcher's training event.
                    if train:
                        # Dram.utilization fast path: the record-side
                        # drain keeps the event head inside the window,
                        # so the busy fraction is the rolling counter.
                        if dram_events and dram_events[0][0] < now - util_window:
                            util = dram_utilization(now)
                        elif util_capacity > 0:
                            util = dram._window_busy / util_capacity
                            if util > 1.0:
                                util = 1.0
                        else:
                            util = 0.0
                        bw_high = util >= hi_thresh
                        candidates = train_cols(
                            pc, line, page, offset, now, is_load, util, bw_high
                        )
                        if candidates:
                            # _issue_prefetches + _fetch_for_prefetch, inlined.
                            if len(candidates) > 1:
                                # Cannot hoist: dedup is per-candidate-batch —
                                # each iteration's list is distinct, and the
                                # >1 guard skips the cost on the common case.
                                candidates = list(dict.fromkeys(candidates))  # repro: ignore[hotpath]
                            issued = 0
                            for pf in candidates:
                                if issued >= max_degree:
                                    break
                                if pf < 0:
                                    continue
                                if pf >> pshift != page:
                                    continue
                                if pf in l2_where:
                                    continue
                                if pf in llc_where:
                                    continue
                                if pf in inflight:
                                    continue
                                # LLC prefetch lookup (Cache.lookup, inlined).
                                llc._tick += 1
                                llc_stats.prefetch_accesses += 1
                                wp = llc_where.get(pf)
                                if wp is not None:
                                    if llc_is_lru:
                                        llc_meta[wp] = llc._tick
                                    else:
                                        llc_policy.on_hit(wp, 0, llc._tick)
                                    llc_stats.prefetch_hits += 1
                                    pf_comp = now + llc_lat
                                elif mshr_entries.get(pf) is not None:
                                    llc_stats.prefetch_misses += 1
                                    pf_dropped += 1
                                    on_prefetch_dropped(pf, now)
                                    continue
                                elif len(mshr_entries) >= mshr_capacity:
                                    llc_stats.prefetch_misses += 1
                                    pf_dropped += 1
                                    on_prefetch_dropped(pf, now)
                                    continue
                                else:
                                    llc_stats.prefetch_misses += 1
                                    pf_comp = dram_access(pf, now + llc_lat, True)
                                    # MshrFile.allocate, inlined.  Cannot
                                    # hoist: one entry per actual miss, and
                                    # misses are rare relative to iterations.
                                    mshr_entries[pf] = MshrEntry(pf, pf_comp, True)  # repro: ignore[hotpath]
                                    heappush(mshr_heap, (pf_comp, pf))
                                    mshr.allocations += 1
                                heappush(pending, (pf_comp, pf))
                                inflight[pf] = pf_comp
                                issued += 1
                                pf_issued += 1

                    # L2 demand lookup (Cache.lookup, inlined).
                    l2._tick += 1
                    l2_stats.demand_accesses += 1
                    slot = l2_where.get(line)
                    if slot is not None:
                        if l2_is_lru:
                            l2_meta[slot] = l2._tick
                        else:
                            l2_policy.on_hit(slot, pc, l2._tick)
                        l2_stats.demand_hits += 1
                        if l2_pf[slot] and not l2_used[slot]:
                            l2_used[slot] = True
                            l2_stats.useful_prefetches += 1
                            on_demand_hit_prefetched(line, now)
                        completion = now + l2_lat
                        fill_l1 = True
                        fill_l2 = False
                    else:
                        l2_stats.demand_misses += 1
                        if is_load:
                            l2_stats.load_misses += 1

                        in_comp = inflight.get(line)
                        if in_comp is not None:
                            # Late in-flight prefetch: merge, wait the rest.
                            late_merges += 1
                            merged.add(line)
                            llc_stats.demand_accesses += 1
                            llc_stats.demand_hits += 1
                            llc_stats.useful_prefetches += 1
                            on_demand_hit_prefetched(line, now)
                            base = now + llc_lat
                            completion = in_comp if in_comp > base else base
                            fill_l1 = True
                            fill_l2 = False
                        else:
                            # LLC demand lookup (Cache.lookup, inlined).
                            llc._tick += 1
                            llc_stats.demand_accesses += 1
                            slot = llc_where.get(line)
                            if slot is not None:
                                if llc_is_lru:
                                    llc_meta[slot] = llc._tick
                                else:
                                    llc_policy.on_hit(slot, pc, llc._tick)
                                llc_stats.demand_hits += 1
                                if llc_pf[slot] and not llc_used[slot]:
                                    llc_used[slot] = True
                                    llc_stats.useful_prefetches += 1
                                    on_demand_hit_prefetched(line, now)
                                completion = now + llc_lat
                                fill_l1 = True
                                fill_l2 = True
                            else:
                                llc_stats.demand_misses += 1
                                if is_load:
                                    llc_stats.load_misses += 1
                                m_entry = mshr_entries.get(line)
                                if m_entry is not None:
                                    # Merge into the outstanding miss.
                                    base = now + llc_lat
                                    m_comp = m_entry.completion
                                    completion = m_comp if m_comp > base else base
                                    fill_l1 = False
                                    fill_l2 = False
                                else:
                                    if len(mshr_entries) >= mshr_capacity:
                                        # Structural stall (scalar path kept:
                                        # rare, and earliest_completion prunes
                                        # the heap in ways worth not copying).
                                        mshr.stalls += 1
                                        wait_until = mshr.earliest_completion()
                                        while (
                                            mshr_heap
                                            and mshr_heap[0][0] <= wait_until
                                        ):
                                            m_comp, m_line = heappop(mshr_heap)
                                            m_entry = mshr_entries.get(m_line)
                                            if (
                                                m_entry is not None
                                                and m_entry.completion == m_comp
                                            ):
                                                del mshr_entries[m_line]
                                        if wait_until > now:
                                            now = wait_until
                                    completion = dram_access(
                                        line, now + llc_lat, False
                                    )
                                    # MshrFile.allocate, inlined.  Cannot
                                    # hoist: one entry per actual demand
                                    # miss, rare relative to iterations.
                                    mshr_entries[line] = MshrEntry(  # repro: ignore[hotpath]
                                        line, completion, False
                                    )
                                    heappush(mshr_heap, (completion, line))
                                    mshr.allocations += 1

                                    # LLC demand fill (Cache.fill, inlined).
                                    llc._tick += 1
                                    slot = llc_where.get(line)
                                    if slot is not None:
                                        llc_pf[slot] = llc_pf[slot] and llc_used[slot]
                                    else:
                                        filled = llc_filled[s3]
                                        base = s3 * llc_ways
                                        if filled < llc_ways:
                                            slot = base + filled
                                            llc_filled[s3] = filled + 1
                                        else:
                                            slot = (
                                                llc_meta.index(
                                                    min(llc_meta[base : base + llc_ways]),
                                                    base,
                                                )
                                                if llc_is_lru
                                                else llc_policy.victim(
                                                    base, base + llc_ways
                                                )
                                            )
                                            llc_stats.evictions += 1
                                            if llc_pf[slot] and not llc_used[slot]:
                                                llc_stats.useless_evictions += 1
                                            if not llc_is_lru:
                                                llc_policy.on_evict(slot)
                                            del llc_where[llc_tag[slot]]
                                        llc_where[line] = slot
                                        llc_tag[slot] = line
                                        llc_pf[slot] = False
                                        llc_used[slot] = True
                                        if llc_is_lru:
                                            llc_meta[slot] = llc._tick
                                        else:
                                            llc_policy.on_fill(
                                                slot, pc, False, llc._tick
                                            )
                                        llc_stats.fills += 1
                                    fill_l1 = True
                                    fill_l2 = True

                        # L2 demand fill (Cache.fill, inlined).
                        if fill_l2:
                            l2._tick += 1
                            slot = l2_where.get(line)
                            if slot is not None:
                                l2_pf[slot] = l2_pf[slot] and l2_used[slot]
                            else:
                                filled = l2_filled[s2]
                                base = s2 * l2_ways
                                if filled < l2_ways:
                                    slot = base + filled
                                    l2_filled[s2] = filled + 1
                                else:
                                    slot = (
                                        l2_meta.index(
                                            min(l2_meta[base : base + l2_ways]), base
                                        )
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
                                l2_pf[slot] = False
                                l2_used[slot] = True
                                if l2_is_lru:
                                    l2_meta[slot] = l2._tick
                                else:
                                    l2_policy.on_fill(slot, pc, False, l2._tick)
                                l2_stats.fills += 1

                    # L1 demand fill (Cache.fill, inlined).
                    if fill_l1:
                        l1._tick += 1
                        slot = l1_where.get(line)
                        if slot is not None:
                            l1_pf[slot] = l1_pf[slot] and l1_used[slot]
                        else:
                            filled = l1_filled[s1]
                            base = s1 * l1_ways
                            if filled < l1_ways:
                                slot = base + filled
                                l1_filled[s1] = filled + 1
                            else:
                                slot = (
                                    l1_meta.index(
                                        min(l1_meta[base : base + l1_ways]), base
                                    )
                                    if l1_is_lru
                                    else l1_policy.victim(base, base + l1_ways)
                                )
                                l1_stats.evictions += 1
                                if l1_pf[slot] and not l1_used[slot]:
                                    l1_stats.useless_evictions += 1
                                if not l1_is_lru:
                                    l1_policy.on_evict(slot)
                                del l1_where[l1_tag[slot]]
                            l1_where[line] = slot
                            l1_tag[slot] = line
                            l1_pf[slot] = False
                            l1_used[slot] = True
                            if l1_is_lru:
                                l1_meta[slot] = l1._tick
                            else:
                                l1_policy.on_fill(slot, pc, False, l1._tick)
                            l1_stats.fills += 1

                # -- CoreModel.issue_load(completion), inlined --------------
                instructions += 1
                cycle += recip
                if outstanding:
                    while outstanding and outstanding[0][1] <= cycle:
                        outstanding.popleft()
                if completion > cycle:
                    outstanding.append((instructions, completion))
                if outstanding:
                    while outstanding:
                        issued_at, wait_c = outstanding[0]
                        if instructions - issued_at < rob:
                            break
                        if wait_c > cycle:
                            stall_cycles += wait_c - cycle
                            cycle = wait_c
                        outstanding.popleft()
                        while outstanding and outstanding[0][1] <= cycle:
                            outstanding.popleft()
    finally:
        core.cycle = cycle
        core.instructions = instructions
        core.stall_cycles = stall_cycles
        hierarchy.prefetches_issued = pf_issued
        hierarchy.prefetches_dropped = pf_dropped
        hierarchy.late_prefetch_merges = late_merges
