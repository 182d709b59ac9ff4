"""ctypes bridge between the engine and the compiled replay kernel.

The native backend is stateless per span: :func:`replay_span` copies the
entire simulation state (caches, MSHR, DRAM, core, and — when training —
the full Pythia agent) into flat NumPy buffers, hands them to
``repro_replay_span`` in ``kernel.c``, and copies the result back into
the Python objects.  The caches already hold their state in flat
per-slot lists (:mod:`repro.sim.cache`), so each list crosses as one
NumPy conversion each way; only the line→slot dict and the per-set fill
counts are rebuilt from the tags on the way back.  The C kernel executes
the exact operation sequence of :func:`repro.sim.batch.replay_span`, so
the round trip is bit-identical: a span replayed natively leaves every
counter, cache line, Q-value, and RNG word exactly where the batched
(or scalar) backend would have left it, and checkpoints taken on either
side of a native span restore interchangeably.

The round trip still costs ~15-20 ms per span for the default
hierarchy (2-vCPU host; most of it the 32,768-slot LLC's list
conversions).  It is amortized over the span, so short spans (telemetry
windows, control chunks near boundaries) are delegated to the batched
backend instead — same results, better constant factor.

``ctypes`` usage is confined to this package (``repro.sim._native``);
the ``native`` lint rule enforces that boundary.
"""

from __future__ import annotations

import ctypes
import random
from collections import deque

import numpy as _np

from repro.core.eq import EqEntry, EvaluationQueue
from repro.core.features import FeatureExtractor, _PageHistory
from repro.core.pythia import Pythia
from repro.core.qvstore import NumpyQVStore
from repro.prefetchers.base import NoPrefetcher
from repro.sim import batch
from repro.sim._native import build
from repro.sim.mshr import MshrEntry
from repro.sim.replacement import LruPolicy, ShipPolicy
from repro.types import LINES_PER_PAGE, PAGE_SHIFT_LINES

#: Spans shorter than this are delegated to the batched backend: the
#: state round trip costs more than the interpreter saves.  Tests pin
#: bit-identity with this set to 0 so every span exercises the kernel.
MIN_NATIVE_SPAN = 2048

_I64 = ctypes.c_int64
_DBL = ctypes.c_double
_PTR = ctypes.c_void_p

_SHIP_SHCT_SIZE = 1024
_PT_HIST = 4  # _PageHistory deque maxlen
_LAST_PCS = 3  # FeatureExtractor._last_pcs maxlen


class _Args(ctypes.Structure):
    """Mirror of ``ReplayArgs`` in kernel.c — keep field order in sync.

    Every member is 8 bytes on LP64, so the two layouts agree with no
    padding; ``repro_abi_sizeof`` double-checks at load time.
    """

    _fields_ = [
        # trace columns
        ("col_pc", _PTR), ("col_line", _PTR), ("col_load", _PTR),
        ("col_gap", _PTR), ("col_page", _PTR), ("col_offset", _PTR),
        # caches
        ("cache_tag", _PTR * 3), ("cache_pf", _PTR * 3),
        ("cache_used", _PTR * 3), ("cache_meta_a", _PTR * 3),
        ("cache_meta_b", _PTR * 3), ("cache_meta_c", _PTR * 3),
        ("cache_stats", _PTR * 3), ("cache_shct", _PTR * 3),
        # MSHR
        ("mshr_line", _PTR), ("mshr_comp", _PTR), ("mshr_ispf", _PTR),
        ("mshrh_comp", _PTR), ("mshrh_line", _PTR),
        # pending fills / inflight / merged
        ("pend_comp", _PTR), ("pend_line", _PTR),
        ("infl_line", _PTR), ("infl_comp", _PTR),
        ("merged_line", _PTR),
        # DRAM
        ("ev_ts", _PTR), ("ev_busy", _PTR),
        ("ch_bus_free", _PTR), ("ch_demand_bus_free", _PTR),
        ("ch_bank_free", _PTR), ("ch_open_row", _PTR),
        ("ch_row_hits", _PTR), ("ch_row_misses", _PTR),
        ("bucket_cycles", _PTR),
        # core
        ("out_issued", _PTR), ("out_comp", _PTR),
        # Pythia
        ("qcells", _PTR), ("act_deltas", _PTR), ("act_counts", _PTR),
        ("rw", _PTR), ("rw_assigned", _PTR),
        ("eq_state", _PTR), ("eq_action", _PTR), ("eq_line", _PTR),
        ("eq_reward", _PTR), ("eq_flags", _PTR),
        ("pt_page", _PTR), ("pt_lastoff", _PTR), ("pt_deltas", _PTR),
        ("pt_offsets", _PTR), ("pt_dlen", _PTR), ("pt_olen", _PTR),
        ("last_pcs", _PTR), ("mt", _PTR), ("plane_shifts", _PTR),
        # int64 scalars
        ("start", _I64), ("stop", _I64), ("processed", _I64),
        ("width", _I64), ("rob_size", _I64), ("instructions", _I64),
        ("out_head", _I64), ("out_count", _I64), ("out_cap", _I64),
        ("nsets", _I64 * 3), ("ways", _I64 * 3), ("lat", _I64 * 3),
        ("tick", _I64 * 3), ("policy", _I64 * 3),
        ("mshr_count", _I64), ("mshr_cap", _I64),
        ("mshrh_count", _I64), ("mshrh_cap", _I64),
        ("pend_count", _I64), ("pend_cap", _I64),
        ("infl_count", _I64), ("infl_cap", _I64),
        ("merged_count", _I64), ("merged_cap", _I64),
        ("ev_head", _I64), ("ev_count", _I64), ("ev_cap", _I64),
        ("channels", _I64), ("banks", _I64), ("row_size_lines", _I64),
        ("row_hit_lat", _I64), ("row_miss_lat", _I64),
        ("util_window", _I64),
        ("dram_total", _I64), ("dram_demand", _I64), ("dram_prefetch", _I64),
        ("last_bucket_cycle", _I64),
        ("pf_issued", _I64), ("pf_dropped", _I64), ("late_merges", _I64),
        ("mshr_allocations", _I64), ("mshr_stalls", _I64),
        ("max_degree", _I64), ("page_shift", _I64), ("lines_per_page", _I64),
        ("train", _I64),
        ("nact", _I64), ("nfeat", _I64), ("nplanes", _I64),
        ("plane_entries", _I64),
        ("eq_cap", _I64), ("eq_head", _I64), ("eq_count", _I64),
        ("ptab_cap", _I64), ("ptab_count", _I64),
        ("lastpc_count", _I64),
        ("mt_index", _I64),
        ("agent_updates", _I64), ("agent_explorations", _I64),
        # doubles
        ("cycle", _DBL), ("stall_cycles", _DBL),
        ("cycles_per_transfer", _DBL),
        ("window_busy", _DBL), ("busy_cycles", _DBL),
        ("hi_thresh", _DBL), ("epsilon", _DBL), ("alpha", _DBL),
        ("gamma", _DBL),
    ]


def abi_size() -> int:
    """Size the C side must report for the argument struct."""
    return ctypes.sizeof(_Args)


# -- kernel handle ----------------------------------------------------------

_lib_state: list = [False, None]  # [checked, CDLL | None]


def get_lib():
    """The loaded kernel, or ``None`` (no compiler / build / ABI match)."""
    if not _lib_state[0]:
        # Safe: process-local latch — worst case under a racing writer
        # is a redundant build()/dlopen of the same cached object.
        _lib_state[0] = True  # repro: ignore[concurrency]
        lib = build.load()
        if lib is not None and lib.repro_abi_sizeof() != abi_size():
            build.log_fallback_once("kernel ABI size mismatch")
            lib = None
        _lib_state[1] = lib  # repro: ignore[concurrency]
    return _lib_state[1]


def reset() -> None:
    """Forget the cached kernel handle (test hook)."""
    _lib_state[0] = False
    _lib_state[1] = None


# -- configuration support check --------------------------------------------


def supports(hierarchy) -> bool:
    """True when *hierarchy* uses only constructs the kernel mirrors.

    Anything else — L1 prefetchers, exotic replacement policies or
    prefetcher subclasses, non-basic Pythia feature vectors — falls
    back to the batched backend per cell, exactly as batched falls back
    to scalar.
    """
    if hierarchy.l1_prefetcher is not None:
        return False
    for cache in (hierarchy.l1, hierarchy.l2, hierarchy.llc):
        if type(cache._policy) not in (LruPolicy, ShipPolicy):
            return False
    if hierarchy.dram.config.channels < 1:
        return False
    prefetcher = hierarchy.prefetcher
    if type(prefetcher) is NoPrefetcher:
        return True
    if type(prefetcher) is not Pythia:
        return False
    agent = prefetcher.agent
    return (
        prefetcher._basic_features
        and len(prefetcher.config.features) == 2
        and type(prefetcher.extractor) is FeatureExtractor
        and prefetcher.extractor.page_table_size >= 1
        and type(agent.qvstore) is NumpyQVStore
        and type(agent.eq) is EvaluationQueue
        and type(agent._rng) is random.Random
    )


def usable(hierarchy) -> bool:
    """True when the kernel is loaded and *hierarchy* is supported."""
    return (
        batch.available() and get_lib() is not None and supports(hierarchy)
    )


# -- small helpers ----------------------------------------------------------


def _pow2_at_least(n: int) -> int:
    size = 8
    while size < n:
        size *= 2
    return size


_POLICY_FLAGS = {LruPolicy: 0, ShipPolicy: 1}


def _u8(bits):
    """A list of bools as a uint8 array (via ``bool_``: faster than a
    direct per-element uint8 conversion)."""
    return _np.array(bits, _np.bool_).view(_np.uint8)


def _bits(arr):
    """A 0/1 uint8 array back as a list of bools."""
    return arr.view(_np.bool_).tolist()


def _import_cache(a, keep, idx, cache):
    """Convert one cache level's per-slot lists to arrays for the kernel."""
    n = cache.num_sets * cache.ways
    policy = cache._policy
    ship = _POLICY_FLAGS[type(policy)]
    tag = _np.array(cache._tag, _np.int64)
    pf = _u8(cache._pf)
    used = _u8(cache._used)
    meta_a = _np.array(policy.meta_a, _np.int64)
    if ship:
        meta_b = _np.array(policy.meta_b, _np.int64)
        meta_c = _u8(policy.meta_c)
        shct = _np.array(policy._shct, _np.int64)
    else:
        meta_b = _np.zeros(n, _np.int64)
        meta_c = _np.zeros(n, _np.uint8)
        shct = _np.zeros(_SHIP_SHCT_SIZE, _np.int64)
    stats_obj = cache.stats
    stats = _np.array(
        [
            stats_obj.demand_accesses,
            stats_obj.demand_hits,
            stats_obj.demand_misses,
            stats_obj.load_misses,
            stats_obj.prefetch_accesses,
            stats_obj.prefetch_hits,
            stats_obj.prefetch_misses,
            stats_obj.fills,
            stats_obj.prefetch_fills,
            stats_obj.useful_prefetches,
            stats_obj.useless_evictions,
            stats_obj.evictions,
        ],
        _np.int64,
    )
    keep += [tag, pf, used, meta_a, meta_b, meta_c, stats, shct]
    a.cache_tag[idx] = tag.ctypes.data
    a.cache_pf[idx] = pf.ctypes.data
    a.cache_used[idx] = used.ctypes.data
    a.cache_meta_a[idx] = meta_a.ctypes.data
    a.cache_meta_b[idx] = meta_b.ctypes.data
    a.cache_meta_c[idx] = meta_c.ctypes.data
    a.cache_stats[idx] = stats.ctypes.data
    a.cache_shct[idx] = shct.ctypes.data
    a.nsets[idx] = cache.num_sets
    a.ways[idx] = cache.ways
    a.lat[idx] = cache.latency
    a.tick[idx] = cache._tick
    a.policy[idx] = ship
    return tag, pf, used, meta_a, meta_b, meta_c, stats, shct


def _export_cache(a, idx, cache, bufs):
    """Write one cache level's arrays back into its per-slot lists.

    The lists are updated in place (the cache and its policy share
    ``meta_a``); the residency dict and the per-set fill counts are
    rebuilt from the tags.
    """
    tag, pf, used, meta_a, meta_b, meta_c, stats, shct = bufs
    policy = cache._policy
    cache._tag[:] = tag.tolist()
    cache._pf[:] = _bits(pf)
    cache._used[:] = _bits(used)
    policy.meta_a[:] = meta_a.tolist()
    if a.policy[idx]:
        policy.meta_b[:] = meta_b.tolist()
        policy.meta_c[:] = _bits(meta_c)
        policy._shct[:] = shct.tolist()
    resident = _np.flatnonzero(tag != -1)
    cache._where.clear()
    cache._where.update(zip(tag[resident].tolist(), resident.tolist()))
    cache._filled[:] = (
        (tag != -1).reshape(cache.num_sets, cache.ways).sum(axis=1).tolist()
    )
    stats_obj = cache.stats
    (
        stats_obj.demand_accesses,
        stats_obj.demand_hits,
        stats_obj.demand_misses,
        stats_obj.load_misses,
        stats_obj.prefetch_accesses,
        stats_obj.prefetch_hits,
        stats_obj.prefetch_misses,
        stats_obj.fills,
        stats_obj.prefetch_fills,
        stats_obj.useful_prefetches,
        stats_obj.useless_evictions,
        stats_obj.evictions,
    ) = stats.tolist()
    cache._tick = a.tick[idx]


# -- the backend entry point ------------------------------------------------


def replay_span(hierarchy, core, cols, start, stop, stamp=None) -> None:
    """Replay records ``[start, stop)`` through the compiled kernel.

    Drop-in for :func:`repro.sim.batch.replay_span` (which it delegates
    to for short spans, or if the kernel turns out to be unavailable).
    The *stamp* rides through to the batched backend's decoded-column
    memo when delegating.

    Raises:
        RuntimeError: the kernel reported an internal error.  The
            Python-side state is untouched in that case (the kernel
            only writes back on success), so the engine's pre-span
            state remains consistent.
    """
    lib = get_lib()
    if lib is None or stop - start < MIN_NATIVE_SPAN:
        batch.replay_span(hierarchy, core, cols, start, stop, stamp=stamp)
        return

    keep: list = []  # buffers that must outlive the C call
    a = _Args()
    a.start = start
    a.stop = stop

    # -- trace columns ------------------------------------------------------
    load_u8 = cols.is_load.view(_np.uint8)
    keep.append(load_u8)
    a.col_pc = cols.pc.ctypes.data
    a.col_line = cols.line.ctypes.data
    a.col_load = load_u8.ctypes.data
    a.col_gap = cols.gap.ctypes.data
    a.col_page = cols.page.ctypes.data
    a.col_offset = cols.offset.ctypes.data

    # -- caches -------------------------------------------------------------
    cache_bufs = [
        _import_cache(a, keep, idx, cache)
        for idx, cache in enumerate((hierarchy.l1, hierarchy.l2, hierarchy.llc))
    ]

    # -- MSHR ---------------------------------------------------------------
    mshr = hierarchy.mshr
    mshr_cap = mshr.capacity
    mshr_line = _np.zeros(mshr_cap, _np.int64)
    mshr_comp = _np.zeros(mshr_cap, _np.int64)
    mshr_ispf = _np.zeros(mshr_cap, _np.uint8)
    for i, (line, entry) in enumerate(mshr._entries.items()):
        mshr_line[i] = line
        mshr_comp[i] = entry.completion
        mshr_ispf[i] = 1 if entry.is_prefetch else 0
    a.mshr_count = len(mshr._entries)
    a.mshr_cap = mshr_cap
    heap = mshr._by_completion
    a.mshrh_count = len(heap)
    a.mshrh_cap = len(heap) + 4 * hierarchy.config.max_prefetch_degree + 256
    mshrh_comp = _np.zeros(a.mshrh_cap, _np.int64)
    mshrh_line = _np.zeros(a.mshrh_cap, _np.int64)
    for i, (comp, line) in enumerate(heap):
        mshrh_comp[i] = comp
        mshrh_line[i] = line
    a.mshr_allocations = mshr.allocations
    a.mshr_stalls = mshr.stalls

    # -- pending fills / inflight / merged ----------------------------------
    pending = hierarchy._pending_fills
    a.pend_count = len(pending)
    a.pend_cap = len(pending) + 4 * hierarchy.config.max_prefetch_degree + 256
    pend_comp = _np.zeros(a.pend_cap, _np.int64)
    pend_line = _np.zeros(a.pend_cap, _np.int64)
    for i, (comp, line) in enumerate(pending):
        pend_comp[i] = comp
        pend_line[i] = line
    inflight = hierarchy._inflight_prefetch
    a.infl_count = len(inflight)
    a.infl_cap = len(inflight) + 4 * hierarchy.config.max_prefetch_degree + 256
    infl_line = _np.zeros(a.infl_cap, _np.int64)
    infl_comp = _np.zeros(a.infl_cap, _np.int64)
    for i, (line, comp) in enumerate(inflight.items()):
        infl_line[i] = line
        infl_comp[i] = comp
    merged = hierarchy._merged_inflight
    a.merged_count = len(merged)
    a.merged_cap = len(merged) + 256
    merged_line = _np.zeros(a.merged_cap, _np.int64)
    for i, line in enumerate(merged):
        merged_line[i] = line
    keep += [
        mshr_line, mshr_comp, mshr_ispf, mshrh_comp, mshrh_line,
        pend_comp, pend_line, infl_line, infl_comp, merged_line,
    ]
    a.mshr_line = mshr_line.ctypes.data
    a.mshr_comp = mshr_comp.ctypes.data
    a.mshr_ispf = mshr_ispf.ctypes.data
    a.mshrh_comp = mshrh_comp.ctypes.data
    a.mshrh_line = mshrh_line.ctypes.data
    a.pend_comp = pend_comp.ctypes.data
    a.pend_line = pend_line.ctypes.data
    a.infl_line = infl_line.ctypes.data
    a.infl_comp = infl_comp.ctypes.data
    a.merged_line = merged_line.ctypes.data

    # -- DRAM ---------------------------------------------------------------
    dram = hierarchy.dram
    events = dram._events
    a.ev_head = 0
    a.ev_count = len(events)
    a.ev_cap = _pow2_at_least(
        len(events) + 4 * hierarchy.config.max_prefetch_degree + 256
    )
    ev_ts = _np.zeros(a.ev_cap, _np.int64)
    ev_busy = _np.zeros(a.ev_cap, _np.float64)
    for i, (ts, busy) in enumerate(events):
        ev_ts[i] = ts
        ev_busy[i] = busy
    channels = dram._channels
    nch = len(channels)
    banks = dram.config.banks_per_channel
    ch_bus_free = _np.empty(nch, _np.float64)
    ch_demand_bus_free = _np.empty(nch, _np.float64)
    ch_bank_free = _np.empty(nch * banks, _np.float64)
    ch_open_row = _np.empty(nch * banks, _np.int64)
    ch_row_hits = _np.empty(nch, _np.int64)
    ch_row_misses = _np.empty(nch, _np.int64)
    for c, ch in enumerate(channels):
        ch_bus_free[c] = ch._bus_free
        ch_demand_bus_free[c] = ch._demand_bus_free
        ch_bank_free[c * banks : (c + 1) * banks] = ch._bank_free
        ch_open_row[c * banks : (c + 1) * banks] = ch._open_row
        ch_row_hits[c] = ch.row_hits
        ch_row_misses[c] = ch.row_misses
    bucket = _np.array(dram._bucket_cycles, _np.float64)
    keep += [
        ev_ts, ev_busy, ch_bus_free, ch_demand_bus_free, ch_bank_free,
        ch_open_row, ch_row_hits, ch_row_misses, bucket,
    ]
    a.ev_ts = ev_ts.ctypes.data
    a.ev_busy = ev_busy.ctypes.data
    a.ch_bus_free = ch_bus_free.ctypes.data
    a.ch_demand_bus_free = ch_demand_bus_free.ctypes.data
    a.ch_bank_free = ch_bank_free.ctypes.data
    a.ch_open_row = ch_open_row.ctypes.data
    a.ch_row_hits = ch_row_hits.ctypes.data
    a.ch_row_misses = ch_row_misses.ctypes.data
    a.bucket_cycles = bucket.ctypes.data
    a.channels = nch
    a.banks = banks
    a.row_size_lines = dram.config.row_size_lines
    a.row_hit_lat = dram.config.row_hit_latency
    a.row_miss_lat = dram.config.row_miss_latency
    a.util_window = dram._window
    a.dram_total = dram.total_requests
    a.dram_demand = dram.demand_requests
    a.dram_prefetch = dram.prefetch_requests
    a.last_bucket_cycle = dram._last_bucket_cycle
    a.cycles_per_transfer = dram.config.cycles_per_transfer
    a.window_busy = dram._window_busy
    a.busy_cycles = dram.busy_cycles

    # -- core ---------------------------------------------------------------
    outstanding = core._outstanding
    a.width = core._width
    a.rob_size = core._rob_size
    a.instructions = core.instructions
    a.cycle = core.cycle
    a.stall_cycles = core.stall_cycles
    a.out_head = 0
    a.out_count = len(outstanding)
    a.out_cap = _pow2_at_least(core._rob_size + 8)
    out_issued = _np.zeros(a.out_cap, _np.int64)
    out_comp = _np.zeros(a.out_cap, _np.int64)
    for i, (issued, comp) in enumerate(outstanding):
        out_issued[i] = issued
        out_comp[i] = comp
    keep += [out_issued, out_comp]
    a.out_issued = out_issued.ctypes.data
    a.out_comp = out_comp.ctypes.data

    # -- hierarchy scalars --------------------------------------------------
    a.pf_issued = hierarchy.prefetches_issued
    a.pf_dropped = hierarchy.prefetches_dropped
    a.late_merges = hierarchy.late_prefetch_merges
    a.max_degree = hierarchy.config.max_prefetch_degree
    a.hi_thresh = hierarchy.config.high_bw_threshold
    a.page_shift = PAGE_SHIFT_LINES
    a.lines_per_page = LINES_PER_PAGE

    # -- Pythia -------------------------------------------------------------
    prefetcher = hierarchy.prefetcher
    train = hierarchy._train_l2
    a.train = 1 if train else 0
    agent_bufs = None
    rng_gauss = None
    if train:
        config = prefetcher.config
        agent = prefetcher.agent
        store = agent.qvstore
        extractor = prefetcher.extractor
        nfeat = len(config.features)
        qcells = store.export_table()
        act_deltas = _np.array(config.actions, _np.int64)
        act_counts = _np.array(prefetcher.action_counts, _np.int64)
        rewards = config.rewards
        rw = _np.array(
            [
                rewards.accurate_timely,
                rewards.accurate_late,
                rewards.coverage_loss,
                rewards.inaccurate_high_bw,
                rewards.inaccurate_low_bw,
                rewards.no_prefetch_high_bw,
                rewards.no_prefetch_low_bw,
            ],
            _np.float64,
        )
        assigned = prefetcher.rewards_assigned
        rw_assigned = _np.array(
            [
                assigned["accurate_timely"],
                assigned["accurate_late"],
                assigned["coverage_loss"],
                assigned["inaccurate"],
                assigned["no_prefetch"],
            ],
            _np.int64,
        )
        eq = agent.eq
        a.eq_cap = eq.capacity
        a.eq_head = 0
        a.eq_count = len(eq._fifo)
        eq_state = _np.zeros(a.eq_cap * nfeat, _np.int64)
        eq_action = _np.zeros(a.eq_cap, _np.int64)
        eq_line = _np.full(a.eq_cap, -1, _np.int64)
        eq_reward = _np.zeros(a.eq_cap, _np.float64)
        eq_flags = _np.zeros(a.eq_cap, _np.uint8)
        for i, entry in enumerate(eq._fifo):
            for f in range(nfeat):
                eq_state[i * nfeat + f] = entry.state[f]
            eq_action[i] = entry.action
            if entry.prefetch_line is not None:
                eq_line[i] = entry.prefetch_line
            fl = 0
            if entry.reward is not None:
                fl |= 1
                eq_reward[i] = entry.reward
            if entry.filled:
                fl |= 2
            eq_flags[i] = fl
        a.ptab_cap = extractor.page_table_size
        a.ptab_count = len(extractor._pages)
        pt_page = _np.zeros(a.ptab_cap, _np.int64)
        pt_lastoff = _np.zeros(a.ptab_cap, _np.int64)
        pt_deltas = _np.zeros(a.ptab_cap * _PT_HIST, _np.int64)
        pt_offsets = _np.zeros(a.ptab_cap * _PT_HIST, _np.int64)
        pt_dlen = _np.zeros(a.ptab_cap, _np.uint8)
        pt_olen = _np.zeros(a.ptab_cap, _np.uint8)
        for i, (page, hist) in enumerate(extractor._pages.items()):
            pt_page[i] = page
            pt_lastoff[i] = hist.last_offset
            for j, d in enumerate(hist.deltas):
                pt_deltas[i * _PT_HIST + j] = d
            pt_dlen[i] = len(hist.deltas)
            for j, o in enumerate(hist.offsets):
                pt_offsets[i * _PT_HIST + j] = o
            pt_olen[i] = len(hist.offsets)
        last_pcs = _np.zeros(_LAST_PCS, _np.int64)
        a.lastpc_count = len(extractor._last_pcs)
        for i, pc in enumerate(extractor._last_pcs):
            last_pcs[i] = pc
        version, words, rng_gauss = agent._rng.getstate()
        if version != 3:  # pragma: no cover - CPython always uses 3
            raise RuntimeError(f"unsupported Random state version {version}")
        mt = _np.array(words[:624], _np.uint32)
        a.mt_index = words[624]
        plane_shifts = _np.array(config.plane_shifts, _np.int64)
        a.nact = config.num_actions
        a.nfeat = nfeat
        a.nplanes = config.num_planes
        a.plane_entries = config.plane_entries
        a.agent_updates = agent.updates
        a.agent_explorations = agent.explorations
        a.epsilon = agent._epsilon
        a.alpha = config.alpha
        a.gamma = config.gamma
        agent_bufs = (
            qcells, act_counts, rw_assigned, eq_state, eq_action, eq_line,
            eq_reward, eq_flags, pt_page, pt_lastoff, pt_deltas, pt_offsets,
            pt_dlen, pt_olen, last_pcs, mt,
        )
        keep += [act_deltas, rw, plane_shifts, *agent_bufs]
        a.qcells = qcells.ctypes.data
        a.act_deltas = act_deltas.ctypes.data
        a.act_counts = act_counts.ctypes.data
        a.rw = rw.ctypes.data
        a.rw_assigned = rw_assigned.ctypes.data
        a.eq_state = eq_state.ctypes.data
        a.eq_action = eq_action.ctypes.data
        a.eq_line = eq_line.ctypes.data
        a.eq_reward = eq_reward.ctypes.data
        a.eq_flags = eq_flags.ctypes.data
        a.pt_page = pt_page.ctypes.data
        a.pt_lastoff = pt_lastoff.ctypes.data
        a.pt_deltas = pt_deltas.ctypes.data
        a.pt_offsets = pt_offsets.ctypes.data
        a.pt_dlen = pt_dlen.ctypes.data
        a.pt_olen = pt_olen.ctypes.data
        a.last_pcs = last_pcs.ctypes.data
        a.mt = mt.ctypes.data
        a.plane_shifts = plane_shifts.ctypes.data

    # -- run (growing the variable-size arrays as the kernel asks) ----------
    while True:
        rc = lib.repro_replay_span(ctypes.byref(a))
        if rc == 0:
            break
        if rc != 1:
            raise RuntimeError(
                f"native replay kernel failed (rc={rc}) at record "
                f"{a.start + a.processed}"
            )
        # Headroom exhausted: the kernel exported a consistent state at
        # a record boundary.  Grow every variable-size family (copying
        # inside NumPy, no Python-object round trip) and re-enter.
        a.start = a.start + a.processed
        degree4 = 4 * hierarchy.config.max_prefetch_degree

        def _grown(old, used, new_cap):
            new = _np.zeros(new_cap, old.dtype)
            new[:used] = old[:used]
            keep.append(new)
            return new

        a.pend_cap = max(2 * a.pend_cap, a.pend_count + degree4 + 256)
        pend_comp = _grown(pend_comp, a.pend_count, a.pend_cap)
        pend_line = _grown(pend_line, a.pend_count, a.pend_cap)
        a.pend_comp = pend_comp.ctypes.data
        a.pend_line = pend_line.ctypes.data
        a.mshrh_cap = max(2 * a.mshrh_cap, a.mshrh_count + degree4 + 256)
        mshrh_comp = _grown(mshrh_comp, a.mshrh_count, a.mshrh_cap)
        mshrh_line = _grown(mshrh_line, a.mshrh_count, a.mshrh_cap)
        a.mshrh_comp = mshrh_comp.ctypes.data
        a.mshrh_line = mshrh_line.ctypes.data
        a.infl_cap = max(2 * a.infl_cap, a.infl_count + degree4 + 256)
        infl_line = _grown(infl_line, a.infl_count, a.infl_cap)
        infl_comp = _grown(infl_comp, a.infl_count, a.infl_cap)
        a.infl_line = infl_line.ctypes.data
        a.infl_comp = infl_comp.ctypes.data
        a.merged_cap = max(2 * a.merged_cap, a.merged_count + 256)
        merged_line = _grown(merged_line, a.merged_count, a.merged_cap)
        a.merged_line = merged_line.ctypes.data
        # The event ring was linearized at export (head == 0).
        a.ev_cap = _pow2_at_least(
            max(2 * a.ev_cap, a.ev_count + degree4 + 256)
        )
        ev_ts = _grown(ev_ts, a.ev_count, a.ev_cap)
        ev_busy = _grown(ev_busy, a.ev_count, a.ev_cap)
        a.ev_ts = ev_ts.ctypes.data
        a.ev_busy = ev_busy.ctypes.data
        a.ev_head = 0

    # -- export: caches -----------------------------------------------------
    for idx, cache in enumerate((hierarchy.l1, hierarchy.l2, hierarchy.llc)):
        _export_cache(a, idx, cache, cache_bufs[idx])

    # -- export: MSHR / pending / inflight / merged -------------------------
    n = a.mshr_count
    mshr._entries.clear()
    for line, comp, ispf in zip(
        mshr_line[:n].tolist(), mshr_comp[:n].tolist(), mshr_ispf[:n].tolist()
    ):
        mshr._entries[line] = MshrEntry(line, comp, bool(ispf))
    n = a.mshrh_count
    mshr._by_completion[:] = zip(
        mshrh_comp[:n].tolist(), mshrh_line[:n].tolist()
    )
    mshr.allocations = a.mshr_allocations
    mshr.stalls = a.mshr_stalls
    n = a.pend_count
    pending[:] = zip(pend_comp[:n].tolist(), pend_line[:n].tolist())
    n = a.infl_count
    inflight.clear()
    inflight.update(zip(infl_line[:n].tolist(), infl_comp[:n].tolist()))
    merged.clear()
    merged.update(merged_line[: a.merged_count].tolist())

    # -- export: DRAM -------------------------------------------------------
    events.clear()
    n = a.ev_count
    events.extend(zip(ev_ts[:n].tolist(), ev_busy[:n].tolist()))
    for c, ch in enumerate(channels):
        ch._bus_free = ch_bus_free[c].item()
        ch._demand_bus_free = ch_demand_bus_free[c].item()
        ch._bank_free[:] = ch_bank_free[c * banks : (c + 1) * banks].tolist()
        ch._open_row[:] = ch_open_row[c * banks : (c + 1) * banks].tolist()
        ch.row_hits = ch_row_hits[c].item()
        ch.row_misses = ch_row_misses[c].item()
    dram._bucket_cycles[:] = bucket.tolist()
    dram.total_requests = a.dram_total
    dram.demand_requests = a.dram_demand
    dram.prefetch_requests = a.dram_prefetch
    dram._last_bucket_cycle = a.last_bucket_cycle
    dram._window_busy = a.window_busy
    dram.busy_cycles = a.busy_cycles

    # -- export: core -------------------------------------------------------
    core.cycle = a.cycle
    core.instructions = a.instructions
    core.stall_cycles = a.stall_cycles
    outstanding.clear()
    n = a.out_count
    outstanding.extend(zip(out_issued[:n].tolist(), out_comp[:n].tolist()))

    # -- export: hierarchy counters -----------------------------------------
    hierarchy.prefetches_issued = a.pf_issued
    hierarchy.prefetches_dropped = a.pf_dropped
    hierarchy.late_prefetch_merges = a.late_merges

    # -- export: Pythia -----------------------------------------------------
    if train:
        (
            qcells, act_counts, rw_assigned, eq_state, eq_action, eq_line,
            eq_reward, eq_flags, pt_page, pt_lastoff, pt_deltas, pt_offsets,
            pt_dlen, pt_olen, last_pcs, mt,
        ) = agent_bufs
        store.import_table(qcells)
        prefetcher.action_counts[:] = act_counts.tolist()
        ra = rw_assigned.tolist()
        assigned["accurate_timely"] = ra[0]
        assigned["accurate_late"] = ra[1]
        assigned["coverage_loss"] = ra[2]
        assigned["inaccurate"] = ra[3]
        assigned["no_prefetch"] = ra[4]
        agent.updates = a.agent_updates
        agent.explorations = a.agent_explorations
        fifo = eq._fifo
        by_line = eq._by_line
        fifo.clear()
        by_line.clear()
        n = a.eq_count
        state_l = eq_state[: n * nfeat].tolist()
        action_l = eq_action[:n].tolist()
        line_l = eq_line[:n].tolist()
        reward_l = eq_reward[:n].tolist()
        flags_l = eq_flags[:n].tolist()
        for i in range(n):
            fl = flags_l[i]
            line = line_l[i]
            entry = EqEntry(
                state=tuple(state_l[i * nfeat : (i + 1) * nfeat]),
                action=action_l[i],
                prefetch_line=line if line >= 0 else None,
                reward=reward_l[i] if fl & 1 else None,
                filled=bool(fl & 2),
            )
            fifo.append(entry)
            if entry.prefetch_line is not None:
                # Oldest-to-newest with overwrite == most recent wins,
                # the invariant insert() maintains.
                by_line[entry.prefetch_line] = entry
        pages = extractor._pages
        pages.clear()
        n = a.ptab_count
        page_l = pt_page[:n].tolist()
        lastoff_l = pt_lastoff[:n].tolist()
        dlen_l = pt_dlen[:n].tolist()
        olen_l = pt_olen[:n].tolist()
        deltas_l = pt_deltas[: n * _PT_HIST].tolist()
        offsets_l = pt_offsets[: n * _PT_HIST].tolist()
        for i in range(n):
            base = i * _PT_HIST
            pages[page_l[i]] = _PageHistory(
                last_offset=lastoff_l[i],
                deltas=deque(deltas_l[base : base + dlen_l[i]], maxlen=_PT_HIST),
                offsets=deque(
                    offsets_l[base : base + olen_l[i]], maxlen=_PT_HIST
                ),
            )
        extractor._last_pcs.clear()
        extractor._last_pcs.extend(last_pcs[: a.lastpc_count].tolist())
        agent._rng.setstate(
            (3, tuple(mt.tolist()) + (a.mt_index,), rng_gauss)
        )
