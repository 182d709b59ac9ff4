"""ctypes bridge between the engines and the compiled replay kernel.

The native backend is stateless per call.  :func:`replay_span` (one core,
one record span) and :func:`replay_lockstep` (a whole multi-core mix)
point ``kernel.c`` at the simulation state, call it, and write back what
it could not share.  The state splits the way the kernel's argument
structs do, and each half has one import and one export shared by both
entry points:

* :func:`_import_core` / :func:`_export_core` — one core's private state
  (``_CoreArgs``): trace columns, L1 and L2, MSHR, prefetch fill queues,
  core model, and — when the kernel models the prefetcher — the Pythia
  agent;
* :func:`_import_shared` / :func:`_export_shared` — what the cores share
  (``_SharedArgs``): the LLC and DRAM.

Both are built over one cache sub-struct (``_CacheArgs``).  The caches
hold their per-slot state in typed buffers of the kernel's element types
(:mod:`repro.sim.cache`), so the kernel receives pointers into the
caches' own buffers and replays on them in place; on the way back the
line→slot dict and the per-set fill counts are patched from the slots
whose tag changed, and the stats and the tick are copied.  Pythia's
agent lends its buffers the same way (:func:`_import_agent`): the
Q-table, the EQ ring, the page table with its LRU order, and the PC
history; only the ring and table positions, the counters and the RNG
words are copied, and the EQ's line index and the page index are
rebuilt from the buffers on first use.  MSHR, DRAM and the core are
still copied in and out.  The C kernel executes the exact operation
sequence of :func:`repro.sim.batch.replay_span` (and, for mixes, of
``MultiCoreEngine.run``), so the round trip is bit-identical: a span
replayed natively leaves every counter, cache line, Q-value, and RNG word
exactly where the batched (or scalar) loop would have left it, and
checkpoints taken on either side of a native span restore
interchangeably.

Every prefetcher replays here.  The kernel models the no-prefetching
baseline and basic-feature Pythia in C (:func:`training_mode`); every
other prefetcher, and every L1 prefetcher, trains through Python
callbacks in the core's hook block (``_HookArgs``, built per call by
:func:`_install_hooks`).  The training hook calls the prefetcher's
``train_cols`` with the types the Python loops pass (int cycle, bool
``is_load``, float utilization, bool ``bandwidth_high``) and leaves the
candidates in a buffer that grows instead of truncating; the kernel then
applies ``_issue_prefetches``' dedup, degree cap and filters.  The
outcome hooks are installed only where the prefetcher overrides the
callback.  A hook round trip costs about 1 µs (2-vCPU host), so a hooked
prefetcher runs at the speed of its own ``train`` plus the C memory
system.  A hook that raises stores the exception and sets an abort word;
the kernel stops without exporting and :func:`_check` re-raises the
original exception.  Any failed call (rc < 0) leaves the engine
unusable: the caches hold the kernel's partial writes, and the
prefetcher has advanced.

Every span replays here, whatever its length.  Besides the replay, a
round trip costs what the span changed (the slots it filled) plus a
fixed part: a 1-record span on a warmed default 1c hierarchy takes
~0.4 ms with no prefetcher and ~0.6 ms with Pythia (2-vCPU host).

``ctypes`` usage is confined to this package (``repro.sim._native``);
the ``native`` lint rule enforces that boundary.
"""

from __future__ import annotations

import ctypes
import dataclasses
import random
import sys
from array import array

import numpy as _np

from repro.core.eq import EvaluationQueue
from repro.core.features import FeatureExtractor
from repro.core.pythia import Pythia
from repro.core.qvstore import NumpyQVStore
from repro.prefetchers.base import Prefetcher
from repro.sim._native import build
from repro.sim.cache import CacheStats
from repro.sim.mshr import MshrEntry
from repro.sim.replacement import LruPolicy, ShipPolicy
from repro.types import LINES_PER_PAGE, PAGE_SHIFT_LINES

_I64 = ctypes.c_int64
_DBL = ctypes.c_double
_PTR = ctypes.c_void_p

#: ``Pythia.rewards_assigned`` keys in the kernel's ``rw_assigned`` order.
_ASSIGNED = (
    "accurate_timely", "accurate_late", "coverage_loss", "inaccurate", "no_prefetch",
)
#: CacheStats field order, which the kernel's stats arrays follow.
_STAT_FIELDS = tuple(f.name for f in dataclasses.fields(CacheStats))
#: Words per core in the lockstep mark arrays (kernel.c MARK_I64/F64).
_MARK_I64 = 31
_MARK_F64 = 2


class _CacheArgs(ctypes.Structure):
    """Mirror of ``CacheArgs`` in kernel.c — keep field order in sync.

    Every member is 8 bytes on LP64, so the two layouts agree with no
    padding (here and in the structs below); ``repro_abi_sizeof``
    double-checks at load time.
    """

    _fields_ = [
        ("tag", _PTR), ("pf", _PTR), ("used", _PTR),
        ("meta_a", _PTR), ("meta_b", _PTR), ("meta_c", _PTR),
        ("stats", _PTR), ("shct", _PTR),
        ("nsets", _I64), ("ways", _I64), ("lat", _I64),
        ("tick", _I64), ("policy", _I64),
    ]


class _SharedArgs(ctypes.Structure):
    """Mirror of ``SharedArgs`` in kernel.c: the LLC and DRAM."""

    _fields_ = [
        ("llc", _CacheArgs),
        ("ev_ts", _PTR), ("ev_busy", _PTR),
        ("ch_bus_free", _PTR), ("ch_demand_bus_free", _PTR),
        ("ch_bank_free", _PTR), ("ch_open_row", _PTR),
        ("ch_row_hits", _PTR), ("ch_row_misses", _PTR),
        ("bucket_cycles", _PTR),
        ("ev_head", _I64), ("ev_count", _I64), ("ev_cap", _I64),
        ("channels", _I64), ("banks", _I64), ("row_size_lines", _I64),
        ("row_hit_lat", _I64), ("row_miss_lat", _I64),
        ("util_window", _I64),
        ("dram_total", _I64), ("dram_demand", _I64), ("dram_prefetch", _I64),
        ("last_bucket_cycle", _I64),
        ("cycles_per_transfer", _DBL),
        ("window_busy", _DBL), ("busy_cycles", _DBL),
    ]


#: ``Prefetcher.train_cols`` as the kernel calls it: (pc, line, page,
#: offset, cycle, is_load, bandwidth_utilization, bandwidth_high) ->
#: candidate count.  ``c_bool`` arguments arrive as Python bools.
_TRAIN_HOOK = ctypes.CFUNCTYPE(
    _I64, _I64, _I64, _I64, _I64, _I64, ctypes.c_bool, _DBL, ctypes.c_bool
)
#: An outcome callback: (line, cycle).
_OUTCOME_HOOK = ctypes.CFUNCTYPE(None, _I64, _I64)


class _HookArgs(ctypes.Structure):
    """Mirror of ``HookArgs`` in kernel.c: one core's Python callbacks."""

    _fields_ = [
        ("train", _TRAIN_HOOK), ("l1_train", _TRAIN_HOOK),
        ("on_fill", _OUTCOME_HOOK), ("on_hit", _OUTCOME_HOOK),
        ("on_dropped", _OUTCOME_HOOK), ("on_useless", _OUTCOME_HOOK),
        ("cand", _PTR), ("abort", _PTR), ("cand_cap", _I64),
    ]


class _CoreArgs(ctypes.Structure):
    """Mirror of ``CoreArgs`` in kernel.c: one core's private state."""

    _fields_ = [
        # trace columns
        ("col_pc", _PTR), ("col_line", _PTR), ("col_load", _PTR),
        ("col_gap", _PTR), ("col_page", _PTR), ("col_offset", _PTR),
        # private caches
        ("l1", _CacheArgs), ("l2", _CacheArgs),
        # Python callbacks
        ("hooks", _HookArgs),
        # MSHR
        ("mshr_line", _PTR), ("mshr_comp", _PTR), ("mshr_ispf", _PTR),
        ("mshrh_comp", _PTR), ("mshrh_line", _PTR),
        # pending fills / inflight / merged
        ("pend_comp", _PTR), ("pend_line", _PTR),
        ("infl_line", _PTR), ("infl_comp", _PTR),
        ("merged_line", _PTR),
        # core
        ("out_issued", _PTR), ("out_comp", _PTR),
        # Pythia
        ("qcells", _PTR), ("act_deltas", _PTR), ("act_counts", _PTR),
        ("rw", _PTR), ("rw_assigned", _PTR),
        ("eq_state", _PTR), ("eq_action", _PTR), ("eq_line", _PTR),
        ("eq_reward", _PTR), ("eq_flags", _PTR),
        ("pt_page", _PTR), ("pt_lastoff", _PTR), ("pt_deltas", _PTR),
        ("pt_offsets", _PTR), ("pt_dlen", _PTR), ("pt_olen", _PTR),
        ("pt_order", _PTR), ("last_pcs", _PTR), ("mt", _PTR),
        ("plane_shifts", _PTR),
        # int64 scalars
        ("trace_len", _I64),
        ("start", _I64), ("stop", _I64), ("processed", _I64),
        ("width", _I64), ("rob_size", _I64), ("instructions", _I64),
        ("cycle_int", _I64),
        ("out_head", _I64), ("out_count", _I64), ("out_cap", _I64),
        ("mshr_count", _I64), ("mshr_cap", _I64),
        ("mshrh_count", _I64), ("mshrh_cap", _I64),
        ("pend_count", _I64), ("pend_cap", _I64),
        ("infl_count", _I64), ("infl_cap", _I64),
        ("merged_count", _I64), ("merged_cap", _I64),
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
        ("hi_thresh", _DBL), ("epsilon", _DBL), ("alpha", _DBL),
        ("gamma", _DBL),
    ]


class _LockstepArgs(ctypes.Structure):
    """Mirror of ``LockstepArgs`` in kernel.c: the engine's loop state."""

    _fields_ = [
        ("cores", _PTR), ("shared", _PTR),
        ("cursors", _PTR), ("warm_remaining", _PTR), ("measured", _PTR),
        ("marked", _PTR), ("mark_i64", _PTR), ("mark_f64", _PTR),
        ("ncores", _I64), ("quota", _I64), ("steps", _I64),
    ]


#: The structs ``repro_abi_sizeof(which)`` reports, by *which*.
_ABI_STRUCTS = (_CoreArgs, _SharedArgs, _LockstepArgs)


def abi_sizes() -> tuple[int, ...]:
    """Sizes the C side must report for the argument structs."""
    return tuple(ctypes.sizeof(struct) for struct in _ABI_STRUCTS)


# -- kernel handle ----------------------------------------------------------

_lib_state: list = [False, None]  # [checked, CDLL | None]


def get_lib():
    """The loaded kernel, or ``None`` (no compiler / build / ABI match)."""
    if not _lib_state[0]:
        # Safe: process-local latch — worst case under a racing writer
        # is a redundant build()/dlopen of the same cached object.
        _lib_state[0] = True  # repro: ignore[concurrency]
        lib = build.load()
        if lib is not None and tuple(
            lib.repro_abi_sizeof(which) for which in range(len(_ABI_STRUCTS))
        ) != abi_sizes():
            build.log_fallback_once("kernel ABI size mismatch")
            lib = None
        _lib_state[1] = lib  # repro: ignore[concurrency]
    return _lib_state[1]


def reset() -> None:
    """Forget the cached kernel handle (test hook)."""
    _lib_state[0] = False
    _lib_state[1] = None


# -- configuration support and training modes --------------------------------

#: ``CoreArgs.train``: how the kernel trains a core's L2 prefetcher.
TRAIN_NONE = 0  # the no-prefetching baseline: no training events
TRAIN_PYTHIA = 1  # basic-feature Pythia, modelled in C
TRAIN_HOOK = 2  # any other prefetcher, through the Python hooks


def supports(hierarchy) -> bool:
    """True when the kernel mirrors *hierarchy*'s structure.

    Every prefetcher qualifies (:func:`training_mode` picks how it
    trains); what the kernel needs is LRU or SHiP caches, at least one
    DRAM channel, and a non-negative degree cap (a negative one would
    let an L1 prefetcher issue without bound, past the per-record
    headroom).  Engines built from registry systems always qualify.
    """
    for cache in (hierarchy.l1, hierarchy.l2, hierarchy.llc):
        if type(cache._policy) not in (LruPolicy, ShipPolicy):
            return False
    return (
        hierarchy.dram.config.channels >= 1
        and hierarchy.config.max_prefetch_degree >= 0
    )


def training_mode(hierarchy) -> int:
    """The kernel's training mode for *hierarchy*'s L2 prefetcher.

    ``TRAIN_NONE`` for the no-prefetching baseline, ``TRAIN_PYTHIA`` for
    the Pythia the C kernel models (basic features, NumPy Q-store, stock
    EQ/RNG/extractor), ``TRAIN_HOOK`` for everything else.
    """
    prefetcher = hierarchy.prefetcher
    if not hierarchy._train_l2:
        return TRAIN_NONE
    if type(prefetcher) is not Pythia:
        return TRAIN_HOOK
    agent = prefetcher.agent
    modelled = (
        prefetcher._basic_features
        and len(prefetcher.config.features) == 2
        and type(prefetcher.extractor) is FeatureExtractor
        and prefetcher.extractor.page_table_size >= 1
        and type(agent.qvstore) is NumpyQVStore
        and type(agent.eq) is EvaluationQueue
        and type(agent._rng) is random.Random
    )
    return TRAIN_PYTHIA if modelled else TRAIN_HOOK


def usable(hierarchy) -> bool:
    """True when the kernel is loaded and *hierarchy* is supported."""
    return get_lib() is not None and supports(hierarchy)


# -- small helpers ----------------------------------------------------------


def _pow2_at_least(n: int) -> int:
    size = 8
    while size < n:
        size *= 2
    return size


_POLICY_FLAGS = {LruPolicy: 0, ShipPolicy: 1}


def _attach(args, bufs: dict, name: str, arr):
    """Point ``args.<name>`` at *arr*, kept alive in *bufs* under *name*."""
    bufs[name] = arr
    setattr(args, name, arr.ctypes.data)
    return arr


def _lend(args, bufs: dict, name: str, buf) -> None:
    """Point ``args.<name>`` at the typed buffer *buf* itself (no copy).

    The view kept in *bufs* holds a buffer export, so *buf* cannot be
    resized while the kernel holds the pointer.
    """
    view = bufs[name] = ctypes.c_char.from_buffer(buf)
    setattr(args, name, ctypes.addressof(view))


def _headroom(config) -> int:
    """Spare slots given to every variable-size array at import: more
    than one record can add, so the kernel rarely has to return rc=1."""
    return 4 * config.max_prefetch_degree + 256


def _grow(args, bufs: dict, names, count: str, cap: str, new_cap: int) -> None:
    """Reallocate the arrays *names* (``count`` entries used) to *new_cap*."""
    used = getattr(args, count)
    setattr(args, cap, new_cap)
    for name in names:
        old = bufs[name]
        new = _np.zeros(new_cap, old.dtype)
        new[:used] = old[:used]
        _attach(args, bufs, name, new)


# -- Python hooks -------------------------------------------------------------


class NativeReplayError(RuntimeError):
    """The kernel returned a negative rc that no hook exception explains.

    Attributes:
        rc: the kernel's return code.
        index: the record index (single-core) or lockstep step at which
            the kernel stopped.
    """

    def __init__(self, rc: int, index: int, unit: str) -> None:
        super().__init__(f"native replay kernel failed (rc={rc}) at {unit} {index}")
        self.rc = rc
        self.index = index


class _HookFailure:
    """One kernel call's hook failure: the first exception any hook
    raised, and the abort word the kernel polls after every hook call."""

    __slots__ = ("word", "error")

    def __init__(self) -> None:
        self.word = _I64(0)
        self.error: BaseException | None = None

    def record(self, exc: BaseException) -> None:
        if self.error is None:
            self.error = exc
        self.word.value = 1


class _Candidates:
    """A core's candidate buffer, shared by its training hooks.  Growing
    it re-points the core's ``hooks.cand``/``cand_cap``, which the kernel
    re-reads after every training call, so no candidate is truncated."""

    __slots__ = ("hooks", "array", "cap")

    def __init__(self, hooks: _HookArgs, cap: int) -> None:
        self.hooks = hooks
        self.reserve(cap)

    def reserve(self, cap: int) -> None:
        self.array = (_I64 * cap)()
        self.cap = cap
        self.hooks.cand = ctypes.addressof(self.array)
        self.hooks.cand_cap = cap


def _train_hook(train_cols, cands: _Candidates, failure: _HookFailure):
    """Wrap *train_cols* as a training hook writing into *cands*."""

    def hook(pc, line, page, offset, cycle, is_load, util, bw_high):
        try:
            got = train_cols(pc, line, page, offset, cycle, is_load, util, bw_high)
            n = len(got)
            if n:
                if n > cands.cap:
                    cands.reserve(2 * n)
                cands.array[:n] = got
            return n
        except BaseException as exc:
            # ctypes would print and swallow it: store it, make the
            # kernel abort, and let _check re-raise it after the call.
            failure.record(exc)
            return 0

    hook.failure = failure
    return _TRAIN_HOOK(hook)


def _outcome_hook(callback, failure: _HookFailure):
    """Wrap a prefetcher outcome *callback* as an outcome hook."""

    def hook(line, cycle):
        try:
            callback(line, cycle)
        except BaseException as exc:
            failure.record(exc)

    hook.failure = failure
    return _OUTCOME_HOOK(hook)


#: (``HookArgs`` field, ``Prefetcher`` method) for the outcome hooks.
_OUTCOMES = (
    ("on_fill", "on_prefetch_fill"),
    ("on_hit", "on_demand_hit_prefetched"),
    ("on_dropped", "on_prefetch_dropped"),
    ("on_useless", "on_prefetch_useless"),
)

#: Initial candidate-buffer entries per core.
_CANDIDATES = 64


def _install_hooks(c: _CoreArgs, bufs: dict, hierarchy, failure: _HookFailure) -> None:
    """Fill *c*'s hook block for *hierarchy*: the training hook and every
    outcome hook the prefetcher overrides (``TRAIN_HOOK`` mode), and the
    L1 prefetcher's hook.  The callbacks live in *bufs*, never on a
    simulator object, so nothing ctypes-typed outlives the call."""
    hooks = c.hooks
    hooks.abort = ctypes.addressof(failure.word)
    l1_prefetcher = hierarchy.l1_prefetcher
    if c.train != TRAIN_HOOK and l1_prefetcher is None:
        return
    cands = bufs["candidates"] = _Candidates(hooks, _CANDIDATES)
    installed = bufs["hooks"] = []
    if l1_prefetcher is not None:
        installed.append(_train_hook(l1_prefetcher.train_cols, cands, failure))
        hooks.l1_train = installed[-1]
    if c.train != TRAIN_HOOK:
        return
    prefetcher = hierarchy.prefetcher
    installed.append(_train_hook(prefetcher.train_cols, cands, failure))
    hooks.train = installed[-1]
    for field, name in _OUTCOMES:
        callback = getattr(prefetcher, name)
        if getattr(callback, "__func__", None) is not getattr(Prefetcher, name):
            installed.append(_outcome_hook(callback, failure))
            setattr(hooks, field, installed[-1])


def _call(entry, args, failure: _HookFailure):
    """Call kernel *entry* with a guard for exceptions a hook's own
    handler cannot catch: a ``KeyboardInterrupt`` delivered on a
    callback's first instruction, before its ``try``, reaches ctypes,
    which reports it through ``sys.unraisablehook`` -- redirected here
    to *failure* for the duration of the call.  Calls overlapping in
    threads may leave a finished call's guard installed; it forwards
    every report that is not its own to the hook it replaced."""
    previous = sys.unraisablehook

    def guard(unraisable):
        if getattr(unraisable.object, "failure", None) is failure:
            failure.record(unraisable.exc_value)
        else:
            previous(unraisable)

    sys.unraisablehook = guard
    try:
        return entry(*args)
    finally:
        if sys.unraisablehook is guard:
            sys.unraisablehook = previous


def _check(rc: int, failure: _HookFailure, index: int, unit: str) -> None:
    """Raise for a failed kernel call: a hook's own exception first (its
    type and traceback intact), else :class:`NativeReplayError`."""
    error = failure.error
    if error is not None:
        failure.error = None
        raise error
    if rc < 0:
        raise NativeReplayError(rc, index, unit)


# -- caches -----------------------------------------------------------------


def _import_cache(k: _CacheArgs, cache) -> dict:
    """Point the kernel at one cache level's own per-slot buffers.

    No copy: the kernel writes the cache's and its policy's typed
    buffers in place.  LRU caches leave the SHiP-only pointers null: the
    kernel touches them only on its SHiP paths.  The one copy taken is
    of the tags, which :func:`_export_cache` diffs against.
    """
    bufs: dict = {"tag_before": _np.frombuffer(cache._tag, _np.int64).copy()}
    policy = cache._policy
    ship = _POLICY_FLAGS[type(policy)]
    _lend(k, bufs, "tag", cache._tag)
    _lend(k, bufs, "pf", cache._pf)
    _lend(k, bufs, "used", cache._used)
    _lend(k, bufs, "meta_a", policy.meta_a)
    if ship:
        _lend(k, bufs, "meta_b", policy.meta_b)
        _lend(k, bufs, "meta_c", policy.meta_c)
        _lend(k, bufs, "shct", policy._shct)
    stats = cache.stats
    _attach(
        k, bufs, "stats",
        _np.array([getattr(stats, name) for name in _STAT_FIELDS], _np.int64),
    )
    k.nsets = cache.num_sets
    k.ways = cache.ways
    k.lat = cache.latency
    k.tick = cache._tick
    k.policy = ship
    return bufs


def _export_cache(k: _CacheArgs, cache, bufs: dict) -> None:
    """Bring what the kernel does not share with one cache level up to date.

    The per-slot buffers are already current.  The residency dict is
    patched from the slots whose tag the span changed: every old tag is
    dropped before any new one is added, because a line can move between
    slots within one span (at import ``_where`` agreed with the tags, so
    each old tag still maps to its slot when it is dropped).  Lines are
    never invalidated, so the per-set fill counts change only when an
    empty way filled, and are then recounted from the tags.  The stats
    and tick are copied back.
    """
    tag = _np.frombuffer(cache._tag, _np.int64)
    before = bufs["tag_before"]
    changed = _np.flatnonzero(tag != before)
    if changed.size:
        where = cache._where
        old = before[changed]
        for line in old[old != -1].tolist():
            del where[line]
        where.update(zip(tag[changed].tolist(), changed.tolist()))
        if (old == -1).any():
            occupied = (tag != -1).reshape(cache.num_sets, cache.ways)
            cache._filled[:] = occupied.sum(axis=1).tolist()
    stats = cache.stats
    for name, value in zip(_STAT_FIELDS, bufs["stats"].tolist()):
        setattr(stats, name, value)
    cache._tick = k.tick


# -- shared state: LLC + DRAM -----------------------------------------------


def _import_shared(s: _SharedArgs, llc, dram, headroom: int) -> dict:
    """Import the LLC and DRAM every core of a run shares."""
    bufs: dict = {"llc": _import_cache(s.llc, llc)}
    events = dram._events
    s.ev_head = 0
    s.ev_count = len(events)
    s.ev_cap = _pow2_at_least(len(events) + headroom)
    ev_ts = _attach(s, bufs, "ev_ts", _np.zeros(s.ev_cap, _np.int64))
    ev_busy = _attach(s, bufs, "ev_busy", _np.zeros(s.ev_cap, _np.float64))
    if events:
        ev_ts[: len(events)], ev_busy[: len(events)] = zip(*events)
    channels = dram._channels
    for name, dtype, values in (
        ("ch_bus_free", _np.float64, [ch._bus_free for ch in channels]),
        ("ch_demand_bus_free", _np.float64, [ch._demand_bus_free for ch in channels]),
        ("ch_bank_free", _np.float64, [t for ch in channels for t in ch._bank_free]),
        ("ch_open_row", _np.int64, [r for ch in channels for r in ch._open_row]),
        ("ch_row_hits", _np.int64, [ch.row_hits for ch in channels]),
        ("ch_row_misses", _np.int64, [ch.row_misses for ch in channels]),
        ("bucket_cycles", _np.float64, dram._bucket_cycles),
    ):
        _attach(s, bufs, name, _np.array(values, dtype))
    s.channels = len(channels)
    s.banks = dram.config.banks_per_channel
    s.row_size_lines = dram.config.row_size_lines
    s.row_hit_lat = dram.config.row_hit_latency
    s.row_miss_lat = dram.config.row_miss_latency
    s.util_window = dram._window
    s.dram_total = dram.total_requests
    s.dram_demand = dram.demand_requests
    s.dram_prefetch = dram.prefetch_requests
    s.last_bucket_cycle = dram._last_bucket_cycle
    s.cycles_per_transfer = dram.config.cycles_per_transfer
    s.window_busy = dram._window_busy
    s.busy_cycles = dram.busy_cycles
    return bufs


def _grow_shared(s: _SharedArgs, bufs: dict, headroom: int) -> None:
    """Grow the DRAM event ring (linearized at export, so head == 0)."""
    new_cap = _pow2_at_least(max(2 * s.ev_cap, s.ev_count + headroom))
    _grow(s, bufs, ("ev_ts", "ev_busy"), "ev_count", "ev_cap", new_cap)


def _export_shared(s: _SharedArgs, llc, dram, bufs: dict) -> None:
    """Write the shared LLC and DRAM arrays back into their objects."""
    _export_cache(s.llc, llc, bufs.pop("llc"))
    events = dram._events
    events.clear()
    n = s.ev_count
    events.extend(zip(bufs["ev_ts"][:n].tolist(), bufs["ev_busy"][:n].tolist()))
    banks = s.banks
    bus_free = bufs["ch_bus_free"].tolist()
    demand_bus_free = bufs["ch_demand_bus_free"].tolist()
    bank_free = bufs["ch_bank_free"].tolist()
    open_row = bufs["ch_open_row"].tolist()
    row_hits = bufs["ch_row_hits"].tolist()
    row_misses = bufs["ch_row_misses"].tolist()
    for c, ch in enumerate(dram._channels):
        ch._bus_free = bus_free[c]
        ch._demand_bus_free = demand_bus_free[c]
        ch._bank_free[:] = bank_free[c * banks : (c + 1) * banks]
        ch._open_row[:] = open_row[c * banks : (c + 1) * banks]
        ch.row_hits = row_hits[c]
        ch.row_misses = row_misses[c]
    dram._bucket_cycles[:] = bufs["bucket_cycles"].tolist()
    dram.total_requests = s.dram_total
    dram.demand_requests = s.dram_demand
    dram.prefetch_requests = s.dram_prefetch
    dram._last_bucket_cycle = s.last_bucket_cycle
    dram._window_busy = s.window_busy
    dram.busy_cycles = s.busy_cycles


# -- per-core state ---------------------------------------------------------

#: Variable-size per-core arrays: (arrays, count field, capacity field).
_CORE_FAMILIES = (
    (("pend_comp", "pend_line"), "pend_count", "pend_cap"),
    (("mshrh_comp", "mshrh_line"), "mshrh_count", "mshrh_cap"),
    (("infl_line", "infl_comp"), "infl_count", "infl_cap"),
    (("merged_line",), "merged_count", "merged_cap"),
)


def _import_core(
    c: _CoreArgs, hierarchy, core, cols, headroom: int, failure: _HookFailure
) -> dict:
    """Import one core's private state: columns, L1/L2, MSHR, fill queues,
    core model, and the Pythia agent or the Python hooks that train the
    prefetchers."""
    bufs: dict = {
        "l1": _import_cache(c.l1, hierarchy.l1),
        "l2": _import_cache(c.l2, hierarchy.l2),
    }

    # -- trace columns ------------------------------------------------------
    _attach(c, bufs, "col_pc", cols.pc)
    _attach(c, bufs, "col_line", cols.line)
    _attach(c, bufs, "col_load", cols.is_load.view(_np.uint8))
    _attach(c, bufs, "col_gap", cols.gap)
    _attach(c, bufs, "col_page", cols.page)
    _attach(c, bufs, "col_offset", cols.offset)
    c.trace_len = cols.length

    # -- MSHR entries, then the variable-size families ----------------------
    mshr = hierarchy.mshr
    entries = list(mshr._entries.values())
    c.mshr_cap = mshr.capacity
    c.mshr_count = len(entries)
    for name, dtype, values in (
        ("mshr_line", _np.int64, [e.line for e in entries]),
        ("mshr_comp", _np.int64, [e.completion for e in entries]),
        ("mshr_ispf", _np.uint8, [e.is_prefetch for e in entries]),
    ):
        _attach(c, bufs, name, _np.zeros(mshr.capacity, dtype))[: len(values)] = values
    c.mshr_allocations = mshr.allocations
    c.mshr_stalls = mshr.stalls
    sources = (
        hierarchy._pending_fills,
        mshr._by_completion,
        hierarchy._inflight_prefetch.items(),
        [(line,) for line in hierarchy._merged_inflight],
    )
    for (names, count, cap), rows in zip(_CORE_FAMILIES, sources):
        rows = list(rows)
        setattr(c, count, len(rows))
        setattr(c, cap, len(rows) + headroom)
        for k, name in enumerate(names):
            array = _attach(c, bufs, name, _np.zeros(len(rows) + headroom, _np.int64))
            array[: len(rows)] = [row[k] for row in rows]

    # -- core ---------------------------------------------------------------
    outstanding = core._outstanding
    c.width = core._width
    c.rob_size = core._rob_size
    c.instructions = core.instructions
    c.cycle = core.cycle
    c.cycle_int = type(core.cycle) is int
    c.stall_cycles = core.stall_cycles
    c.out_head = 0
    c.out_count = len(outstanding)
    c.out_cap = _pow2_at_least(core._rob_size + 8)
    issued = _attach(c, bufs, "out_issued", _np.zeros(c.out_cap, _np.int64))
    comp = _attach(c, bufs, "out_comp", _np.zeros(c.out_cap, _np.int64))
    if outstanding:
        issued[: len(outstanding)], comp[: len(outstanding)] = zip(*outstanding)

    # -- hierarchy scalars --------------------------------------------------
    c.pf_issued = hierarchy.prefetches_issued
    c.pf_dropped = hierarchy.prefetches_dropped
    c.late_merges = hierarchy.late_prefetch_merges
    c.max_degree = hierarchy.config.max_prefetch_degree
    c.hi_thresh = hierarchy.config.high_bw_threshold
    c.page_shift = PAGE_SHIFT_LINES
    c.lines_per_page = LINES_PER_PAGE

    c.train = training_mode(hierarchy)
    if c.train == TRAIN_PYTHIA:
        _import_agent(c, bufs, hierarchy.prefetcher)
    _install_hooks(c, bufs, hierarchy, failure)
    return bufs


def _import_agent(c: _CoreArgs, bufs: dict, prefetcher) -> None:
    """Point the kernel at Pythia's own Q-table, EQ, page table and PC
    history; copy in the action table, rewards, counters and RNG words."""
    config = prefetcher.config
    agent = prefetcher.agent
    eq = agent.eq
    extractor = prefetcher.extractor
    extractor.lru_order()
    version, words, bufs["rng_gauss"] = agent._rng.getstate()
    if version != 3:  # pragma: no cover - CPython always uses 3
        raise RuntimeError(f"unsupported Random state version {version}")
    rewards = config.rewards
    copies = bufs["copies"] = {
        "act_deltas": array("q", config.actions),
        "act_counts": array("q", prefetcher.action_counts),
        "rw": array(
            "d",
            (
                rewards.accurate_timely,
                rewards.accurate_late,
                rewards.coverage_loss,
                rewards.inaccurate_high_bw,
                rewards.inaccurate_low_bw,
                rewards.no_prefetch_high_bw,
                rewards.no_prefetch_low_bw,
            ),
        ),
        "rw_assigned": array("q", map(prefetcher.rewards_assigned.__getitem__, _ASSIGNED)),
        "mt": array("I", words[:624]),  # 32-bit words: "I" on LP64
        "plane_shifts": array("q", config.plane_shifts),
    }
    for field, buf in (
        ("qcells", agent.qvstore._cells),
        ("eq_state", eq.state),
        ("eq_action", eq.action),
        ("eq_line", eq.line),
        ("eq_reward", eq.reward),
        ("eq_flags", eq.flags),
        ("pt_page", extractor.pt_page),
        ("pt_lastoff", extractor.pt_lastoff),
        ("pt_deltas", extractor.pt_deltas),
        ("pt_offsets", extractor.pt_offsets),
        ("pt_dlen", extractor.pt_dlen),
        ("pt_olen", extractor.pt_olen),
        ("pt_order", extractor.pt_order),
        ("last_pcs", extractor.last_pcs),
        *copies.items(),
    ):
        _lend(c, bufs, field, buf)
    c.eq_cap = eq.capacity
    c.eq_head = eq.head_slot
    c.eq_count = eq.count
    c.ptab_cap = extractor.page_table_size
    c.ptab_count = extractor.ptab_count
    c.lastpc_count = extractor.lastpc_count
    c.mt_index = words[624]
    c.nact = config.num_actions
    c.nfeat = len(config.features)
    c.nplanes = config.num_planes
    c.plane_entries = config.plane_entries
    c.agent_updates = agent.updates
    c.agent_explorations = agent.explorations
    c.epsilon = agent._epsilon
    c.alpha = config.alpha
    c.gamma = config.gamma


def _grow_core(c: _CoreArgs, bufs: dict, headroom: int) -> None:
    """Grow every variable-size per-core family (copying inside NumPy)."""
    for names, count, cap in _CORE_FAMILIES:
        new_cap = max(2 * getattr(c, cap), getattr(c, count) + headroom)
        _grow(c, bufs, names, count, cap, new_cap)


def _export_core(c: _CoreArgs, hierarchy, core, bufs: dict) -> None:
    """Write one core's arrays back into its hierarchy, core and agent."""
    _export_cache(c.l1, hierarchy.l1, bufs.pop("l1"))
    _export_cache(c.l2, hierarchy.l2, bufs.pop("l2"))

    # -- MSHR / pending / inflight / merged ---------------------------------
    mshr = hierarchy.mshr
    n = c.mshr_count
    mshr._entries.clear()
    for line, comp, ispf in zip(
        bufs["mshr_line"][:n].tolist(),
        bufs["mshr_comp"][:n].tolist(),
        bufs["mshr_ispf"][:n].tolist(),
    ):
        mshr._entries[line] = MshrEntry(line, comp, bool(ispf))
    n = c.mshrh_count
    mshr._by_completion[:] = zip(
        bufs["mshrh_comp"][:n].tolist(), bufs["mshrh_line"][:n].tolist()
    )
    mshr.allocations = c.mshr_allocations
    mshr.stalls = c.mshr_stalls
    n = c.pend_count
    hierarchy._pending_fills[:] = zip(
        bufs["pend_comp"][:n].tolist(), bufs["pend_line"][:n].tolist()
    )
    n = c.infl_count
    inflight = hierarchy._inflight_prefetch
    inflight.clear()
    inflight.update(
        zip(bufs["infl_line"][:n].tolist(), bufs["infl_comp"][:n].tolist())
    )
    merged = hierarchy._merged_inflight
    merged.clear()
    merged.update(bufs["merged_line"][: c.merged_count].tolist())

    # -- core: a ROB stall leaves CoreModel.cycle an int, as in Python ------
    core.cycle = int(c.cycle) if c.cycle_int else c.cycle
    core.instructions = c.instructions
    core.stall_cycles = c.stall_cycles
    outstanding = core._outstanding
    outstanding.clear()
    n = c.out_count
    outstanding.extend(
        zip(bufs["out_issued"][:n].tolist(), bufs["out_comp"][:n].tolist())
    )

    # -- hierarchy counters -------------------------------------------------
    hierarchy.prefetches_issued = c.pf_issued
    hierarchy.prefetches_dropped = c.pf_dropped
    hierarchy.late_prefetch_merges = c.late_merges

    if c.train == TRAIN_PYTHIA:
        _export_agent(c, bufs, hierarchy.prefetcher)


def _export_agent(c: _CoreArgs, bufs: dict, prefetcher) -> None:
    """Take back what the kernel did not write in place: the ring and
    page-table positions, the counters and the RNG.  The two index dicts
    are rebuilt from the buffers on first use."""
    agent = prefetcher.agent
    # The kernel's Q writes bypassed the version counters.
    agent.qvstore._state_cache.clear()
    eq = agent.eq
    eq.head_slot = c.eq_head
    eq.count = c.eq_count
    eq.drop_index()
    extractor = prefetcher.extractor
    extractor.ptab_count = c.ptab_count
    extractor.lastpc_count = c.lastpc_count
    extractor.drop_index()
    copies = bufs["copies"]
    prefetcher.action_counts[:] = copies["act_counts"]
    prefetcher.rewards_assigned.update(zip(_ASSIGNED, copies["rw_assigned"]))
    agent.updates = c.agent_updates
    agent.explorations = c.agent_explorations
    agent._rng.setstate((3, (*copies["mt"], c.mt_index), bufs["rng_gauss"]))


# -- the backend entry points ------------------------------------------------


def replay_span(hierarchy, core, cols, start, stop) -> None:
    """Replay records ``[start, stop)`` through the compiled kernel.

    The native counterpart of :func:`repro.sim.batch.replay_span`, for
    spans of any length.  The caller checks :func:`usable` first.

    Raises:
        BaseException: whatever a hooked prefetcher raised, re-raised
            with its type and traceback after the kernel stopped.
        NativeReplayError: the kernel reported an internal error.
            Either way the span stopped part-way: the caches hold the
            kernel's partial writes and a hooked prefetcher has
            advanced, so the engine cannot be reused.
    """
    lib = get_lib()
    headroom = _headroom(hierarchy.config)
    failure = _HookFailure()
    c = _CoreArgs()
    s = _SharedArgs()
    core_bufs = _import_core(c, hierarchy, core, cols, headroom, failure)
    shared_bufs = _import_shared(s, hierarchy.llc, hierarchy.dram, headroom)
    c.start = start
    c.stop = stop
    while True:
        rc = _call(lib.repro_replay_span, (ctypes.byref(c), ctypes.byref(s)), failure)
        _check(rc, failure, c.start + c.processed, "record")
        if rc == 0:
            break
        # Headroom exhausted: the kernel exported a consistent state at
        # a record boundary.  Grow every variable-size family and
        # re-enter at the record it stopped before.
        c.start = c.start + c.processed
        _grow_core(c, core_bufs, headroom)
        _grow_shared(s, shared_bufs, headroom)

    _export_core(c, hierarchy, core, core_bufs)
    _export_shared(s, hierarchy.llc, hierarchy.dram, shared_bufs)


def replay_lockstep(engine) -> None:
    """Run a :class:`~repro.sim.engine.MultiCoreEngine`'s lockstep loop in C.

    One import of every core's and the shared state, one kernel call that
    replays steps until every core has measured the engine's quota, one
    export — leaving the hierarchies, cores, shared LLC and DRAM, and the
    engine's ``cursors``, ``warm_remaining``, ``measured``, ``marks`` and
    ``steps`` exactly as the Python loop would.  The caller checks
    :func:`usable` for every hierarchy first.

    Raises:
        BaseException: whatever a hooked prefetcher raised (see
            :func:`replay_span`).
        NativeReplayError: the kernel reported an internal error.
            Either way the caches hold the kernel's partial writes and
            hooked prefetchers have advanced, so the engine cannot be
            reused.
    """
    from repro.sim.engine import CounterMark

    lib = get_lib()
    n = len(engine.cores)
    headroom = _headroom(engine.config)
    failure = _HookFailure()
    cores = (_CoreArgs * n)()
    core_bufs = [
        _import_core(cores[i], hierarchy, core, trace.columns(), headroom, failure)
        for i, (hierarchy, core, trace) in enumerate(
            zip(engine.hierarchies, engine.cores, engine.traces)
        )
    ]
    s = _SharedArgs()
    shared_bufs = _import_shared(s, engine.llc, engine.dram, headroom)

    lock = _LockstepArgs()
    bufs: dict = {}
    cursors = _attach(lock, bufs, "cursors", _np.array(engine.cursors, _np.int64))
    warm = _attach(
        lock, bufs, "warm_remaining", _np.array(engine.warm_remaining, _np.int64)
    )
    measured = _attach(lock, bufs, "measured", _np.array(engine.measured, _np.int64))
    marks = engine.marks
    marked = _attach(
        lock, bufs, "marked", _np.array([m is not None for m in marks], _np.uint8)
    )
    mark_i64 = _attach(lock, bufs, "mark_i64", _np.zeros(n * _MARK_I64, _np.int64))
    mark_f64 = _attach(lock, bufs, "mark_f64", _np.zeros(n * _MARK_F64, _np.float64))
    lock.cores = ctypes.addressof(cores)
    lock.shared = ctypes.addressof(s)
    lock.ncores = n
    lock.quota = engine.records_per_core
    lock.steps = engine.steps
    while True:
        rc = _call(lib.repro_replay_lockstep, (ctypes.byref(lock),), failure)
        _check(rc, failure, lock.steps, "lockstep step")
        if rc == 0:
            break
        # Headroom exhausted before a step: every core's state was
        # exported at the step boundary; grow and re-enter.
        for c, cbufs in zip(cores, core_bufs):
            _grow_core(c, cbufs, headroom)
        _grow_shared(s, shared_bufs, headroom)

    _export_shared(s, engine.llc, engine.dram, shared_bufs)
    for i, (hierarchy, core) in enumerate(zip(engine.hierarchies, engine.cores)):
        _export_core(cores[i], hierarchy, core, core_bufs[i])
    engine.cursors[:] = cursors.tolist()
    engine.warm_remaining[:] = warm.tolist()
    engine.measured[:] = measured.tolist()
    engine.steps = lock.steps
    words = mark_i64.tolist()
    floats = mark_f64.tolist()
    nstats = len(_STAT_FIELDS)
    for i, (mark, now_marked) in enumerate(zip(marks, marked.tolist())):
        if mark is not None or not now_marked:
            continue
        m = words[i * _MARK_I64 : (i + 1) * _MARK_I64]
        cycle, stalls = floats[i * _MARK_F64 : (i + 1) * _MARK_F64]
        marks[i] = CounterMark(
            instructions=m[0],
            cycles=int(cycle) if m[1] else cycle,
            stalls=stalls,
            llc=dict(zip(_STAT_FIELDS, m[2 : 2 + nstats])),
            l2=dict(zip(_STAT_FIELDS, m[2 + nstats : 2 + 2 * nstats])),
            dram=tuple(m[26:29]),
            prefetches=tuple(m[29:31]),
        )
