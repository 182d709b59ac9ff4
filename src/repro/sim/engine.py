"""Windowed simulation engine: resumable, observable replay.

This module is the simulation core the thin ``simulate``/``simulate_multi``
wrappers in :mod:`repro.sim.system` delegate to.  Replay proceeds in
fixed-size *record epochs*; between epochs the engine can

* snapshot a serializable :class:`EngineState` — every piece of mutable
  simulator state (caches + replacement metadata, MSHRs, DRAM counters,
  prefetcher state including the NumPy Q-store, and the trace cursor) —
  that restores to a bit-identical continuation;
* emit a per-window :class:`TelemetryRow` (IPC, cache-stat deltas, DRAM
  bandwidth-bucket occupancy, prefetch issued/useful/late counts) into a
  typed :class:`Timeline`;
* report progress and honor cancellation.

Checkpoints are exchanged through a duck-typed sink (the
:class:`repro.api.store.ResultStore` checkpoint namespace in practice)
keyed by records consumed, so extending a cell's ``trace_length`` can
resume from the longest compatible prefix instead of re-simulating from
record zero.

Bit-identity rules the design.  Three invariants matter:

1. **Windows read, never write.**  Window, checkpoint and
   control-chunk boundaries only read counters, so chunked and
   unchunked replay are bit-identical.  They are not free: each
   boundary ends one replay span, and on the default native backend
   every span pays one state round trip across the FFI — under a
   millisecond on the default hierarchy (1-record spans on a 2-vCPU
   host: ~0.4 ms for ``none``, ~0.6 ms for Pythia; see
   :mod:`repro.sim._native.bridge`).  With telemetry, checkpointing,
   progress and cancellation all off, a single-core run is at most two
   spans: warmup and measured.
2. **The warmup drain is semantic.**  The historical loop drains the
   core's outstanding loads at the warmup/measure boundary, so replay
   state downstream of that boundary depends on *where* the boundary
   was.  Every checkpoint therefore records its drain history
   (:attr:`EngineState.drained_at`), and a resuming run only adopts
   states whose drain history matches its own warmup split.  Cells that
   pin warmup in absolute records (``warmup_records``, the paper's
   100M-of-600M convention) keep the split fixed as ``trace_length``
   grows, which is what makes 100k → 200k extension fully resumable.
3. **Marks are values.**  The warmup-boundary counter snapshot the
   final statistics are delta'd against is pure data
   (:class:`CounterMark`), so it rides inside post-warmup checkpoints
   and survives adoption.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from repro.prefetchers.base import Prefetcher, NoPrefetcher
from repro.sim import _native, batch
from repro.sim.cache import Cache, CacheStats
from repro.sim.config import SystemConfig
from repro.sim.core import CoreModel
from repro.sim.dram import Dram
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.trace import Trace, TraceRecord, prefix_crc
from repro.types import prefetch_accuracy

#: Epoch size used only to service progress/cancellation callbacks when
#: neither telemetry nor checkpointing imposes boundaries of its own.
_CONTROL_CHUNK = 16_384


@dataclass(slots=True)
class SimulationResult:
    """Measured statistics from one simulation run.

    The fields mirror what the paper's rollup scripts extract from
    ChampSim output: IPC, LLC demand load misses, DRAM read counts split
    by origin, prefetch usefulness, and bandwidth-bucket runtime.  Every
    field counts post-warmup activity only, except
    ``bw_bucket_fractions``, which both engines take over the whole run,
    warmup included.  (A mix's shared LLC and DRAM fields count from
    core 0's warmup mark; see :meth:`MultiCoreEngine._build_result`.)
    ``timeline`` is the optional per-window telemetry payload
    (``{"window": records, "rows": [...]}``; see :class:`Timeline`) —
    ``None`` unless the run requested telemetry.
    """

    trace_name: str
    prefetcher_name: str
    instructions: int
    cycles: float
    llc_load_misses: int
    llc_demand_hits: int
    dram_reads: int
    dram_demand_reads: int
    dram_prefetch_reads: int
    prefetches_issued: int
    useful_prefetches: int
    useless_prefetches: int
    late_prefetch_merges: int
    stall_cycles: float
    bw_bucket_fractions: list[float] = field(default_factory=lambda: [1.0, 0, 0, 0])
    per_core_ipc: list[float] = field(default_factory=list)
    timeline: dict | None = None

    @property
    def ipc(self) -> float:
        """Aggregate instructions per cycle."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def prefetch_accuracy(self) -> float:
        """Useful / (useful + useless) judged prefetches."""
        return prefetch_accuracy(self.useful_prefetches, self.useless_prefetches)


class SimulationCancelled(Exception):
    """Raised when a run's ``cancel`` callback asked the engine to stop.

    The engine object stays valid: the caller may capture a checkpoint
    (:meth:`SimulationEngine.capture_state`) or call ``run()`` again to
    continue from where replay stopped.
    """

    def __init__(self, records: int) -> None:
        super().__init__(f"simulation cancelled at record {records}")
        self.records = records


# --------------------------------------------------------------------------
# Telemetry
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TelemetryRow:
    """Counter deltas over one record window.

    All counters are window-local differences; ``bw_buckets`` is the
    fraction of the window's DRAM bucket-accounted cycles spent in each
    utilization quartile (Fig 14's signal, per window).  Rows tile the
    run contiguously but also break at the warmup split (and the end of
    the trace), so no row ever mixes warmup and measured records;
    ``index`` is therefore the row's ordinal position, not
    ``start_record // window``.
    """

    index: int
    start_record: int
    end_record: int
    warmup: bool
    instructions: int
    cycles: float
    llc_demand_hits: int
    llc_load_misses: int
    dram_reads: int
    dram_demand_reads: int
    dram_prefetch_reads: int
    prefetches_issued: int
    useful_prefetches: int
    useless_prefetches: int
    late_prefetch_merges: int
    bw_buckets: tuple[float, float, float, float]

    @property
    def ipc(self) -> float:
        """Instructions per cycle within this window."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def records(self) -> int:
        """Records replayed in this window (the last one may be short)."""
        return self.end_record - self.start_record


@dataclass(frozen=True, slots=True)
class Phase:
    """One contiguous run of windows with similar metric behaviour."""

    metric: str
    start_index: int
    end_index: int
    start_record: int
    end_record: int
    windows: int
    mean: float


def _delta_row(
    index: int, start: int, end: int, warmup: bool, base: dict, now: dict
) -> TelemetryRow:
    """Assemble one telemetry row from two counter snapshots.

    Shared by both engines so the delta/normalize logic — and therefore
    the row contents — cannot drift between single-core and lockstep
    telemetry.
    """
    bucket_delta = [n - b for n, b in zip(now["buckets"], base["buckets"])]
    bucket_total = sum(bucket_delta)
    bw_buckets = (
        tuple(d / bucket_total for d in bucket_delta)
        if bucket_total > 0
        else (1.0, 0.0, 0.0, 0.0)
    )
    return TelemetryRow(
        index=index,
        start_record=start,
        end_record=end,
        warmup=warmup,
        instructions=now["instructions"] - base["instructions"],
        cycles=now["cycles"] - base["cycles"],
        llc_demand_hits=now["llc_demand_hits"] - base["llc_demand_hits"],
        llc_load_misses=now["llc_load_misses"] - base["llc_load_misses"],
        dram_reads=now["dram_reads"] - base["dram_reads"],
        dram_demand_reads=now["dram_demand_reads"] - base["dram_demand_reads"],
        dram_prefetch_reads=now["dram_prefetch_reads"] - base["dram_prefetch_reads"],
        prefetches_issued=now["prefetches_issued"] - base["prefetches_issued"],
        useful_prefetches=now["useful"] - base["useful"],
        useless_prefetches=now["useless"] - base["useless"],
        late_prefetch_merges=now["late_prefetch_merges"]
        - base["late_prefetch_merges"],
        bw_buckets=bw_buckets,
    )


class Timeline:
    """Typed, queryable sequence of per-window telemetry rows."""

    def __init__(self, window: int, rows: Sequence[TelemetryRow] = ()) -> None:
        self.window = window
        self.rows: list[TelemetryRow] = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[TelemetryRow]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> TelemetryRow:
        return self.rows[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeline(window={self.window}, {len(self.rows)} rows)"

    def measured(self) -> "Timeline":
        """The post-warmup rows only."""
        return Timeline(self.window, [r for r in self.rows if not r.warmup])

    def values(self, metric: str = "ipc") -> list[float]:
        """The metric's value for every row, in order."""
        return [getattr(row, metric) for row in self.rows]

    def to_payload(self) -> dict:
        """JSON-safe payload (what :attr:`SimulationResult.timeline` holds)."""
        return {
            "window": self.window,
            "rows": [dataclasses.asdict(row) for row in self.rows],
        }

    @classmethod
    def from_payload(cls, payload: dict | None) -> "Timeline":
        """Rebuild a timeline from a stored payload (``None`` → empty)."""
        if not payload:
            return cls(0, [])
        rows = [
            TelemetryRow(**{**row, "bw_buckets": tuple(row["bw_buckets"])})
            for row in payload.get("rows", ())
        ]
        return cls(payload.get("window", 0), rows)

    def phases(
        self,
        metric: str = "ipc",
        rel_tol: float = 0.25,
        include_warmup: bool = False,
    ) -> list[Phase]:
        """Segment the timeline into phases of similar metric behaviour.

        Greedy change-point detection: a new phase opens when a window's
        metric deviates from the current phase's running mean by more
        than *rel_tol* (relative).  Good enough to surface the
        macroscopic phase changes the per-window figure plots; callers
        needing finer segmentation can run their own model over
        :meth:`values`.
        """
        rows = self.rows if include_warmup else [r for r in self.rows if not r.warmup]
        phases: list[Phase] = []
        current: list[TelemetryRow] = []
        total = 0.0
        for row in rows:
            value = getattr(row, metric)
            if current:
                mean = total / len(current)
                if abs(value - mean) > rel_tol * max(abs(mean), 1e-12):
                    phases.append(self._close_phase(metric, current, total))
                    current, total = [], 0.0
            current.append(row)
            total += value
        if current:
            phases.append(self._close_phase(metric, current, total))
        return phases

    @staticmethod
    def _close_phase(metric: str, rows: list[TelemetryRow], total: float) -> Phase:
        return Phase(
            metric=metric,
            start_index=rows[0].index,
            end_index=rows[-1].index,
            start_record=rows[0].start_record,
            end_record=rows[-1].end_record,
            windows=len(rows),
            mean=total / len(rows),
        )


# --------------------------------------------------------------------------
# Counter snapshots (the warmup mark) and result assembly
# --------------------------------------------------------------------------


def _stats_snapshot(stats: CacheStats) -> dict:
    return dataclasses.asdict(stats)


def _stats_delta(after: CacheStats, before: dict) -> CacheStats:
    current = dataclasses.asdict(after)
    return CacheStats(**{k: current[k] - before[k] for k in current})


@dataclass(slots=True)
class CounterMark:
    """Pure-value counter snapshot taken at the warmup/measure boundary.

    Final statistics are deltas against this mark.  Being plain data it
    pickles inside post-warmup checkpoints, so an adopted state carries
    the mark of the run that produced it.
    """

    instructions: int
    cycles: float
    stalls: float
    llc: dict
    l2: dict
    dram: tuple[int, int, int]
    prefetches: tuple[int, int]

    @classmethod
    def capture(cls, hierarchy: CacheHierarchy, core: CoreModel) -> "CounterMark":
        dram = hierarchy.dram
        return cls(
            instructions=core.instructions,
            cycles=core.cycle,
            stalls=core.stall_cycles,
            llc=_stats_snapshot(hierarchy.llc.stats),
            l2=_stats_snapshot(hierarchy.l2.stats),
            dram=(dram.total_requests, dram.demand_requests, dram.prefetch_requests),
            prefetches=(hierarchy.prefetches_issued, hierarchy.late_prefetch_merges),
        )


@contextmanager
def _gc_paused():
    """Pause cyclic GC around the replay loop.

    The Python replay loops allocate per record (contexts, state tuples,
    candidate lists) but create no reference cycles, so generational
    collections only burn time scanning live simulator state; a native
    span allocates nothing per record, only what the bridge rebuilds per
    span.  The collector is re-enabled on exit (even on error); no
    collection is forced — a full collect here would scan every resident
    trace, and the next natural collection reclaims any cycles just as
    well.
    """
    if not gc.isenabled():
        yield  # already managed by an outer run (e.g. the multi-core engine)
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _run_core(
    hierarchy: CacheHierarchy,
    core: CoreModel,
    records: Iterable[TraceRecord],
) -> None:
    """Replay *records* through one core + hierarchy, then drain.

    This is the innermost simulation loop: every record costs exactly
    three calls, with the bound methods hoisted out of the loop so the
    per-record attribute walks disappear from the profile.  Callers pass
    any record iterable (``itertools.islice`` views for the
    warmup/measure split), so the trace is never re-sliced or copied.
    """
    advance = core.advance
    demand_access = hierarchy.demand_access
    issue_load = core.issue_load
    for record in records:
        advance(record.gap)
        issue_load(demand_access(record, int(core.cycle)))
    core.drain()


# --------------------------------------------------------------------------
# Checkpoint state
# --------------------------------------------------------------------------


#: Version of the simulator object layout pickled into
#: :attr:`EngineState.payload`.  Bump it whenever a change alters what a
#: checkpoint's ``(hierarchy, core)`` pickle holds, so snapshots of an
#: older layout are never offered for adoption:
#: :meth:`repro.api.experiment.Cell.prefix_fingerprint` folds it into
#: the checkpoint namespace key.  Result fingerprints do not see it — a
#: layout change that keeps results bit-identical keeps every stored
#: result.  Layout 2: flat per-slot cache lists (layout 1 held per-way
#: line and SHiP metadata objects).  Layout 3: Pythia's EQ and page
#: table as per-slot typed buffers (layout 2 held per-entry EQ objects
#: and per-page history objects).  Layout 4: prefix stamps CRC the
#: columns' packed bytes (:func:`repro.sim.trace.prefix_crc`; layout 3
#: stamped a text encoding of the records).
STATE_LAYOUT = 4


@dataclass(slots=True)
class EngineState:
    """One serializable snapshot of a mid-run simulation.

    ``payload`` is the pickled ``(hierarchy, core)`` pair — caches with
    replacement metadata, MSHRs, DRAM state, and the prefetcher.  A
    Pythia prefetcher pickles its agent in the typed buffers the native
    kernel replays on: the EQ ring and the page table as they are, the
    Q-table as one ``float64`` table (see
    :meth:`repro.core.qvstore.NumpyQVStore.__getstate__`).
    The remaining fields are the resume-compatibility envelope:

    * ``records`` — trace cursor: how many records the state consumed;
    * ``prefix_stamp`` — CRC32 of exactly those records, validated
      against the resuming trace's prefix before adoption;
    * ``drained_at`` — record positions at which the core was drained
      (the warmup boundary); a resuming run only adopts a state whose
      drain history matches its own warmup split;
    * ``mark`` — the warmup-boundary counter snapshot, present on every
      post-warmup state so an adopter can still compute measured deltas.
    """

    trace_name: str
    records: int
    prefix_stamp: int
    drained_at: tuple[int, ...]
    mark: CounterMark | None
    payload: bytes

    @classmethod
    def capture(
        cls,
        trace_name: str,
        records: int,
        prefix_stamp: int,
        drained_at: tuple[int, ...],
        mark: CounterMark | None,
        hierarchy: CacheHierarchy,
        core: CoreModel,
    ) -> "EngineState":
        return cls(
            trace_name=trace_name,
            records=records,
            prefix_stamp=prefix_stamp,
            drained_at=drained_at,
            mark=mark,
            payload=pickle.dumps((hierarchy, core), protocol=pickle.HIGHEST_PROTOCOL),
        )

    def restore(self) -> tuple[CacheHierarchy, CoreModel]:
        """Materialize a fresh ``(hierarchy, core)`` pair from the payload."""
        return pickle.loads(self.payload)

    @property
    def size_bytes(self) -> int:
        """Approximate footprint (payload only; the envelope is tiny)."""
        return len(self.payload)


# --------------------------------------------------------------------------
# Single-core engine
# --------------------------------------------------------------------------


class SimulationEngine:
    """Windowed single-core replay with telemetry and checkpoint/resume.

    Args:
        trace: the memory-access trace to replay.
        config: system description (defaults to the paper's 1C baseline).
        prefetcher: L2-level prefetcher (defaults to no prefetching).
        warmup_fraction: leading fraction of the trace used for warmup.
        l1_prefetcher: optional L1 prefetcher (multi-level experiments).
        warmup_records: absolute warmup length in records; overrides
            *warmup_fraction* when given (the paper warms a fixed 100 M
            of 600 M instructions).  Because the warmup split then stays
            put as the trace grows, checkpoints from a shorter run of
            the same cell remain drain-compatible — the key to extending
            ``pythia @ 100k`` to ``200k`` without re-simulating.
        telemetry_window: records per telemetry window (0 = off).
        checkpoints: checkpoint sink/source (duck-typed; see
            :class:`repro.api.store.CheckpointNamespace`).  ``None``
            disables checkpointing and resume.
        checkpoint_every: checkpoint cadence in records; 0 with a sink
            still saves the end-of-run state (the extension seed).
        progress: ``callback(records_done, records_total)`` at epoch
            boundaries.
        cancel: zero-argument callable; a truthy return raises
            :class:`SimulationCancelled` at the next epoch boundary.

    Telemetry and checkpointing are off by default.  Replay walks the
    backend ladder native → batched → scalar (:meth:`_pick_backend`):
    the default ``replay_backend="native"`` replays every span of every
    prefetcher in the compiled kernel, L1 prefetchers included; the
    perf floors in ``BENCH_perf.json`` gate every rung.  Resume adoption
    is disabled while telemetry is on (a resumed run cannot reconstruct
    the skipped windows' rows); checkpoints are still written.  A
    prefetcher exception or a :class:`repro.sim._native.NativeReplayError`
    raised inside a native span propagates unchanged and leaves the
    engine unusable (the caches hold the kernel's partial writes, and
    the prefetcher has advanced).
    """

    def __init__(
        self,
        trace: Trace,
        config: SystemConfig | None = None,
        prefetcher: Prefetcher | None = None,
        warmup_fraction: float = 0.2,
        l1_prefetcher: Prefetcher | None = None,
        *,
        warmup_records: int | None = None,
        telemetry_window: int = 0,
        checkpoints=None,
        checkpoint_every: int = 0,
        progress: Callable[[int, int], None] | None = None,
        cancel: Callable[[], bool] | None = None,
    ) -> None:
        self.trace = trace
        self.config = config if config is not None else SystemConfig(num_cores=1)
        prefetcher = prefetcher if prefetcher is not None else NoPrefetcher()
        self.hierarchy = CacheHierarchy(
            self.config, prefetcher, l1_prefetcher=l1_prefetcher
        )
        self.core = CoreModel(self.config.core)
        self.total = len(trace)
        if warmup_records is not None:
            if warmup_records < 0:
                raise ValueError(f"warmup_records must be >= 0, got {warmup_records}")
            self.warmup_split = min(warmup_records, self.total)
        else:
            self.warmup_split = int(self.total * warmup_fraction)
        self.telemetry_window = telemetry_window
        self.checkpoints = checkpoints
        self.checkpoint_every = checkpoint_every
        self.progress = progress
        self.cancel = cancel

        self._pick_backend()

        self.position = 0
        self.resumed_from = 0
        self.timeline = Timeline(telemetry_window)
        self._crc = 0
        self._mark: CounterMark | None = None
        self._drained = False
        self._finished = False
        self._window_base: dict | None = None
        if telemetry_window:
            self._window_base = self._telemetry_snapshot()

    def _pick_backend(self) -> None:
        """Walk the fallback ladder native → batched → scalar.

        ``native`` needs a loaded kernel (:func:`repro.sim._native.usable`,
        which loads it on first use); ``batched`` cannot train an L1
        prefetcher.  Every rung is bit-identical, so a fallback changes
        only throughput — the kernel's absence is logged once.
        """
        backend = self.config.replay_backend
        self._use_native = backend == "native" and _native.usable(self.hierarchy)
        self._use_batched = (
            backend != "scalar" and self.hierarchy.l1_prefetcher is None
        )

    # -- state capture / adoption -----------------------------------------

    @property
    def drained_at(self) -> tuple[int, ...]:
        """Drain history of the current state (see :class:`EngineState`)."""
        return (self.warmup_split,) if self._drained else ()

    def capture_state(self) -> EngineState:
        """Snapshot the current mid-run state (deep, serialized copy)."""
        return EngineState.capture(
            self.trace.name,
            self.position,
            self._crc if self.checkpoints is not None else self._prefix_stamp(self.position),
            self.drained_at,
            self._mark,
            self.hierarchy,
            self.core,
        )

    def adopt_state(self, state: EngineState) -> None:
        """Replace the engine's state with a restored snapshot.

        The snapshot must describe a prefix of this engine's trace and a
        drain history compatible with this engine's warmup split; both
        are validated, because adopting an incompatible state would
        *silently* produce wrong results.
        """
        if self.position != 0:
            raise RuntimeError("can only adopt a state into a fresh engine")
        if state.drained_at not in self._compatible_drains(state.records):
            raise ValueError(
                f"state drained at {state.drained_at} is incompatible with a "
                f"warmup split of {self.warmup_split}"
            )
        if state.records > self.total:
            raise ValueError(
                f"state consumed {state.records} records; trace has {self.total}"
            )
        if state.prefix_stamp != self._prefix_stamp(state.records):
            raise ValueError("state prefix stamp does not match this trace")
        self._adopt_validated(state)

    def _adopt_validated(self, state: EngineState) -> None:
        """Adopt *state* whose prefix stamp the caller already verified.

        :meth:`_try_resume` validates the stamp while filtering
        candidates; re-deriving it here would add a second full
        O(records) CRC pass to the very path resume exists to shorten.
        """
        if state.mark is None and (
            state.drained_at or state.records > self.warmup_split
        ):
            raise ValueError("post-warmup state carries no warmup mark")
        self.hierarchy, self.core = state.restore()
        # The restored hierarchy, not the one __init__ probed, is what
        # replays (it may even carry an L1 prefetcher this engine was not
        # built with) — pick the backend for it.
        self._pick_backend()
        self.position = state.records
        self.resumed_from = state.records
        self._crc = state.prefix_stamp
        if state.drained_at or (self.warmup_split == 0 and state.mark is not None):
            # Post-drain state (or a zero-warmup run's): the warmup mark
            # rides along; run() must not drain or re-mark.
            self._mark = state.mark
            self._drained = bool(state.drained_at)
        if self.telemetry_window:
            self._window_base = self._telemetry_snapshot()

    def _compatible_drains(self, records: int) -> tuple[tuple[int, ...], ...]:
        """Drain histories a state at *records* may carry for this run.

        Pre-split states are undrained; post-split states were drained
        exactly at this run's split.  A state *at* the split may be
        either — captured inside the replay loop (pre-drain) or after
        the warmup mark (post-drain); both resume exactly, because the
        adopter drains if and only if the state has not."""
        split = self.warmup_split
        if split <= 0 or records < split:
            return ((),)
        if records == split:
            return ((), (split,))
        return ((split,),)

    def _prefix_stamp(self, stop: int) -> int:
        return prefix_crc(self.trace.columns(), stop)

    def _try_resume(self) -> None:
        """Adopt the longest compatible stored checkpoint, if any.

        Listed entries are advisory: a concurrent writer sharing the
        store may evict a snapshot between ``entries()`` and ``load()``
        (the size-capped namespace evicts oldest-first), so a vanished
        or unreadable candidate is never fatal — the loop falls back to
        the next-longest compatible snapshot, and ultimately to a fresh
        run from record zero.
        """
        try:
            entries = sorted(self.checkpoints.entries(), reverse=True)
        except OSError:
            # The namespace directory itself raced with a concurrent
            # clear(); resume has nothing to offer, run fresh.
            return
        split = self.warmup_split
        for records, drained_at in entries:
            if records <= 0 or records > self.total:
                continue
            if drained_at not in self._compatible_drains(records):
                continue
            try:
                state = self.checkpoints.load(records, drained_at)
            except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
                state = None
            if state is None:
                continue
            if state.mark is None and (drained_at or records > split):
                continue
            if state.prefix_stamp != self._prefix_stamp(records):
                continue
            try:
                self._adopt_validated(state)
            except (ValueError, RuntimeError, pickle.UnpicklingError):
                continue
            return

    def _save_checkpoint(self) -> None:
        position = self.position
        if position == 0 or position == self.resumed_from:
            return
        drained_at = self.drained_at
        if self.checkpoints.has(position, drained_at):
            return
        self.checkpoints.save(
            EngineState.capture(
                self.trace.name,
                position,
                self._crc,
                drained_at,
                self._mark,
                self.hierarchy,
                self.core,
            )
        )

    # -- telemetry ---------------------------------------------------------

    def _telemetry_snapshot(self) -> dict:
        hierarchy = self.hierarchy
        llc, l2, dram = hierarchy.llc.stats, hierarchy.l2.stats, hierarchy.dram
        return {
            "instructions": self.core.instructions,
            "cycles": self.core.cycle,
            "llc_demand_hits": llc.demand_hits,
            "llc_load_misses": llc.load_misses,
            "useful": llc.useful_prefetches + l2.useful_prefetches,
            "useless": llc.useless_evictions,
            "dram_reads": dram.total_requests,
            "dram_demand_reads": dram.demand_requests,
            "dram_prefetch_reads": dram.prefetch_requests,
            "prefetches_issued": hierarchy.prefetches_issued,
            "late_prefetch_merges": hierarchy.late_prefetch_merges,
            "buckets": dram.bucket_cycles,
        }

    def _emit_row(self) -> None:
        rows = self.timeline.rows
        start_record = rows[-1].end_record if rows else self.resumed_from
        now = self._telemetry_snapshot()
        rows.append(
            _delta_row(
                len(rows),
                start_record,
                self.position,
                self.position <= self.warmup_split,
                self._window_base,
                now,
            )
        )
        self._window_base = now

    # -- replay ------------------------------------------------------------

    def _replay_to(self, target: int) -> None:
        """Advance replay to *target* records, honoring epoch boundaries.

        The per-chunk replay is the native compiled kernel
        (:func:`repro.sim._native.replay_span`, the default backend),
        the batched columnar kernel (:func:`repro.sim.batch.replay_span`),
        or the scalar hoisted-method loop over one ``islice`` view — the
        reference loop the other two are pinned to.  All three are
        bit-identical, and boundaries never touch simulation state, so
        chunked and unchunked replay agree by construction either way.
        """
        cols = self.trace.columns()
        window = self.telemetry_window
        every = self.checkpoint_every
        checkpointing = self.checkpoints is not None
        controlled = self.progress is not None or self.cancel is not None
        hierarchy, core = self.hierarchy, self.core
        batched = self._use_batched
        native = self._use_native
        while self.position < target:
            if self.cancel is not None and self.cancel():
                raise SimulationCancelled(self.position)
            start = self.position
            boundary = target
            if window:
                boundary = min(boundary, (start // window + 1) * window)
            if every:
                boundary = min(boundary, (start // every + 1) * every)
            elif boundary == target and not window and controlled:
                boundary = min(boundary, start + _CONTROL_CHUNK)

            if native:
                _native.replay_span(hierarchy, core, cols, start, boundary)
            elif batched:
                batch.replay_span(
                    hierarchy, core, cols, start, boundary,
                    stamp=self.trace.content_stamp,
                )
            else:
                advance = core.advance
                demand_access = hierarchy.demand_access
                issue_load = core.issue_load
                for record in islice(self.trace.records, start, boundary):
                    advance(record.gap)
                    issue_load(demand_access(record, int(core.cycle)))

            if checkpointing:
                self._crc = prefix_crc(cols, boundary, self._crc, start)
            self.position = boundary
            if window and (
                boundary % window == 0
                or boundary == self.total
                or boundary == self.warmup_split
            ):
                # Rows also break at the warmup split (and the final
                # partial window), so no row ever mixes warmup and
                # measured records — Timeline.measured() stays exact.
                self._emit_row()
            if checkpointing and every and boundary % every == 0:
                self._save_checkpoint()
            if self.progress is not None:
                self.progress(self.position, self.total)

    def run(self) -> SimulationResult:
        """Replay to the end of the trace and assemble the statistics.

        Resumable after :class:`SimulationCancelled`: calling ``run()``
        again continues from the interrupted position.
        """
        if self._finished:
            raise RuntimeError("engine already finished; build a new one to re-run")
        split = self.warmup_split
        with _gc_paused():
            if (
                self.checkpoints is not None
                and self.position == 0
                and not self.telemetry_window
            ):
                self._try_resume()
            if self._mark is None:
                self._replay_to(split)
                if split > 0:
                    self.core.drain()
                    self._drained = True
                self._mark = CounterMark.capture(self.hierarchy, self.core)
                if self.telemetry_window:
                    # The warmup drain's cycle jump is a boundary
                    # artifact, not part of any window: re-base so the
                    # first measured row starts clean.
                    self._window_base = self._telemetry_snapshot()
            self._replay_to(self.total)
            if self.checkpoints is not None:
                self._save_checkpoint()
            self.core.drain()
            self.hierarchy.flush_pending()
        self._finished = True
        return self._build_result()

    def _build_result(self) -> SimulationResult:
        mark = self._mark
        hierarchy, core = self.hierarchy, self.core
        llc_stats = _stats_delta(hierarchy.llc.stats, mark.llc)
        l2_stats = _stats_delta(hierarchy.l2.stats, mark.l2)
        dram = hierarchy.dram
        instructions = core.instructions - mark.instructions
        cycles = core.cycle - mark.cycles
        return SimulationResult(
            trace_name=self.trace.name,
            prefetcher_name=hierarchy.prefetcher.name,
            instructions=instructions,
            cycles=cycles,
            llc_load_misses=llc_stats.load_misses,
            llc_demand_hits=llc_stats.demand_hits,
            dram_reads=dram.total_requests - mark.dram[0],
            dram_demand_reads=dram.demand_requests - mark.dram[1],
            dram_prefetch_reads=dram.prefetch_requests - mark.dram[2],
            prefetches_issued=hierarchy.prefetches_issued - mark.prefetches[0],
            useful_prefetches=llc_stats.useful_prefetches + l2_stats.useful_prefetches,
            useless_prefetches=llc_stats.useless_evictions,
            late_prefetch_merges=hierarchy.late_prefetch_merges - mark.prefetches[1],
            stall_cycles=core.stall_cycles - mark.stalls,
            bw_bucket_fractions=dram.bucket_fractions(),
            per_core_ipc=[instructions / cycles if cycles > 0 else 0.0],
            timeline=self.timeline.to_payload() if self.telemetry_window else None,
        )


# --------------------------------------------------------------------------
# Multi-core lockstep engine
# --------------------------------------------------------------------------


class MultiCoreEngine:
    """Trace-driven multi-core lockstep replay (one trace per core).

    The lockstep loop advances whichever core is earliest in time; a
    core that exhausts its trace replays it from the beginning until
    every core has simulated its quota, as in the paper.  Telemetry
    windows are measured in lockstep *steps* (total records across
    cores); a row's ``warmup`` flag means "some core was still warming
    during these steps", and rows additionally break at the step where
    the last core finishes warmup so no row mixes the two regimes.
    Checkpoint/resume is not supported for multi-core runs —
    shared-LLC mixes have no meaningful prefix to extend.

    Two implementations of the loop exist, bit-identical in results and
    in every piece of state they leave behind (pinned by
    ``TestNativeLockstepEquivalence`` and ``TestNativeHookEquivalence``
    in ``tests/test_hotpath_equivalence.py``): the Python loop in
    :meth:`run`, which ``replay_backend="scalar"`` keeps as the
    reference, and the native kernel
    (:func:`repro.sim._native.replay_lockstep`), which replays the whole
    run in one C call — ``none`` and basic Pythia in C, every other
    prefetcher through its Python training hooks.  Every other backend
    value takes the native loop when the kernel loads and the run has no
    telemetry window and no progress or cancel callback; anything else
    runs the Python loop.  (The batched backend has no lockstep form.)
    A prefetcher exception or a
    :class:`repro.sim._native.NativeReplayError` raised inside the
    native loop propagates unchanged and leaves the engine unusable
    (the caches hold the kernel's partial writes).
    """

    def __init__(
        self,
        traces: list[Trace],
        config: SystemConfig,
        prefetcher_factory,
        warmup_fraction: float = 0.1,
        records_per_core: int | None = None,
        *,
        warmup_records: int | None = None,
        telemetry_window: int = 0,
        progress: Callable[[int, int], None] | None = None,
        cancel: Callable[[], bool] | None = None,
    ) -> None:
        if len(traces) != config.num_cores:
            raise ValueError("need exactly one trace per core")
        self.traces = traces
        self.config = config
        self.telemetry_window = telemetry_window
        self.progress = progress
        self.cancel = cancel

        self.dram = Dram(config.dram)
        shared_llc_geom = dataclasses.replace(
            config.llc, size_bytes=config.llc.size_bytes * config.num_cores
        )
        self.llc = Cache("LLC", shared_llc_geom)
        self.hierarchies = [
            CacheHierarchy(
                config, prefetcher_factory(), dram=self.dram, llc=self.llc, core_id=i
            )
            for i in range(config.num_cores)
        ]
        self.cores = [CoreModel(config.core) for _ in range(config.num_cores)]
        self.cursors = [0] * config.num_cores
        if warmup_records is not None:
            if warmup_records < 0:
                raise ValueError(f"warmup_records must be >= 0, got {warmup_records}")
            self.warm_remaining = [min(warmup_records, len(t)) for t in traces]
        else:
            self.warm_remaining = [int(len(t) * warmup_fraction) for t in traces]
        self._warming = any(w > 0 for w in self.warm_remaining)
        if records_per_core is None:
            records_per_core = min(
                len(t) - w for t, w in zip(traces, self.warm_remaining)
            )
        self.records_per_core = records_per_core
        self.measured = [0] * config.num_cores
        self.marks: list[CounterMark | None] = [None] * config.num_cores
        self.steps = 0
        self.timeline = Timeline(telemetry_window)
        self._window_base: dict | None = None
        if telemetry_window:
            self._window_base = self._telemetry_snapshot()
        self._use_native = (
            config.replay_backend != "scalar"
            and not telemetry_window
            and progress is None
            and cancel is None
            and all(_native.usable(h) for h in self.hierarchies)
        )

    def _step(self, core_idx: int) -> None:
        trace = self.traces[core_idx]
        record = trace[self.cursors[core_idx] % len(trace)]
        self.cursors[core_idx] += 1
        core = self.cores[core_idx]
        core.advance(record.gap)
        completion = self.hierarchies[core_idx].demand_access(record, int(core.cycle))
        core.issue_load(completion)
        if self.warm_remaining[core_idx] > 0:
            self.warm_remaining[core_idx] -= 1
            if self.warm_remaining[core_idx] == 0:
                self.marks[core_idx] = CounterMark.capture(
                    self.hierarchies[core_idx], core
                )
        else:
            if self.marks[core_idx] is None:
                self.marks[core_idx] = CounterMark.capture(
                    self.hierarchies[core_idx], core
                )
            self.measured[core_idx] += 1
        self.steps += 1

    # -- telemetry ---------------------------------------------------------

    def _telemetry_snapshot(self) -> dict:
        llc, dram = self.llc.stats, self.dram
        return {
            "instructions": sum(c.instructions for c in self.cores),
            "cycles": max(c.cycle for c in self.cores),
            "llc_demand_hits": llc.demand_hits,
            "llc_load_misses": llc.load_misses,
            "useful": llc.useful_prefetches,
            "useless": llc.useless_evictions,
            "dram_reads": dram.total_requests,
            "dram_demand_reads": dram.demand_requests,
            "dram_prefetch_reads": dram.prefetch_requests,
            "prefetches_issued": sum(h.prefetches_issued for h in self.hierarchies),
            "late_prefetch_merges": sum(
                h.late_prefetch_merges for h in self.hierarchies
            ),
            "buckets": dram.bucket_cycles,
        }

    def _emit_row(self, warmup: bool) -> None:
        rows = self.timeline.rows
        start_step = rows[-1].end_record if rows else 0
        now = self._telemetry_snapshot()
        rows.append(
            _delta_row(len(rows), start_step, self.steps, warmup, self._window_base, now)
        )
        self._window_base = now

    # -- run ---------------------------------------------------------------

    def run(self) -> SimulationResult:
        quota = self.records_per_core
        cores, measured, marks = self.cores, self.measured, self.marks
        window = self.telemetry_window
        controlled = window or self.progress is not None or self.cancel is not None
        native = self._use_native
        # Cores still short of their quota, in index order; a core leaves
        # once it reaches the quota, so the pick below never rebuilds it.
        # The native kernel replays the whole loop in one call instead.
        active = [] if native else [i for i in range(len(cores)) if measured[i] < quota]
        step = self._step
        with _gc_paused():
            if native:
                _native.replay_lockstep(self)
            while active:
                # The earliest core steps next; ties go to the lowest index.
                core_idx = active[0]
                earliest = cores[core_idx].cycle
                for i in active:
                    if cores[i].cycle < earliest:
                        core_idx = i
                        earliest = cores[i].cycle
                step(core_idx)
                if measured[core_idx] >= quota:
                    active.remove(core_idx)
                if controlled:
                    just_warmed = self._warming and None not in marks
                    if window and self.steps % window == 0:
                        # A row ending at the warmup transition is still
                        # all-warmup: the flag is cleared only after it.
                        self._emit_row(warmup=self._warming)
                    elif just_warmed and window:
                        # Every core just finished warmup mid-window:
                        # close the in-flight row here so no row mixes
                        # warmup and measured lockstep steps.
                        self._emit_row(warmup=True)
                    if just_warmed:
                        self._warming = False
                    if self.cancel is not None and self.cancel():
                        # Raising leaves the loop: one allocation per run.
                        raise SimulationCancelled(self.steps)  # repro: ignore[hotpath]
                    if self.progress is not None and self.steps % _CONTROL_CHUNK == 0:
                        self.progress(min(measured), quota)

            if window and self.steps % window != 0:
                self._emit_row(warmup=self._warming)
            for core, hierarchy in zip(cores, self.hierarchies):
                core.drain()
                hierarchy.flush_pending()
        return self._build_result()

    def _build_result(self) -> SimulationResult:
        instructions = 0
        cycles = 0.0
        stall = 0.0
        prefetches = 0
        late = 0
        per_core_ipc = []
        for core, hierarchy, mark in zip(self.cores, self.hierarchies, self.marks):
            assert mark is not None
            d_instr = core.instructions - mark.instructions
            d_cyc = core.cycle - mark.cycles
            instructions += d_instr
            cycles = max(cycles, d_cyc)
            stall += core.stall_cycles - mark.stalls
            prefetches += hierarchy.prefetches_issued - mark.prefetches[0]
            late += hierarchy.late_prefetch_merges - mark.prefetches[1]
            per_core_ipc.append(d_instr / d_cyc if d_cyc > 0 else 0.0)

        # Shared LLC and DRAM stats: subtract core 0's mark (every mark is
        # set by now, so this is the first core's, not the earliest one's).
        # The shared stats cannot be attributed per core exactly; when
        # another core finished warmup first, its measured steps before
        # core 0's mark are left out of these deltas.
        first_mark = next(m for m in self.marks if m is not None)
        llc_stats = _stats_delta(self.llc.stats, first_mark.llc)
        dram = self.dram
        return SimulationResult(
            trace_name="+".join(t.name for t in self.traces),
            prefetcher_name=self.hierarchies[0].prefetcher.name,
            instructions=instructions,
            cycles=cycles,
            llc_load_misses=llc_stats.load_misses,
            llc_demand_hits=llc_stats.demand_hits,
            dram_reads=dram.total_requests - first_mark.dram[0],
            dram_demand_reads=dram.demand_requests - first_mark.dram[1],
            dram_prefetch_reads=dram.prefetch_requests - first_mark.dram[2],
            prefetches_issued=prefetches,
            useful_prefetches=llc_stats.useful_prefetches,
            useless_prefetches=llc_stats.useless_evictions,
            late_prefetch_merges=late,
            stall_cycles=stall,
            bw_bucket_fractions=dram.bucket_fractions(),
            per_core_ipc=per_core_ipc,
            timeline=self.timeline.to_payload() if self.telemetry_window else None,
        )
