"""The Session facade: one front door for running experiments.

A :class:`Session` owns the three pluggable pieces of the execution
stack — a :class:`~repro.api.store.ResultStore` (durable, content-
addressed caching), an :class:`~repro.api.executors.Executor` (how
independent cells run), and per-session defaults (trace length, warmup)
— and exposes the workflows every caller needs:

* :meth:`Session.run` — expand a declarative
  :class:`~repro.api.experiment.Experiment` (single-core cells *and*
  multi-core mixes), simulate only the cells the store has never seen,
  and return a queryable :class:`~repro.api.resultset.ResultSet` with
  every record paired to its no-prefetching baseline.
* :meth:`Session.search` — declarative parameter searches
  (:mod:`repro.api.search`): grids of configuration points batched
  through the same executor/store path.
* :meth:`Session.run_one` / :meth:`Session.baseline` — single-cell
  conveniences used by the tuning loops.
* :meth:`Session.run_mix` — one multi-programmed mix, a thin wrapper
  over the declarative :class:`~repro.api.experiment.MixCell` path.

Everything is keyed by complete fingerprints, so two configs that differ
in *any* outcome-affecting field (L2 geometry, warmup fraction, Pythia
hyperparameters, ...) can never share a cache entry.

Concurrency contract: one :class:`Session` may be shared by any number
of threads (the ``repro.serve`` arc's request handlers).  Concurrent
:meth:`Session.run` / :meth:`Session.run_one` calls are **single-flight
deduplicated** — an in-flight registry keyed by cell fingerprint
guarantees that two simultaneous requests for the same cell simulate it
exactly once, with every caller receiving the one result (store
``puts`` stays 1).  The registry and every other piece of session-shared
mutable state (the executor auto-configuration) are guarded by the
session lock; the ``concurrency`` lint rule machine-checks that no
mutation of the registry escapes the lock.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.api.executors import Executor, SerialExecutor
from repro.api.experiment import (
    Cell,
    Experiment,
    MixCell,
    PrefetcherSpec,
    SystemSpec,
    WorkCell,
    _trace_name,
    checkpointable,
)
from repro.api.fingerprint import canonical
from repro.api.resultset import CellResult, ResultSet
from repro.api.store import ResultStore
from repro.sim.config import SystemConfig
from repro.sim.system import SimulationResult
from repro.sim.trace import Trace


def _telemetry_missing(cell: WorkCell, cached: SimulationResult) -> bool:
    """Whether a cached result lacks the telemetry the cell requests.

    Telemetry is non-semantic (same fingerprint with or without), so a
    hit may predate the request — or carry rows at a different window.
    Such hits are re-simulated; the simulation is bit-identical, only
    the observation changes.
    """
    window = getattr(cell, "telemetry_window", 0)
    if not window:
        return False
    return cached.timeline is None or cached.timeline.get("window") != window


class _InflightCell:
    """Single-flight registry entry: one simulation other callers await.

    The owning thread simulates, stores the result here, and sets
    ``done``; waiters block on the event and adopt ``result``.  A
    ``None`` result after ``done`` means the owner failed (its exception
    propagates in *its* thread) — waiters retry rather than inheriting
    an error they did not cause.
    """

    __slots__ = ("done", "result")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: SimulationResult | None = None


class Session:
    """Facade tying together store, executor, and experiment expansion.

    Args:
        store: result cache; defaults to the persistent per-user store
            (:meth:`ResultStore.default`).  Pass ``ResultStore()`` for a
            memory-only session.
        executor: cell execution backend; defaults to
            :class:`SerialExecutor`.
        trace_length: default accesses per generated trace.
        warmup_fraction: default leading fraction excluded from stats.
        checkpoint_every: checkpoint cadence in records; > 0 makes every
            single-core cell run resumable: mid-run
            :class:`~repro.sim.engine.EngineState` snapshots land in the
            store's checkpoint namespace (keyed by the cell's
            prefix fingerprint and records consumed), and a later run of
            the same cell at a longer ``trace_length`` resumes from the
            longest compatible snapshot instead of re-simulating from
            record zero.  With a persistent store and a
            :class:`~repro.api.executors.ProcessPoolExecutor`, the store
            path is shipped to the pool's workers so checkpointed cells
            fan out too; under a :class:`SerialExecutor` they execute
            in-session as before.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        executor: Executor | None = None,
        trace_length: int = 20_000,
        warmup_fraction: float = 0.2,
        checkpoint_every: int = 0,
    ) -> None:
        self.store = store if store is not None else ResultStore.default()
        self.executor: Executor = executor if executor is not None else SerialExecutor()
        self.trace_length = trace_length
        self.warmup_fraction = warmup_fraction
        self.checkpoint_every = checkpoint_every
        #: Guards every piece of session-shared mutable state below —
        #: the single-flight registry and the one-shot executor
        #: auto-configuration.  The ``concurrency`` lint rule enforces
        #: that ``_inflight`` is only ever mutated under this lock.
        self._lock = threading.RLock()
        #: Cell fingerprint → in-flight simulation other threads join
        #: instead of re-simulating (single-flight deduplication).
        self._inflight: dict[str, _InflightCell] = {}

    # ---- building blocks -------------------------------------------------

    def experiment(self, name: str = "experiment") -> Experiment:
        """A fresh :class:`Experiment` seeded with this session's defaults."""
        return Experiment(
            name=name,
            trace_length=self.trace_length,
            warmup_fraction=self.warmup_fraction,
        )

    def trace(self, name: str, length: int | None = None) -> Trace:
        """Cached trace instantiation at the session (or given) length."""
        from repro import registry

        length = length if length is not None else self.trace_length
        return registry.cached_trace(name, length)

    def search(self, name: str = "search"):
        """A fresh declarative :class:`~repro.api.search.GridSearch`
        bound to this session (see :mod:`repro.api.search`)."""
        from repro.api.search import GridSearch

        return GridSearch(name=name, session=self)

    # ---- single-flight deduplication ------------------------------------

    def _claim(self, key: str) -> tuple[_InflightCell, bool]:
        """Join or open the in-flight entry for *key*.

        Returns ``(entry, owner)``: the owner registered a fresh entry
        and must simulate (then :meth:`_resolve`); a non-owner waits on
        the existing entry instead of duplicating the simulation.
        """
        with self._lock:
            flight = self._inflight.get(key)
            if flight is not None:
                return flight, False
            flight = _InflightCell()
            self._inflight[key] = flight
            return flight, True

    def _resolve(
        self, key: str, flight: _InflightCell, result: SimulationResult | None
    ) -> None:
        """Publish the owner's outcome and release the claim on *key*."""
        with self._lock:
            self._inflight.pop(key, None)
        flight.result = result
        flight.done.set()

    def _execute_cell(self, cell: WorkCell) -> SimulationResult:
        """Simulate one cell in-session, checkpoint-aware."""
        if self._checkpointable(cell):
            return cell.execute(
                checkpoints=self.store.checkpoints(cell.prefix_fingerprint()),
                checkpoint_every=self.checkpoint_every,
            )
        return cell.execute()

    def _fetch_or_simulate(
        self,
        key: str,
        cell: WorkCell,
        simulate: Callable[[], SimulationResult],
    ) -> SimulationResult:
        """Store hit, joined in-flight simulation, or owned simulation.

        The claim is taken *before* the store lookup: an owner that
        claims and then hits the store resolves instantly, while the
        claim-first ordering closes the race where another thread's
        simulation completes (store put, registry removal) between our
        miss and our claim — whoever claims after a resolve always
        re-reads the store and sees the put.  Waiters whose owner
        failed, or whose result lacks the telemetry this cell needs,
        loop and try again rather than erroring.
        """
        while True:
            flight, owner = self._claim(key)
            if not owner:
                flight.done.wait()
                result = flight.result
                if result is not None and not _telemetry_missing(cell, result):
                    return result
                continue
            try:
                cached = self.store.get(key)
                if cached is not None and not _telemetry_missing(cell, cached):
                    self._resolve(key, flight, cached)
                    return cached
                result = simulate()
                self.store.put(key, result, meta=canonical(cell))
            except BaseException:
                self._resolve(key, flight, None)
                raise
            self._resolve(key, flight, result)
            return result

    # ---- experiment execution -------------------------------------------

    def run(self, experiment: Experiment) -> ResultSet:
        """Run an experiment: cached cells come from the store, missing
        cells go through the executor (in parallel when it is one), and
        every record is paired with its same-fingerprint-scheme baseline.

        Safe to call from multiple threads on one session: every cell is
        single-flight deduplicated, so overlapping concurrent runs
        simulate each distinct fingerprint once and share the result.
        """
        cells = experiment.cells()
        keyed = [
            (cell, cell.fingerprint(), cell.baseline_cell()) for cell in cells
        ]

        # Work list: requested cells plus each cell's baseline, deduped
        # by fingerprint (a "none" cell is its own baseline).  When a
        # telemetry-less baseline collides with an explicitly requested
        # "none" cell carrying a window, keep the windowed one — the
        # explicit record must get its rows, and serving the baseline
        # pairing from the same (row-carrying) result is harmless.
        work: dict[str, WorkCell] = {}
        baseline_keys: dict[str, str] = {}  # cell key -> its baseline's key

        def register(key: str, cell: WorkCell) -> None:
            existing = work.get(key)
            if existing is None or (
                existing.telemetry_window == 0 and cell.telemetry_window > 0
            ):
                work[key] = cell

        for cell, key, baseline in keyed:
            register(key, cell)
            baseline_key = key if cell.is_baseline else baseline.fingerprint()
            baseline_keys[key] = baseline_key
            register(baseline_key, baseline)

        # Checkpointed cells run in-session unless the executor's
        # workers can open the store themselves (a process pool
        # configured with the persistent store's path — auto-filled
        # below); then they fan out with everything else and resume
        # from / snapshot into the shared checkpoint namespace.  The
        # one-shot auto-configuration mutates the (session-shared)
        # executor, so it runs under the session lock.
        executor = self.executor
        with self._lock:
            if (
                self.checkpoint_every > 0
                and self.store.persistent
                and getattr(executor, "store_path", False) is None
            ):
                executor.store_path = self.store.path
                executor.checkpoint_every = self.checkpoint_every
            pool_resumes = getattr(executor, "resumes_checkpoints", False)

        # Partition the work: store hits resolve immediately; claimed
        # misses ("owned") are ours to simulate; cells already in
        # flight on another thread ("joined") are awaited at the end,
        # *after* our own simulations, so concurrent overlapping runs
        # can never deadlock on each other.
        results: dict[str, SimulationResult] = {}
        owned: list[tuple[str, WorkCell, _InflightCell]] = []
        joined: list[tuple[str, WorkCell, _InflightCell]] = []
        for key, cell in work.items():
            flight, is_owner = self._claim(key)
            if not is_owner:
                joined.append((key, cell, flight))
                continue
            cached = self.store.get(key)
            if cached is not None and not _telemetry_missing(cell, cached):
                self._resolve(key, flight, cached)
                results[key] = cached
            else:
                owned.append((key, cell, flight))

        try:
            pooled: list[tuple[str, WorkCell, _InflightCell]] = []
            for key, cell, flight in owned:
                if self._checkpointable(cell) and not pool_resumes:
                    result = self._execute_cell(cell)
                    self.store.put(key, result, meta=canonical(cell))
                    self._resolve(key, flight, result)
                    results[key] = result
                else:
                    pooled.append((key, cell, flight))
            if pooled:
                outputs = executor.run_cells([cell for _, cell, _ in pooled])
                for (key, cell, flight), output in zip(pooled, outputs):
                    self.store.put(key, output, meta=canonical(cell))
                    self._resolve(key, flight, output)
                    results[key] = output
        except BaseException:
            # Release every claim this run still holds so concurrent
            # callers waiting on our cells retry instead of hanging.
            for key, _, flight in owned:
                if not flight.done.is_set():
                    self._resolve(key, flight, None)
            raise

        for key, cell, flight in joined:
            flight.done.wait()
            result = flight.result
            if result is None or _telemetry_missing(cell, result):
                # The other thread's owner failed or produced a result
                # without our telemetry rows: fetch-or-simulate ourselves.
                result = self._fetch_or_simulate(
                    key, cell, lambda cell=cell: self._execute_cell(cell)
                )
            results[key] = result

        records = [
            cell.record(results[key], results[baseline_keys[key]])
            for cell, key, _ in keyed
        ]
        return ResultSet(
            records,
            stats={
                "cells": len(work),
                "simulated": len(owned),
                "cached": len(work) - len(owned),
            },
        )

    def run_one(
        self,
        trace: str,
        prefetcher,
        system=None,
        l1_prefetcher=None,
        trace_length: int | None = None,
        warmup_fraction: float | None = None,
        warmup_records: int | None = None,
        telemetry_window: int = 0,
    ) -> CellResult:
        """Run a single (trace, prefetcher, system) cell.

        Accepts the same flexible specs as the experiment builder;
        *system* defaults to the paper's single-core baseline.
        *warmup_records* pins the warmup split in absolute records
        (checkpoint-extension friendly); *telemetry_window* attaches the
        per-window timeline to the returned record.
        """
        cell = Cell(
            trace=trace,
            prefetcher=PrefetcherSpec.of(prefetcher),
            system=SystemSpec.of(system if system is not None else "1c"),
            trace_length=trace_length if trace_length is not None else self.trace_length,
            warmup_fraction=(
                warmup_fraction if warmup_fraction is not None else self.warmup_fraction
            ),
            l1_prefetcher=(
                PrefetcherSpec.of(l1_prefetcher) if l1_prefetcher is not None else None
            ),
            warmup_records=warmup_records,
            telemetry_window=telemetry_window,
        )
        result = self._run_cell(cell)
        baseline = (
            result if cell.is_baseline else self._run_cell(cell.baseline_cell())
        )
        return cell.record(result, baseline)

    def baseline(
        self,
        trace: str,
        system=None,
        trace_length: int | None = None,
        warmup_fraction: float | None = None,
    ) -> SimulationResult:
        """The cached no-prefetching run of *trace* on *system*.

        Keyed by the complete cell fingerprint — trace length, warmup
        fraction, and the full system config (including L1/L2 geometry)
        all participate, so configs differing in any of them get
        distinct baselines.
        """
        return self.run_one(
            trace,
            "none",
            system=system,
            trace_length=trace_length,
            warmup_fraction=warmup_fraction,
        ).result

    def _checkpointable(self, cell: WorkCell) -> bool:
        """Whether this cell's execution should checkpoint/resume:
        session checkpointing is on and the cell's shape allows it
        (:func:`repro.api.experiment.checkpointable`)."""
        return self.checkpoint_every > 0 and checkpointable(cell)

    def _run_cell(self, cell: WorkCell) -> SimulationResult:
        """Fetch-or-simulate one cell without executor overhead.

        Resume-aware: with session checkpointing on, a store miss first
        looks for the longest compatible checkpoint under the cell's
        prefix fingerprint and simulates only the remaining records.  A
        cached result recorded without the telemetry the cell now
        requests is re-simulated (bit-identically) to obtain the rows.
        Single-flight: a concurrent run of the same cell (from this or
        any other thread sharing the session) joins the in-flight
        simulation instead of duplicating it.
        """
        key = cell.fingerprint()
        return self._fetch_or_simulate(
            key, cell, lambda: self._execute_cell(cell)
        )

    # ---- multi-core mixes -------------------------------------------------

    def mix_cell(
        self,
        traces: Sequence[Trace | str],
        prefetcher,
        system: SystemConfig | str | None = None,
        records_per_core: int | None = None,
        name: str | None = None,
    ) -> MixCell:
        """Build the declarative :class:`MixCell` for one mix.

        Traces may be names or materialized :class:`Trace` objects; only
        their registry-addressable names (and, for materialized traces,
        their common length) are kept, so the cell stays pure data.
        """
        names = tuple(_trace_name(t) for t in traces)
        lengths = {len(t) for t in traces if isinstance(t, Trace)}
        if len(lengths) > 1:
            raise ValueError(f"mix traces must share one length, got {sorted(lengths)}")
        return MixCell(
            name=name if name is not None else "+".join(names),
            traces=names,
            prefetcher=PrefetcherSpec.of(prefetcher),
            system=SystemSpec.of(system if system is not None else f"{len(names)}c"),
            trace_length=lengths.pop() if lengths else self.trace_length,
            warmup_fraction=self.warmup_fraction,
            records_per_core=records_per_core,
        )

    def run_mix(
        self,
        traces: Sequence[Trace | str],
        prefetcher,
        system: SystemConfig | str | None = None,
        records_per_core: int | None = None,
    ) -> tuple[SimulationResult, SimulationResult]:
        """Run one multi-programmed mix; returns (result, baseline).

        Thin convenience over the declarative cell path: builds a
        :class:`MixCell` and fetch-or-simulates it (plus its baseline)
        against the store.  Mix *sweeps* should go through
        :meth:`Experiment.with_mixes` + :meth:`run` instead, which
        batches independent mixes through the executor and returns a
        queryable :class:`ResultSet`.
        """
        cell = self.mix_cell(
            traces, prefetcher, system, records_per_core=records_per_core
        )
        result = self._run_cell(cell)
        baseline = (
            result if cell.is_baseline else self._run_cell(cell.baseline_cell())
        )
        return result, baseline
