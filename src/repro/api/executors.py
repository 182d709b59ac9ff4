"""Pluggable executors: how a batch of independent cells gets simulated.

The :class:`Executor` protocol is a single method — ``run_cells`` — so
alternative backends (thread pools for a future C substrate, remote
fleets, batch schedulers) plug in without touching the session logic.
Two backends ship today:

* :class:`SerialExecutor` — in-process loop; zero overhead, fully
  deterministic, the default.
* :class:`ProcessPoolExecutor` — fans independent cells out across
  cores.  Cells are pure declarative data (see
  :class:`repro.api.experiment.Cell`) and trace generation is
  stable-seeded, so worker processes reproduce exactly what the serial
  path computes.

Concurrency contract: ``run_cells`` is safe to call concurrently from
multiple threads on one executor instance — each call builds (and tears
down) its own worker pool and touches no executor state beyond reading
the configuration attributes.  Those attributes (``store_path``,
``checkpoint_every``) are written exactly once, by
:class:`~repro.api.session.Session`'s auto-configuration under the
session lock, before any concurrent ``run_cells`` can observe them.
Worker-side state (:data:`_WORKER_STORE`) is per-process by
construction: each pool worker initializes its own interpreter's copy
in ``_init_worker`` before any task runs, and
:class:`~repro.api.store.ResultStore` is itself safe for the many
workers sharing one directory.
"""

from __future__ import annotations

import os
from concurrent import futures
from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.api.experiment import WorkCell, checkpointable
from repro.sim.system import SimulationResult

#: Worker-global checkpoint plumbing, set up by :func:`_init_worker` when
#: the parent ships a persistent store path.  ``None``/``0`` in the
#: parent process and in pools without checkpointing, so
#: :func:`execute_cell` behaves exactly as before there.
_WORKER_STORE = None
_WORKER_CHECKPOINT_EVERY = 0


def execute_cell(cell: WorkCell) -> SimulationResult:
    """Simulate one work unit (single-core cell or multi-core mix).

    Module-level (picklable) so process pools can ship it to workers;
    dispatches to the cell's own :meth:`execute`.  In a worker whose
    pool was configured with the persistent store path, checkpointable
    cells open that store and resume from / write into its checkpoint
    namespace, just as the serial in-session path does.
    """
    store = _WORKER_STORE
    if store is not None and _WORKER_CHECKPOINT_EVERY > 0 and checkpointable(cell):
        # Checkpoint adoption tolerates concurrent eviction: a snapshot
        # listed by the namespace may vanish before load() (another
        # worker's size-cap eviction), and the engine then falls back
        # to the next-longest compatible snapshot or a fresh run.
        return cell.execute(
            checkpoints=store.checkpoints(cell.prefix_fingerprint()),
            checkpoint_every=_WORKER_CHECKPOINT_EVERY,
        )
    return cell.execute()


def _init_worker(
    extra_prefetchers: dict,
    trace_files: dict | None = None,
    store_path: str | None = None,
    checkpoint_every: int = 0,
) -> None:
    """Replicate the parent's runtime registry registrations.

    Spawn/forkserver workers import a fresh :mod:`repro.registry` whose
    ``register_prefetcher`` / ``register_trace_file`` tables are empty;
    without this, cells naming a runtime-registered prefetcher or a
    ``file/<alias>`` trace would fail in the worker.  (System specs need
    no replication — cells embed the resolved config.)

    When *store_path* is given, the worker also opens the parent's
    persistent :class:`~repro.api.store.ResultStore` so checkpointable
    cells resume mid-trace instead of replaying from record zero —
    checkpoint files are content-addressed and written atomically, so
    concurrent workers sharing the directory are safe.
    """
    from repro import registry

    # Safe: each spawned worker mutates only its *own* fresh interpreter's
    # registry tables — that replication is this initializer's entire job.
    registry._EXTRA_PREFETCHERS.update(extra_prefetchers)  # repro: ignore[concurrency]
    if trace_files:
        registry._TRACE_FILES.update(trace_files)  # repro: ignore[concurrency]
    if store_path is not None:
        from repro.api.store import ResultStore

        global _WORKER_STORE, _WORKER_CHECKPOINT_EVERY
        # Safe: worker-local by design — one store handle per worker
        # process, set once at pool start before any task runs.
        _WORKER_STORE = ResultStore(path=store_path)  # repro: ignore[concurrency]
        _WORKER_CHECKPOINT_EVERY = checkpoint_every  # repro: ignore[concurrency]


@runtime_checkable
class Executor(Protocol):
    """Anything that can turn cells into results, in order."""

    def run_cells(self, cells: Sequence[WorkCell]) -> list[SimulationResult]:
        """Simulate every cell, returning results in input order."""
        ...


class SerialExecutor:
    """Run cells one after another in the calling process."""

    name = "serial"

    def run_cells(self, cells: Sequence[WorkCell]) -> list[SimulationResult]:
        return [execute_cell(cell) for cell in cells]


class ProcessPoolExecutor:
    """Fan cells out over a pool of worker processes.

    Args:
        max_workers: pool size (default: ``os.cpu_count()``, capped at
            the number of cells per batch).
        start_method: multiprocessing start method; the platform default
            (``fork`` on Linux) is used when ``None``.
        store_path: path of a persistent
            :class:`~repro.api.store.ResultStore` for workers to open;
            with *checkpoint_every* > 0, checkpointable cells resume
            from and snapshot into its checkpoint namespace.
            :class:`~repro.api.session.Session` fills these in from its
            own store when checkpointing is on, so they rarely need to
            be set by hand.
        checkpoint_every: checkpoint cadence in records (0 = off).
    """

    name = "process-pool"

    def __init__(
        self,
        max_workers: int | None = None,
        start_method: str | None = None,
        store_path: str | os.PathLike | None = None,
        checkpoint_every: int = 0,
    ):
        self.max_workers = max_workers
        self.start_method = start_method
        self.store_path = store_path
        self.checkpoint_every = checkpoint_every

    @property
    def resumes_checkpoints(self) -> bool:
        """Whether this pool's workers adopt/extend store checkpoints."""
        return self.store_path is not None and self.checkpoint_every > 0

    def _run_serial(self, cells: Sequence[WorkCell]) -> list[SimulationResult]:
        """Degenerate-pool fallback that keeps checkpoint semantics."""
        if not self.resumes_checkpoints:
            return SerialExecutor().run_cells(cells)
        from repro.api.store import ResultStore

        store = ResultStore(path=self.store_path)
        results = []
        for cell in cells:
            if checkpointable(cell):
                results.append(
                    cell.execute(
                        checkpoints=store.checkpoints(cell.prefix_fingerprint()),
                        checkpoint_every=self.checkpoint_every,
                    )
                )
            else:
                results.append(cell.execute())
        return results

    def run_cells(self, cells: Sequence[WorkCell]) -> list[SimulationResult]:
        if not cells:
            return []
        workers = min(self.max_workers or os.cpu_count() or 1, len(cells))
        if workers <= 1:
            return self._run_serial(cells)
        mp_context = None
        if self.start_method is not None:
            import multiprocessing

            mp_context = multiprocessing.get_context(self.start_method)
        from repro import registry

        chunksize = max(1, len(cells) // (workers * 4))
        store_path = (
            os.fspath(self.store_path) if self.store_path is not None else None
        )
        with futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=(
                dict(registry._EXTRA_PREFETCHERS),
                dict(registry._TRACE_FILES),
                store_path,
                self.checkpoint_every,
            ),
        ) as pool:
            return list(pool.map(execute_cell, cells, chunksize=chunksize))


def default_executor(parallel: bool | int = False) -> Executor:
    """Convenience selector: ``False``/``0``/``1`` → serial, ``True`` →
    pool at cpu count, ``N > 1`` → pool with N workers."""
    if parallel is True:
        return ProcessPoolExecutor()
    if parallel is False or int(parallel) <= 1:
        return SerialExecutor()
    return ProcessPoolExecutor(max_workers=int(parallel))
