"""Top-level simulation entry points: single-core and multi-core lockstep.

Thin wrappers over the windowed :mod:`repro.sim.engine`.  `simulate`
replays one trace through one core + hierarchy; `simulate_multi` replays
one trace per core against a shared LLC and shared DRAM, advancing
whichever core is earliest in time — the trace-driven analogue of cycle
lockstep.  As in the paper, a core that exhausts its trace before the
others replays it from the beginning until every core has simulated its
quota.

Both loops support a warmup prefix (the paper warms 100 M of 600 M
instructions): warmup records train the caches and prefetcher but are
excluded from every reported statistic.  The engine adds — all off by
default — per-window telemetry (:class:`repro.sim.engine.Timeline`),
checkpoint/resume against a store namespace, and progress/cancellation
hooks.  Their boundaries only read counters, so results are
bit-identical with every option on or off; each boundary does cost one
more replay span (a native span's state round trip is under a
millisecond, see :mod:`repro.sim.engine`).
"""

from __future__ import annotations

from typing import Callable

from repro.prefetchers.base import Prefetcher
from repro.sim.config import SystemConfig
from repro.sim.engine import MultiCoreEngine, SimulationEngine, SimulationResult
from repro.sim.trace import Trace


def simulate(
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
) -> SimulationResult:
    """Run one trace on a single-core system; returns measured statistics.

    Args:
        trace: the memory-access trace to replay.
        config: system description (defaults to the paper's 1C baseline).
        prefetcher: L2-level prefetcher (defaults to no prefetching).
        warmup_fraction: leading fraction of the trace used for warmup.
        l1_prefetcher: optional L1 prefetcher (multi-level experiments).
        warmup_records: absolute warmup length in records, overriding
            *warmup_fraction* (keeps the warmup split fixed as the trace
            grows, which makes checkpoints extension-compatible).
        telemetry_window: records per telemetry window; > 0 attaches the
            per-window :attr:`SimulationResult.timeline` payload.
        checkpoints: checkpoint namespace to resume from / save into
            (see :meth:`repro.api.store.ResultStore.checkpoints`).
        checkpoint_every: checkpoint cadence in records (0 = end-of-run
            checkpoint only, when *checkpoints* is given).
        progress: ``callback(records_done, records_total)``.
        cancel: callable polled at epoch boundaries; truthy aborts with
            :class:`~repro.sim.engine.SimulationCancelled`.
    """
    return SimulationEngine(
        trace,
        config,
        prefetcher,
        warmup_fraction,
        l1_prefetcher,
        warmup_records=warmup_records,
        telemetry_window=telemetry_window,
        checkpoints=checkpoints,
        checkpoint_every=checkpoint_every,
        progress=progress,
        cancel=cancel,
    ).run()


def simulate_multi(
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
) -> SimulationResult:
    """Run one trace per core against a shared LLC and DRAM.

    Args:
        traces: one trace per core (``len(traces) == config.num_cores``).
        config: multi-core system description.
        prefetcher_factory: zero-argument callable creating one private
            prefetcher instance per core (prefetchers are per-core
            hardware; state is not shared).
        warmup_fraction: leading fraction of each trace used for warmup.
        records_per_core: measured records each core must complete;
            defaults to the shortest trace's post-warmup length.  Cores
            replay their traces when exhausted, as in the paper.
        warmup_records: absolute per-core warmup length in records,
            overriding *warmup_fraction*.
        telemetry_window: lockstep steps per telemetry window (0 = off).
        progress: ``callback(min_measured, records_per_core)``.
        cancel: callable polled per step when given; truthy aborts.
    """
    return MultiCoreEngine(
        traces,
        config,
        prefetcher_factory,
        warmup_fraction,
        records_per_core,
        warmup_records=warmup_records,
        telemetry_window=telemetry_window,
        progress=progress,
        cancel=cancel,
    ).run()
