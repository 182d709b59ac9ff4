"""System configuration mirroring Table 5 of the paper.

The defaults model the paper's Intel Skylake-like baseline: a 4-wide
out-of-order core with a 256-entry ROB, 32 KB L1D / 256 KB L2 / 2 MB-per-core
LLC, and a DDR4-2400-like DRAM channel.  Every evaluation knob the paper
sweeps (core count, DRAM MTPS, LLC size, prefetch level) is a field here so
the harness can express each figure as a config delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.types import LINE_SIZE


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry and latency of one cache level.

    Attributes:
        size_bytes: total capacity.
        ways: associativity.
        latency: round-trip hit latency in core cycles.
        mshrs: number of outstanding misses the level supports.
        replacement: replacement policy name, ``"lru"`` or ``"ship"``.
    """

    size_bytes: int
    ways: int
    latency: int
    mshrs: int
    replacement: str = "lru"

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size, associativity and line size."""
        return self.size_bytes // (self.ways * LINE_SIZE)


@dataclass(frozen=True)
class CoreConfig:
    """Simplified out-of-order core parameters (Table 5, "Core" row)."""

    width: int = 4
    rob_size: int = 256
    #: Average number of non-memory instructions carried by one trace record.
    #: Used only when a trace record does not carry its own gap.
    default_instr_gap: int = 4


@dataclass(frozen=True)
class DramConfig:
    """Main-memory model parameters (Table 5, "Main Memory" row).

    The paper's bandwidth sweeps are expressed in MTPS (million transfers
    per second); with a 64-bit data bus one cacheline transfer moves 64 B
    in 8 bus transfers.  We convert MTPS into *core cycles per cacheline
    transfer* assuming a 4 GHz core, which preserves the paper's relative
    bandwidth scaling exactly.
    """

    channels: int = 1
    banks_per_channel: int = 8
    #: Million transfers per second on the data bus (DDR4-2400 => 2400).
    mtps: int = 2400
    #: Core clock in MHz used to translate MTPS into cycles.
    core_mhz: int = 4000
    #: Row-buffer hit / miss access latencies in core cycles (tCAS vs
    #: tRP+tRCD+tCAS at 4 GHz: 12.5 ns ~ 50 cycles, 42.5 ns ~ 170 cycles).
    row_hit_latency: int = 45
    row_miss_latency: int = 140
    #: Row-buffer capacity in cachelines (2 KB row / 64 B line).
    row_size_lines: int = 32
    #: Length of the sliding window (in core cycles) over which bandwidth
    #: utilization is measured for system feedback.
    utilization_window: int = 2048

    @property
    def cycles_per_transfer(self) -> float:
        """Core cycles the data bus is busy moving one cacheline.

        One cacheline = 8 bus transfers of 8 bytes; the bus performs
        ``mtps`` million transfers per second against a ``core_mhz`` MHz
        core clock.
        """
        transfers_per_line = LINE_SIZE // 8
        return transfers_per_line * self.core_mhz / self.mtps


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated-system description (Table 5)."""

    num_cores: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32 * 1024, 8, 4, 16)
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(256 * 1024, 8, 14, 32)
    )
    #: Per-core LLC slice; total shared LLC is ``llc.size_bytes * num_cores``.
    llc: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(2 * 1024 * 1024, 16, 34, 64, "ship")
    )
    dram: DramConfig = field(default_factory=DramConfig)
    #: Maximum prefetch requests issued per demand access (prefetch degree
    #: cap shared by all prefetchers for fairness).
    max_prefetch_degree: int = 8
    #: Bandwidth-utilization fraction above which the system reports "high
    #: bandwidth usage" to prefetchers (Pythia's system-level feedback).
    high_bw_threshold: float = 0.5
    #: Replay-loop implementation: ``"native"`` (the default: the
    #: compiled C kernel, :mod:`repro.sim._native`, which runs every
    #: prefetcher — ``none`` and basic Pythia in C, the rest through
    #: Python training hooks — on every span, over the caches' own slot
    #: buffers; falls back to batched without a C compiler),
    #: ``"batched"`` (columnar epoch kernel,
    #: :mod:`repro.sim.batch`; falls back to scalar for L1 prefetchers)
    #: or ``"scalar"`` (the reference per-record loop).  Multi-core
    #: mixes have only two lockstep loops: ``"scalar"`` runs the Python
    #: one, and every other value the native one when it can apply (see
    #: :class:`repro.sim.engine.MultiCoreEngine`).  All of them are
    #: bit-identical (pinned by ``tests/test_hotpath_equivalence.py``),
    #: so the toggle is excluded from result fingerprints: it is purely
    #: a speed knob.
    replay_backend: str = field(default="native", metadata={"semantic": False})

    def __post_init__(self) -> None:
        if self.replay_backend not in ("native", "batched", "scalar"):
            raise ValueError(
                f"unknown replay_backend {self.replay_backend!r}; "
                "use native|batched|scalar"
            )

    def scaled_llc(self, factor: float) -> "SystemConfig":
        """Return a copy with the LLC capacity scaled by *factor* (Fig 8c)."""
        new_llc = replace(self.llc, size_bytes=int(self.llc.size_bytes * factor))
        return replace(self, llc=new_llc)

    def with_mtps(self, mtps: int) -> "SystemConfig":
        """Return a copy with the DRAM transfer rate set to *mtps* (Fig 8b)."""
        return replace(self, dram=replace(self.dram, mtps=mtps))


def baseline_single_core() -> SystemConfig:
    """The paper's single-core baseline: one DDR4-2400 channel."""
    return SystemConfig(num_cores=1)


def baseline_multi_core(num_cores: int) -> SystemConfig:
    """Multi-core baselines following the paper's channel scaling.

    The paper simulates 1-2 core systems with one channel, 4-6 cores with
    two channels and 8-12 cores with four channels.
    """
    if num_cores <= 2:
        channels = 1
    elif num_cores <= 6:
        channels = 2
    else:
        channels = 4
    cfg = SystemConfig(num_cores=num_cores)
    return replace(cfg, dram=replace(cfg.dram, channels=channels))
