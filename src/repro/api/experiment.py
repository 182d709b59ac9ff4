"""Declarative experiment descriptions: traces × prefetchers × systems.

An :class:`Experiment` is an immutable value object describing a sweep;
nothing runs until :meth:`repro.api.Session.run` expands it into
:class:`Cell` / :class:`MixCell` work units.  Builder methods return new
instances, so sweeps compose::

    ex = (Experiment.define("fig8b")
          .with_suites("SPEC06")
          .with_prefetchers("spp", "bingo", "mlop", "pythia")
          .sweep_mtps([600, 1200, 2400, 4800]))

Every axis is string-addressable through :mod:`repro.registry`:
prefetchers by registry name (with optional overrides), systems by name
plus ``@key=value`` modifiers, traces by workload/trace name.

Multi-programmed multi-core mixes are a fourth axis
(:meth:`Experiment.with_mixes`): each mix names one trace per core and
expands — crossed with the prefetcher axis — into :class:`MixCell` work
units that ride the same executor/store machinery as single-core cells.
Both cell kinds share the polymorphic work-unit contract the session and
executors rely on: ``fingerprint()``, ``baseline_cell()``,
``is_baseline``, ``execute()``, and ``record()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

from repro.api.fingerprint import canonical, fingerprint
from repro.sim.config import SystemConfig, baseline_single_core

@dataclass(frozen=True)
class PrefetcherSpec:
    """Declarative prefetcher: registry name plus factory overrides.

    Attributes:
        name: :mod:`repro.registry` prefetcher name.
        overrides: sorted ``(key, value)`` pairs forwarded to the
            factory (kept as a tuple so specs stay hashable).
        label: display label for rollups; defaults to *name*, with the
            override keys appended when overrides are present.
    """

    name: str
    overrides: tuple[tuple[str, Any], ...] = ()
    label: str | None = None

    @staticmethod
    def of(spec: "PrefetcherSpec | str | tuple") -> "PrefetcherSpec":
        """Coerce a name, ``(name, overrides_dict)`` pair, or spec."""
        if isinstance(spec, PrefetcherSpec):
            return spec
        if isinstance(spec, str):
            return PrefetcherSpec(spec)
        if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[1], dict):
            name, overrides = spec
            return PrefetcherSpec(name, tuple(sorted(overrides.items())))
        raise TypeError(f"cannot interpret prefetcher spec {spec!r}")

    @property
    def display(self) -> str:
        """Rollup label."""
        if self.label:
            return self.label
        if not self.overrides:
            return self.name
        keys = ",".join(k for k, _ in self.overrides)
        return f"{self.name}[{keys}]"

    def build(self):
        """Instantiate a fresh prefetcher through the unified registry."""
        from repro import registry

        return registry.create(self.name, **dict(self.overrides))


@dataclass(frozen=True)
class SystemSpec:
    """A labelled system configuration (label drives pivot/rollup keys)."""

    label: str
    config: SystemConfig

    @staticmethod
    def of(spec: "SystemSpec | str | SystemConfig | tuple") -> "SystemSpec":
        """Coerce a name, config object, ``(label, config)`` pair, or spec."""
        from repro import registry

        if isinstance(spec, SystemSpec):
            return spec
        if isinstance(spec, str):
            return SystemSpec(spec, registry.system(spec))
        if isinstance(spec, SystemConfig):
            return SystemSpec(f"custom-{fingerprint(spec)[:8]}", spec)
        if isinstance(spec, tuple) and len(spec) == 2:
            label, config = spec
            return SystemSpec(label, registry.system(config))
        raise TypeError(f"cannot interpret system spec {spec!r}")


@dataclass(frozen=True)
class Cell:
    """One fully-specified unit of simulation work.

    Cells are pure data (picklable, hashable) so executors can ship them
    to worker processes, and carry everything that determines the
    simulation's outcome so :meth:`fingerprint` is a *complete* cache
    key — the fix for the historical baseline under-keying bug.
    """

    trace: str
    prefetcher: PrefetcherSpec
    system: SystemSpec
    trace_length: int
    warmup_fraction: float
    l1_prefetcher: PrefetcherSpec | None = None
    #: Absolute warmup length in records; overrides ``warmup_fraction``
    #: when set (the paper's 100M-of-600M convention).  Because the
    #: warmup split then stays put as ``trace_length`` grows, a longer
    #: run of the same cell can resume from the shorter run's
    #: checkpoints (see :meth:`prefix_fingerprint`).
    warmup_records: int | None = None
    #: Records per telemetry window (0 = off).  Non-semantic: telemetry
    #: only observes counters, so it never participates in fingerprints.
    telemetry_window: int = 0

    def _prefetcher_payloads(self) -> dict:
        from repro import registry

        return {
            "prefetcher": {
                "name": self.prefetcher.name,
                "overrides": canonical(dict(self.prefetcher.overrides)),
                "resolved": registry.resolved_prefetcher_config(
                    self.prefetcher.name, **dict(self.prefetcher.overrides)
                ),
            },
            "l1_prefetcher": None
            if self.l1_prefetcher is None
            else {
                "name": self.l1_prefetcher.name,
                "overrides": canonical(dict(self.l1_prefetcher.overrides)),
                "resolved": registry.resolved_prefetcher_config(
                    self.l1_prefetcher.name, **dict(self.l1_prefetcher.overrides)
                ),
            },
        }

    def fingerprint(self) -> str:
        """Content hash over every outcome-determining field.

        Self-invalidating: beyond the declarative spec it folds in the
        *resolved* prefetcher configuration (preset defaults and
        constructor defaults included) and the trace's content stamp, so
        stale store entries die with the code that produced them instead
        of waiting for a manual ``SCHEMA_VERSION`` bump.  Cells with a
        fractional warmup keep the historical payload layout (so
        existing store entries survive); an absolute ``warmup_records``
        replaces the fraction in the payload, since only the effective
        split determines the outcome.
        """
        from repro import registry

        warmup = (
            {"warmup_fraction": self.warmup_fraction}
            if self.warmup_records is None
            else {"warmup_records": self.warmup_records}
        )
        return fingerprint(
            {
                "kind": "cell",
                "trace": self.trace,
                "trace_length": self.trace_length,
                "trace_stamp": registry.trace_stamp(self.trace, self.trace_length),
                **warmup,
                **self._prefetcher_payloads(),
                "system": canonical(self.system.config),
            }
        )

    def prefix_fingerprint(self) -> str:
        """Checkpoint-namespace key: the fingerprint minus the length axis.

        Everything length-dependent is dropped — ``trace_length``, the
        length-keyed trace stamp, and the warmup split — because replay
        *state evolution* does not depend on them: two cells differing
        only there consume the same record stream.  Checkpoints under
        one prefix are validated at adoption time against the consumed
        records' CRC and the resuming run's drain history
        (:class:`repro.sim.engine.EngineState`), which is what makes the
        shared namespace safe.  The snapshot object layout
        (:data:`repro.sim.engine.STATE_LAYOUT`) is folded in, so
        snapshots pickled by an older layout are never listed.
        """
        from repro.sim.engine import STATE_LAYOUT

        return fingerprint(
            {
                "kind": "cell-prefix",
                "trace": self.trace,
                "state_layout": STATE_LAYOUT,
                **self._prefetcher_payloads(),
                "system": canonical(self.system.config),
            }
        )

    def baseline_cell(self) -> "Cell":
        """The no-prefetching run this cell's metrics are relative to.

        Telemetry is dropped: the baseline's timeline is unreachable
        through the result API (records expose ``result.timeline``
        only), so keeping the window would re-simulate every cached
        baseline for rows nobody can read.  An explicitly requested
        ``"none"`` cell keeps its own window and still gets rows.
        """
        return replace(
            self,
            prefetcher=PrefetcherSpec("none"),
            l1_prefetcher=None,
            telemetry_window=0,
        )

    @property
    def is_baseline(self) -> bool:
        return self.prefetcher.name == "none" and self.l1_prefetcher is None

    def execute(self, checkpoints=None, checkpoint_every: int = 0):
        """Simulate this cell from its declarative spec.

        Args:
            checkpoints: optional checkpoint namespace
                (:meth:`repro.api.store.ResultStore.checkpoints` bound
                to :meth:`prefix_fingerprint`) to resume from and save
                into.
            checkpoint_every: snapshot cadence in records.
        """
        from repro import registry
        from repro.sim.system import simulate

        trace = registry.cached_trace(self.trace, self.trace_length)
        prefetcher = self.prefetcher.build()
        l1 = self.l1_prefetcher.build() if self.l1_prefetcher is not None else None
        return simulate(
            trace,
            self.system.config,
            prefetcher,
            warmup_fraction=self.warmup_fraction,
            l1_prefetcher=l1,
            warmup_records=self.warmup_records,
            telemetry_window=self.telemetry_window,
            checkpoints=checkpoints,
            checkpoint_every=checkpoint_every,
        )

    def record(self, result, baseline):
        """Pair a measurement with its baseline as a typed record."""
        from repro import registry
        from repro.api.resultset import CellResult

        return CellResult(
            trace_name=result.trace_name,
            suite=registry.suite_of(self.trace),
            prefetcher=self.prefetcher.display,
            system=self.system.label,
            result=result,
            baseline=baseline,
        )


@dataclass(frozen=True)
class ReplicatedCell(Cell):
    """One seed-replicate of a cell (:meth:`Experiment.with_seeds`).

    A plain :class:`Cell` whose :attr:`trace` is the *seed*-th replicate
    of :attr:`base_trace`'s workload.  The fingerprint is inherited
    unchanged, so a replicate shares its store entry with an equivalent
    unreplicated cell on the same seeded trace — replication adds no new
    cache keys, only a grouping convention: :meth:`record` reports the
    *base* workload name and carries :attr:`seed`, so
    :meth:`~repro.api.resultset.ResultSet.rollup` aggregates replicates
    of one workload together (``agg="mean"``/``"std"``/``"ci95"``).
    """

    seed: int = 1
    base_trace: str = ""

    def record(self, result, baseline):
        """Typed record keyed by the base workload, carrying the seed."""
        from repro import registry
        from repro.api.resultset import CellResult

        return CellResult(
            trace_name=self.base_trace or result.trace_name,
            suite=registry.suite_of(self.trace),
            prefetcher=self.prefetcher.display,
            system=self.system.label,
            result=result,
            baseline=baseline,
            seed=self.seed,
        )


@dataclass(frozen=True)
class MixCell:
    """One multi-programmed multi-core mix as a declarative work unit.

    The mix analogue of :class:`Cell`: pure picklable data naming one
    registry-addressable trace per core, sharing the complete-fingerprint
    scheme (trace content stamps, resolved prefetcher config, full system
    config, warmup) so mixes land in the same
    :class:`~repro.api.store.ResultStore` and fan out through the same
    executors as single-core cells.
    """

    name: str
    traces: tuple[str, ...]
    prefetcher: PrefetcherSpec
    system: SystemSpec
    trace_length: int
    warmup_fraction: float
    records_per_core: int | None = None
    #: Absolute per-core warmup in records; overrides the fraction.
    warmup_records: int | None = None
    #: Lockstep steps per telemetry window (0 = off; non-semantic).
    telemetry_window: int = 0

    def fingerprint(self) -> str:
        """Content hash over every outcome-determining field.

        The payload layout matches the historical ``Session.run_mix``
        key, so store entries written before mixes became declarative
        stay valid; as with :class:`Cell`, an absolute
        ``warmup_records`` replaces the fraction in the payload.
        """
        from repro import registry

        warmup = (
            {"warmup_fraction": self.warmup_fraction}
            if self.warmup_records is None
            else {"warmup_records": self.warmup_records}
        )
        return fingerprint(
            {
                "kind": "mix",
                "traces": [
                    (t, self.trace_length, registry.trace_stamp(t, self.trace_length))
                    for t in self.traces
                ],
                "prefetcher": {
                    "name": self.prefetcher.name,
                    "overrides": canonical(dict(self.prefetcher.overrides)),
                    "resolved": registry.resolved_prefetcher_config(
                        self.prefetcher.name, **dict(self.prefetcher.overrides)
                    ),
                },
                "system": canonical(self.system.config),
                **warmup,
                "records_per_core": self.records_per_core,
            }
        )

    def baseline_cell(self) -> "MixCell":
        """The no-prefetching run of the same mix.

        Telemetry is dropped: the baseline's timeline is unreachable
        through the result API (records expose ``result.timeline``
        only), so simulating it would cost a full re-run for rows
        nobody can read.
        """
        return replace(self, prefetcher=PrefetcherSpec("none"), telemetry_window=0)

    @property
    def is_baseline(self) -> bool:
        return self.prefetcher.name == "none"

    def execute(self, checkpoints=None, checkpoint_every: int = 0):
        """Simulate the mix: one trace per core, shared LLC/DRAM.

        Checkpoint arguments are accepted for work-unit-contract parity
        but ignored: lockstep mixes have no meaningful prefix to extend
        (see :class:`repro.sim.engine.MultiCoreEngine`).
        """
        from repro import registry
        from repro.sim.system import simulate_multi

        traces = [
            registry.cached_trace(t, self.trace_length) for t in self.traces
        ]
        return simulate_multi(
            traces,
            self.system.config,
            prefetcher_factory=self.prefetcher.build,
            warmup_fraction=self.warmup_fraction,
            records_per_core=self.records_per_core,
            warmup_records=self.warmup_records,
            telemetry_window=self.telemetry_window,
        )

    def record(self, result, baseline):
        """Mix-level record carrying the per-core trace list."""
        from repro.api.resultset import MixCellResult

        return MixCellResult(
            trace_name=self.name,
            suite="MIX",
            prefetcher=self.prefetcher.display,
            system=self.system.label,
            result=result,
            baseline=baseline,
            traces=self.traces,
        )


#: Either kind of declarative work unit an experiment expands into.
WorkCell = Cell | MixCell


def checkpointable(cell: WorkCell) -> bool:
    """Whether *cell*'s shape allows checkpoint/resume: single-core cells
    only (a mix has no resumable prefix), and only with telemetry off (a
    resumed run cannot reconstruct the skipped windows' rows)."""
    return isinstance(cell, Cell) and cell.telemetry_window == 0


def _trace_name(trace) -> str:
    """Coerce a trace spec (name or materialized Trace) to its name."""
    name = getattr(trace, "name", None)
    return name if name is not None else str(trace)


@dataclass(frozen=True)
class MixEntry:
    """One named mix on the experiment's mix axis: traces plus system."""

    name: str
    traces: tuple[str, ...]
    system: SystemSpec

    @staticmethod
    def of(spec, default_system=None) -> "MixEntry":
        """Coerce ``(name, traces)`` / ``(name, traces, system)`` pairs.

        A bare trace sequence is also accepted; its name defaults to the
        ``+``-joined trace list.  When no system is given, the mix runs
        on the paper's ``<n>c`` baseline for its core count.
        """
        from repro import registry

        if isinstance(spec, MixEntry):
            return spec
        system = default_system
        if (
            isinstance(spec, tuple)
            and len(spec) in (2, 3)
            and isinstance(spec[0], str)
            and isinstance(spec[1], (list, tuple))
        ):
            name, traces = spec[0], spec[1]
            if len(spec) == 3:
                system = spec[2]
        else:
            name, traces = None, spec
        names = tuple(_trace_name(t) for t in traces)
        if not names:
            raise ValueError("a mix needs at least one trace")
        if name is None:
            name = "+".join(names)
        if system is None:
            system = f"{len(names)}c"
        spec_system = SystemSpec.of(system)
        if spec_system.config.num_cores != len(names):
            raise ValueError(
                f"mix {name!r} has {len(names)} traces but system "
                f"{spec_system.label!r} has {spec_system.config.num_cores} cores"
            )
        return MixEntry(name=name, traces=names, system=spec_system)


_DEFAULT_SYSTEMS = (SystemSpec("1c", baseline_single_core()),)


@dataclass(frozen=True)
class Experiment:
    """A declarative sweep: (traces × systems + mixes) × prefetchers.

    Attributes:
        name: experiment identifier (e.g. ``"fig9a"``).
        traces: trace names (``workload-seed``; bare workload names mean
            seed 1).
        prefetchers: prefetcher specs to compare.
        systems: labelled system configs to sweep over (single-core
            cells only; each mix carries its own system).
        mixes: multi-programmed mixes, each one trace per core; crossed
            with the prefetcher axis into :class:`MixCell` work units.
        trace_length: accesses per generated trace.
        warmup_fraction: leading fraction excluded from statistics.
        l1_prefetcher: optional L1 prefetcher applied to every
            single-core cell (multi-level experiments, Fig 8d).
        records_per_core: measured records per core for mixes (defaults
            to the shortest trace's post-warmup length).
        seeds: trace replicates per single-core cell
            (:meth:`with_seeds`); 1 means unreplicated.
        warmup_records: absolute warmup length in records, overriding
            *warmup_fraction* for single-core cells and (per core) for
            mixes (:meth:`with_warmup` with ``records=``); keeps
            checkpoints extension-compatible as ``trace_length`` grows.
        telemetry_window: records per telemetry window
            (:meth:`with_telemetry`); 0 disables telemetry.
    """

    name: str = "experiment"
    traces: tuple[str, ...] = ()
    prefetchers: tuple[PrefetcherSpec, ...] = ()
    systems: tuple[SystemSpec, ...] = _DEFAULT_SYSTEMS
    mixes: tuple[MixEntry, ...] = ()
    trace_length: int = 20_000
    warmup_fraction: float = 0.2
    l1_prefetcher: PrefetcherSpec | None = None
    records_per_core: int | None = None
    seeds: int = 1
    warmup_records: int | None = None
    telemetry_window: int = 0

    @classmethod
    def define(cls, name: str, **kwargs) -> "Experiment":
        """Start a builder chain: ``Experiment.define("fig9a")...``."""
        return cls(name=name, **kwargs)

    # ---- builder methods (each returns a new Experiment) ----------------

    def with_traces(self, *traces: str) -> "Experiment":
        """Replace the trace axis."""
        return replace(self, traces=tuple(traces))

    def with_suites(self, *suites: str, seeds: int | None = None) -> "Experiment":
        """Set the trace axis to every trace of the named suites.

        Args:
            suites: suite labels (``"SPEC06"``, ``"LIGRA"``, ...).
            seeds: cap on seeds per workload (default: the suite's full
                seed list).
        """
        from repro.workloads.suites import suite_trace_names

        names: list[str] = []
        for suite in suites:
            suite_names = suite_trace_names(suite)
            if seeds is not None:
                suite_names = [
                    n for n in suite_names if int(n.rpartition("-")[2]) <= seeds
                ]
            names.extend(suite_names)
        return replace(self, traces=tuple(names))

    def with_prefetchers(self, *specs) -> "Experiment":
        """Replace the prefetcher axis (names, specs, or (name, dict))."""
        return replace(
            self, prefetchers=tuple(PrefetcherSpec.of(s) for s in specs)
        )

    def with_systems(self, *specs) -> "Experiment":
        """Replace the system axis (names, configs, specs, or pairs)."""
        return replace(self, systems=tuple(SystemSpec.of(s) for s in specs))

    def sweep_mtps(
        self, points: Iterable[int], base: str | SystemConfig = "1c"
    ) -> "Experiment":
        """System axis = *base* at each DRAM transfer rate (Fig 8b)."""
        from repro import registry

        base_config = registry.system(base)
        return replace(
            self,
            systems=tuple(
                SystemSpec(f"mtps={p}", base_config.with_mtps(p)) for p in points
            ),
        )

    def sweep_llc(
        self, factors: Iterable[float], base: str | SystemConfig = "1c"
    ) -> "Experiment":
        """System axis = *base* with the LLC scaled by each factor (Fig 8c)."""
        from repro import registry

        base_config = registry.system(base)
        return replace(
            self,
            systems=tuple(
                SystemSpec(f"llc_scale={f}", base_config.scaled_llc(f))
                for f in factors
            ),
        )

    def with_length(self, trace_length: int) -> "Experiment":
        """Set accesses per generated trace."""
        return replace(self, trace_length=trace_length)

    def with_warmup(
        self, warmup_fraction: float | None = None, *, records: int | None = None
    ) -> "Experiment":
        """Set the warmup: a leading fraction, or absolute *records*.

        ``with_warmup(0.2)`` keeps the historical fractional semantics;
        ``with_warmup(records=20_000)`` pins the split in records (the
        paper's 100M-of-600M convention), which keeps the split — and
        therefore checkpoint compatibility — fixed when the experiment's
        ``trace_length`` is later extended.
        """
        if (warmup_fraction is None) == (records is None):
            raise TypeError("pass exactly one of warmup_fraction or records")
        if records is not None:
            return replace(self, warmup_records=records)
        return replace(self, warmup_fraction=warmup_fraction, warmup_records=None)

    def with_telemetry(self, window: int) -> "Experiment":
        """Attach per-window telemetry to every cell.

        Each cell's result then carries a
        :class:`~repro.sim.engine.Timeline` payload with one row per
        *window* records (lockstep steps for mixes) — IPC, cache-stat
        deltas, DRAM bucket occupancy, prefetch issued/useful/late —
        queryable via :meth:`ResultSet.timeline_rows
        <repro.api.resultset.ResultSet.timeline_rows>` and
        :meth:`CellResult.phases <repro.api.resultset.CellResult.phases>`.
        Telemetry is observational: fingerprints and simulated behaviour
        are unchanged, but a cached result recorded without (or with a
        different) window is re-simulated to obtain the rows.
        """
        if window < 0:
            raise ValueError(f"telemetry window must be >= 0, got {window}")
        return replace(self, telemetry_window=window)

    def with_l1_prefetcher(self, spec) -> "Experiment":
        """Attach an L1 prefetcher to every cell (Fig 8d)."""
        return replace(
            self,
            l1_prefetcher=None if spec is None else PrefetcherSpec.of(spec),
        )

    def with_mixes(
        self, *mixes, system=None, records_per_core: int | None = None
    ) -> "Experiment":
        """Replace the mix axis: multi-programmed multi-core sweeps.

        Each mix is ``(name, traces)``, ``(name, traces, system)``, or a
        bare trace sequence; traces may be names or materialized
        :class:`~repro.sim.trace.Trace` objects (their names are kept —
        mixes must stay registry-addressable so executors can rebuild
        them in worker processes).  *system* sets the default system for
        entries that name none; otherwise each mix runs on the ``<n>c``
        baseline matching its core count.
        """
        return replace(
            self,
            mixes=tuple(MixEntry.of(m, default_system=system) for m in mixes),
            records_per_core=records_per_core,
        )

    def with_seeds(self, seeds: int) -> "Experiment":
        """Replicate every single-core cell across *seeds* trace seeds.

        Each declared trace expands into *seeds* replicates of its
        workload (``spec06/lbm-1`` at 3 seeds → ``lbm-1``/``lbm-2``/
        ``lbm-3`` as :class:`ReplicatedCell` work units) riding the
        normal executor/store machinery; records report the *base*
        workload name and carry their seed, so
        :meth:`ResultSet.rollup(..., agg="mean"|"std"|"ci95")
        <repro.api.resultset.ResultSet.rollup>` reports variance across
        replicates.  A trace axis naming several seeds of one workload
        (as ``with_suites`` does) collapses to one replicate set per
        workload, so no replicate is double-counted.  Non-reseedable
        traces (``file/`` recordings) run once.  Mixes are unaffected.
        """
        if seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {seeds}")
        return replace(self, seeds=seeds)

    # ---- expansion ------------------------------------------------------

    def _replicated(self, trace: str, prefetcher, system) -> list["Cell"]:
        """The seed replicates of one (trace, prefetcher, system) cell."""
        from repro import registry

        cells: list[Cell] = []
        base = registry.base_workload_name(trace)
        for seed in range(1, self.seeds + 1):
            seeded = registry.reseed_trace_name(trace, seed)
            if seeded is None:  # fixed recording: one cell, no seed axis
                if seed > 1:
                    break
                seeded = trace
            cells.append(
                ReplicatedCell(
                    trace=seeded,
                    prefetcher=prefetcher,
                    system=system,
                    trace_length=self.trace_length,
                    warmup_fraction=self.warmup_fraction,
                    l1_prefetcher=self.l1_prefetcher,
                    warmup_records=self.warmup_records,
                    telemetry_window=self.telemetry_window,
                    seed=seed,
                    base_trace=base,
                )
            )
        return cells

    def cells(self) -> list[WorkCell]:
        """Expand the declarative cross product into work units."""
        if not self.traces and not self.mixes:
            raise ValueError(f"experiment {self.name!r} has no traces or mixes")
        if not self.prefetchers:
            raise ValueError(f"experiment {self.name!r} has no prefetchers")
        if self.traces and not self.systems:
            raise ValueError(f"experiment {self.name!r} has no systems")
        traces: Sequence[str] = self.traces
        if self.seeds > 1 and traces:
            # Replication expands each *workload* into its seed set, so a
            # trace axis already naming several seeds of one workload
            # (e.g. with_suites lists 2 per workload) must collapse to
            # one entry each — otherwise every replicate appears once per
            # listed seed and the variance statistics double-count.
            from repro import registry

            unique: dict[str, str] = {}
            for trace in traces:
                unique.setdefault(registry.base_workload_name(trace), trace)
            traces = list(unique.values())
        cells: list[WorkCell] = []
        for system in self.systems:
            for trace in traces:
                for prefetcher in self.prefetchers:
                    if self.seeds == 1:
                        cells.append(
                            Cell(
                                trace=trace,
                                prefetcher=prefetcher,
                                system=system,
                                trace_length=self.trace_length,
                                warmup_fraction=self.warmup_fraction,
                                l1_prefetcher=self.l1_prefetcher,
                                warmup_records=self.warmup_records,
                                telemetry_window=self.telemetry_window,
                            )
                        )
                    else:
                        cells.extend(self._replicated(trace, prefetcher, system))
        cells.extend(
            MixCell(
                name=mix.name,
                traces=mix.traces,
                prefetcher=prefetcher,
                system=mix.system,
                trace_length=self.trace_length,
                warmup_fraction=self.warmup_fraction,
                records_per_core=self.records_per_core,
                warmup_records=self.warmup_records,
                telemetry_window=self.telemetry_window,
            )
            for mix in self.mixes
            for prefetcher in self.prefetchers
        )
        return cells

    def __len__(self) -> int:
        if self.seeds > 1 and self.traces and self.prefetchers and self.systems:
            return len(self.cells())
        return (
            len(self.traces) * len(self.systems) + len(self.mixes)
        ) * len(self.prefetchers)
