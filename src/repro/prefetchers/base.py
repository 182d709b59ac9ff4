"""Prefetcher interface shared by Pythia and all baseline prefetchers.

Prefetchers in this reproduction sit where the paper puts them: they are
*trained on L1 demand misses* and their prefetched lines are *filled into
L2 and LLC* (§5.2).  The hierarchy calls :meth:`Prefetcher.train` for
every training event and issues the returned cacheline numbers, subject
to the system-wide degree cap, MSHR availability, and duplicate
filtering.

System-level feedback — the memory-bandwidth-usage signal Pythia
consumes — arrives with each training event in the
:class:`DemandContext`, so any prefetcher may be made bandwidth-aware
without a side channel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.types import page_of_line, offset_of_line


@dataclass(slots=True)
class DemandContext:
    """Everything a prefetcher may observe about one training event.

    One instance is built per training event (every L1 demand miss), so
    the class is slotted (and not frozen — frozen-dataclass ``__init__``
    pays an ``object.__setattr__`` per field) and the page/offset
    decomposition — which most prefetchers read several times per event
    — is computed once at construction rather than per property access.
    Treat instances as immutable: they are shared across every
    prefetcher observing the event.

    Attributes:
        pc: program counter of the demand instruction.
        line: demanded cacheline number.
        cycle: current core cycle.
        is_load: True for loads (stores also train, as in ChampSim).
        bandwidth_utilization: DRAM data-bus busy fraction (0..1).
        bandwidth_high: the thresholded high/low bandwidth signal.
        page: physical page number of the demanded line (derived).
        offset: in-page offset (0..63) of the demanded line (derived).
    """

    pc: int
    line: int
    cycle: int
    is_load: bool = True
    bandwidth_utilization: float = 0.0
    bandwidth_high: bool = False
    page: int = field(init=False)
    offset: int = field(init=False)

    def __post_init__(self) -> None:
        self.page = page_of_line(self.line)
        self.offset = offset_of_line(self.line)


class Prefetcher(ABC):
    """Abstract base class for all prefetchers.

    Subclasses implement :meth:`train` and may override the fill/hit
    callbacks to learn from prefetch outcomes.
    """

    #: Registry/reporting name; subclasses override.
    name = "base"

    @abstractmethod
    def train(self, ctx: DemandContext) -> list[int]:
        """Observe one demand training event; return prefetch candidates.

        Returns a list of cacheline numbers to prefetch.  The hierarchy
        applies the global degree cap and drops duplicates, in-flight
        lines, and already-cached lines.
        """

    def train_cols(
        self,
        pc: int,
        line: int,
        page: int,
        offset: int,
        cycle: int,
        is_load: bool,
        bandwidth_utilization: float,
        bandwidth_high: bool,
    ) -> list[int]:
        """Columnar-path training entry: :meth:`train` on scalar fields.

        The batched replay kernel (:mod:`repro.sim.batch`) and the native
        kernel's training hook (:mod:`repro.sim._native.bridge`) already
        hold each record's decoded fields, so they train through this
        method instead of building a :class:`DemandContext` they would
        immediately pick apart.  The default wraps :meth:`train` so every
        prefetcher works under both backends unchanged; hot prefetchers
        (Pythia) override it with a fused path that is pinned
        bit-identical to ``train`` by the equivalence tests.
        """
        ctx = DemandContext(
            pc=pc,
            line=line,
            cycle=cycle,
            is_load=is_load,
            bandwidth_utilization=bandwidth_utilization,
            bandwidth_high=bandwidth_high,
        )
        return self.train(ctx)

    def on_prefetch_fill(self, line: int, cycle: int) -> None:
        """Called when a prefetch for *line* completes and fills the cache."""

    def on_demand_hit_prefetched(self, line: int, cycle: int) -> None:
        """Called on the first demand hit to a prefetched line."""

    def on_prefetch_dropped(self, line: int, cycle: int) -> None:
        """Called when the hierarchy drops a prefetch (MSHRs full, etc.)."""

    def on_prefetch_useless(self, line: int, cycle: int) -> None:
        """Called when a never-used prefetched line is evicted from the LLC."""

    def reset(self) -> None:
        """Clear all learned state (used between experiment runs)."""


class NoPrefetcher(Prefetcher):
    """The no-prefetching baseline: never issues anything."""

    name = "none"

    def train(self, ctx: DemandContext) -> list[int]:
        return []
