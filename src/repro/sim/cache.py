"""Set-associative cache model with per-line prefetch bookkeeping.

Each cache tracks, per line, whether the line was brought in by a
prefetch and whether it has been used by a demand access since fill.
That bookkeeping is what lets the metrics layer compute the paper's
coverage and overprediction numbers, and what lets prefetchers receive
"prefetch line was useful/useless" feedback.

State is flat, one entry per *slot* (``slot = set * ways + way``), in
typed buffers the native kernel replays on in place (pickled as lists,
see :class:`repro.sim.replacement.SlotBuffers`):

* ``_tag`` (``array("q")``) — the resident line, or ``-1`` for an empty
  way (lines are non-negative);
* ``_pf`` / ``_used`` (``bytearray``) — the prefetched and used bits;
* the replacement policy's ``meta_a`` (and, for SHiP, ``meta_b`` /
  ``meta_c``) per-slot metadata (:mod:`repro.sim.replacement`).

Two derived indexes complete it: one cache-wide ``_where`` dict maps each
resident line to its slot, so ``lookup``/``probe``/``fill`` resolve
residency in O(1), and ``_filled`` counts each set's filled ways.  Lines
are never invalidated, so a set's empty ways are always the suffix
``[filled, ways)`` and a fill into a non-full set takes
``set * ways + filled`` — the lowest empty way.  Replacement policies
therefore only ever see full sets.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.sim.config import CacheGeometry
from repro.sim.replacement import LruPolicy, SlotBuffers, make_policy
from repro.types import prefetch_accuracy as _prefetch_accuracy


@dataclass(slots=True)
class CacheStats:
    """Counters for one cache level.

    Demand counters exclude prefetch traffic; ``prefetch_*`` counters are
    lookups/fills on behalf of the prefetcher.  ``useful_prefetches`` and
    ``useless_evictions`` track the fate of prefetched lines.
    """

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    load_misses: int = 0
    prefetch_accesses: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    fills: int = 0
    prefetch_fills: int = 0
    useful_prefetches: int = 0
    useless_evictions: int = 0
    evictions: int = 0

    @property
    def demand_hit_rate(self) -> float:
        """Fraction of demand accesses that hit."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_hits / self.demand_accesses

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of prefetch fills later touched by a demand access."""
        return _prefetch_accuracy(self.useful_prefetches, self.useless_evictions)


@dataclass(frozen=True, slots=True)
class LookupResult:
    """Outcome of a cache lookup.

    The four possible outcomes are preallocated module-level constants
    (lookups happen several times per simulated record); the class is
    frozen so the shared instances cannot be corrupted.
    """

    hit: bool
    was_prefetched_line: bool = False
    first_use_of_prefetch: bool = False


_MISS = LookupResult(hit=False)
_HIT = LookupResult(hit=True)
_HIT_PREFETCHED = LookupResult(hit=True, was_prefetched_line=True)
_HIT_FIRST_USE = LookupResult(
    hit=True, was_prefetched_line=True, first_use_of_prefetch=True
)


@dataclass(slots=True)
class EvictedLine:
    """Information about a line pushed out of the cache by a fill."""

    line: int
    prefetched: bool
    used: bool


class Cache(SlotBuffers):
    """A set-associative, write-allocate cache level.

    The cache is *functional plus statistics*: timing lives in the
    hierarchy/DRAM models.  Lookups and fills update replacement state and
    the prefetch bookkeeping used by the metrics layer.

    Args:
        name: level name used in reports (``"L1"``, ``"L2"``, ``"LLC"``).
        geometry: size/associativity/latency description.
    """

    _BUFFERS = {"_tag": "q", "_pf": None, "_used": None}

    def __init__(self, name: str, geometry: CacheGeometry) -> None:
        if geometry.num_sets <= 0:
            raise ValueError(f"{name}: geometry yields no sets")
        self.name = name
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self.ways = geometry.ways
        self.latency = geometry.latency
        self.stats = CacheStats()
        slots = self.num_sets * self.ways
        self._tag = array("q", [-1]) * slots
        self._pf = bytearray(slots)
        self._used = bytearray(slots)
        self._where: dict[int, int] = {}
        self._filled: list[int] = [0] * self.num_sets
        self._policy = make_policy(geometry.replacement, slots)
        # LRU's touch bookkeeping is one int store; inlining it saves a
        # Python call on every lookup hit and fill (L1/L2 are LRU).
        self._policy_is_lru = type(self._policy) is LruPolicy
        self._meta_a = self._policy.meta_a
        self._tick = 0

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        del state["_meta_a"]  # the policy's buffer, re-aliased on restore
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._meta_a = self._policy.meta_a

    # -- public API ---------------------------------------------------------

    def probe(self, line: int) -> bool:
        """Check presence without touching stats or replacement state."""
        return line in self._where

    def lookup(self, line: int, pc: int, is_load: bool, is_prefetch: bool) -> LookupResult:
        """Access the cache; updates stats and replacement state.

        A hit promotes the line; a first demand hit on a prefetched line
        is flagged so the caller can credit the prefetcher.
        """
        self._tick += 1
        stats = self.stats
        slot = self._where.get(line)
        if is_prefetch:
            stats.prefetch_accesses += 1
        else:
            stats.demand_accesses += 1

        if slot is None:
            if is_prefetch:
                stats.prefetch_misses += 1
            else:
                stats.demand_misses += 1
                if is_load:
                    stats.load_misses += 1
            return _MISS

        if self._policy_is_lru:
            self._meta_a[slot] = self._tick
        else:
            self._policy.on_hit(slot, pc, self._tick)
        if not is_prefetch:
            stats.demand_hits += 1
            if self._pf[slot]:
                if not self._used[slot]:
                    self._used[slot] = True
                    stats.useful_prefetches += 1
                    return _HIT_FIRST_USE
                return _HIT_PREFETCHED
            return _HIT
        stats.prefetch_hits += 1
        return _HIT_PREFETCHED if self._pf[slot] else _HIT

    def fill(self, line: int, pc: int, is_prefetch: bool) -> EvictedLine | None:
        """Insert *line*, evicting a victim if the set is full.

        Returns the evicted line's bookkeeping (or ``None`` if an empty
        way was used).  Filling a line already present only refreshes its
        metadata.

        The replay hot paths inline this method — the batched epoch
        kernel (:mod:`repro.sim.batch`) for demand fills and
        :meth:`repro.sim.hierarchy.CacheHierarchy.process_fills` for
        prefetch fills.  Change all three together.
        """
        self._tick += 1
        where = self._where
        pf = self._pf
        used = self._used
        slot = where.get(line)
        if slot is not None:
            # Duplicate fill (e.g. a demand fill racing a prefetch fill):
            # refresh but never downgrade a demand-fetched line to a
            # prefetched one.
            if not is_prefetch:
                pf[slot] = pf[slot] and used[slot]
            return None

        set_idx = line % self.num_sets
        filled = self._filled[set_idx]
        ways = self.ways
        evicted: EvictedLine | None = None
        is_lru = self._policy_is_lru
        if filled < ways:
            slot = set_idx * ways + filled
            self._filled[set_idx] = filled + 1
        else:
            base = set_idx * ways
            if is_lru:
                # Inlines LruPolicy.victim (evictions happen on nearly
                # every post-warmup fill); keep the two in sync.
                meta = self._meta_a
                slot = meta.index(min(meta[base : base + ways]), base)
            else:
                slot = self._policy.victim(base, base + ways)
            self.stats.evictions += 1
            if pf[slot] and not used[slot]:
                self.stats.useless_evictions += 1
            if not is_lru:  # LRU's on_evict is a no-op
                self._policy.on_evict(slot)
            victim = self._tag[slot]
            evicted = EvictedLine(victim, bool(pf[slot]), bool(used[slot]))
            del where[victim]

        where[line] = slot
        self._tag[slot] = line
        pf[slot] = is_prefetch
        used[slot] = not is_prefetch
        if is_lru:
            self._meta_a[slot] = self._tick
        else:
            self._policy.on_fill(slot, pc, is_prefetch, self._tick)
        self.stats.fills += 1
        if is_prefetch:
            self.stats.prefetch_fills += 1
        return evicted

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return len(self._where)

    @property
    def capacity_lines(self) -> int:
        """Total line capacity."""
        return self.num_sets * self.ways
