"""Cache replacement policies: LRU and SHiP.

The paper's LLC uses SHiP (Signature-based Hit Predictor, Wu et al.,
MICRO 2011) while L1 and L2 uses LRU.  A policy owns its per-way
metadata as flat per-slot buffers parallel to the cache's tag buffer
(``slot = set * ways + way``; see :class:`repro.sim.cache.Cache`) and
split the way the native kernel splits it: ``meta_a`` (LRU tick or
SHiP RRPV), and for SHiP ``meta_b`` (signature) and ``meta_c`` (reused
bit), typed as the kernel reads them (``array("q")``, ``bytearray``
for bits) so it replays on them in place.  The cache calls the policy
with a slot; victim selection takes the set's slot range ``[base, end)``.

Victim selection only ever sees *full* sets: the cache fills a set's
empty ways first (see :class:`repro.sim.cache.Cache`).  SHiP keeps its
RRIP aging incremental — one pass finds the distance to the next
RRPV-saturated way and ages every way by that amount at once, instead of
looping scan-and-increment rounds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array


class SlotBuffers:
    """Pickles the typed buffers named in ``_BUFFERS`` as the plain lists
    checkpoints have always held (flags as bools: under half the bytes
    of the raw arrays), and restores either form as typed buffers."""

    #: Buffer attribute -> ``array`` typecode, or ``None`` for a
    #: ``bytearray`` of 0/1 flags.
    _BUFFERS: dict[str, str | None] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name, code in self._BUFFERS.items():
            state[name] = state[name].tolist() if code else list(map(bool, state[name]))
        return state

    def __setstate__(self, state: dict) -> None:
        for name, code in self._BUFFERS.items():
            state[name] = array(code, state[name]) if code else bytearray(state[name])
        self.__dict__.update(state)


class ReplacementPolicy(SlotBuffers, ABC):
    """Interface for a per-cache replacement policy.

    The cache calls :meth:`on_fill` when a line is inserted into a
    slot, :meth:`on_hit` when it is re-referenced, :meth:`victim` to
    choose the slot to evict from a full set, and :meth:`on_evict`
    just before that slot is refilled.  A policy is built for the
    cache's slot count (``num_sets * ways``); ``meta_a`` holds one
    int64 per slot, and :meth:`on_fill` must fully reinitialize a
    slot's metadata.
    """

    meta_a: array
    _BUFFERS = {"meta_a": "q"}

    @abstractmethod
    def on_fill(self, slot: int, pc: int, is_prefetch: bool, tick: int) -> None:
        """Record a fill into *slot*."""

    @abstractmethod
    def on_hit(self, slot: int, pc: int, tick: int) -> None:
        """Record a hit on *slot*."""

    @abstractmethod
    def victim(self, base: int, end: int) -> int:
        """Choose the slot to evict from the full set ``[base, end)``."""

    def on_evict(self, slot: int) -> None:
        """Optional hook invoked when *slot* is evicted."""


class LruPolicy(ReplacementPolicy):
    """Classic least-recently-used replacement.

    ``meta_a`` is the tick of each slot's last touch; the victim is the
    slot with the smallest tick, found with a C-level ``min`` over the
    set's slice rather than a Python scan.
    """

    def __init__(self, slots: int) -> None:
        self.meta_a = array("q", [0]) * slots

    def on_fill(self, slot: int, pc: int, is_prefetch: bool, tick: int) -> None:
        self.meta_a[slot] = tick

    def on_hit(self, slot: int, pc: int, tick: int) -> None:
        self.meta_a[slot] = tick

    def victim(self, base: int, end: int) -> int:
        # The replay paths inline this expression on their eviction
        # paths for speed; change them together.  The first slot at or
        # after *base* holding the set's minimum lies inside the set.
        meta = self.meta_a
        return meta.index(min(meta[base:end]), base)


class ShipPolicy(ReplacementPolicy):
    """SHiP: signature-based RRIP replacement (Wu et al., MICRO 2011).

    Each fill is tagged with a PC signature.  A table of saturating
    counters (the SHCT) learns whether lines inserted by a signature tend
    to be re-referenced; unpromising signatures insert at distant re-
    reference interval (RRPV max) so they are evicted quickly.  This is
    the LLC policy in the paper's baseline (Table 5).

    Per slot: ``meta_a`` is the RRPV, ``meta_b`` the fill signature and
    ``meta_c`` the reused bit.
    """

    RRPV_MAX = 3
    SHCT_SIZE = 1024
    SHCT_MAX = 7
    _BUFFERS = {"meta_a": "q", "meta_b": "q", "meta_c": None, "_shct": "q"}

    def __init__(self, slots: int) -> None:
        self.meta_a = array("q", [self.RRPV_MAX]) * slots
        self.meta_b = array("q", [0]) * slots
        self.meta_c = bytearray(slots)
        self._shct = array("q", [self.SHCT_MAX // 2]) * self.SHCT_SIZE

    def _signature(self, pc: int) -> int:
        return (pc ^ (pc >> 10)) % self.SHCT_SIZE

    def on_fill(self, slot: int, pc: int, is_prefetch: bool, tick: int) -> None:
        sig = self._signature(pc)
        # Unpromising signatures (counter == 0) insert at distant RRPV;
        # prefetches are also inserted at distant RRPV so useless
        # prefetches leave quickly (standard SHiP prefetch handling).
        if self._shct[sig] == 0 or is_prefetch:
            self.meta_a[slot] = self.RRPV_MAX
        else:
            self.meta_a[slot] = self.RRPV_MAX - 1
        self.meta_b[slot] = sig
        self.meta_c[slot] = False

    def on_hit(self, slot: int, pc: int, tick: int) -> None:
        self.meta_a[slot] = 0
        if not self.meta_c[slot]:
            self.meta_c[slot] = True
            sig = self.meta_b[slot]
            if self._shct[sig] < self.SHCT_MAX:
                self._shct[sig] += 1

    def victim(self, base: int, end: int) -> int:
        # Equivalent to the textbook "scan for RRPV_MAX, else age all by
        # one and rescan" loop: the slot that saturates first is the
        # lowest-indexed slot holding the maximum RRPV, and every slot
        # of the set ages by the same saturation distance.
        rrpv = self.meta_a
        best = max(rrpv[base:end])
        victim = rrpv.index(best, base)
        age = self.RRPV_MAX - best
        if age > 0:
            for slot in range(base, end):
                rrpv[slot] += age
        return victim

    def on_evict(self, slot: int) -> None:
        if not self.meta_c[slot]:
            sig = self.meta_b[slot]
            if self._shct[sig] > 0:
                self._shct[sig] -= 1


def make_policy(name: str, slots: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by config name for *slots* slots."""
    if name == "lru":
        return LruPolicy(slots)
    if name == "ship":
        return ShipPolicy(slots)
    raise ValueError(f"unknown replacement policy: {name!r}")
