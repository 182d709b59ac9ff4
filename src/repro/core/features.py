"""Program-feature extraction: the state space of Pythia's RL agent.

§3.1 of the paper defines a program feature as the concatenation of a
*control-flow* component and a *data-flow* component (Table 3):

    control-flow: PC | PC-path (XOR of last 3 PCs) | PC ⊕ branch-PC | none
    data-flow:    cacheline address | page number | page offset |
                  cacheline delta | last-4 offsets | last-4 deltas |
                  offset ⊕ delta | none

4 × 8 = 32 candidate features; the automated feature selection of §4.3.1
searches combinations of them.  The basic Pythia configuration uses the
two winners: ``PC+Delta`` and ``Sequence of last-4 deltas``.

Cacheline deltas are tracked **per physical page** (as in the Pythia
artifact): the delta of the first access to a page is 0, which is
exactly the trigger the paper's Fig 13 case study keys on
("PC 0x436a81 generates the first load to a physical page, hence the
delta 0").
"""

from __future__ import annotations

import enum
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter

from repro.prefetchers.base import DemandContext


class ControlFlow(enum.Enum):
    """Control-flow component choices (Table 3, left column)."""

    PC = "pc"
    PC_PATH = "pc_path"
    PC_XOR_PREV = "pc_xor_prev"
    NONE = "none"


class DataFlow(enum.Enum):
    """Data-flow component choices (Table 3, right column)."""

    ADDRESS = "address"
    PAGE = "page"
    OFFSET = "offset"
    DELTA = "delta"
    LAST4_OFFSETS = "last4_offsets"
    LAST4_DELTAS = "last4_deltas"
    OFFSET_XOR_DELTA = "offset_xor_delta"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class FeatureSpec:
    """One program feature: a (control-flow, data-flow) pair."""

    control: ControlFlow
    data: DataFlow

    @property
    def label(self) -> str:
        """Human-readable name, e.g. ``"PC+Delta"``."""
        parts = []
        if self.control is not ControlFlow.NONE:
            parts.append(self.control.value)
        if self.data is not DataFlow.NONE:
            parts.append(self.data.value)
        return "+".join(parts) if parts else "none"


#: The paper's winning state-vector (Table 2).
PC_DELTA = FeatureSpec(ControlFlow.PC, DataFlow.DELTA)
LAST4_DELTAS = FeatureSpec(ControlFlow.NONE, DataFlow.LAST4_DELTAS)
BASIC_FEATURES: tuple[FeatureSpec, ...] = (PC_DELTA, LAST4_DELTAS)


def all_feature_specs() -> list[FeatureSpec]:
    """The full 32-feature candidate space of §4.3.1."""
    return [
        FeatureSpec(cf, df)
        for cf in ControlFlow
        for df in DataFlow
    ]


@dataclass(frozen=True, slots=True)
class Observation:
    """The raw components extracted for one demand request.

    Feature values are derived from these by :func:`encode_feature`.
    One instance is created per trained demand request, so the class is
    slotted to keep construction off the hot path's profile.
    """

    pc: int
    pc_path: int
    pc_xor_prev: int
    line: int
    page: int
    offset: int
    delta: int
    last4_offsets: tuple[int, ...]
    last4_deltas: tuple[int, ...]


def _mix(*values: int) -> int:
    """Deterministic non-cryptographic hash combine."""
    acc = 0x811C9DC5
    for v in values:
        acc ^= v & 0xFFFFFFFF
        acc = (acc * 0x01000193) & 0xFFFFFFFF
    return acc


def _fold_sequence(seq: tuple[int, ...]) -> int:
    acc = 0
    for v in seq:
        acc = ((acc << 7) ^ (v & 0x7F)) & 0xFFFFFFFF
    return acc


def encode_feature(spec: FeatureSpec, obs: Observation) -> int:
    """Compute the integer feature value for *spec* from *obs*."""
    if spec.control is ControlFlow.PC:
        control = obs.pc
    elif spec.control is ControlFlow.PC_PATH:
        control = obs.pc_path
    elif spec.control is ControlFlow.PC_XOR_PREV:
        control = obs.pc_xor_prev
    else:
        control = 0

    if spec.data is DataFlow.ADDRESS:
        data = obs.line
    elif spec.data is DataFlow.PAGE:
        data = obs.page
    elif spec.data is DataFlow.OFFSET:
        data = obs.offset
    elif spec.data is DataFlow.DELTA:
        data = obs.delta & 0x7F
    elif spec.data is DataFlow.LAST4_OFFSETS:
        data = _fold_sequence(obs.last4_offsets)
    elif spec.data is DataFlow.LAST4_DELTAS:
        data = _fold_sequence(obs.last4_deltas)
    elif spec.data is DataFlow.OFFSET_XOR_DELTA:
        data = obs.offset ^ (obs.delta & 0x7F)
    else:
        data = 0

    if spec.control is ControlFlow.NONE:
        return data & 0xFFFFFFFF
    if spec.data is DataFlow.NONE:
        return control & 0xFFFFFFFF
    return _mix(control, data)


def compile_encoder(spec: FeatureSpec):
    """Specialize :func:`encode_feature` for one spec at build time.

    The returned callable computes exactly ``encode_feature(spec, obs)``
    but resolves the control/data dispatch once instead of re-walking
    the enum ladders per demand request — Pythia calls one encoder per
    feature per trained record, which makes the dispatch itself hot.
    """
    control_attr = {
        ControlFlow.PC: "pc",
        ControlFlow.PC_PATH: "pc_path",
        ControlFlow.PC_XOR_PREV: "pc_xor_prev",
        ControlFlow.NONE: None,
    }[spec.control]

    if spec.data is DataFlow.ADDRESS:
        data_fn = lambda obs: obs.line  # noqa: E731
    elif spec.data is DataFlow.PAGE:
        data_fn = lambda obs: obs.page  # noqa: E731
    elif spec.data is DataFlow.OFFSET:
        data_fn = lambda obs: obs.offset  # noqa: E731
    elif spec.data is DataFlow.DELTA:
        data_fn = lambda obs: obs.delta & 0x7F  # noqa: E731
    elif spec.data is DataFlow.LAST4_OFFSETS:
        data_fn = lambda obs: _fold_sequence(obs.last4_offsets)  # noqa: E731
    elif spec.data is DataFlow.LAST4_DELTAS:
        data_fn = lambda obs: _fold_sequence(obs.last4_deltas)  # noqa: E731
    elif spec.data is DataFlow.OFFSET_XOR_DELTA:
        data_fn = lambda obs: obs.offset ^ (obs.delta & 0x7F)  # noqa: E731
    else:
        data_fn = None

    if control_attr is None:
        if data_fn is None:
            return lambda obs: 0
        return lambda obs: data_fn(obs) & 0xFFFFFFFF
    control_fn = attrgetter(control_attr)
    if data_fn is None:
        return lambda obs: control_fn(obs) & 0xFFFFFFFF

    def encode(obs: Observation) -> int:
        # _mix unrolled for exactly (control, data); same FNV constants.
        acc = ((0x811C9DC5 ^ (control_fn(obs) & 0xFFFFFFFF)) * 0x01000193) & 0xFFFFFFFF
        return ((acc ^ (data_fn(obs) & 0xFFFFFFFF)) * 0x01000193) & 0xFFFFFFFF

    return encode


#: History depth per page (the last-4 offsets and deltas).
HISTORY = 4
#: PCs kept for the PC-path features.
PC_HISTORY = 3


class FeatureExtractor:
    """Stateful extractor turning demand requests into observations.

    Tracks the global PC path and per-page offset/delta histories
    (bounded LRU, like the hardware's signature table).

    The state lives in typed per-slot buffers, the layout the native
    kernel replays on in place (``CoreArgs.pt_*``, ``last_pcs``): for
    each page-table slot ``pt_page``, ``pt_lastoff`` (``-1`` before the
    first access), ``pt_deltas`` and ``pt_offsets`` (``HISTORY`` each,
    oldest first) as ``array("q")``, and their lengths ``pt_dlen`` /
    ``pt_olen`` as ``bytearray``; plus ``last_pcs`` (``array("q")``,
    oldest first) with ``lastpc_count`` valid.  A new page takes the next
    unused slot, or the oldest page's once the table is full, so the
    slots in use are always ``range(ptab_count)``.  :meth:`page_index`
    maps each resident page to its slot in LRU order, oldest first; the
    kernel exchanges that order as ``pt_order`` (:meth:`lru_order`,
    :meth:`drop_index`).
    """

    def __init__(self, page_table_size: int = 256) -> None:
        if page_table_size <= 0:
            raise ValueError("page table size must be positive")
        self.page_table_size = page_table_size
        self.pt_page = array("q", bytes(8 * page_table_size))
        self.pt_lastoff = array("q", bytes(8 * page_table_size))
        self.pt_deltas = array("q", bytes(8 * HISTORY * page_table_size))
        self.pt_offsets = array("q", bytes(8 * HISTORY * page_table_size))
        self.pt_dlen = bytearray(page_table_size)
        self.pt_olen = bytearray(page_table_size)
        self.pt_order = array("q", bytes(8 * page_table_size))
        self.ptab_count = 0
        self.last_pcs = array("q", bytes(8 * PC_HISTORY))
        self.lastpc_count = 0
        self._pages: OrderedDict[int, int] | None = OrderedDict()

    def page_index(self) -> OrderedDict[int, int]:
        """Resident page -> slot in LRU order, oldest first.  After
        :meth:`drop_index` it is rebuilt from ``pt_order`` on first use."""
        pages = self._pages
        if pages is None:
            order = self.pt_order[: self.ptab_count]
            pages = OrderedDict(zip(map(self.pt_page.__getitem__, order), order))
            self._pages = pages
        return pages

    def lru_order(self) -> None:
        """Write the resident slots into ``pt_order[:ptab_count]`` in LRU
        order, oldest first (already there after :meth:`drop_index`)."""
        if self._pages is not None:
            self.pt_order[: self.ptab_count] = array("q", self._pages.values())

    def drop_index(self) -> None:
        """Forget :meth:`page_index` after the buffers, ``pt_order`` and
        ``ptab_count`` were written from outside (the native kernel
        replays on them in place)."""
        self._pages = None

    def __getstate__(self) -> dict:
        """Pickle the buffers alone: the page index travels as its LRU
        order and is rebuilt on first use after restore."""
        self.lru_order()
        state = self.__dict__.copy()
        state["_pages"] = None
        return state

    def _touch(self, page: int, offset: int, pc: int) -> tuple[int, int, int]:
        """Advance *page*'s history and the PC path by one access.

        Returns ``(base, length, delta)``: *page*'s window is
        ``pt_deltas``/``pt_offsets[base : base + length]``.  The two
        windows always hold the same number of entries.
        """
        pages = self.page_index()
        slot = pages.get(page)
        if slot is None:
            slot = self.ptab_count
            if slot < self.page_table_size:
                self.ptab_count = slot + 1
            else:
                slot = pages.popitem(last=False)[1]
            pages[page] = slot
            self.pt_page[slot] = page
            n = delta = 0
        else:
            pages.move_to_end(page)
            n = self.pt_dlen[slot]
            delta = offset - self.pt_lastoff[slot]
        self.pt_lastoff[slot] = offset
        deltas = self.pt_deltas
        offsets = self.pt_offsets
        base = slot * HISTORY
        if n < HISTORY:
            deltas[base + n] = delta
            offsets[base + n] = offset
            n += 1
            self.pt_dlen[slot] = self.pt_olen[slot] = n
        else:  # a deque(maxlen=HISTORY): drop the oldest
            deltas[base] = deltas[base + 1]
            deltas[base + 1] = deltas[base + 2]
            deltas[base + 2] = deltas[base + 3]
            deltas[base + 3] = delta
            offsets[base] = offsets[base + 1]
            offsets[base + 1] = offsets[base + 2]
            offsets[base + 2] = offsets[base + 3]
            offsets[base + 3] = offset
        last_pcs = self.last_pcs
        count = self.lastpc_count
        if count < PC_HISTORY:
            last_pcs[count] = pc
            self.lastpc_count = count + 1
        else:
            last_pcs[0] = last_pcs[1]
            last_pcs[1] = last_pcs[2]
            last_pcs[2] = pc
        return base, n, delta

    def observe_basic_cols(self, pc: int, page: int, offset: int) -> tuple[int, int]:
        """Fused observe+encode for the paper's basic state-vector.

        Returns ``(encode(PC_DELTA), encode(LAST4_DELTAS))`` directly,
        skipping the intermediate :class:`Observation` and the encoder
        dispatch.  All extractor state (page histories *and* the PC
        path) advances exactly as :meth:`observe` would, so interleaving
        the two paths is safe; equivalence is pinned by tests.  Takes
        decoded scalars: the replay loops decode page/offset vectorized
        per epoch (:class:`repro.sim.trace.TraceColumns`).
        """
        base, n, delta = self._touch(page, offset, pc)
        # encode_feature(PC_DELTA): _mix(pc, delta & 0x7F), unrolled.
        acc = ((0x811C9DC5 ^ (pc & 0xFFFFFFFF)) * 0x01000193) & 0xFFFFFFFF
        pc_delta = ((acc ^ (delta & 0x7F)) * 0x01000193) & 0xFFFFFFFF
        # encode_feature(LAST4_DELTAS): the folded delta sequence.
        fold = 0
        for d in self.pt_deltas[base : base + n]:
            fold = ((fold << 7) ^ (d & 0x7F)) & 0xFFFFFFFF
        return pc_delta, fold

    def observe(self, ctx: DemandContext) -> Observation:
        """Fold one demand request into the histories; return components."""
        last_pcs = self.last_pcs
        pc_path = 0
        for i in range(self.lastpc_count):
            pc_path ^= last_pcs[i]
        prev_pc = last_pcs[self.lastpc_count - 1] if self.lastpc_count else 0
        base, n, delta = self._touch(ctx.page, ctx.offset, ctx.pc)
        return Observation(
            pc=ctx.pc,
            pc_path=pc_path ^ ctx.pc,
            pc_xor_prev=ctx.pc ^ prev_pc,
            line=ctx.line,
            page=ctx.page,
            offset=ctx.offset,
            delta=delta,
            last4_offsets=tuple(self.pt_offsets[base : base + n]),
            last4_deltas=tuple(self.pt_deltas[base : base + n]),
        )

    def reset(self) -> None:
        """Clear all histories."""
        self._pages = OrderedDict()
        self.ptab_count = 0
        self.lastpc_count = 0

