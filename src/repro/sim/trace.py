"""Memory-access trace format.

A :class:`Trace` is an ordered sequence of :class:`TraceRecord` objects,
each describing one memory instruction: its PC, the cacheline it touches,
whether it is a load or a store, and how many non-memory instructions
precede it since the previous record (the *gap*).  The gap is what lets the
core model recover instruction counts — and therefore IPC — from a
memory-only trace, exactly as ChampSim traces carry full instruction
streams but only memory operations affect the caches.

Traces can be streamed from generators (the normal path for the synthetic
workloads) or saved to and loaded from a compact text format for
repeatable experiments.
"""

from __future__ import annotations

import io
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as _np

from repro.types import LINES_PER_PAGE, PAGE_SHIFT_LINES, line_of


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One memory instruction in a trace.

    Slotted: a trace holds one instance per memory instruction and the
    simulation loop reads their fields once per replayed record.

    Attributes:
        pc: program counter of the memory instruction.
        line: cacheline number accessed.
        is_load: True for loads, False for stores.
        gap: count of non-memory instructions since the previous record.
    """

    pc: int
    line: int
    is_load: bool = True
    gap: int = 4

    @property
    def instruction_count(self) -> int:
        """Instructions this record accounts for: the gap plus itself."""
        return self.gap + 1


class TraceColumns:
    """NumPy struct-of-arrays decode of a trace's records.

    The batched replay backend (:mod:`repro.sim.batch`) iterates column
    slices instead of :class:`TraceRecord` objects: the record fields are
    decoded **once** into preallocated ``int64`` arrays, the derived
    address math (page number, in-page offset) is vectorized here, and
    per-epoch the kernel materializes just its slice as Python lists
    (``ndarray.tolist`` on a contiguous slice).  Columns are pure
    functions of the record sequence, so sharing one instance across
    runs (via :meth:`Trace.columns`) cannot leak state between them.
    """

    __slots__ = ("length", "pc", "line", "is_load", "gap", "page", "offset")

    def __init__(self, records: Sequence[TraceRecord]) -> None:
        n = len(records)
        self.length = n
        pc = _np.empty(n, dtype=_np.int64)
        line = _np.empty(n, dtype=_np.int64)
        is_load = _np.empty(n, dtype=_np.bool_)
        gap = _np.empty(n, dtype=_np.int64)
        for i, r in enumerate(records):
            pc[i] = r.pc
            line[i] = r.line
            is_load[i] = r.is_load
            gap[i] = r.gap
        self.pc = pc
        self.line = line
        self.is_load = is_load
        self.gap = gap
        # Vectorized address math: one shift/mask sweep replaces two
        # Python-level ops per record per training event.
        self.page = line >> PAGE_SHIFT_LINES
        self.offset = line & (LINES_PER_PAGE - 1)


#: Records per :func:`prefix_crc_bulk` call when stamping a whole trace,
#: so no whole-trace byte blob is ever built.
_STAMP_CHUNK = 16_384


def prefix_crc_bulk(
    records: Sequence[TraceRecord], stop: int, crc: int = 0, start: int = 0
) -> int:
    """CRC32 over ``records[start:stop]`` from one joined byte blob.

    The one byte encoding of trace records: :attr:`Trace.content_stamp`
    and the engine's checkpoint prefix stamps both chain it (CRC32 is a
    streaming checksum: feeding the concatenation equals feeding the
    chunks), one ``zlib.crc32`` call per chunk instead of one per record.
    """
    blob = b"".join(
        b"%x %x %d %d;" % (r.pc, r.line, r.is_load, r.gap)
        for r in records[start:stop]
    )
    return zlib.crc32(blob, crc)


class Trace:
    """An ordered, named sequence of memory-access records.

    Args:
        name: human-readable identifier (e.g. ``"spec06/gemsfdtd-765B"``).
        records: the access sequence.
        suite: the workload-suite label used by rollups.
        content_stamp: precomputed CRC32 stamp; externally-ingested
            traces (:mod:`repro.workloads.ingest`) pass the CRC of the
            source file so store fingerprints track the file's bytes.
            When omitted, the stamp is derived lazily from the records.
    """

    def __init__(
        self,
        name: str,
        records: Sequence[TraceRecord] | Iterable[TraceRecord],
        suite: str = "unknown",
        content_stamp: int | None = None,
    ) -> None:
        self.name = name
        self.suite = suite
        self._records: list[TraceRecord] = list(records)
        self._content_stamp: int | None = content_stamp
        self._columns: TraceColumns | None = None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, {len(self)} records, suite={self.suite!r})"

    @property
    def records(self) -> list[TraceRecord]:
        """The underlying record list (not a copy; treat as read-only)."""
        return self._records

    def columns(self) -> TraceColumns:
        """The columnar (struct-of-arrays) decode of this trace (memoized).

        Records are treated as read-only after construction, so the
        decode is computed at most once per trace instance and shared by
        every engine replaying it (``registry.cached_trace`` keeps traces
        alive across runs, making repeat replays decode-free).
        """
        if self._columns is None:
            self._columns = TraceColumns(self._records)
        return self._columns

    @property
    def total_instructions(self) -> int:
        """Total instructions represented, memory and non-memory."""
        return sum(r.instruction_count for r in self._records)

    @property
    def content_stamp(self) -> int:
        """CRC32 over the full record content (memoized).

        Used by the result-store fingerprints: two traces with the same
        name but different content (a changed generator, a re-recorded
        file) must never share cache entries.
        """
        if self._content_stamp is None:
            records = self._records
            crc = 0
            for start in range(0, len(records), _STAMP_CHUNK):
                crc = prefix_crc_bulk(records, start + _STAMP_CHUNK, crc, start)
            self._content_stamp = crc
        return self._content_stamp

    def slice(self, start: int, stop: int) -> "Trace":
        """Return a sub-trace of records ``[start:stop)``."""
        return Trace(f"{self.name}[{start}:{stop}]", self._records[start:stop], self.suite)

    @classmethod
    def from_byte_addresses(
        cls,
        name: str,
        accesses: Iterable[tuple[int, int]],
        suite: str = "unknown",
        gap: int = 4,
    ) -> "Trace":
        """Build a trace from ``(pc, byte_address)`` pairs of loads."""
        records = [
            TraceRecord(pc=pc, line=line_of(addr), is_load=True, gap=gap)
            for pc, addr in accesses
        ]
        return cls(name, records, suite)

    # -- serialization -----------------------------------------------------

    def dumps(self) -> str:
        """Serialize to the compact text format (one record per line)."""
        out = io.StringIO()
        out.write(f"# trace {self.name} suite={self.suite}\n")
        for r in self._records:
            kind = "L" if r.is_load else "S"
            out.write(f"{r.pc:x} {r.line:x} {kind} {r.gap}\n")
        return out.getvalue()

    @classmethod
    def loads(cls, text: str) -> "Trace":
        """Parse a trace from :meth:`dumps` output."""
        name = "loaded"
        suite = "unknown"
        records: list[TraceRecord] = []
        for raw in text.splitlines():
            raw = raw.strip()
            if not raw:
                continue
            if raw.startswith("#"):
                parts = raw.split()
                if len(parts) >= 3 and parts[1] == "trace":
                    name = parts[2]
                    for p in parts[3:]:
                        if p.startswith("suite="):
                            suite = p.split("=", 1)[1]
                continue
            pc_s, line_s, kind, gap_s = raw.split()
            records.append(
                TraceRecord(
                    pc=int(pc_s, 16),
                    line=int(line_s, 16),
                    is_load=kind == "L",
                    gap=int(gap_s),
                )
            )
        return cls(name, records, suite)

    def save(self, path: str) -> None:
        """Write the trace to *path* in text format."""
        with open(path, "w", encoding="ascii") as f:
            f.write(self.dumps())

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        with open(path, "r", encoding="ascii") as f:
            return cls.loads(f.read())
