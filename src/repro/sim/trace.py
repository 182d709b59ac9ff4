"""Memory-access trace format.

A :class:`Trace` is its columns (:class:`TraceColumns`): one entry per
memory instruction, holding its PC, the cacheline it touches, whether it
is a load or a store, and how many non-memory instructions precede it
since the previous record (the *gap*).  The gap is what lets the core
model recover instruction counts — and therefore IPC — from a
memory-only trace, exactly as ChampSim traces carry full instruction
streams but only memory operations affect the caches.

The workload generators and the file loaders fill the columns in bulk;
:class:`TraceRecord` objects are built only on demand, for the scalar
reference loop and for readers that want one record at a time.  Traces
can also be saved to and loaded from a compact text format for
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

    Slotted: the scalar reference loop reads the fields of one instance
    per replayed record.

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
    """A trace as struct-of-arrays: the form every trace is built in.

    ``pc``, ``line`` and ``gap`` are contiguous ``int64`` arrays and
    ``is_load`` a ``bool`` array, one entry per record; ``page`` and
    ``offset`` are derived from ``line`` in bulk.  The native kernel
    reads the arrays in place and the batched backend slices them per
    epoch.  They are read-only, so one instance can be shared by every
    run of the trace without leaking state between them.
    """

    __slots__ = ("length", "pc", "line", "is_load", "gap", "page", "offset")

    def __init__(self, pc, line, is_load, gap) -> None:
        self.pc = _frozen(pc, _np.int64)
        self.line = _frozen(line, _np.int64)
        self.is_load = _frozen(is_load, _np.bool_)
        self.gap = _frozen(gap, _np.int64)
        self.length = len(self.pc)
        if not len(self.line) == len(self.is_load) == len(self.gap) == self.length:
            raise ValueError("trace columns differ in length")
        self.page = _frozen(self.line >> PAGE_SHIFT_LINES, _np.int64)
        self.offset = _frozen(self.line & (LINES_PER_PAGE - 1), _np.int64)

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "TraceColumns":
        """Columns of a record sequence (for traces built record by record)."""
        records = list(records)
        return cls(
            [r.pc for r in records],
            [r.line for r in records],
            [r.is_load for r in records],
            [r.gap for r in records],
        )


def _frozen(values, dtype) -> _np.ndarray:
    array = _np.ascontiguousarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


#: The byte encoding of one record that trace stamps CRC: packed,
#: little-endian, record-major.
RECORD_BYTES = _np.dtype(
    [("pc", "<i8"), ("line", "<i8"), ("is_load", "u1"), ("gap", "<i8")]
)

#: Records encoded per ``zlib.crc32`` call, so no whole-trace byte blob
#: is ever built.
_STAMP_CHUNK = 16_384


def prefix_crc(cols: TraceColumns, stop: int, crc: int = 0, start: int = 0) -> int:
    """CRC32 of records ``[start, stop)`` in :data:`RECORD_BYTES`, chained on *crc*.

    The one stamp of trace content: :attr:`Trace.content_stamp` is the
    full-length prefix, and the engine chains checkpoint prefix stamps
    span by span (CRC32 is a streaming checksum: feeding the
    concatenation equals feeding the chunks).
    """
    for lo in range(start, stop, _STAMP_CHUNK):
        hi = min(lo + _STAMP_CHUNK, stop)
        block = _np.empty(hi - lo, dtype=RECORD_BYTES)
        block["pc"] = cols.pc[lo:hi]
        block["line"] = cols.line[lo:hi]
        block["is_load"] = cols.is_load[lo:hi]
        block["gap"] = cols.gap[lo:hi]
        crc = zlib.crc32(block, crc)
    return crc


class Trace:
    """An ordered, named sequence of memory-access records.

    Args:
        name: human-readable identifier (e.g. ``"spec06/gemsfdtd-765B"``).
        records: the access sequence, as :class:`TraceColumns` (how
            generators and loaders build traces) or as records.
        suite: the workload-suite label used by rollups.
        content_stamp: precomputed CRC32 stamp; externally-ingested
            traces (:mod:`repro.workloads.ingest`) pass the CRC of the
            source file so store fingerprints track the file's bytes.
            When omitted, the stamp is :func:`prefix_crc` of the whole
            trace, computed on first use.
    """

    def __init__(
        self,
        name: str,
        records: TraceColumns | Sequence[TraceRecord] | Iterable[TraceRecord],
        suite: str = "unknown",
        content_stamp: int | None = None,
    ) -> None:
        self.name = name
        self.suite = suite
        if not isinstance(records, TraceColumns):
            records = TraceColumns.from_records(records)
        self._columns = records
        self._records: list[TraceRecord] | None = None
        self._content_stamp: int | None = content_stamp

    def __len__(self) -> int:
        return self._columns.length

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, {len(self)} records, suite={self.suite!r})"

    @property
    def records(self) -> list[TraceRecord]:
        """The records as objects, built from the columns on first use.

        Only the scalar reference loop and outside readers need them;
        treat the list as read-only.
        """
        if self._records is None:
            cols = self._columns
            self._records = list(
                map(
                    TraceRecord,
                    cols.pc.tolist(),
                    cols.line.tolist(),
                    cols.is_load.tolist(),
                    cols.gap.tolist(),
                )
            )
        return self._records

    def columns(self) -> TraceColumns:
        """The trace's columns, shared by every engine replaying it."""
        return self._columns

    @property
    def total_instructions(self) -> int:
        """Total instructions represented, memory and non-memory."""
        return int(self._columns.gap.sum()) + len(self)

    @property
    def content_stamp(self) -> int:
        """CRC32 over the full record content (memoized).

        Used by the result-store fingerprints: two traces with the same
        name but different content (a changed generator, a re-recorded
        file) must never share cache entries.
        """
        if self._content_stamp is None:
            self._content_stamp = prefix_crc(self._columns, len(self))
        return self._content_stamp

    def slice(self, start: int, stop: int) -> "Trace":
        """Return a sub-trace of records ``[start:stop)``."""
        c = self._columns
        return Trace(
            f"{self.name}[{start}:{stop}]",
            TraceColumns(*(col[start:stop] for col in (c.pc, c.line, c.is_load, c.gap))),
            self.suite,
        )

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
        for r in self.records:
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
