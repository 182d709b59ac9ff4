"""Streaming ingestion of external memory traces.

Everything else in :mod:`repro.workloads` *generates* traces; this module
*loads* them, so real recorded workloads (ChampSim dumps, pin-tool CSVs,
hand-written scenarios) can ride the same declarative experiment / result
store machinery as the synthetic suites.  Two on-disk formats are
understood, both transparently gzip-decompressed when the path ends in
``.gz``:

* **text** (``.csv`` / ``.txt`` / ``.trace``) — one access per line,
  ``pc,addr[,is_write]``.  ``pc`` and ``addr`` accept decimal or
  ``0x``-prefixed hex; ``is_write`` accepts ``0``/``1``/``r``/``w``
  (case-insensitive) and defaults to a read.  Blank lines and ``#``
  comments are skipped.
* **binary** (``.bin`` / ``.champsim``) — a ChampSim-like fixed-width
  record stream: little-endian ``u64 pc, u64 addr, u8 is_write``
  (17 bytes per record), no header.

Both loaders are streaming: bytes are decoded chunk by chunk straight
into ``int64`` columns, never materializing the file as one string or a
record per object, and loading stops early once the requested record
budget is met (the remaining bytes are still consumed for the content
stamp).  The CRC32 **content stamp** is computed over the decompressed
byte stream and attached to the returned
:class:`~repro.sim.trace.Trace`, which is what lets
:meth:`repro.api.experiment.Cell.fingerprint` self-invalidate store
entries when the file's bytes change.  A PC must fit the signed 64-bit
column (below ``2**63``); a record whose PC does not is rejected with
:class:`TraceIngestError` naming the file and the record.

Traces loaded here are addressable through :mod:`repro.registry` under
the ``file/`` namespace — ``file/<path>`` directly, or ``file/<alias>``
after :func:`repro.registry.register_trace_file`.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from repro.sim.trace import Trace, TraceColumns, TraceRecord
from repro.types import LINE_SIZE, line_of

#: Default non-memory instruction gap for ingested records (the formats
#: above carry no gap; real ChampSim traces interleave non-memory
#: instructions, which this models the same way generators do).
DEFAULT_GAP = 4

#: Little-endian ChampSim-like record: u64 pc, u64 addr, u8 is_write.
BINARY_RECORD = struct.Struct("<QQB")

#: :data:`BINARY_RECORD` as a NumPy record, for decoding whole chunks.
_BINARY_DTYPE = np.dtype([("pc", "<u8"), ("addr", "<u8"), ("is_write", "u1")])

#: The largest PC a trace's signed 64-bit ``pc`` column holds.
MAX_PC = 2**63 - 1

#: Path suffixes understood as the text format.
TEXT_SUFFIXES = {".csv", ".txt", ".trace"}

#: Path suffixes understood as the binary format.
BINARY_SUFFIXES = {".bin", ".champsim"}

_CHUNK = 1 << 16


class TraceIngestError(ValueError):
    """A trace file could not be parsed (malformed line, truncation, …)."""


def detect_format(path: str | Path) -> str:
    """``"text"`` or ``"binary"``, from the path's (pre-``.gz``) suffix."""
    name = Path(path).name.lower()
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    suffix = Path(name).suffix
    if suffix in TEXT_SUFFIXES:
        return "text"
    if suffix in BINARY_SUFFIXES:
        return "binary"
    raise TraceIngestError(
        f"cannot infer trace format of {str(path)!r}; expected a "
        f"{sorted(TEXT_SUFFIXES | BINARY_SUFFIXES)} suffix (optionally "
        "gzipped) or an explicit fmt="
    )


def _open_stream(path: Path) -> BinaryIO:
    if path.name.lower().endswith(".gz"):
        return gzip.open(path, "rb")  # type: ignore[return-value]
    return open(path, "rb")


class _Crc32Stream:
    """Read-through wrapper accumulating CRC32 over every byte read.

    :func:`load_trace_file` parses records and computes the content
    stamp in one pass over the (decompressed) stream: the parser reads
    through this wrapper, and whatever it did not consume is drained at
    the end so the stamp always covers the whole file.
    """

    def __init__(self, inner: BinaryIO) -> None:
        self._inner = inner
        self.crc = 0

    def read(self, n: int = -1) -> bytes:
        data = self._inner.read(n)
        if data:
            self.crc = zlib.crc32(data, self.crc)
        return data

    def drain(self) -> None:
        while self.read(_CHUNK):
            pass


def _chunks(stream) -> Iterator[bytes]:
    while True:
        chunk = stream.read(_CHUNK)
        if not chunk:
            return
        yield chunk


def file_stamp(path: str | Path) -> int:
    """CRC32 over the (decompressed) byte stream of *path*.

    This is the content stamp :func:`load_trace_file` attaches to the
    traces it builds, recomputed without parsing; result-store
    fingerprints fold it in so entries die when the file changes.
    """
    crc = 0
    try:
        with _open_stream(Path(path)) as stream:
            for chunk in _chunks(stream):
                crc = zlib.crc32(chunk, crc)
    except OSError as exc:
        raise TraceIngestError(f"cannot read trace file {str(path)!r}: {exc}") from exc
    return crc


def _parse_int(token: str) -> int:
    token = token.strip()
    return int(token, 16) if token.lower().startswith("0x") else int(token)


_WRITE_TOKENS = {"1": True, "w": True, "true": True, "0": False, "r": False, "false": False}


def _parse_fields(line: str) -> tuple[int, int, bool] | None:
    """One ``pc,addr[,is_write]`` line → its fields (``None`` for non-data).

    Raises :class:`TraceIngestError` on malformed data lines; the caller
    adds file/line context.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    fields = [f.strip() for f in line.split(",")]
    if len(fields) not in (2, 3):
        raise TraceIngestError(
            f"expected 'pc,addr[,is_write]', got {len(fields)} field(s)"
        )
    try:
        pc = _parse_int(fields[0])
        addr = _parse_int(fields[1])
    except ValueError as exc:
        raise TraceIngestError(f"bad integer field: {exc}") from exc
    is_write = False
    if len(fields) == 3:
        try:
            is_write = _WRITE_TOKENS[fields[2].lower()]
        except KeyError:
            raise TraceIngestError(
                f"bad is_write field {fields[2]!r} (want 0/1/r/w)"
            ) from None
    if pc < 0 or addr < 0:
        raise TraceIngestError("pc/addr must be non-negative")
    if addr >= 2**64:
        raise TraceIngestError(f"addr {addr:#x} does not fit in 64 bits")
    return pc, addr, is_write


def parse_text_line(line: str) -> TraceRecord | None:
    """One ``pc,addr[,is_write]`` line → record (``None`` for non-data).

    Raises :class:`TraceIngestError` on malformed data lines.
    """
    fields = _parse_fields(line)
    if fields is None:
        return None
    pc, addr, is_write = fields
    return TraceRecord(pc=pc, line=line_of(addr), is_load=not is_write, gap=DEFAULT_GAP)


def _pc_too_large(path: Path, where: str, index: int, pc: int) -> TraceIngestError:
    return TraceIngestError(
        f"{path}{where}: record {index}: pc {pc:#x} does not fit a signed "
        f"64-bit column (must be below 2**63)"
    )


#: Per decoded chunk: ``(pc, line, is_load)`` columns.
Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


def _text_columns(stream: BinaryIO, path: Path, budget: int) -> Iterator[Columns]:
    """The records of a text trace, chunk by chunk, up to *budget*."""
    buffer = b""
    lineno = records = 0
    eof = False
    while not eof and records < budget:
        chunk = stream.read(_CHUNK)
        eof = not chunk
        buffer += chunk if chunk else b"\n"  # the last line may lack one
        *lines, buffer = buffer.split(b"\n")
        pcs: list[int] = []
        addrs: list[int] = []
        loads: list[bool] = []
        for raw in lines:
            lineno += 1
            try:
                fields = _parse_fields(raw.decode("utf-8"))
            except (TraceIngestError, UnicodeDecodeError) as exc:
                raise TraceIngestError(f"{path}:{lineno}: {exc}") from None
            if fields is None:
                continue
            pc, addr, is_write = fields
            if pc > MAX_PC:
                raise _pc_too_large(path, f":{lineno}", records, pc)
            pcs.append(pc)
            addrs.append(addr // LINE_SIZE)
            loads.append(not is_write)
            records += 1
            if records == budget:
                break
        yield (
            np.array(pcs, dtype=np.int64),
            np.array(addrs, dtype=np.int64),
            np.array(loads, dtype=np.bool_),
        )


def _binary_columns(stream: BinaryIO, path: Path, budget: int) -> Iterator[Columns]:
    """The records of a binary trace, chunk by chunk, up to *budget*."""
    size = BINARY_RECORD.size
    buffer = b""
    records = 0
    for chunk in _chunks(stream):
        buffer += chunk
        whole = len(buffer) // size
        count = min(whole, budget - records)
        block = np.frombuffer(buffer, dtype=_BINARY_DTYPE, count=count)
        too_large = np.flatnonzero(block["pc"] > MAX_PC)
        if too_large.size:
            first = int(too_large[0])
            raise _pc_too_large(path, "", records + first, int(block["pc"][first]))
        yield (
            block["pc"].astype(np.int64),
            (block["addr"] // LINE_SIZE).astype(np.int64),
            block["is_write"] == 0,
        )
        records += len(block)
        if records == budget:
            return
        buffer = buffer[whole * size :]
    if buffer:
        raise TraceIngestError(
            f"{path}: truncated binary trace — {len(buffer)} trailing byte(s) "
            f"do not form a whole {size}-byte record"
        )


def load_trace_file(
    path: str | Path,
    length: int | None = None,
    name: str | None = None,
    suite: str = "FILE",
    fmt: str | None = None,
    gap: int | None = None,
) -> Trace:
    """Load an external trace file into a :class:`Trace`.

    Args:
        path: trace file (text or binary, optionally ``.gz``).
        length: record budget; files longer than *length* are truncated,
            shorter files load whole (generated traces always have
            exactly ``length`` records — file traces have however many
            the recording holds, capped here).
        name: trace name; defaults to ``file/<path>`` so records group
            under the same name the registry addresses the file by.
        suite: suite label used by rollups.
        fmt: ``"text"`` / ``"binary"`` override for off-convention paths.
        gap: override the per-record non-memory gap (default
            :data:`DEFAULT_GAP`).

    The returned trace carries the CRC32 of the file's (decompressed)
    bytes as its content stamp — computed in the same pass that parses
    the records (equal to :func:`file_stamp` of the same bytes) — so
    store fingerprints self-invalidate when the file's bytes change.
    """
    path = Path(path)
    fmt = fmt or detect_format(path)
    if fmt not in ("text", "binary"):
        raise TraceIngestError(f"unknown trace format {fmt!r} (want text/binary)")
    reader = _text_columns if fmt == "text" else _binary_columns
    budget = length if length is not None else float("inf")
    chunks: list[Columns] = []
    try:
        with _open_stream(path) as stream:
            tee = _Crc32Stream(stream)
            if budget > 0:
                chunks = list(reader(tee, path, budget))
            tee.drain()  # the stamp covers the whole file, budget or not
    except OSError as exc:
        raise TraceIngestError(f"cannot read trace file {str(path)!r}: {exc}") from exc
    if not sum(len(pc) for pc, _, _ in chunks):
        raise TraceIngestError(f"{path}: trace file holds no records")
    pc, line, is_load = (np.concatenate(column) for column in zip(*chunks))
    gaps = np.full(len(pc), DEFAULT_GAP if gap is None else gap, dtype=np.int64)
    return Trace(
        name if name is not None else f"file/{path}",
        TraceColumns(pc, line, is_load, gaps),
        suite,
        content_stamp=tee.crc,
    )
