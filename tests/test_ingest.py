"""Tests for external trace ingestion (:mod:`repro.workloads.ingest`)
and its ``file/`` registry namespace.

Covers the round trip (write → load → simulate), both on-disk formats
(text and ChampSim-like binary, plain and gzipped), malformed-line and
truncated-file error reporting, and the property the result store leans
on: fingerprints of ``file/`` cells change when the file's bytes change.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import pytest

from repro import registry
from repro.api import Cell, PrefetcherSpec, ResultStore, Session, SystemSpec
from repro.sim.trace import TraceRecord
from repro.workloads.ingest import (
    BINARY_RECORD,
    TraceIngestError,
    detect_format,
    file_stamp,
    load_trace_file,
    parse_text_line,
)

pytestmark = pytest.mark.quick

SAMPLES = Path(__file__).parent / "data" / "traces"
SAMPLE_FILES = [
    "stream.csv",
    "stride_writes.csv.gz",
    "pointer.bin",
    "mixed.champsim.gz",
]


def _write_text(path: Path, lines: list[str], gz: bool = False) -> Path:
    data = ("\n".join(lines) + "\n").encode()
    if gz:
        path.write_bytes(gzip.compress(data))
    else:
        path.write_bytes(data)
    return path


# ---- parsing --------------------------------------------------------------


def test_parse_text_line_variants():
    rec = parse_text_line("0x400100,0x1f40,1")
    assert rec is not None and rec.pc == 0x400100 and not rec.is_load
    assert parse_text_line("1024,2048").is_load  # decimal, default read
    assert parse_text_line("1024,2048,w").is_load is False
    assert parse_text_line("1024,2048,R").is_load is True
    assert parse_text_line("") is None
    assert parse_text_line("# comment") is None


@pytest.mark.parametrize(
    "bad",
    ["justonefield", "1,2,3,4", "0xzz,12", "12,notanint", "1,2,maybe", "-1,2"],
)
def test_parse_text_line_rejects(bad):
    with pytest.raises(TraceIngestError):
        parse_text_line(bad)


def test_detect_format():
    assert detect_format("a/b.csv") == "text"
    assert detect_format("a/b.trace.gz") == "text"
    assert detect_format("a/b.champsim.gz") == "binary"
    assert detect_format("a/b.bin") == "binary"
    with pytest.raises(TraceIngestError):
        detect_format("a/b.dat")


# ---- the committed samples ------------------------------------------------


@pytest.mark.parametrize("sample", SAMPLE_FILES)
def test_samples_load_and_simulate(sample):
    trace = load_trace_file(SAMPLES / sample, length=120)
    assert 0 < len(trace) <= 120
    assert trace.content_stamp == file_stamp(SAMPLES / sample)
    record = Session(store=ResultStore(), trace_length=120).run_one(
        f"file/{SAMPLES / sample}", "stride"
    )
    assert record.suite == "FILE"
    assert record.result.instructions > 0


def test_sample_mixed_has_writes():
    trace = load_trace_file(SAMPLES / "mixed.champsim.gz")
    kinds = {r.is_load for r in trace}
    assert kinds == {True, False}


# ---- round trip -----------------------------------------------------------


def test_text_round_trip(tmp_path):
    lines = ["# header comment"] + [
        f"0x{0x400 + i % 3:x},0x{(1000 + 7 * i) * 64:x},{i % 5 == 0:d}"
        for i in range(50)
    ]
    path = _write_text(tmp_path / "rt.csv", lines)
    trace = load_trace_file(path)
    assert len(trace) == 50
    assert sum(not r.is_load for r in trace) == 10
    gz = _write_text(tmp_path / "rt2.csv.gz", lines, gz=True)
    assert load_trace_file(gz).content_stamp == trace.content_stamp  # same bytes


def test_binary_round_trip(tmp_path):
    records = [(0x400 + i, (5000 + i * 3) * 64, i % 4 == 0) for i in range(64)]
    raw = b"".join(BINARY_RECORD.pack(pc, addr, w) for pc, addr, w in records)
    path = tmp_path / "rt.bin"
    path.write_bytes(raw)
    trace = load_trace_file(path)
    assert len(trace) == 64
    assert [r.pc for r in trace] == [pc for pc, _, _ in records]
    assert [not r.is_load for r in trace] == [w for _, _, w in records]


def test_length_caps_but_stamps_whole_file(tmp_path):
    path = _write_text(
        tmp_path / "cap.csv", [f"0x400,{i * 64}" for i in range(100)]
    )
    short = load_trace_file(path, length=10)
    assert len(short) == 10
    assert short.content_stamp == file_stamp(path)  # stamp covers all bytes


# ---- error cases ----------------------------------------------------------


def test_malformed_line_reports_location(tmp_path):
    path = _write_text(tmp_path / "bad.csv", ["0x400,64", "0x400,nonsense,1"])
    with pytest.raises(TraceIngestError, match=r"bad\.csv:2"):
        load_trace_file(path)


def test_truncated_binary_rejected(tmp_path):
    good = BINARY_RECORD.pack(0x400, 64, 0) * 5
    path = tmp_path / "trunc.bin"
    path.write_bytes(good + b"\x01\x02\x03")  # 3 trailing bytes
    with pytest.raises(TraceIngestError, match="truncated"):
        load_trace_file(path)


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_pc_beyond_63_bits_rejected_at_load(tmp_path, fmt):
    """A kernel-space PC such as 0xffffffff81000000 does not fit the
    signed 64-bit column: loading names the file and the record instead
    of letting replay fail (or a bulk cast wrap the PC negative)."""
    pcs = [0x400, 0x404, 0xFFFFFFFF81000000, 0x408]
    if fmt == "text":
        lines = ["# pc,addr"] + [f"{pc:#x},{64 * i}" for i, pc in enumerate(pcs)]
        path = _write_text(tmp_path / "kernel.csv", lines)
        where = r"kernel\.csv:4: record 2: pc 0xffffffff81000000"
    else:
        path = tmp_path / "kernel.bin"
        path.write_bytes(
            b"".join(BINARY_RECORD.pack(pc, 64 * i, 0) for i, pc in enumerate(pcs))
        )
        where = r"kernel\.bin: record 2: pc 0xffffffff81000000"
    with pytest.raises(TraceIngestError, match=where):
        load_trace_file(path)
    with pytest.raises(TraceIngestError, match=where):
        registry.make_trace(f"file/{path}", 100)
    # A budget that stops before the bad record loads the records
    # before it, and the largest PC that fits loads unchanged.
    assert load_trace_file(path, length=2)[1].pc == 0x404
    edge = tmp_path / "edge.csv"
    _write_text(edge, [f"{2**63 - 1:#x},64"])
    assert load_trace_file(edge)[0].pc == 2**63 - 1


def test_text_addr_beyond_64_bits_rejected(tmp_path):
    path = _write_text(tmp_path / "wide.csv", ["0x400,64", f"0x400,{2**64:#x}"])
    with pytest.raises(TraceIngestError, match=r"wide\.csv:2: addr"):
        load_trace_file(path)


def test_empty_and_missing_files_rejected(tmp_path):
    empty = _write_text(tmp_path / "empty.csv", ["# only comments"])
    with pytest.raises(TraceIngestError, match="no records"):
        load_trace_file(empty)
    with pytest.raises(TraceIngestError, match="cannot read"):
        load_trace_file(tmp_path / "missing.csv")


# ---- registry namespace ---------------------------------------------------


def test_registry_direct_path_and_alias(tmp_path):
    path = _write_text(tmp_path / "t.csv", [f"0x400,{i * 64}" for i in range(30)])
    direct = registry.cached_trace(f"file/{path}", 30)
    assert direct.name == f"file/{path}"
    assert registry.suite_of(f"file/{path}") == "FILE"

    name = registry.register_trace_file("aliased", path, suite="CUSTOM")
    assert name == "file/aliased"
    assert name in registry.registered_trace_files()
    aliased = registry.cached_trace(name, 30)
    assert aliased.suite == "CUSTOM"
    assert aliased.content_stamp == direct.content_stamp
    with pytest.raises(ValueError):
        registry.register_trace_file("no/slashes", path)


def test_alias_shadowing_real_file_is_an_error(tmp_path, monkeypatch):
    """An alias must never silently win over an existing file of the
    same name — that would load the wrong trace with no error."""
    monkeypatch.chdir(tmp_path)
    _write_text(tmp_path / "data.csv", ["0x400,64"])
    _write_text(tmp_path / "other.csv", ["0x500,128", "0x500,256"])
    registry.register_trace_file("data.csv", tmp_path / "other.csv")
    try:
        with pytest.raises(KeyError, match="ambiguous"):
            registry.cached_trace("file/data.csv", 10)
        # The unambiguous spellings both still work.
        assert len(registry.cached_trace("file/./data.csv", 10)) == 1
        registry.register_trace_file("elsewhere", tmp_path / "other.csv")
        assert len(registry.cached_trace("file/elsewhere", 10)) == 2
    finally:
        registry._TRACE_FILES.pop("data.csv", None)
        registry._TRACE_FILES.pop("elsewhere", None)


def test_stamp_cache_tracks_rewrites(tmp_path):
    """The stat-validated stamp cache must re-CRC a rewritten file and
    serve an unchanged one without a fresh read."""
    path = _write_text(tmp_path / "c.csv", ["0x400,64"])
    first = registry.trace_stamp(f"file/{path}")
    assert registry.trace_stamp(f"file/{path}") == first
    _write_text(path, ["0x400,128"])
    assert registry.trace_stamp(f"file/{path}") != first


def test_file_traces_are_not_reseedable(tmp_path):
    path = _write_text(tmp_path / "t.csv", ["0x400,64"])
    assert registry.reseed_trace_name(f"file/{path}", 2) is None
    assert registry.base_workload_name(f"file/{path}") == f"file/{path}"


# ---- store-fingerprint invalidation ---------------------------------------


def _file_cell(path, length=40) -> Cell:
    return Cell(
        trace=f"file/{path}",
        prefetcher=PrefetcherSpec("stride"),
        system=SystemSpec.of("1c"),
        trace_length=length,
        warmup_fraction=0.2,
    )


def test_fingerprint_tracks_file_bytes(tmp_path):
    path = _write_text(tmp_path / "v.csv", [f"0x400,{i * 64}" for i in range(40)])
    before = _file_cell(path).fingerprint()
    assert before == _file_cell(path).fingerprint()  # stable while unchanged
    _write_text(path, [f"0x400,{i * 128}" for i in range(40)])
    assert _file_cell(path).fingerprint() != before


def test_store_reruns_after_file_change(tmp_path):
    path = _write_text(tmp_path / "s.csv", [f"0x400,{i * 64}" for i in range(40)])
    session = Session(store=ResultStore(tmp_path / "store"), trace_length=40)
    experiment = (
        session.experiment("file-invalidation")
        .with_traces(f"file/{path}")
        .with_prefetchers("stride")
    )
    first = session.run(experiment)
    assert first.stats["simulated"] == first.stats["cells"] == 2

    again = session.run(experiment)
    assert again.stats["simulated"] == 0  # unchanged file: served from store

    _write_text(path, [f"0x400,{i * 192}" for i in range(40)])
    changed = session.run(experiment)
    assert changed.stats["simulated"] == changed.stats["cells"] == 2
    assert (
        changed[0].result.llc_load_misses != first[0].result.llc_load_misses
        or changed[0].result.ipc != first[0].result.ipc
    )
