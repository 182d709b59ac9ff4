"""Tests for the trace format: records, slicing, serialization."""

import dataclasses
import zlib

import numpy as np
from hypothesis import given, strategies as st

from repro.sim.trace import RECORD_BYTES, Trace, TraceRecord, prefix_crc


def _record_strategy():
    return st.builds(
        TraceRecord,
        pc=st.integers(min_value=0, max_value=2**32 - 1),
        line=st.integers(min_value=0, max_value=2**40 - 1),
        is_load=st.booleans(),
        gap=st.integers(min_value=0, max_value=200),
    )


def test_record_instruction_count():
    record = TraceRecord(pc=1, line=2, is_load=True, gap=9)
    assert record.instruction_count == 10


def test_trace_basics():
    records = [TraceRecord(pc=i, line=i, gap=3) for i in range(5)]
    trace = Trace("t", records, suite="S")
    assert len(trace) == 5
    assert trace[0].pc == 0
    assert trace.suite == "S"
    assert trace.total_instructions == 5 * 4
    assert [r.pc for r in trace] == list(range(5))


def test_content_stamp_is_the_full_length_prefix_stamp():
    """The whole-trace stamp is the checkpoint prefix stamp at full
    length: one CRC32 over the packed record-major column bytes, chained
    over bounded chunks, and over any span split the engine makes."""
    records = [
        TraceRecord(pc=0x400 + i % 7, line=(i * 37) % 5000, is_load=i % 3 != 0, gap=i % 11)
        for i in range(40_000)  # spans three stamping chunks
    ]
    trace = Trace("t", records)
    cols = trace.columns()
    stamp = trace.content_stamp
    assert stamp == prefix_crc(cols, len(trace))
    crc = 0
    for start, stop in ((0, 7), (7, 16_390), (16_390, 32_768), (32_768, 40_000)):
        crc = prefix_crc(cols, stop, crc, start)
    assert crc == stamp
    block = np.empty(len(trace), dtype=RECORD_BYTES)
    for field in ("pc", "line", "is_load", "gap"):
        block[field] = [getattr(r, field) for r in records]
    assert zlib.crc32(block.tobytes()) == stamp
    assert Trace("empty", []).content_stamp == 0


def test_content_stamp_covers_every_field():
    records = [TraceRecord(pc=0x400 + i, line=3 * i, is_load=True, gap=4) for i in range(50)]
    stamp = Trace("t", records).content_stamp
    for change in ({"pc": 1}, {"line": 1}, {"is_load": False}, {"gap": 5}):
        edited = list(records)
        edited[17] = dataclasses.replace(records[17], **change)
        assert Trace("t", edited).content_stamp != stamp, change


def test_trace_slice():
    records = [TraceRecord(pc=i, line=i) for i in range(10)]
    trace = Trace("t", records)
    sub = trace.slice(2, 5)
    assert len(sub) == 3
    assert sub[0].pc == 2
    assert sub.suite == trace.suite


def test_from_byte_addresses():
    trace = Trace.from_byte_addresses("t", [(0x400, 0), (0x404, 64)], gap=2)
    assert trace[0].line == 0
    assert trace[1].line == 1
    assert trace[0].gap == 2


def test_serialization_roundtrip_simple():
    records = [
        TraceRecord(pc=0x400100, line=12345, is_load=True, gap=7),
        TraceRecord(pc=0x400200, line=54321, is_load=False, gap=0),
    ]
    trace = Trace("my-trace", records, suite="SPEC06")
    loaded = Trace.loads(trace.dumps())
    assert loaded.name == "my-trace"
    assert loaded.suite == "SPEC06"
    assert loaded.records == records


@given(st.lists(_record_strategy(), max_size=50))
def test_serialization_roundtrip_property(records):
    trace = Trace("prop", records, suite="X")
    loaded = Trace.loads(trace.dumps())
    assert loaded.records == records
    assert loaded.suite == "X"


def test_save_load_file(tmp_path):
    records = [TraceRecord(pc=1, line=2, gap=3)]
    trace = Trace("file-trace", records)
    path = tmp_path / "trace.txt"
    trace.save(str(path))
    loaded = Trace.load(str(path))
    assert loaded.records == records
