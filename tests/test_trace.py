"""Tests for the trace format: records, slicing, serialization."""

import zlib

from hypothesis import given, strategies as st

from repro.sim.trace import Trace, TraceRecord, prefix_crc_bulk


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


def test_content_stamp_is_the_bulk_prefix_crc():
    """The whole-trace stamp chains the checkpoint-prefix encoding over
    bounded chunks; the result is the per-record CRC of that encoding."""
    records = [
        TraceRecord(pc=0x400 + i % 7, line=(i * 37) % 5000, is_load=i % 3 != 0, gap=i % 11)
        for i in range(40_000)  # spans three stamping chunks
    ]
    crc = 0
    for r in records:
        crc = zlib.crc32(b"%x %x %d %d;" % (r.pc, r.line, r.is_load, r.gap), crc)
    stamp = Trace("t", records).content_stamp
    assert stamp == prefix_crc_bulk(records, len(records)) == crc
    assert Trace("empty", []).content_stamp == 0


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
