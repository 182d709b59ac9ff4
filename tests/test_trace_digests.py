"""Generated and ingested traces, pinned record for record.

``tests/data/trace_digests.json`` holds, for every registered workload
(seeds 1 and 3), every unseen ``cvp/`` trace (two seeds) and every
committed ``file/`` sample, at lengths 1, 1,500 and 20,000, the record
count and the CRC32 of the records in the text encoding
``b"%x %x %d %d;" % (pc, line, is_load, gap)``.  The digests are
recomputed here from each trace's columns, so any change to what a
generator or a loader emits fails this test.

Re-record (only when a change *means* to alter traces, and say so)::

    PYTHONPATH=src python tests/test_trace_digests.py --record
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

import pytest

from repro import registry
from repro.workloads import cvp_trace_names, workload_names

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "trace_digests.json"
SAMPLES = ("stream.csv", "stride_writes.csv.gz", "pointer.bin", "mixed.champsim.gz")
LENGTHS = (1, 1_500, 20_000)
SEEDS = (1, 3)


def _sources() -> dict[str, str]:
    """Fixture key → registry name of every pinned trace."""
    names = {f"{w}-{s}": f"{w}-{s}" for w in workload_names() for s in SEEDS}
    names.update({n: n for n in cvp_trace_names(2)})
    names.update(
        {f"file/{sample}": f"file/{DATA / 'traces' / sample}" for sample in SAMPLES}
    )
    return names


def record_digest(trace) -> list[int]:
    """``[record count, CRC32 of the text encoding]`` from the columns."""
    cols = trace.columns()
    blob = b"".join(
        b"%x %x %d %d;" % record
        for record in zip(
            cols.pc.tolist(), cols.line.tolist(), cols.is_load.tolist(), cols.gap.tolist()
        )
    )
    return [cols.length, zlib.crc32(blob)]


def _digests() -> dict[str, dict[str, list[int]]]:
    return {
        key: {str(n): record_digest(registry.make_trace(name, n)) for n in LENGTHS}
        for key, name in _sources().items()
    }


def test_every_trace_matches_its_recorded_digest():
    expected = json.loads(DIGESTS.read_text())
    actual = _digests()
    assert sorted(actual) == sorted(expected)
    mismatched = sorted(
        f"{key}@{n}"
        for key, by_length in expected.items()
        for n, digest in by_length.items()
        if actual[key][n] != digest
    )
    assert not mismatched, mismatched


@pytest.fixture
def record_constructions(monkeypatch):
    """Count every ``TraceRecord`` built while the test runs."""
    from repro.sim.trace import TraceRecord

    built = []
    original = TraceRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TraceRecord, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    "name", ["spec06/lbm-1", "ligra/cc-2", "synth/llist-small-1", "cvp/int-parse-1"]
)
def test_trace_preparation_builds_no_records(name, record_constructions):
    from repro.sim import _native
    from repro.sim.system import simulate

    trace = registry.make_trace(name, 2_000)
    registry.trace_stamp(name, 2_000)
    trace.content_stamp
    trace.columns()
    if _native.available():
        simulate(trace, prefetcher=registry.create("pythia"))
    assert not record_constructions
    # Outside readers still get records, built on demand.
    assert trace[0].gap == trace.records[0].gap
    assert record_constructions


def test_file_trace_preparation_builds_no_records(record_constructions):
    for sample in SAMPLES:
        trace = registry.make_trace(f"file/{DATA / 'traces' / sample}", 500)
        trace.columns()
        trace.content_stamp
    assert not record_constructions


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(_digests().items())]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {DIGESTS}")
