"""Tests for stride, streamer, composite, and the registry."""

import pytest

from repro.prefetchers import (
    CompositePrefetcher,
    NoPrefetcher,
    StridePrefetcher,
    StreamerPrefetcher,
)
from repro.registry import available_prefetchers, create
from repro.prefetchers.base import DemandContext
from repro.types import make_line


def ctx(pc, page, offset, cycle=0, bw_high=False):
    return DemandContext(
        pc=pc, line=make_line(page, offset), cycle=cycle, bandwidth_high=bw_high
    )


class TestNoPrefetcher:
    def test_never_prefetches(self):
        pf = NoPrefetcher()
        assert pf.train(ctx(1, 1, 0)) == []


class TestStride:
    def test_learns_constant_stride(self):
        pf = StridePrefetcher(degree=2, confidence_threshold=2)
        assert pf.train(ctx(0x400, 10, 0)) == []
        assert pf.train(ctx(0x400, 10, 3)) == []   # first stride observed
        # Second identical stride reaches the confidence threshold.
        out = pf.train(ctx(0x400, 10, 6))
        assert out == [make_line(10, 9), make_line(10, 12)]

    def test_stride_change_resets_confidence(self):
        pf = StridePrefetcher(degree=1, confidence_threshold=2)
        for offset in [0, 3, 6, 9]:
            pf.train(ctx(0x400, 10, offset))
        assert pf.train(ctx(0x400, 10, 11)) == []  # stride changed to 2

    def test_different_pcs_tracked_separately(self):
        pf = StridePrefetcher(degree=1, confidence_threshold=2)
        for offset in [0, 2, 4, 6]:
            pf.train(ctx(0x400, 10, offset))
            pf.train(ctx(0x500, 20, 63 - offset))
        out_a = pf.train(ctx(0x400, 10, 8))
        assert make_line(10, 9) not in out_a
        assert make_line(10, 10) in out_a

    def test_table_eviction(self):
        pf = StridePrefetcher(table_size=2)
        for pc in range(5):
            pf.train(ctx(0x400 + pc, 10, 0))
        assert len(pf._table) == 2

    def test_reset(self):
        pf = StridePrefetcher()
        pf.train(ctx(0x400, 10, 0))
        pf.reset()
        assert len(pf._table) == 0


class TestStreamer:
    def test_streams_after_monotone_run(self):
        pf = StreamerPrefetcher(depth=2, train_count=2)
        pf.train(ctx(1, 10, 0))
        pf.train(ctx(1, 10, 1))
        out = pf.train(ctx(1, 10, 2))
        assert out == [make_line(10, 3), make_line(10, 4)]

    def test_descending_direction(self):
        pf = StreamerPrefetcher(depth=2, train_count=2)
        pf.train(ctx(1, 10, 20))
        pf.train(ctx(1, 10, 19))
        out = pf.train(ctx(1, 10, 18))
        assert out == [make_line(10, 17), make_line(10, 16)]

    def test_direction_change_resets(self):
        pf = StreamerPrefetcher(depth=2, train_count=3)
        for off in [0, 1, 2]:
            pf.train(ctx(1, 10, off))
        assert pf.train(ctx(1, 10, 1)) == []  # direction flip

    def test_stays_in_page(self):
        pf = StreamerPrefetcher(depth=4, train_count=2)
        pf.train(ctx(1, 10, 60))
        pf.train(ctx(1, 10, 61))
        out = pf.train(ctx(1, 10, 62))
        assert out == [make_line(10, 63)]


class TestComposite:
    def test_union_and_dedup(self):
        pf = CompositePrefetcher(
            [StreamerPrefetcher(depth=2, train_count=1), StridePrefetcher(degree=2)]
        )
        pf.train(ctx(1, 10, 0))
        pf.train(ctx(1, 10, 1))
        out = pf.train(ctx(1, 10, 2))
        assert len(out) == len(set(out))

    def test_requires_members(self):
        with pytest.raises(ValueError):
            CompositePrefetcher([])

    def test_name_join(self):
        pf = CompositePrefetcher([StridePrefetcher(), StreamerPrefetcher()])
        assert pf.name == "stride+streamer"

    def test_callbacks_fan_out(self):
        class Recorder(NoPrefetcher):
            def __init__(self):
                self.events = []

            def on_prefetch_fill(self, line, cycle):
                self.events.append(("fill", line))

            def on_demand_hit_prefetched(self, line, cycle):
                self.events.append(("hit", line))

        a, b = Recorder(), Recorder()
        pf = CompositePrefetcher([a, b])
        pf.on_prefetch_fill(5, 0)
        pf.on_demand_hit_prefetched(6, 0)
        assert a.events == b.events == [("fill", 5), ("hit", 6)]


class TestRegistry:
    def test_available_contains_paper_prefetchers(self):
        names = available_prefetchers()
        for expected in [
            "spp", "bingo", "mlop", "dspatch", "spp_ppf", "pythia",
            "pythia_strict", "pythia_bw_oblivious", "stride", "streamer",
            "ipcp", "cp_hw", "power7", "st+s+b+d+m",
        ]:
            assert expected in names

    def test_create_unknown(self):
        with pytest.raises(KeyError):
            create("not-a-prefetcher")

    @pytest.mark.parametrize("name", ["spp", "bingo", "mlop", "pythia", "st+s"])
    def test_create_fresh_instances(self, name):
        a = create(name)
        b = create(name)
        assert a is not b
        assert a.train(ctx(1, 1, 0)) == b.train(ctx(1, 1, 0))
