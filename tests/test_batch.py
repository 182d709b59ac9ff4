"""Unit tier for the batched-epoch replay kernel (`repro.sim.batch`).

The long differential tiers live in ``tests/test_hotpath_equivalence.py``;
this suite is the fast, coverage-traced half: it stresses the kernel's
rare branches — evictions at every level, SHiP (non-LRU) hit/fill/evict
hooks, MSHR merges and structural stalls, prefetch drops, DRAM
bandwidth-feedback reads — on deliberately tiny geometries, always
asserting bit-identity against the scalar loop on the same cell.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest

from repro import registry
from repro.sim import batch
from repro.sim.config import CacheGeometry, SystemConfig
from repro.sim.system import simulate

#: A pressure-cooker geometry: caches a few lines big (every fill
#: evicts), two MSHRs (merges + structural stalls), SHiP at every level
#: (the non-LRU hooks), and a short utilization window (the bandwidth
#: feedback and stale-head paths).
STRESS = replace(
    SystemConfig(),
    l1=CacheGeometry(4 * 64, 2, 4, 2, "ship"),
    l2=CacheGeometry(8 * 64, 2, 14, 2, "ship"),
    llc=CacheGeometry(16 * 64, 2, 34, 2, "ship"),
    dram=replace(SystemConfig().dram, utilization_window=64),
    max_prefetch_degree=2,
)


def _run(config: SystemConfig, prefetcher: str, trace_name: str, length: int):
    trace = registry.cached_trace(trace_name, length)
    return simulate(
        trace,
        config=config,
        prefetcher=registry.create(prefetcher),
        warmup_fraction=0.2,
    )


@pytest.mark.parametrize("prefetcher", ["pythia", "spp", "none"])
def test_stress_geometry_bit_identical(prefetcher: str) -> None:
    """Tiny SHiP caches + 2 MSHRs: every rare kernel branch fires, and
    the result still matches the scalar loop field-for-field."""
    batched = replace(STRESS, replay_backend="batched")
    scalar = replace(STRESS, replay_backend="scalar")
    got = _run(batched, prefetcher, "spec06/mcf-1", 3_000)
    want = _run(scalar, prefetcher, "spec06/mcf-1", 3_000)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    # The geometry is small enough that the stress paths actually ran:
    # nearly everything misses the few-line LLC, and prefetchers issue
    # into (and get dropped by) the two-entry MSHRs.
    assert got.llc_load_misses > 0
    if prefetcher == "pythia":  # spp stays quiet on mcf's pointer chase
        assert got.prefetches_issued > 0


@pytest.mark.parametrize(
    ("trace_name", "prefetcher"),
    [
        ("synth/phase-regular-1", "pythia"),
        # L1 and LLC demand hits, prefetched LLC lines a demand uses.
        ("spec06/lbm-1", "spp"),
        ("ligra/cc-1", "bingo"),
    ],
)
def test_default_geometry_bit_identical_quick(trace_name: str, prefetcher: str) -> None:
    """The default (paper) geometry on a short slice — the common-case
    branches, LRU L1/L2 + SHiP LLC."""
    batched = replace(SystemConfig(), replay_backend="batched")
    scalar = replace(SystemConfig(), replay_backend="scalar")
    got = _run(batched, prefetcher, trace_name, 2_500)
    want = _run(scalar, prefetcher, trace_name, 2_500)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_decode_memo_is_a_bounded_lru() -> None:
    """Stamped decodes are memoized per (stamp, span, geometry); past
    the entry cap the least recently used one is evicted."""
    trace = registry.cached_trace("spec06/lbm-1", 2_000)
    cols, stamp = trace.columns(), trace.content_stamp

    def decode(start):
        return batch.decode_span(cols, start, start + 10, 64, 1024, 2048, stamp=stamp)

    batch._DECODE_CACHE.clear()
    first = decode(0)
    assert decode(0) is first
    for start in range(1, batch._DECODE_CACHE_ENTRIES + 1):
        decode(start)
    assert len(batch._DECODE_CACHE) == batch._DECODE_CACHE_ENTRIES
    assert decode(0) is not first
    assert decode(0) == first


def test_epoch_constant_matches_engine_chunk() -> None:
    from repro.sim import engine

    assert batch.EPOCH == engine._CONTROL_CHUNK
