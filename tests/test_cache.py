"""Tests for the set-associative cache and its prefetch bookkeeping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import Cache
from repro.sim.config import CacheGeometry


def small_cache(ways: int = 2, sets: int = 4, replacement: str = "lru") -> Cache:
    geometry = CacheGeometry(
        size_bytes=ways * sets * 64, ways=ways, latency=4, mshrs=8,
        replacement=replacement,
    )
    return Cache("T", geometry)


def test_geometry_num_sets():
    geometry = CacheGeometry(32 * 1024, 8, 4, 16)
    assert geometry.num_sets == 64


def test_miss_then_hit():
    cache = small_cache()
    result = cache.lookup(100, pc=1, is_load=True, is_prefetch=False)
    assert not result.hit
    assert cache.stats.demand_misses == 1
    assert cache.stats.load_misses == 1
    cache.fill(100, pc=1, is_prefetch=False)
    result = cache.lookup(100, pc=1, is_load=True, is_prefetch=False)
    assert result.hit
    assert cache.stats.demand_hits == 1


def test_store_miss_not_load_miss():
    cache = small_cache()
    cache.lookup(100, pc=1, is_load=False, is_prefetch=False)
    assert cache.stats.demand_misses == 1
    assert cache.stats.load_misses == 0


def test_eviction_on_full_set():
    cache = small_cache(ways=2, sets=1)
    cache.fill(0, pc=1, is_prefetch=False)
    cache.fill(1, pc=1, is_prefetch=False)
    evicted = cache.fill(2, pc=1, is_prefetch=False)
    assert evicted is not None
    assert cache.stats.evictions == 1
    assert cache.occupancy == 2


def test_prefetched_line_first_use_flagged():
    cache = small_cache()
    cache.fill(50, pc=0, is_prefetch=True)
    assert cache.stats.prefetch_fills == 1
    result = cache.lookup(50, pc=1, is_load=True, is_prefetch=False)
    assert result.hit
    assert result.was_prefetched_line
    assert result.first_use_of_prefetch
    assert cache.stats.useful_prefetches == 1
    # Second use is not "first use" again.
    result = cache.lookup(50, pc=1, is_load=True, is_prefetch=False)
    assert not result.first_use_of_prefetch
    assert cache.stats.useful_prefetches == 1


def test_useless_prefetch_eviction_counted():
    cache = small_cache(ways=1, sets=1)
    cache.fill(0, pc=0, is_prefetch=True)
    evicted = cache.fill(1, pc=0, is_prefetch=False)
    assert evicted is not None
    assert evicted.prefetched and not evicted.used
    assert cache.stats.useless_evictions == 1


def test_duplicate_fill_keeps_line():
    cache = small_cache()
    cache.fill(7, pc=0, is_prefetch=False)
    assert cache.fill(7, pc=0, is_prefetch=True) is None
    assert cache.occupancy == 1


def test_prefetch_lookup_stats():
    cache = small_cache()
    cache.lookup(3, pc=0, is_load=False, is_prefetch=True)
    assert cache.stats.prefetch_misses == 1
    cache.fill(3, pc=0, is_prefetch=True)
    cache.lookup(3, pc=0, is_load=False, is_prefetch=True)
    assert cache.stats.prefetch_hits == 1


def test_prefetch_accuracy():
    cache = small_cache(ways=1, sets=1)
    cache.fill(0, pc=0, is_prefetch=True)
    cache.lookup(0, pc=0, is_load=True, is_prefetch=False)  # useful
    cache.fill(1, pc=0, is_prefetch=True)  # evicts nothing prefetch-wise
    cache.fill(2, pc=0, is_prefetch=False)  # evicts unused prefetch 1
    assert cache.stats.useful_prefetches == 1
    assert cache.stats.useless_evictions == 1
    assert cache.stats.prefetch_accuracy == pytest.approx(0.5)


def test_hit_rate():
    cache = small_cache()
    assert cache.stats.demand_hit_rate == 0.0
    cache.fill(1, pc=0, is_prefetch=False)
    cache.lookup(1, pc=0, is_load=True, is_prefetch=False)
    cache.lookup(2, pc=0, is_load=True, is_prefetch=False)
    assert cache.stats.demand_hit_rate == pytest.approx(0.5)


@settings(max_examples=50, deadline=None)
@given(
    lines=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200),
    replacement=st.sampled_from(["lru", "ship"]),
)
def test_occupancy_never_exceeds_capacity(lines, replacement):
    cache = small_cache(ways=2, sets=4, replacement=replacement)
    for line in lines:
        if not cache.lookup(line, pc=line & 0xFF, is_load=True, is_prefetch=False).hit:
            cache.fill(line, pc=line & 0xFF, is_prefetch=False)
    assert cache.occupancy <= cache.capacity_lines


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
def test_filled_line_is_probeable_until_evicted(lines):
    cache = small_cache(ways=4, sets=16)  # big enough: no evictions for <=64 lines
    for line in lines:
        cache.fill(line, pc=0, is_prefetch=False)
    for line in lines:
        assert cache.probe(line)
