"""Property-based invariants for the cache model and replacement policies.

The cache keeps its state in flat per-slot buffers (``slot = set * ways +
way``) beside a cache-wide line→slot dict and a per-set count of filled
ways (:mod:`repro.sim.cache`).  These tests pin that layout's
structural invariants by driving random (seeded, stdlib ``random``)
operation sequences against :class:`repro.sim.cache.Cache` and checking
after every step:

* occupancy never exceeds capacity, per-set residency never exceeds the
  way count;
* a hit never evicts (and never changes occupancy);
* every eviction's victim was resident immediately before the fill —
  for LRU, it is exactly the least-recently-touched line of the set
  (checked against an independent shadow model);
* the line→slot dict, the tag list, and the per-set fill counts stay
  mutually consistent, and each set's empty ways are its suffix.

A size pin bounds a default LLC's pickled footprint, which is what
checkpoints store (``tests/test_engine.py`` pins a whole snapshot).
"""

from __future__ import annotations

import pickle
import random
from array import array

import pytest

from repro.sim.cache import Cache
from repro.sim.config import CacheGeometry, SystemConfig
from repro.sim.replacement import LruPolicy, ShipPolicy
from repro.types import LINE_SIZE

pytestmark = pytest.mark.quick

SEEDS = [0, 1, 2, 3]


def small_cache(replacement: str, sets: int = 8, ways: int = 4) -> Cache:
    geometry = CacheGeometry(
        size_bytes=sets * ways * LINE_SIZE,
        ways=ways,
        latency=1,
        mshrs=8,
        replacement=replacement,
    )
    return Cache("T", geometry)


def set_tags(cache: Cache, set_idx: int) -> list[int]:
    base = set_idx * cache.ways
    return list(cache._tag[base : base + cache.ways])


def assert_structurally_consistent(cache: Cache) -> None:
    """Dict ↔ tag list ↔ per-set count agreement, and capacity bounds."""
    ways = cache.ways
    assert len(cache._tag) == len(cache._pf) == len(cache._used)
    assert len(cache._tag) == cache.capacity_lines
    for line, slot in cache._where.items():
        assert cache._tag[slot] == line
        assert slot // ways == line % cache.num_sets
    for set_idx in range(cache.num_sets):
        filled = cache._filled[set_idx]
        tags = set_tags(cache, set_idx)
        assert 0 <= filled <= ways
        # Filled ways are the prefix, empty ways (tag -1) the suffix.
        assert tags[filled:] == [-1] * (ways - filled)
        for way, tag in enumerate(tags[:filled]):
            assert tag != -1
            assert cache._where[tag] == set_idx * ways + way
    assert len(cache._where) == sum(cache._filled) == cache.occupancy
    assert cache.occupancy <= cache.capacity_lines


def resident_lines(cache: Cache, set_idx: int) -> set[int]:
    return {tag for tag in set_tags(cache, set_idx) if tag != -1}


@pytest.mark.parametrize("replacement", ["lru", "ship"])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_op_sequence_invariants(replacement, seed):
    rng = random.Random(seed)
    cache = small_cache(replacement)
    # A working set ~4x capacity keeps sets full and evictions frequent.
    lines = [rng.randrange(cache.capacity_lines * 4) for _ in range(64)]
    for _ in range(1500):
        line = rng.choice(lines)
        set_idx = line % cache.num_sets
        before = resident_lines(cache, set_idx)
        if rng.random() < 0.5:
            evictions_before = cache.stats.evictions
            occupancy_before = cache.occupancy
            result = cache.lookup(
                line, pc=rng.randrange(1 << 12), is_load=True,
                is_prefetch=rng.random() < 0.2,
            )
            # Lookups never change residency, hit or miss.
            assert resident_lines(cache, set_idx) == before
            assert cache.occupancy == occupancy_before
            assert result.hit == (line in before)
            # A hit never evicts.
            if result.hit:
                assert cache.stats.evictions == evictions_before
        else:
            was_resident = line in before
            evicted = cache.fill(
                line, pc=rng.randrange(1 << 12), is_prefetch=rng.random() < 0.3
            )
            after = resident_lines(cache, set_idx)
            assert line in after
            if was_resident:
                # Duplicate fill: refresh only, no eviction.
                assert evicted is None
                assert after == before
            elif evicted is not None:
                # The victim was resident, is gone, and came from a full set.
                assert evicted.line in before
                assert evicted.line not in after
                assert len(before) == cache.ways
            else:
                assert after == before | {line}
        assert_structurally_consistent(cache)


@pytest.mark.parametrize("seed", SEEDS)
def test_lru_victim_is_least_recently_touched(seed):
    """Differential shadow model: the evicted line must always be the
    set's least-recently-touched resident line (fills and hits both
    count as touches)."""
    rng = random.Random(seed)
    cache = small_cache("lru", sets=4, ways=4)
    shadow: dict[int, list[int]] = {i: [] for i in range(cache.num_sets)}  # MRU last
    for _ in range(1200):
        line = rng.randrange(cache.capacity_lines * 3)
        set_idx = line % cache.num_sets
        order = shadow[set_idx]
        if rng.random() < 0.5:
            result = cache.lookup(line, pc=0x400, is_load=True, is_prefetch=False)
            if result.hit:
                order.remove(line)
                order.append(line)
        else:
            evicted = cache.fill(line, pc=0x400, is_prefetch=False)
            if line in order:
                # Duplicate fills do not touch recency.
                assert evicted is None
            else:
                if evicted is not None:
                    assert order and evicted.line == order[0]
                    order.pop(0)
                order.append(line)
        assert set(order) == resident_lines(cache, set_idx)


def test_lru_policy_victim_matches_min_scan():
    policy = LruPolicy(8)
    # Two sets of four slots; the first set's smaller ticks must not
    # leak into the second set's victim search.
    policy.meta_a[:] = array("q", [0, 0, 0, 0, 5, 3, 9, 3])
    # Victim is the lowest tick; ties break to the lowest way index,
    # matching the inlined ``meta.index(min(meta[base:end]), base)``.
    assert policy.victim(4, 8) == 5
    assert policy.victim(0, 4) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_ship_victim_always_resident_and_aging_saturates(seed):
    """SHiP's victim must be a slot of the full set, and the one-pass
    aging must leave the victim at RRPV max with every slot of that set
    — and no other — aged by the same distance."""
    rng = random.Random(seed)
    ways = 4
    policy = ShipPolicy(2 * ways)
    base, end = ways, 2 * ways  # the second set; the first is a bystander
    for slot in range(2 * ways):
        policy.on_fill(slot, pc=rng.randrange(1 << 12), is_prefetch=False, tick=slot)
    for step in range(400):
        if rng.random() < 0.5:
            policy.on_hit(rng.randrange(2 * ways), pc=rng.randrange(1 << 12), tick=step)
        before = list(policy.meta_a[base:end])
        bystander = list(policy.meta_a[:base])
        victim = policy.victim(base, end)
        assert base <= victim < end
        age = ShipPolicy.RRPV_MAX - max(before)
        assert policy.meta_a[victim] == ShipPolicy.RRPV_MAX
        assert list(policy.meta_a[base:end]) == [r + age for r in before]
        assert list(policy.meta_a[:base]) == bystander
        # The victim is the lowest-indexed slot holding the max RRPV.
        assert victim - base == before.index(max(before))
        policy.on_evict(victim)
        policy.on_fill(
            victim, pc=rng.randrange(1 << 12),
            is_prefetch=rng.random() < 0.3, tick=step,
        )


def test_ship_shct_counters_stay_bounded():
    rng = random.Random(9)
    policy = ShipPolicy(4)
    for slot in range(4):
        policy.on_fill(slot, pc=slot, is_prefetch=False, tick=0)
    for step in range(2000):
        op = rng.random()
        slot = rng.randrange(4)
        if op < 0.4:
            policy.on_hit(slot, pc=rng.randrange(64), tick=step)
        elif op < 0.7:
            policy.on_evict(slot)
            policy.on_fill(slot, pc=rng.randrange(64), is_prefetch=False, tick=step)
        else:
            policy.victim(0, 4)
        assert all(0 <= c <= ShipPolicy.SHCT_MAX for c in policy._shct)
        assert all(0 <= r <= ShipPolicy.RRPV_MAX for r in policy.meta_a)


def test_default_llc_pickles_small():
    """A fresh 2 MB SHiP LLC (32,768 slots) is flat lists, not objects:
    it pickles to under 0.6 MB (the per-way object layout took 2.36 MB)."""
    llc = Cache("LLC", SystemConfig().llc)
    assert llc.capacity_lines == 32_768
    assert len(pickle.dumps(llc, protocol=pickle.HIGHEST_PROTOCOL)) < 600_000
