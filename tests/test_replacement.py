"""Tests for LRU and SHiP replacement policies.

Policies hold flat per-slot metadata buffers and only ever see full sets:
the cache fills a set's empty ways before consulting ``victim`` (covered
by ``tests/test_cache.py``), so ``victim(base, end)`` takes just the
set's slot range.
"""

from array import array

import pytest

from repro.sim.replacement import LruPolicy, ShipPolicy, make_policy


def test_make_policy():
    assert isinstance(make_policy("lru", 4), LruPolicy)
    ship = make_policy("ship", 4)
    assert isinstance(ship, ShipPolicy)
    assert len(ship.meta_a) == len(ship.meta_b) == len(ship.meta_c) == 4
    with pytest.raises(ValueError):
        make_policy("plru", 4)


class TestLru:
    def test_evicts_least_recent(self):
        policy = LruPolicy(4)
        for tick, slot in enumerate([0, 1, 2, 3]):
            policy.on_fill(slot, pc=0, is_prefetch=False, tick=tick)
        policy.on_hit(0, pc=0, tick=10)
        assert policy.victim(0, 4) == 1

    def test_hit_promotes(self):
        policy = LruPolicy(2)
        policy.meta_a[:] = array("q", [1, 2])
        policy.on_hit(0, pc=0, tick=99)
        assert policy.victim(0, 2) == 1

    def test_tie_breaks_to_lowest_way(self):
        policy = LruPolicy(4)
        policy.meta_a[:] = array("q", [7, 3, 3, 9])
        assert policy.victim(0, 4) == 1


class TestShip:
    def test_fill_sets_rrpv(self):
        policy = ShipPolicy(2)
        policy.on_fill(0, pc=0x400, is_prefetch=False, tick=0)
        assert policy.meta_a[0] == ShipPolicy.RRPV_MAX - 1

    def test_prefetch_inserts_distant(self):
        policy = ShipPolicy(2)
        policy.on_fill(0, pc=0x400, is_prefetch=True, tick=0)
        assert policy.meta_a[0] == ShipPolicy.RRPV_MAX

    def test_hit_resets_rrpv_and_trains(self):
        policy = ShipPolicy(1)
        policy.on_fill(0, pc=0x400, is_prefetch=False, tick=0)
        sig = policy.meta_b[0]
        before = policy._shct[sig]
        policy.on_hit(0, pc=0x400, tick=1)
        assert policy.meta_a[0] == 0
        assert policy.meta_c[0]
        assert policy._shct[sig] == min(ShipPolicy.SHCT_MAX, before + 1)

    def test_victim_ages_until_distant(self):
        policy = ShipPolicy(2)
        for slot in range(2):
            policy.on_fill(slot, pc=0x400, is_prefetch=False, tick=slot)
            policy.on_hit(slot, pc=0x400, tick=slot + 10)
        victim = policy.victim(0, 2)
        assert victim in (0, 1)
        # Aging saturated the chosen slot at exactly RRPV_MAX.
        assert policy.meta_a[victim] == ShipPolicy.RRPV_MAX

    def test_incremental_aging_matches_scan_loop(self):
        """One-pass victim == the textbook scan-and-increment rounds."""
        policy = ShipPolicy(4)
        policy.meta_a[:] = array("q", [1, 2, 0, 2])
        reference = list(policy.meta_a)
        victim = policy.victim(0, 4)
        # Reference: age everything until the first way reaches RRPV_MAX.
        while not any(r >= ShipPolicy.RRPV_MAX for r in reference):
            reference = [r + 1 for r in reference]
        expected_way = next(
            i for i, r in enumerate(reference) if r >= ShipPolicy.RRPV_MAX
        )
        assert victim == expected_way == 1
        assert list(policy.meta_a) == reference

    def test_unreused_eviction_decrements_shct(self):
        policy = ShipPolicy(1)
        policy.on_fill(0, pc=0x888, is_prefetch=False, tick=0)
        sig = policy.meta_b[0]
        before = policy._shct[sig]
        policy.on_evict(0)
        assert policy._shct[sig] == max(0, before - 1)

    def test_untrained_signature_inserts_distant(self):
        policy = ShipPolicy(1)
        pc = 0x123
        sig = policy._signature(pc)
        policy._shct[sig] = 0
        policy.on_fill(0, pc=pc, is_prefetch=False, tick=0)
        assert policy.meta_a[0] == ShipPolicy.RRPV_MAX
