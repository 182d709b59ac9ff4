"""Tests for the evaluation queue."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.eq import FILLED, HAS_REWARD, EvaluationQueue


def put(eq, line=-1, action=0, reward=0.0, flags=0, state=(1, 2)):
    """Insert the way ``SarsaAgent.record`` does: evict the oldest entry
    first when the queue is full.  Returns the evicted slot, or None."""
    evicted = eq.evict() if eq.count == eq.capacity else None
    eq.push(state, action, line, reward, flags)
    return evicted


def fifo(eq):
    """Resident slots, oldest first, derived from the ring positions."""
    return [(eq.head_slot + i) % eq.capacity for i in range(eq.count)]


def test_capacity_positive():
    with pytest.raises(ValueError):
        EvaluationQueue(0)


def test_fifo_eviction_order():
    eq = EvaluationQueue(2)
    assert put(eq, line=10, action=1, reward=1.0, flags=HAS_REWARD) is None
    assert put(eq, line=20, action=2, reward=1.0, flags=HAS_REWARD) is None
    evicted = put(eq, line=30, action=3)
    assert evicted == 0  # the first entry's slot, now reused by the third
    assert len(eq) == 2
    assert eq.line[eq.head_slot] == 20 and eq.action[eq.head_slot] == 2


def test_evicted_slot_readable_until_push():
    eq = EvaluationQueue(1)
    put(eq, line=10, action=4, reward=-3.0, flags=HAS_REWARD, state=(5, 6))
    slot = eq.evict()
    assert len(eq) == 0
    assert eq.state_at(slot) == (5, 6)
    assert (eq.action[slot], eq.line[slot], eq.reward[slot]) == (4, 10, -3.0)
    assert eq.flags[slot] == HAS_REWARD


def test_search_finds_most_recent():
    eq = EvaluationQueue(4)
    put(eq, line=10, action=1)
    put(eq, line=10, action=2)
    assert eq.action[eq.by_line()[10]] == 2


def test_search_miss():
    eq = EvaluationQueue(4)
    put(eq, line=10)
    assert 99 not in eq.by_line()


def test_no_prefetch_entries_not_searchable():
    eq = EvaluationQueue(4)
    put(eq, line=-1)
    assert eq.by_line() == {}


def test_mark_filled():
    eq = EvaluationQueue(4)
    put(eq, line=10)
    assert eq.mark_filled(10)
    assert eq.flags[eq.by_line()[10]] & FILLED
    assert not eq.mark_filled(99)


def test_eviction_cleans_lookup_index():
    eq = EvaluationQueue(1)
    put(eq, line=10, flags=HAS_REWARD)
    put(eq, line=20)
    assert 10 not in eq.by_line()
    assert 20 in eq.by_line()


def test_eviction_keeps_newer_duplicate_in_index():
    eq = EvaluationQueue(2)
    put(eq, line=10, action=1, flags=HAS_REWARD)
    put(eq, line=10, action=2)
    put(eq, line=30)  # evicts the older line-10 entry
    assert eq.action[eq.by_line()[10]] == 2


@settings(max_examples=50, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=16),
    lines=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100),
)
def test_size_never_exceeds_capacity(capacity, lines):
    eq = EvaluationQueue(capacity)
    for line in lines:
        put(eq, line=line, flags=HAS_REWARD)
        assert len(eq) <= capacity


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=64))
def test_resident_entries_always_searchable(lines):
    eq = EvaluationQueue(64)
    inserted = {}
    for i, line in enumerate(lines):
        put(eq, line=line, action=i)
        inserted[line] = i
    for line, action in inserted.items():
        assert eq.action[eq.by_line()[line]] == action


def test_ring_holds_fifo_order():
    eq = EvaluationQueue(2)
    for line in (10, 20, 30):
        put(eq, line=line, action=line, reward=1.0, flags=HAS_REWARD)
    assert [eq.line[slot] for slot in fifo(eq)] == [20, 30]


def test_state_width_follows_num_features():
    eq = EvaluationQueue(4, num_features=3)
    put(eq, line=10, state=(1, 2, 3))
    put(eq, line=11, state=(4, 5, 6))
    assert [eq.state_at(slot) for slot in fifo(eq)] == [(1, 2, 3), (4, 5, 6)]


@settings(max_examples=50, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    lines=st.lists(st.integers(min_value=-1, max_value=12), min_size=1, max_size=40),
)
def test_index_rebuilt_from_the_ring_matches_the_live_one(capacity, lines):
    """After the ring is written from outside (the native kernel), the
    line index rebuilt from it equals the one inserts maintained."""
    eq = EvaluationQueue(capacity)
    for i, line in enumerate(lines):
        put(eq, line=line, action=i)
    live = dict(eq.by_line())
    eq.drop_index()
    assert eq.by_line() == live
