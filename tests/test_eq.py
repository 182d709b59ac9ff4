"""Tests for the evaluation queue."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.eq import EqEntry, EvaluationQueue


def entry(line=None, action=0):
    return EqEntry(state=(1, 2), action=action, prefetch_line=line)


def test_capacity_positive():
    with pytest.raises(ValueError):
        EvaluationQueue(0)


def test_fifo_eviction_order():
    eq = EvaluationQueue(2)
    first = entry(line=10)
    first.reward = 1.0
    second = entry(line=20)
    second.reward = 1.0
    assert eq.insert(first) is None
    assert eq.insert(second) is None
    third = entry(line=30)
    evicted = eq.insert(third)
    assert evicted == first
    assert len(eq) == 2
    assert eq.head == second


def test_search_finds_most_recent():
    eq = EvaluationQueue(4)
    old = entry(line=10, action=1)
    new = entry(line=10, action=2)
    eq.insert(old)
    eq.insert(new)
    assert eq.search(10) == new


def test_search_miss():
    eq = EvaluationQueue(4)
    eq.insert(entry(line=10))
    assert eq.search(99) is None


def test_no_prefetch_entries_not_searchable():
    eq = EvaluationQueue(4)
    eq.insert(entry(line=None))
    assert eq.search(0) is None


def test_mark_filled():
    eq = EvaluationQueue(4)
    e = entry(line=10)
    eq.insert(e)
    assert eq.mark_filled(10)
    assert eq.search(10).filled
    assert not eq.mark_filled(99)


def test_eviction_cleans_lookup_index():
    eq = EvaluationQueue(1)
    first = entry(line=10)
    first.reward = 0.0
    eq.insert(first)
    eq.insert(entry(line=20))
    assert eq.search(10) is None
    assert eq.search(20) is not None


def test_eviction_keeps_newer_duplicate_in_index():
    eq = EvaluationQueue(2)
    old = entry(line=10)
    old.reward = 0.0
    eq.insert(old)
    new = entry(line=10)
    eq.insert(new)
    eq.insert(entry(line=30))  # evicts old
    assert eq.search(10) == new


def test_clear():
    eq = EvaluationQueue(4)
    eq.insert(entry(line=10))
    eq.clear()
    assert len(eq) == 0
    assert eq.head is None
    assert eq.search(10) is None


def test_has_reward():
    e = entry()
    assert not e.has_reward
    e.reward = -8.0
    assert e.has_reward
    e.reward = 0.0
    assert e.has_reward  # zero is a real reward


@settings(max_examples=50, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=16),
    lines=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100),
)
def test_size_never_exceeds_capacity(capacity, lines):
    eq = EvaluationQueue(capacity)
    for line in lines:
        e = entry(line=line)
        e.reward = 0.0
        eq.insert(e)
        assert len(eq) <= capacity


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=64))
def test_resident_entries_always_searchable(lines):
    eq = EvaluationQueue(64)
    inserted = {}
    for i, line in enumerate(lines):
        e = entry(line=line, action=i)
        eq.insert(e)
        inserted[line] = e
    for line, e in inserted.items():
        assert eq.search(line) == e


def test_iteration_yields_fifo_order_copies():
    eq = EvaluationQueue(2)
    for line in (10, 20, 30):
        e = entry(line=line, action=line)
        e.reward = 1.0
        eq.insert(e)
    assert [e.prefetch_line for e in eq] == [20, 30]
    next(iter(eq)).reward = 5.0
    assert eq.head.reward == 1.0


def test_state_width_must_match():
    eq = EvaluationQueue(4, num_features=3)
    with pytest.raises(ValueError):
        eq.insert(entry(line=10))
    eq.insert(EqEntry(state=(1, 2, 3), action=0, prefetch_line=10))
    assert eq.head.state == (1, 2, 3)


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
        eq.insert(entry(line=None if line < 0 else line, action=i))
    live = dict(eq.by_line())
    eq.drop_index()
    assert eq.by_line() == live
