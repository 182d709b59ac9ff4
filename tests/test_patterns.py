"""Tests for the low-level access-pattern primitives."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.types import LINES_PER_PAGE, offset_of_line, page_of_line
from repro.workloads import patterns


def take(pattern, n):
    """The pattern's next *n* accesses as ``(pc, line, gap)`` tuples."""
    pc, line = pattern.take(n)
    return [(p, l, pattern.gap) for p, l in zip(pc.tolist(), line.tolist())]


def test_stream_is_sequential():
    accesses = take(patterns.stream(pc=1, start_page=10, gap=4), 100)
    lines = [line for _, line, _ in accesses]
    assert all(b - a == 1 for a, b in zip(lines, lines[1:]))
    assert all(pc == 1 for pc, _, _ in accesses)


def test_strided_stride():
    accesses = take(patterns.strided(pc=1, start_page=10, stride=7), 50)
    lines = [line for _, line, _ in accesses]
    assert all(b - a == 7 for a, b in zip(lines, lines[1:]))


def test_delta_sequence_deltas():
    gen = patterns.delta_sequence(
        pc_base=0x400, start_page=5, deltas=[23], accesses_per_page=3
    )
    accesses = take(gen, 9)
    # Page 5: offsets 0, 23, 46; page 6: same; ...
    offsets = [offset_of_line(line) for _, line, _ in accesses]
    assert offsets[:3] == [0, 23, 46]
    pages = [page_of_line(line) for _, line, _ in accesses]
    assert pages[:3] == [5, 5, 5]
    assert pages[3:6] == [6, 6, 6]


def test_delta_sequence_random_start_stays_predictable():
    rng = random.Random(1)
    gen = patterns.delta_sequence(
        pc_base=0x400, start_page=5, deltas=[11], accesses_per_page=3,
        rng=rng, max_start_offset=8,
    )
    for _ in range(20):
        chunk = take(gen, 1)  # can't know count boundaries; just sanity
        assert chunk


def test_region_footprint_trigger_is_first():
    rng = random.Random(2)
    gen = patterns.region_footprint(
        pc=0x500, footprint=[0, 3, 7], num_regions=8, start_page=100,
        rng=rng, shuffle_prob=1.0, member_prob=1.0, noise_prob=0.0,
    )
    accesses = take(gen, 30)
    # Group by page: first offset of every region visit is footprint[0].
    current_page = None
    for _, line, _ in accesses:
        page = page_of_line(line)
        if page != current_page:
            assert offset_of_line(line) == 0
            current_page = page


def test_region_footprint_members_only_without_noise():
    rng = random.Random(3)
    footprint = [0, 5, 9, 20]
    gen = patterns.region_footprint(
        pc=0x500, footprint=footprint, num_regions=8, start_page=100,
        rng=rng, member_prob=1.0, noise_prob=0.0,
    )
    for _, line, _ in take(gen, 200):
        assert offset_of_line(line) in footprint


def test_irregular_bounded_working_set():
    rng = random.Random(4)
    gen = patterns.irregular(
        pc=1, working_set_pages=10, start_page=50, rng=rng, locality=0.0
    )
    for _, line, _ in take(gen, 500):
        assert 50 <= page_of_line(line) < 60


def test_irregular_burst_consecutive():
    rng = random.Random(5)
    gen = patterns.irregular(
        pc=1, working_set_pages=100, start_page=0, rng=rng,
        locality=0.0, burst_lines=4,
    )
    accesses = take(gen, 300)
    consecutive = sum(
        1 for a, b in zip(accesses, accesses[1:]) if b[1] - a[1] == 1
    )
    assert consecutive > 30  # bursts create consecutive-line runs


def test_pointer_chase_is_cyclic_and_deterministic():
    gen1 = patterns.pointer_chase(pc=1, num_nodes=50, start_page=7, rng=random.Random(9))
    gen2 = patterns.pointer_chase(pc=1, num_nodes=50, start_page=7, rng=random.Random(9))
    a = take(gen1, 120)
    b = take(gen2, 120)
    assert a == b
    lines = [line for _, line, _ in a]
    assert lines[:50] == lines[50:100]  # permutation cycle repeats
    assert len(set(lines[:50])) == 50


def test_interleave_length_and_sources():
    s1 = patterns.stream(pc=1, start_page=0)
    s2 = patterns.stream(pc=2, start_page=1000)
    pc, line, gap = patterns.interleave([s1, s2], [1.0, 1.0], 200, random.Random(0))
    assert len(pc) == len(line) == len(gap) == 200
    assert set(pc.tolist()) == {1, 2}


def test_interleave_respects_weights():
    s1 = patterns.stream(pc=1, start_page=0)
    s2 = patterns.stream(pc=2, start_page=1000)
    pc, _, _ = patterns.interleave([s1, s2], [9.0, 1.0], 1000, random.Random(0))
    assert int((pc == 1).sum()) > 700


def _per_draw_interleave(streams, weights, length, rng):
    """The reference merge: one ``rng.random()`` and a one-access take per step."""
    total = float(sum(weights))
    cumulative, acc = [], 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    out = []
    for _ in range(length):
        r = rng.random()
        for idx, edge in enumerate(cumulative):
            if r <= edge:
                out += take(streams[idx], 1)
                break
    return out


def _mixed_streams(seed):
    return [
        patterns.stream(pc=1, start_page=0, gap=3),
        patterns.delta_sequence(
            pc_base=0x400, start_page=50, deltas=[5, -3], accesses_per_page=4,
            rng=random.Random(seed), max_start_offset=8,
        ),
        patterns.irregular(
            pc=2, working_set_pages=64, start_page=900, rng=random.Random(seed + 1),
            burst_lines=4,
        ),
        patterns.region_footprint(
            pc=3, footprint=[0, 2, 9], num_regions=4, start_page=5000,
            rng=random.Random(seed + 2),
        ),
        patterns.linked_list(
            pc=4, num_nodes=300, start_page=7000, rng=random.Random(seed + 3), gap=9,
        ),
    ]


def test_interleave_in_bulk_equals_the_per_draw_merge():
    """Taking every stream's share at once gives the sequence the
    per-draw merge builds one access at a time, and leaves the main RNG
    where the per-draw merge leaves it."""
    weights = [1.0, 0.5, 2.0, 0.7, 1.3]
    for seed in range(3):
        bulk_rng, ref_rng = random.Random(seed), random.Random(seed)
        pc, line, gap = patterns.interleave(_mixed_streams(seed), weights, 3_000, bulk_rng)
        expected = _per_draw_interleave(_mixed_streams(seed), weights, 3_000, ref_rng)
        assert list(zip(pc.tolist(), line.tolist(), gap.tolist())) == expected
        assert bulk_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("count", [0, 1, 3_000, 100_000])
def test_uniform_draws_are_random_calls_bit_for_bit(count):
    bulk, ref = random.Random(11), random.Random(11)
    assert patterns.uniform_draws(bulk, count).tolist() == [ref.random() for _ in range(count)]
    assert bulk.getstate() == ref.getstate()


class _TopDraws(random.Random):
    """Every draw is the largest double below 1.0."""

    def getrandbits(self, k):
        return (1 << k) - 1

    def random(self):
        return (2**53 - 1) / 2**53


def test_interleave_skips_a_draw_above_the_last_edge():
    # Seven equal weights sum their edges to 0.9999999999999998.
    streams = [patterns.stream(pc=i, start_page=0) for i in range(7)]
    pc, _, _ = patterns.interleave(streams, [1.0] * 7, 50, _TopDraws())
    assert len(pc) == 0 == len(_per_draw_interleave(streams, [1.0] * 7, 50, _TopDraws()))
    # Three equal weights reach 1.0 exactly: every draw picks the last.
    streams = [patterns.stream(pc=i, start_page=0) for i in range(3)]
    pc, _, _ = patterns.interleave(streams, [1.0] * 3, 50, _TopDraws())
    assert pc.tolist() == [2] * 50


def test_takes_in_any_chunks_continue_one_stream():
    for chunked, whole in zip(_mixed_streams(5), _mixed_streams(5)):
        accesses = []
        for n in (1, 0, 7, 130, 2, 600, 1):
            accesses += take(chunked, n)
        assert accesses == take(whole, len(accesses))


def test_interleave_mismatch_raises():
    with pytest.raises(ValueError):
        patterns.interleave([patterns.stream(1, 0)], [1.0, 2.0], 10, random.Random(0))


@settings(max_examples=20, deadline=None)
@given(
    stride=st.integers(min_value=1, max_value=16),
    n=st.integers(min_value=2, max_value=100),
)
def test_strided_property(stride, n):
    accesses = take(patterns.strided(pc=1, start_page=3, stride=stride), n)
    lines = [line for _, line, _ in accesses]
    assert all(b - a == stride for a, b in zip(lines, lines[1:]))
