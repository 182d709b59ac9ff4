"""Low-level access-pattern primitives used to compose workloads.

Each primitive builds a :class:`Pattern`: an infinite access *stream* of
one logical data structure, read in bulk with :meth:`Pattern.take`,
which returns the stream's next accesses as ``int64`` ``(pc, line)``
arrays.  :func:`interleave` merges several streams into a single
program-order sequence the way independent data structures interleave
in a real instruction stream: it draws every pick at once, then takes
each stream's share in one call.

Pattern classes and the prefetcher behaviour they elicit:

* :func:`stream` — pure sequential lines; every prefetcher covers it,
  aggressive region prefetchers (Bingo) are the most timely.
* :func:`strided` — constant per-PC stride; stride/IPCP/Pythia learn it.
* :func:`delta_sequence` — a recurring in-page delta program
  (``GemsFDTD``-like); SPP's signature path and Pythia's last-4-deltas
  feature learn it, spatial-footprint prefetchers do poorly.
* :func:`region_footprint` — fixed per-PC spatial footprint touched after
  the first access of a region (``sphinx3``/``canneal``-like); Bingo's
  PC+offset footprint matching excels, delta prefetchers struggle.
* :func:`irregular` — Markov-style hops over a working set; largely
  unprefetchable, punishing overprediction.
* :func:`pointer_chase` — a fixed permutation walk; temporally
  predictable but spatially random.
* :func:`linked_list` — a permutation walk whose nodes carry short
  multi-line payload runs; spatial prefetchers cover the payload, the
  hop defeats them.

Streams that draw random numbers own a private ``random.Random`` (every
builder in :mod:`repro.workloads.generators` seeds one per stream), so
*when* a stream draws never changes *what* it draws: taking its
accesses in bulk, ahead of the interleave, gives the same sequence as
taking them one at a time.  :func:`stream` and :func:`strided` have
closed forms, the permutation walks index their node order, and the
other patterns run a loop bounded by the requested count.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

import numpy as np

from repro.types import LINES_PER_PAGE, PAGE_SHIFT_LINES, make_line

#: A run of accesses as ``int64`` columns: (pc, line, gap).
Accesses = tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY = np.empty(0, dtype=np.int64)


class Pattern:
    """An infinite access stream; every access carries the stream's ``gap``.

    *more* produces the stream in whole units (a page's program, a
    region visit, a hop): called with a count, it returns at least that
    many further accesses as ``(pc, line)`` arrays.  :meth:`take` keeps
    what a unit leaves over for the next call.
    """

    def __init__(self, gap: int, more: Callable[[int], tuple[np.ndarray, np.ndarray]]):
        self.gap = gap
        self._more = more
        self._left = (_EMPTY, _EMPTY)

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next *n* accesses as ``(pc, line)`` ``int64`` arrays."""
        n = max(n, 0)
        pcs, lines = [self._left[0]], [self._left[1]]
        have = len(lines[0])
        while have < n:
            pc, line = self._more(n - have)
            pcs.append(pc)
            lines.append(line)
            have += len(line)
        pc, line = np.concatenate(pcs), np.concatenate(lines)
        self._left = (pc[n:], line[n:])
        return pc[:n], line[:n]


def _constant(pc: int, n: int) -> np.ndarray:
    return np.full(n, pc, dtype=np.int64)


def stream(pc: int, start_page: int, gap: int = 4, step: int = 1) -> Pattern:
    """Sequential cachelines marching through consecutive pages."""
    first = make_line(start_page, 0)
    position = 0

    def more(need: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal position
        k = np.arange(position, position + need, dtype=np.int64)
        position += need
        return _constant(pc, need), first + step * k

    return Pattern(gap, more)


def strided(pc: int, start_page: int, stride: int, gap: int = 4) -> Pattern:
    """Constant-stride accesses from a single PC (stride in lines)."""
    return stream(pc, start_page, gap, step=stride)


def delta_sequence(
    pc_base: int,
    start_page: int,
    deltas: Sequence[int],
    accesses_per_page: int,
    gap: int = 4,
    page_step: int = 1,
    rng: random.Random | None = None,
    max_start_offset: int = 0,
) -> Pattern:
    """A recurring delta program replayed inside every visited page.

    Within each page, offsets follow the cyclic *deltas* pattern from a
    per-page entry offset (random up to *max_start_offset* when an *rng*
    is given); after *accesses_per_page* accesses the stream hops
    ``page_step`` pages forward.  Each delta position uses its own PC so
    the PC+Delta feature is informative, mirroring loop bodies with
    several loads.  A varying entry offset keeps the pattern
    delta-predictable but not footprint-predictable — the GemsFDTD
    regime the paper attributes to SPP and Pythia.
    """
    jitter_start = rng is not None and max_start_offset > 0
    # Vary the per-page access count a little: the delta chain stays
    # perfectly predictable, but the page *footprint* does not —
    # footprint predictors overshoot on short pages.
    jitter_count = rng is not None and accesses_per_page > 2
    # Access j of a page sits deltas[0] + ... + deltas[j-1] past the
    # entry offset, from PC pc_base + (j-1) % len(deltas) + 1.
    longest = max(accesses_per_page + jitter_count, 1)
    steps = [deltas[i % len(deltas)] for i in range(longest - 1)]
    rel = np.cumsum([0] + steps, dtype=np.int64)
    pcs = np.array(
        [pc_base] + [pc_base + i % len(deltas) + 1 for i in range(longest - 1)],
        dtype=np.int64,
    )
    page = start_page

    def more(need: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal page
        starts: list[int] = []
        counts: list[int] = []
        total = 0
        while total < need:
            starts.append(rng.randrange(max_start_offset + 1) if jitter_start else 0)
            count = accesses_per_page
            if jitter_count:
                count += rng.choice((-1, 0, 0, 1))
            counts.append(max(count, 1))
            total += counts[-1]
        count_of = np.array(counts, dtype=np.int64)
        position = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(count_of) - count_of, count_of
        )
        pages = page + page_step * np.repeat(np.arange(len(counts), dtype=np.int64), count_of)
        entries = np.repeat(np.array(starts, dtype=np.int64), count_of)
        offsets = (entries + rel[position]) % LINES_PER_PAGE
        page += page_step * len(counts)
        return pcs[position], (pages << PAGE_SHIFT_LINES) | offsets

    return Pattern(gap, more)


def region_footprint(
    pc: int,
    footprint: Sequence[int],
    num_regions: int,
    start_page: int,
    rng: random.Random,
    gap: int = 4,
    revisit_fraction: float = 0.3,
    shuffle_prob: float = 0.5,
    member_prob: float = 0.85,
    noise_prob: float = 0.08,
) -> Pattern:
    """Per-PC spatial footprints over 4 KB regions (SMS/Bingo pattern).

    Each visited region is touched at exactly the offsets in *footprint*
    (deterministic given the PC, as in codes walking records within
    pages).  Regions are mostly fresh, with a fraction revisited to give
    footprint predictors their training hits.
    """
    for off in footprint:
        make_line(0, off)  # rejects an offset outside the page
    visited: list[int] = []
    page = start_page

    def more(need: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal page
        lines: list[int] = []
        while len(lines) < need:
            if visited and rng.random() < revisit_fraction:
                region = rng.choice(visited)
            else:
                region = page
                page += rng.randint(1, 3)
                visited.append(region)
                if len(visited) > num_regions:
                    visited.pop(0)
            # The trigger offset is fixed (it identifies the footprint);
            # the rest of the footprint is visited in shuffled order for
            # a fraction of visits — the *set* of touched lines always
            # recurs, the delta sequence only mostly.  This is what
            # separates footprint predictors (Bingo) from delta
            # predictors (SPP) on these workloads while leaving delta
            # prediction viable.  Per-visit instability: most members
            # appear (member_prob), and occasionally an extra line joins
            # (noise_prob).  Real spatial footprints vary visit to visit
            # — this is what gives footprint predictors their
            # overpredictions in the paper's Fig 7.
            tail = [off for off in footprint[1:] if rng.random() < member_prob]
            if rng.random() < noise_prob:
                tail.append(rng.randrange(LINES_PER_PAGE))
            if rng.random() < shuffle_prob:
                rng.shuffle(tail)
            base = region << PAGE_SHIFT_LINES
            lines.append(base | footprint[0])
            lines.extend([base | off for off in tail])
        return _constant(pc, len(lines)), np.array(lines, dtype=np.int64)

    return Pattern(gap, more)


def irregular(
    pc: int,
    working_set_pages: int,
    start_page: int,
    rng: random.Random,
    gap: int = 4,
    locality: float = 0.1,
    burst_lines: int = 1,
) -> Pattern:
    """Hard-to-predict hops over a bounded working set.

    With probability *locality* the next access stays in the current
    page at a random offset (a little spatial reuse); otherwise it jumps
    to a random page and offset.  No feature correlates with the next
    hop, so prefetches across hops are wasted.

    When ``burst_lines > 1`` each hop touches a short run of consecutive
    lines of random length (1..burst_lines), cut at the page end — the
    adjacency-list gather shape of graph workloads.  The run gives
    spatial prefetchers partial coverage, but its varying length makes
    aggressive ones overshoot: exactly the Ligra regime of Fig 1.
    """
    page = start_page

    def more(need: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal page
        lines: list[int] = []
        while len(lines) < need:
            if rng.random() >= locality:
                page = start_page + rng.randrange(working_set_pages)
            offset = rng.randrange(LINES_PER_PAGE)
            line = (page << PAGE_SHIFT_LINES) | offset
            if burst_lines > 1:
                run = min(rng.randint(1, burst_lines), LINES_PER_PAGE - offset)
                lines.extend(range(line, line + run))
            else:
                lines.append(line)
        return _constant(pc, len(lines)), np.array(lines, dtype=np.int64)

    return Pattern(gap, more)


def pointer_chase(
    pc: int,
    num_nodes: int,
    start_page: int,
    rng: random.Random,
    gap: int = 6,
) -> Pattern:
    """Walk a fixed random permutation — a linked-list traversal.

    The successor of each node never changes, so the sequence is
    temporally deterministic yet spatially random: only temporal
    prefetchers (not evaluated here, as in the paper) could cover it.
    A chase is a linked list with one-line nodes and no payload.
    """
    return linked_list(
        pc, num_nodes, start_page, rng, gap, payload_lines=0, node_stride_lines=1
    )


def linked_list(
    pc: int,
    num_nodes: int,
    start_page: int,
    rng: random.Random,
    gap: int = 6,
    payload_lines: int = 2,
    node_stride_lines: int = 4,
) -> Pattern:
    """Walk a linked list whose nodes carry multi-line payloads.

    Like :func:`pointer_chase`, the successor of each node is a fixed
    random permutation — the *next-node* hop is spatially random and only
    temporally predictable.  Unlike a bare chase, visiting a node then
    touches ``payload_lines`` consecutive lines after the node header
    (the record's fields), each from its own PC: the intra-node run is
    perfectly spatially predictable, so stride/region prefetchers get
    partial coverage while the hop itself defeats them — the classic
    linked-structure regime (health/mcf-like) between pure pointer
    chasing and streaming.  Nodes are spread ``node_stride_lines`` apart
    so payloads of adjacent nodes do not overlap.

    The walk visits ``order[0], order[1], ...`` of one shuffled node
    order, cyclically — a closed form once the order is drawn (on the
    first take, as a lazily started walk would).
    """
    first = make_line(start_page, 0)
    per_visit = payload_lines + 1
    order: np.ndarray | None = None
    position = 0

    def more(need: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal order, position
        if order is None:
            nodes = list(range(num_nodes))
            rng.shuffle(nodes)
            order = np.array(nodes, dtype=np.int64)
        k = np.arange(position, position + need, dtype=np.int64)
        position += need
        visit, field = np.divmod(k, per_visit)
        node = order[visit % num_nodes]
        return pc + 8 * field, first + node * node_stride_lines + field

    return Pattern(gap, more)


def uniform_draws(rng: random.Random, count: int) -> np.ndarray:
    """*count* calls of ``rng.random()`` at once, bit for bit.

    ``random()`` builds each double from two 32-bit Mersenne Twister
    outputs, ``(a >> 5) * 2**26 + (b >> 6)`` scaled by ``2**-53``;
    ``getrandbits(64 * count)`` returns the same outputs, first one in
    the lowest word, and leaves *rng* in the same state.
    """
    if count <= 0:
        return np.empty(0, dtype=np.float64)
    bits = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    words = np.frombuffer(bits, dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (
        1.0 / 9007199254740992.0
    )


def interleave(
    streams: Sequence[Pattern],
    weights: Sequence[float],
    length: int,
    rng: random.Random,
) -> Accesses:
    """Merge *streams* into one program-order sequence of up to *length* accesses.

    Each step picks a stream with probability proportional to its
    weight — the standard model of independent data structures being
    walked concurrently by one instruction stream.  A draw above the
    last cumulative edge (a rounding sliver below 1.0) picks nothing.
    """
    if len(streams) != len(weights):
        raise ValueError("streams/weights length mismatch")
    total = float(sum(weights))
    cumulative: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    picks = np.searchsorted(np.array(cumulative), uniform_draws(rng, length), side="left")
    picks = picks[picks < len(streams)].astype(np.int16)
    counts = np.bincount(picks, minlength=len(streams))
    # Stream i's accesses land, in order, where the draws picked it: a
    # stable sort lists those positions stream by stream.
    where = np.argsort(picks, kind="stable")
    taken = [s.take(c) for s, c in zip(streams, counts.tolist())]
    pc = np.empty(len(picks), dtype=np.int64)
    line = np.empty(len(picks), dtype=np.int64)
    pc[where] = np.concatenate([_EMPTY] + [p for p, _ in taken])
    line[where] = np.concatenate([_EMPTY] + [l for _, l in taken])
    gap = np.array([s.gap for s in streams], dtype=np.int64)[picks]
    return pc, line, gap
