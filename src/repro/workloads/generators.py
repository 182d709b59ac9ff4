"""Named workload generators, one per paper workload.

Every workload is a declarative :class:`WorkloadSpec` naming an
archetype and its parameters; the archetype's builder is the engine that
turns a spec, a length and an RNG into columns, composing the streams of
:mod:`repro.workloads.patterns`.  :func:`generate_trace` instantiates a
deterministic :class:`~repro.sim.trace.Trace` of any requested length
from a seed, so the paper's "150 traces from 50 workloads" becomes "N
seeds per workload": trace ``spec06/mcf-1`` is workload ``spec06/mcf``
with seed 1.  Traces are built as ``int64`` columns throughout; no
per-record object exists until a reader asks for one.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.sim.trace import Trace, TraceColumns
from repro.workloads import patterns
from repro.workloads.patterns import Accesses


def stable_seed(name: str, seed: int) -> int:
    """Process-independent RNG seed for (workload, seed).

    Built on CRC32 rather than the builtin ``hash`` (randomized per
    interpreter via PYTHONHASHSEED), so the same trace name always
    yields the same trace across processes and runs — required both for
    the content-addressed result store and for process-pool executors to
    reproduce serial results exactly.
    """
    return (zlib.crc32(name.encode("utf-8")) & 0xFFFF_FFFF) ^ (seed * 0x9E3779B9)


@dataclass(frozen=True)
class WorkloadSpec:
    """Description of one synthetic workload.

    Attributes:
        name: fully-qualified name, ``"<suite>/<workload>"``.
        suite: suite label used by rollups.
        archetype: builder key (``"stream"``, ``"delta"``, ...).
        params: archetype-specific parameters.
        gap: mean non-memory instructions between accesses — small gaps
            mean memory-intensive, bandwidth-hungry workloads.
    """

    name: str
    suite: str
    archetype: str
    params: dict = field(default_factory=dict)
    gap: int = 4


def _build_stream(spec: WorkloadSpec, length: int, rng: random.Random) -> Accesses:
    """Pure streaming workload (libquantum/bwaves-like)."""
    n = spec.params.get("streams", 2)
    replicas = spec.params.get("replicas", 4)
    step = spec.params.get("step", 1)
    streams = [
        patterns.stream(
            pc=0x400100 + 16 * (i * replicas + r),
            start_page=1000 + 4096 * (i * replicas + r),
            gap=spec.gap,
            step=step,
        )
        for i in range(n)
        for r in range(replicas)
    ]
    return patterns.interleave(streams, [1.0] * len(streams), length, rng)


def _build_stride(spec: WorkloadSpec, length: int, rng: random.Random) -> Accesses:
    """Multiple constant-stride streams (lbm/milc/wrf-like).

    Each logical stride is replicated over several independent arrays
    (distinct PCs, distinct pages) so correlated accesses of one array
    are spread out in time — the lead time real loop nests give a
    prefetcher.
    """
    strides = spec.params.get("strides", [2, 3, 5])
    replicas = spec.params.get("replicas", 3)
    streams = [
        patterns.strided(
            pc=0x401000 + 32 * (i * replicas + r),
            start_page=2000 + 8192 * (i * replicas + r),
            stride=s,
            gap=spec.gap,
        )
        for i, s in enumerate(strides)
        for r in range(replicas)
    ]
    return patterns.interleave(streams, [1.0] * len(streams), length, rng)


def _build_delta(spec: WorkloadSpec, length: int, rng: random.Random) -> Accesses:
    """Recurring in-page delta sequences (GemsFDTD-like)."""
    groups = spec.params.get("delta_groups")
    if groups is None:
        groups = [spec.params.get("deltas", [23])]
    per_page = spec.params.get("accesses_per_page", 3)
    n = spec.params.get("streams", 14)
    max_start = spec.params.get("max_start_offset", 8)
    streams = [
        patterns.delta_sequence(
            pc_base=0x436A00 + 0x1000 * g,
            start_page=3000 + 16384 * (g * n + i),
            deltas=group,
            accesses_per_page=per_page,
            gap=spec.gap,
            rng=random.Random(rng.randrange(2**31)),
            max_start_offset=max_start,
        )
        for g, group in enumerate(groups)
        for i in range(n)
    ]
    return patterns.interleave(streams, [1.0] * len(streams), length, rng)


def _build_region(spec: WorkloadSpec, length: int, rng: random.Random) -> Accesses:
    """Per-PC spatial region footprints (sphinx3/canneal/facesim-like)."""
    footprints = spec.params.get(
        "footprints", [[0, 2, 5, 9, 14], [0, 1, 3, 7]]
    )
    revisit = spec.params.get("revisit_fraction", 0.3)
    concurrency = spec.params.get("concurrency", 16)
    streams = [
        patterns.region_footprint(
            pc=0x402000 + 48 * i,
            footprint=fp,
            num_regions=spec.params.get("num_regions", 64),
            start_page=5000 + 32768 * (i * concurrency + c),
            rng=random.Random(rng.randrange(2**31)),
            gap=spec.gap,
            revisit_fraction=revisit,
        )
        for i, fp in enumerate(footprints)
        for c in range(concurrency)
    ]
    return patterns.interleave(streams, [1.0] * len(streams), length, rng)


def _build_irregular(spec: WorkloadSpec, length: int, rng: random.Random) -> Accesses:
    """Unpredictable hops (mcf/omnetpp-like)."""
    pages = spec.params.get("working_set_pages", 4096)
    locality = spec.params.get("locality", 0.1)
    regular_weight = spec.params.get("regular_weight", 0.0)
    streams: list = [
        patterns.irregular(
            pc=0x403000,
            working_set_pages=pages,
            start_page=7000,
            rng=random.Random(rng.randrange(2**31)),
            gap=spec.gap,
            locality=locality,
        )
    ]
    weights = [1.0]
    if regular_weight > 0:
        streams.append(patterns.stream(pc=0x403400, start_page=900_000, gap=spec.gap))
        weights.append(regular_weight)
    return patterns.interleave(streams, weights, length, rng)


def _build_pointer(spec: WorkloadSpec, length: int, rng: random.Random) -> Accesses:
    """Linked-structure walks (astar/xalancbmk-like)."""
    nodes = spec.params.get("nodes", 50_000)
    streams = [
        patterns.pointer_chase(
            pc=0x404000,
            num_nodes=nodes,
            start_page=9000,
            rng=random.Random(rng.randrange(2**31)),
            gap=spec.gap,
        ),
        patterns.stream(pc=0x404100, start_page=950_000, gap=spec.gap),
    ]
    return patterns.interleave(streams, [3.0, 1.0], length, rng)


def _build_graph(spec: WorkloadSpec, length: int, rng: random.Random) -> Accesses:
    """Graph-processing kernels (Ligra-like): frontier scans + random
    neighbour gathers at high memory intensity.

    ``irregular_weight`` controls how gather-dominated the kernel is —
    PageRank-style kernels stream more, BFS-style kernels gather more.
    """
    irregular_weight = spec.params.get("irregular_weight", 1.5)
    pages = spec.params.get("working_set_pages", 8192)
    burst = spec.params.get("burst_lines", 4)
    streams: list = [
        patterns.stream(pc=0x405000, start_page=11_000, gap=spec.gap),
        patterns.strided(pc=0x405040, start_page=700_000, stride=1, gap=spec.gap),
        patterns.irregular(
            pc=0x405080,
            working_set_pages=pages,
            start_page=100_000,
            rng=random.Random(rng.randrange(2**31)),
            gap=spec.gap,
            locality=0.15,
            burst_lines=burst,
        ),
    ]
    return patterns.interleave(streams, [1.0, 1.0, irregular_weight], length, rng)


def _build_server(spec: WorkloadSpec, length: int, rng: random.Random) -> Accesses:
    """Server workloads (Cloudsuite-like): many PCs, shallow patterns."""
    num_ctx = spec.params.get("contexts", 8)
    streams: list = []
    weights: list[float] = []
    for i in range(num_ctx):
        kind = i % 3
        if kind == 0:
            streams.append(
                patterns.strided(
                    pc=0x406000 + 128 * i,
                    start_page=20_000 + 65536 * i,
                    stride=1 + (i % 4),
                    gap=spec.gap,
                )
            )
        elif kind == 1:
            streams.append(
                patterns.region_footprint(
                    pc=0x407000 + 128 * i,
                    footprint=[0, 1, 4, 6][: 2 + i % 3],
                    num_regions=32,
                    start_page=400_000 + 65536 * i,
                    rng=random.Random(rng.randrange(2**31)),
                    gap=spec.gap,
                )
            )
        else:
            streams.append(
                patterns.irregular(
                    pc=0x408000 + 128 * i,
                    working_set_pages=2048,
                    start_page=600_000 + 65536 * i,
                    rng=random.Random(rng.randrange(2**31)),
                    gap=spec.gap,
                )
            )
        weights.append(1.0)
    return patterns.interleave(streams, weights, length, rng)


def _build_mixed(spec: WorkloadSpec, length: int, rng: random.Random) -> Accesses:
    """A blend of stride + delta + irregular (gcc/soplex-like)."""
    streams: list = [
        patterns.strided(pc=0x409000, start_page=30_000, stride=2, gap=spec.gap),
        patterns.delta_sequence(
            pc_base=0x409100,
            start_page=800_000,
            deltas=spec.params.get("deltas", [4, 9]),
            accesses_per_page=4,
            gap=spec.gap,
        ),
        patterns.irregular(
            pc=0x409200,
            working_set_pages=1024,
            start_page=860_000,
            rng=random.Random(rng.randrange(2**31)),
            gap=spec.gap,
        ),
    ]
    w = spec.params.get("weights", [1.0, 1.0, 0.7])
    return patterns.interleave(streams, w, length, rng)


def _build_llist(spec: WorkloadSpec, length: int, rng: random.Random) -> Accesses:
    """Linked lists with multi-line node payloads (health/mcf-like).

    Several independent lists are walked concurrently, optionally beside
    a sequential allocation-scan stream (``scan_weight``).  The payload
    run inside each node is spatially predictable; the next-node hop is
    not — prefetchers get partial coverage and punishing overprediction
    on the hops.
    """
    lists = spec.params.get("lists", 2)
    nodes = spec.params.get("nodes", 20_000)
    payload = spec.params.get("payload_lines", 2)
    scan_weight = spec.params.get("scan_weight", 0.0)
    streams: list = [
        patterns.linked_list(
            pc=0x40B000 + 0x100 * i,
            num_nodes=nodes,
            start_page=60_000 + 200_000 * i,
            rng=random.Random(rng.randrange(2**31)),
            gap=spec.gap,
            payload_lines=payload,
        )
        for i in range(lists)
    ]
    weights = [1.0] * lists
    if scan_weight > 0:
        streams.append(patterns.stream(pc=0x40B800, start_page=990_000, gap=spec.gap))
        weights.append(scan_weight)
    return patterns.interleave(streams, weights, length, rng)


def _build_phase(spec: WorkloadSpec, length: int, rng: random.Random) -> Accesses:
    """Phase-switching mixed-pattern workload (gcc/xz-like program phases).

    The access stream runs one pattern regime at a time — ``phases``
    names the rotation — and switches every ``phase_length`` accesses
    (±25% jitter), so a prefetcher's state trained in one phase is
    stale, sometimes harmful, in the next.  This is the adaptation
    regime the per-figure suites never isolate: single-pattern traces
    reward converged behaviour, phase traces reward fast re-learning.
    """
    phase_length = spec.params.get("phase_length", 1200)
    kinds = spec.params.get("phases", ["stream", "irregular"])
    streams = []
    for i, kind in enumerate(kinds):
        pc_base = 0x40A000 + 0x200 * i
        start_page = 40_000 + 150_000 * i
        if kind == "stream":
            streams.append(
                patterns.stream(pc=pc_base, start_page=start_page, gap=spec.gap)
            )
        elif kind == "stride":
            streams.append(
                patterns.strided(
                    pc=pc_base,
                    start_page=start_page,
                    stride=spec.params.get("stride", 3),
                    gap=spec.gap,
                )
            )
        elif kind == "delta":
            streams.append(
                patterns.delta_sequence(
                    pc_base=pc_base,
                    start_page=start_page,
                    deltas=spec.params.get("deltas", [7, 3]),
                    accesses_per_page=4,
                    gap=spec.gap,
                    rng=random.Random(rng.randrange(2**31)),
                )
            )
        elif kind == "irregular":
            streams.append(
                patterns.irregular(
                    pc=pc_base,
                    working_set_pages=spec.params.get("working_set_pages", 2048),
                    start_page=start_page,
                    rng=random.Random(rng.randrange(2**31)),
                    gap=spec.gap,
                )
            )
        else:
            raise KeyError(f"unknown phase kind {kind!r} in {spec.name}")
    empty = np.empty(0, dtype=np.int64)
    pcs, lines, gaps = [empty], [empty], [empty]
    produced = 0
    index = 0
    jitter = phase_length // 4
    while produced < length:
        span = phase_length + (rng.randrange(-jitter, jitter + 1) if jitter else 0)
        active = streams[index % len(streams)]
        pc, line = active.take(min(span, length - produced))
        pcs.append(pc)
        lines.append(line)
        gaps.append(np.full(len(line), active.gap, dtype=np.int64))
        produced += len(line)
        index += 1
    return np.concatenate(pcs), np.concatenate(lines), np.concatenate(gaps)


_BUILDERS: dict[str, Callable[[WorkloadSpec, int, random.Random], Accesses]] = {
    "stream": _build_stream,
    "stride": _build_stride,
    "delta": _build_delta,
    "region": _build_region,
    "irregular": _build_irregular,
    "pointer": _build_pointer,
    "graph": _build_graph,
    "server": _build_server,
    "mixed": _build_mixed,
    "llist": _build_llist,
    "phase": _build_phase,
}


def _specs() -> dict[str, WorkloadSpec]:
    spec_list = [
        # ---- SPEC CPU2006 (16 workloads, as in Table 6) -------------------
        WorkloadSpec("spec06/gemsfdtd", "SPEC06", "delta",
                     {"delta_groups": [[23], [11]], "accesses_per_page": 4,
                      "streams": 9}, gap=42),
        WorkloadSpec("spec06/sphinx3", "SPEC06", "region",
                     {"footprints": [[0, 3, 5, 8, 12, 17]]}, gap=42),
        WorkloadSpec("spec06/mcf", "SPEC06", "irregular",
                     {"working_set_pages": 8192, "locality": 0.05}, gap=24),
        WorkloadSpec("spec06/lbm", "SPEC06", "stride",
                     {"strides": [1, 2, 1, 3]}, gap=24),
        WorkloadSpec("spec06/libquantum", "SPEC06", "stream",
                     {"streams": 1}, gap=24),
        WorkloadSpec("spec06/cactusadm", "SPEC06", "stride",
                     {"strides": [7, 11]}, gap=52),
        WorkloadSpec("spec06/omnetpp", "SPEC06", "irregular",
                     {"working_set_pages": 4096, "locality": 0.15,
                      "regular_weight": 0.3}, gap=32),
        WorkloadSpec("spec06/soplex", "SPEC06", "mixed",
                     {"deltas": [2, 5]}, gap=32),
        WorkloadSpec("spec06/milc", "SPEC06", "stride",
                     {"strides": [4, 4, 8]}, gap=32),
        WorkloadSpec("spec06/leslie3d", "SPEC06", "stride",
                     {"strides": [1, 5, 9]}, gap=42),
        WorkloadSpec("spec06/bwaves", "SPEC06", "stream",
                     {"streams": 3}, gap=32),
        WorkloadSpec("spec06/gcc", "SPEC06", "mixed",
                     {"deltas": [3, 7], "weights": [1.0, 0.8, 0.5]}, gap=52),
        WorkloadSpec("spec06/astar", "SPEC06", "pointer",
                     {"nodes": 40_000}, gap=42),
        WorkloadSpec("spec06/xalancbmk", "SPEC06", "server",
                     {"contexts": 6}, gap=42),
        WorkloadSpec("spec06/gobmk", "SPEC06", "mixed",
                     {"weights": [1.0, 0.5, 1.2]}, gap=64),
        WorkloadSpec("spec06/wrf", "SPEC06", "stride",
                     {"strides": [2, 6]}, gap=52),
        # ---- SPEC CPU2017 (12 workloads) -----------------------------------
        WorkloadSpec("spec17/gcc", "SPEC17", "mixed",
                     {"deltas": [5, 11]}, gap=52),
        WorkloadSpec("spec17/mcf", "SPEC17", "irregular",
                     {"working_set_pages": 12288, "locality": 0.08}, gap=24),
        WorkloadSpec("spec17/pop2", "SPEC17", "stride",
                     {"strides": [3, 5, 2]}, gap=42),
        WorkloadSpec("spec17/fotonik3d", "SPEC17", "delta",
                     {"deltas": [11], "accesses_per_page": 2}, gap=32),
        WorkloadSpec("spec17/lbm", "SPEC17", "stride",
                     {"strides": [1, 2, 3]}, gap=24),
        WorkloadSpec("spec17/cam4", "SPEC17", "region",
                     {"footprints": [[0, 2, 4, 6, 10]]}, gap=52),
        WorkloadSpec("spec17/roms", "SPEC17", "stream",
                     {"streams": 4}, gap=32),
        WorkloadSpec("spec17/xz", "SPEC17", "irregular",
                     {"working_set_pages": 2048, "locality": 0.25,
                      "regular_weight": 0.5}, gap=42),
        WorkloadSpec("spec17/omnetpp", "SPEC17", "irregular",
                     {"working_set_pages": 4096, "locality": 0.12,
                      "regular_weight": 0.2}, gap=32),
        WorkloadSpec("spec17/cactubssn", "SPEC17", "stride",
                     {"strides": [9, 13]}, gap=42),
        WorkloadSpec("spec17/bwaves", "SPEC17", "stream",
                     {"streams": 2}, gap=32),
        WorkloadSpec("spec17/wrf", "SPEC17", "delta",
                     {"deltas": [4, 9], "accesses_per_page": 4}, gap=52),
        # ---- PARSEC 2.1 (5 workloads) ---------------------------------------
        WorkloadSpec("parsec/canneal", "PARSEC", "region",
                     {"footprints": [[0, 1, 6, 11, 19]],
                      "revisit_fraction": 0.2}, gap=32),
        WorkloadSpec("parsec/facesim", "PARSEC", "region",
                     {"footprints": [[0, 2, 3, 5, 8, 13]],
                      "revisit_fraction": 0.4}, gap=42),
        WorkloadSpec("parsec/fluidanimate", "PARSEC", "stride",
                     {"strides": [1, 4]}, gap=32),
        WorkloadSpec("parsec/raytrace", "PARSEC", "pointer",
                     {"nodes": 60_000}, gap=42),
        WorkloadSpec("parsec/streamcluster", "PARSEC", "stream",
                     {"streams": 2}, gap=24),
        # ---- Ligra (13 workloads) -------------------------------------------
        WorkloadSpec("ligra/pagerank", "LIGRA", "graph",
                     {"irregular_weight": 1.0}, gap=16),
        WorkloadSpec("ligra/pagerankdelta", "LIGRA", "graph",
                     {"irregular_weight": 1.4}, gap=16),
        WorkloadSpec("ligra/cc", "LIGRA", "graph",
                     {"irregular_weight": 1.8, "working_set_pages": 16384}, gap=16),
        WorkloadSpec("ligra/bfs", "LIGRA", "graph",
                     {"irregular_weight": 2.2}, gap=16),
        WorkloadSpec("ligra/bc", "LIGRA", "graph",
                     {"irregular_weight": 1.6}, gap=16),
        WorkloadSpec("ligra/bellmanford", "LIGRA", "graph",
                     {"irregular_weight": 1.3}, gap=16),
        WorkloadSpec("ligra/triangle", "LIGRA", "graph",
                     {"irregular_weight": 0.8}, gap=24),
        WorkloadSpec("ligra/radii", "LIGRA", "graph",
                     {"irregular_weight": 1.5}, gap=16),
        WorkloadSpec("ligra/mis", "LIGRA", "graph",
                     {"irregular_weight": 1.7}, gap=16),
        WorkloadSpec("ligra/bfs-bitvector", "LIGRA", "graph",
                     {"irregular_weight": 2.0}, gap=16),
        WorkloadSpec("ligra/bfscc", "LIGRA", "graph",
                     {"irregular_weight": 2.1, "working_set_pages": 12288}, gap=16),
        WorkloadSpec("ligra/cf", "LIGRA", "graph",
                     {"irregular_weight": 0.9}, gap=24),
        WorkloadSpec("ligra/kcore", "LIGRA", "graph",
                     {"irregular_weight": 1.2}, gap=16),
        # ---- Cloudsuite (4 workloads) -----------------------------------------
        WorkloadSpec("cloudsuite/cassandra", "CLOUDSUITE", "server",
                     {"contexts": 9}, gap=42),
        WorkloadSpec("cloudsuite/cloud9", "CLOUDSUITE", "server",
                     {"contexts": 6}, gap=42),
        WorkloadSpec("cloudsuite/nutch", "CLOUDSUITE", "server",
                     {"contexts": 12}, gap=52),
        WorkloadSpec("cloudsuite/classification", "CLOUDSUITE", "server",
                     {"contexts": 8}, gap=32),
        # ---- Synthetic stress families (beyond the paper's suites) ----------
        # Linked-list walks with node payloads, and phase-switching
        # mixed-pattern streams — scenario classes the paper's suites
        # blend but never isolate.
        WorkloadSpec("synth/llist-small", "SYNTH", "llist",
                     {"lists": 3, "nodes": 6_000, "payload_lines": 2}, gap=36),
        WorkloadSpec("synth/llist-deep", "SYNTH", "llist",
                     {"lists": 1, "nodes": 80_000, "payload_lines": 3,
                      "scan_weight": 0.3}, gap=24),
        WorkloadSpec("synth/phase-regular", "SYNTH", "phase",
                     {"phases": ["stream", "stride", "delta"],
                      "phase_length": 1500}, gap=32),
        WorkloadSpec("synth/phase-adversarial", "SYNTH", "phase",
                     {"phases": ["stream", "irregular", "delta", "irregular"],
                      "phase_length": 900, "working_set_pages": 4096}, gap=28),
    ]
    return {s.name: s for s in spec_list}


#: All named workloads, keyed by ``"<suite>/<workload>"``.
WORKLOADS: dict[str, WorkloadSpec] = _specs()


def workload_names(suite: str | None = None) -> list[str]:
    """Names of all workloads, optionally filtered by suite label."""
    if suite is None:
        return sorted(WORKLOADS)
    return sorted(n for n, s in WORKLOADS.items() if s.suite == suite)


def generate_trace(name: str, length: int = 20_000, seed: int = 1) -> Trace:
    """Instantiate a deterministic trace for workload *name*.

    Args:
        name: a key of :data:`WORKLOADS`; a ``-<seed>`` suffix is also
            accepted (``"spec06/mcf-2"`` means seed 2).
        length: number of memory accesses to generate.
        seed: RNG seed; different seeds give different traces of the
            same workload (the paper's multiple traces per workload).
    """
    base = name
    if name not in WORKLOADS and "-" in name:
        head, _, tail = name.rpartition("-")
        if head in WORKLOADS and tail.isdigit():
            base, seed = head, int(tail)
    if base not in WORKLOADS:
        raise KeyError(f"unknown workload: {name!r}")
    spec = WORKLOADS[base]
    return Trace(
        f"{base}-{seed}", build_columns(spec, length, stable_seed(base, seed)), spec.suite
    )


def build_columns(spec: WorkloadSpec, length: int, seed: int) -> TraceColumns:
    """The columns of *spec* at *length*, drawn from ``random.Random(seed)``.

    Every generated access is a load.
    """
    pc, line, gap = _BUILDERS[spec.archetype](spec, length, random.Random(seed))
    return TraceColumns(pc, line, np.ones(len(pc), dtype=np.bool_), gap)
