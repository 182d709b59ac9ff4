"""Tracked simulator-throughput tier: records/s on fixed cells.

This bench is the repo's performance trajectory: it replays fixed cells
(no-prefetch, SPP, Pythia on a 100k-record ``spec06/lbm-1`` trace, plus
the 200k-record Pythia cell PR 2's acceptance floor is defined on),
reports best-of-N records/s, and — under ``make perfbench``
(``REPRO_WRITE_BENCH=1``) — writes the committed ``BENCH_perf.json`` at
the repo root so perf changes are visible in review diffs.

Since ISSUE 7 every cell is measured on both replay backends: the
batched-epoch engine (``records_per_s``, the no-compiler fallback) and
the scalar per-record loop it must stay bit-identical to
(``scalar_records_per_s``, kept for the trajectory).  ISSUE 10 adds
``native_records_per_s`` — the compiled C kernel, now the default —
when a C compiler is present (the rows are ``null`` otherwise, with a
visible notice, so the bench degrades exactly like the engine does).
The native SPP row measures the kernel's Python training hooks: SPP's
own ``train`` runs in Python, everything around it in C.  Schema 4 adds
``lockstep_records_per_s``: a fixed homogeneous four-core
``spec06/lbm`` pythia mix (``MultiCoreEngine``, every core replaying
``MIX_RECORDS`` records) on the Python lockstep loop and on the native
one.  Schema 5 adds ``trace_prep_records_per_s``: preparing the 100k
cell's trace without any cache — ``registry.make_trace``, the content
stamp and ``columns()``, the work a cold fingerprint and replay pay
before any record is simulated.

The ``SEED_RECORDS_PER_S`` constants are the pre-PR-2 seed throughput
measured un-instrumented on an otherwise-idle machine (commit
``ea58e06``, via ``git worktree`` + ``scripts/profile.py``-style raw
timing); re-measure them the same way if the reference hardware
changes.

Assertions run at two strictness levels: by default only
machine-independent sanity floors are enforced (any hardware that can
run the suite clears them), while ``REPRO_PERF_STRICT=1`` — set by
``make perfbench``, i.e. on the reference runner — also enforces the
calibrated regression floors on the batched rows.  The floors were
re-calibrated in ISSUE 7 on the current (slower) reference runner; they
sit ~15-30% below quiet batched numbers but well above seed-level
throughput, so a slide back toward the pre-optimization loop fails the
gate.  (The scalar rows are informational: the ISSUE 7 qvstore/DRAM/
fill-path work sped the scalar engine up too, so the batched-vs-scalar
gap on these short cells is narrower than batched-vs-seed.)
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import registry
from repro.sim.system import simulate

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_perf.json"

TRACE = "spec06/lbm-1"
LENGTH = 100_000
PYTHIA_200K_LENGTH = 200_000
WARMUP = 0.2
PREFETCHERS = ("none", "spp", "pythia")

#: Seed (pre-PR-2) throughput on the original reference machine,
#: records/s.  Kept verbatim as the trajectory anchor even though the
#: current reference runner is slower — speedup_vs_seed therefore
#: understates the true win on like-for-like hardware.
SEED_RECORDS_PER_S = {
    "none": 31_063,
    "spp": 16_290,
    "pythia": 12_170,
    "pythia_200k": 11_375,
}

#: ISSUE 7 acceptance floor for the 200k-record Pythia cell on the
#: batched backend, records/s (supersedes ISSUE 2's 18,500 which was
#: calibrated on the faster original machine).
PYTHIA_200K_FLOOR = 14_000

#: Reference-runner regression floors for the batched backend
#: (REPRO_PERF_STRICT=1 only): generous against the +-20% noise of the
#: single-CPU runner, but a slide back to scalar-loop throughput (see
#: ``scalar_records_per_s`` in BENCH_perf.json) still fails.
REGRESSION_FLOORS = {"none": 42_000, "spp": 19_000, "pythia": 16_000}

#: Reference-runner regression floors for the native backend
#: (REPRO_PERF_STRICT=1 and a C compiler present).  The quiet numbers
#: sit 3-4x above the none/pythia floors — but even at floor level the
#: compiled kernel is well clear of the original >=45k acceptance bar
#: and of any batched-level slide.  SPP trains through the Python
#: hooks, so its quiet number (~69k) is bounded by SPP's own ``train``;
#: its floor sits well above the batched SPP row (~28k).
NATIVE_REGRESSION_FLOORS = {
    "none": 150_000,
    "spp": 40_000,
    "pythia": 90_000,
    "pythia_200k": 90_000,
}

#: ISSUE 10 acceptance ratio: native pythia @ 100k must hold at least
#: this multiple of the batched row on the reference runner.
NATIVE_MIN_SPEEDUP_VS_BATCHED = 2.0

#: The hook path's ratio: native spp @ 100k must hold at least this
#: multiple of the batched spp row on the reference runner.
NATIVE_SPP_MIN_SPEEDUP_VS_BATCHED = 1.5

#: The lockstep row's mix: MIX_CORES copies of MIX_TRACE with pythia on
#: every core, each core replaying MIX_RECORDS records (warmup included).
MIX_TRACE = "spec06/lbm"
MIX_CORES = 4
MIX_RECORDS = 10_000

#: REPRO_PERF_STRICT with a C compiler: the native lockstep loop must
#: hold at least this multiple of the Python loop's records/s.
LOCKSTEP_MIN_SPEEDUP = 3.0

#: Machine-independent sanity floor, records/s: catches a hot loop
#: that has collapsed (e.g. an accidental O(n) re-scan) on any box.
SANITY_FLOOR = 2_000

#: Reference-runner floor for trace preparation (REPRO_PERF_STRICT=1),
#: records/s: ~30% under the quiet number (~9.9M).  Building the trace
#: record by record, as traces were built before they became columns,
#: runs at ~360k records/s and fails it.
TRACE_PREP_FLOOR = 7_000_000


def _throughput(
    prefetcher: str, length: int, repeats: int = 2, backend: str = "batched"
) -> float:
    """Best-of-*repeats* records/s for one cell (fresh prefetcher each run)."""
    trace = registry.cached_trace(TRACE, length)
    config = replace(registry.system("1c"), replay_backend=backend)
    best = 0.0
    for _ in range(repeats):
        pf = registry.create(prefetcher)
        start = time.perf_counter()
        simulate(trace, config=config, prefetcher=pf, warmup_fraction=WARMUP)
        best = max(best, length / (time.perf_counter() - start))
    return best


def _measure(backend: str, repeats: int) -> dict[str, float]:
    """All four tracked cells on one backend."""
    rates = {
        name: _throughput(name, LENGTH, repeats=repeats, backend=backend)
        for name in PREFETCHERS
    }
    rates["pythia_200k"] = _throughput(
        "pythia", PYTHIA_200K_LENGTH, repeats=repeats, backend=backend
    )
    return rates


def _trace_prep_throughput(repeats: int) -> float:
    """Best-of-*repeats* records/s to prepare the cell's trace uncached:
    generate it, stamp it and take its columns."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        trace = registry.make_trace(TRACE, LENGTH)
        trace.content_stamp
        trace.columns()
        best = max(best, LENGTH / (time.perf_counter() - start))
    return best


def _lockstep_throughput(backend: str, repeats: int) -> float:
    """Best-of-*repeats* lockstep steps/s for the mix row on *backend*
    (``"scalar"``: the Python loop; ``"native"``: the kernel)."""
    from repro.sim.engine import MultiCoreEngine
    from repro.workloads.mixes import homogeneous_mix_names

    traces = [
        registry.cached_trace(name, MIX_RECORDS)
        for name in homogeneous_mix_names(MIX_TRACE, MIX_CORES)
    ]
    config = replace(registry.system(f"{MIX_CORES}c"), replay_backend=backend)
    best = 0.0
    for _ in range(repeats):
        engine = MultiCoreEngine(
            traces, config, lambda: registry.create("pythia"), WARMUP
        )
        start = time.perf_counter()
        engine.run()
        best = max(best, engine.steps / (time.perf_counter() - start))
    return best


@pytest.mark.quick
def test_perf_smoke() -> None:
    """Sub-second sanity: the hot loop sustains real throughput at all."""
    rate = _throughput("pythia", 5_000, repeats=1)
    assert rate > 2_000, f"pythia smoke throughput collapsed: {rate:,.0f} records/s"


def test_perf_throughput() -> None:
    """Measure the tracked cells; write BENCH_perf.json under perfbench."""
    from repro.sim import _native

    trace_prep = _trace_prep_throughput(repeats=5)
    rates = _measure("batched", repeats=2)
    # Scalar rows ride along for the trajectory (and as the honest
    # denominator for the batched speedup); one repeat bounds bench time.
    scalar_rates = _measure("scalar", repeats=1)
    lockstep = {"python": _lockstep_throughput("scalar", repeats=1), "native": None}
    native_rates = None
    if _native.available():
        native_rates = _measure("native", repeats=2)
        lockstep["native"] = _lockstep_throughput("native", repeats=2)
    else:
        print(
            "NOTICE: native replay kernel unavailable (no C compiler?); "
            "native_records_per_s rows omitted and native floors skipped"
        )

    payload = {
        "bench": "perf_throughput",
        "schema": 5,
        "cell": {
            "trace": TRACE,
            "length": LENGTH,
            "pythia_200k_length": PYTHIA_200K_LENGTH,
            "warmup_fraction": WARMUP,
            "system": "1c",
            "backend": "batched",
        },
        "records_per_s": {k: round(v) for k, v in rates.items()},
        "scalar_records_per_s": {k: round(v) for k, v in scalar_rates.items()},
        "native_records_per_s": (
            {k: round(v) for k, v in native_rates.items()}
            if native_rates is not None
            else None
        ),
        "seed_records_per_s": SEED_RECORDS_PER_S,
        "speedup_vs_seed": {
            k: round(rates[k] / SEED_RECORDS_PER_S[k], 2) for k in rates
        },
        "speedup_vs_scalar": {
            k: round(rates[k] / scalar_rates[k], 2) for k in rates
        },
        "native_speedup_vs_batched": (
            {k: round(native_rates[k] / rates[k], 2) for k in native_rates}
            if native_rates is not None
            else None
        ),
        "pythia_200k_floor_records_per_s": PYTHIA_200K_FLOOR,
        "trace_prep_records_per_s": round(trace_prep),
        "trace_prep_floor_records_per_s": TRACE_PREP_FLOOR,
        "lockstep_cell": {
            "trace": MIX_TRACE,
            "cores": MIX_CORES,
            "records_per_core": MIX_RECORDS,
            "prefetcher": "pythia",
            "warmup_fraction": WARMUP,
            "system": f"{MIX_CORES}c",
        },
        "lockstep_records_per_s": {
            k: (round(v) if v is not None else None) for k, v in lockstep.items()
        },
        "lockstep_native_speedup": (
            round(lockstep["native"] / lockstep["python"], 2)
            if lockstep["native"] is not None
            else None
        ),
    }
    if os.environ.get("REPRO_WRITE_BENCH"):
        BENCH_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "records_per_s": payload["records_per_s"],
                "scalar_records_per_s": payload["scalar_records_per_s"],
                "native_records_per_s": payload["native_records_per_s"],
                "lockstep_records_per_s": payload["lockstep_records_per_s"],
                "trace_prep_records_per_s": payload["trace_prep_records_per_s"],
            },
            indent=2,
            sort_keys=True,
        )
    )

    for name, rate in rates.items():
        assert rate > SANITY_FLOOR, (
            f"{name} batched throughput collapsed: {rate:,.0f} records/s"
        )
    for name, rate in scalar_rates.items():
        assert rate > SANITY_FLOOR, (
            f"{name} scalar throughput collapsed: {rate:,.0f} records/s"
        )
    assert rates["none"] > rates["pythia"], (
        "the no-prefetch cell must out-run Pythia; the baseline path "
        "has picked up prefetcher-sized overhead"
    )

    if native_rates is not None:
        for name, rate in native_rates.items():
            assert rate > SANITY_FLOOR, (
                f"{name} native throughput collapsed: {rate:,.0f} records/s"
            )
    for loop, rate in lockstep.items():
        assert rate is None or rate > SANITY_FLOOR, (
            f"{loop} lockstep throughput collapsed: {rate:,.0f} records/s"
        )
    assert trace_prep > SANITY_FLOOR, (
        f"trace preparation collapsed: {trace_prep:,.0f} records/s"
    )

    if os.environ.get("REPRO_PERF_STRICT"):
        assert trace_prep > TRACE_PREP_FLOOR, (
            f"trace preparation regressed: {trace_prep:,.0f} records/s "
            f"(floor {TRACE_PREP_FLOOR:,})"
        )
        for name, floor in REGRESSION_FLOORS.items():
            assert rates[name] > floor, (
                f"{name} batched throughput regressed: {rates[name]:,.0f} "
                f"records/s (floor {floor:,}, seed {SEED_RECORDS_PER_S[name]:,})"
            )
        assert rates["pythia_200k"] > PYTHIA_200K_FLOOR, (
            f"pythia 200k cell regressed: {rates['pythia_200k']:,.0f} records/s "
            f"(floor {PYTHIA_200K_FLOOR:,})"
        )
        if native_rates is not None:
            for name, floor in NATIVE_REGRESSION_FLOORS.items():
                assert native_rates[name] > floor, (
                    f"{name} native throughput regressed: "
                    f"{native_rates[name]:,.0f} records/s (floor {floor:,})"
                )
            ratio = native_rates["pythia"] / rates["pythia"]
            assert ratio >= NATIVE_MIN_SPEEDUP_VS_BATCHED, (
                f"native pythia is only {ratio:.2f}x batched "
                f"(acceptance requires >={NATIVE_MIN_SPEEDUP_VS_BATCHED}x)"
            )
            ratio = native_rates["spp"] / rates["spp"]
            assert ratio >= NATIVE_SPP_MIN_SPEEDUP_VS_BATCHED, (
                f"native spp (hook path) is only {ratio:.2f}x batched "
                f"(requires >={NATIVE_SPP_MIN_SPEEDUP_VS_BATCHED}x)"
            )
            ratio = lockstep["native"] / lockstep["python"]
            assert ratio >= LOCKSTEP_MIN_SPEEDUP, (
                f"native lockstep is only {ratio:.2f}x the Python loop "
                f"(requires >={LOCKSTEP_MIN_SPEEDUP}x)"
            )
