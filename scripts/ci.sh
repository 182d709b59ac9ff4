#!/usr/bin/env bash
# CI entry point.
#
# Tier 1 (every push): the sweep smoke (tiny grid search + 2-core mix
# through both executors, `make sweep-smoke`), the resume smoke
# (checkpointed 100k -> 200k extension of a Pythia cell, pinned
# bit-identical to a fresh run, `make resume-smoke`), the store
# concurrency suite (`make stress-smoke`: the ISSUE 9 multiprocess x
# multithread stress harness plus the locking/eviction-race regression
# tests, tests/test_store_concurrency.py), then the
# sub-minute `quick` smoke tier — Session API end-to-end on small
# traces plus the perf smoke — followed by the full unit suite and the
# tracked throughput bench.  By default the bench
# enforces only machine-independent sanity floors; export
# REPRO_PERF_STRICT=1 on the calibrated reference runner to enforce the
# regression floors too (BENCH_perf.json is rewritten by
# `make perfbench`, not by CI).  Since ISSUE 7 the strict floors gate
# the batched replay backend — the Pythia floor is 16,000 records/s on
# the 100k reference cell (up from the scalar-era 14,000), with scalar
# rows kept in BENCH_perf.json for the trajectory.  ISSUE 10 adds the
# native compiled-kernel floors (pythia 90,000 records/s on the 100k
# cell and >=2x the batched row): they gate only when a C compiler is
# on PATH — without one the bench prints a visible NOTICE, omits the
# native rows, and the rest of the suite must still pass on the
# batched fallback.  Native is the default backend and trains every
# prefetcher without a C model through Python hooks; the
# native spp row measures that hook path, with a 40,000 records/s floor
# and >=1.5x the batched spp row.  The slow figure-regeneration suite
# (`make bench`) is a separate, scheduled job.
#
# After the resume smoke the invariant checker (python -m
# repro.analysis, `make lint`) gates the tree: the per-file rules
# (determinism, layering, hygiene, batching, exceptions, native), the
# whole-program rules (concurrency, hotpath), and the introspection
# rules (fingerprint, checkpoint) must all come back clean over
# src/repro + benchmarks + scripts + tests, modulo per-line pragmas.
# The checker's summary line prints its wall time.
#
# When the compiler ships the AddressSanitizer runtime, the sanitizer
# tier (`make sanitize`, scripts/sanitize.py) re-runs the native
# single-core, lockstep and hook suites against an ASan + UBSan build of
# kernel.c; otherwise it prints a NOTICE and is skipped.
#
# After the unit suite, the benchmark's own self-test (perfbench/
# test_perfbench.py) runs, so a library change that breaks the perf
# bench's tracer or workloads fails here rather than at benchmark time.
#
# The final step re-runs a fixed test selection under the stdlib
# coverage tracer (scripts/coverage.py) and fails the build if line
# coverage of any path gated in scripts/coverage_floor.json (today
# src/repro/analysis, api, core, sim, sim/engine.py and workloads)
# drops below its recorded floor.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

if command -v "${CC:-cc}" >/dev/null 2>&1; then
    echo "ci: C compiler present — native replay kernel floors will gate the perf bench"
else
    echo "ci: NOTICE: no C compiler on PATH — native kernel floors skipped (batched fallback covers the suite)"
fi

python -m pytest benchmarks/test_sweep_smoke.py -q
python -m pytest benchmarks/test_resume_smoke.py -q
python -m pytest tests/test_store_concurrency.py -q
python -m repro.analysis src/repro benchmarks scripts tests
python -m pytest -m quick -q --ignore=benchmarks/test_sweep_smoke.py --ignore=benchmarks/test_resume_smoke.py --ignore=tests/test_store_concurrency.py
python -m pytest tests -q -m "not quick"
python -m pytest perfbench -q
python -m pytest benchmarks/test_perf_throughput.py -q -m "not quick"
if [ -f "$(gcc -print-file-name=libasan.so 2>/dev/null)" ]; then
    python scripts/sanitize.py
else
    echo "ci: NOTICE: no libasan runtime — sanitizer tier (make sanitize) skipped"
fi
python scripts/coverage.py
