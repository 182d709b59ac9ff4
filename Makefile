# Test / benchmark entry points.  All targets run from the repo root.
#
#   make quick     - sub-minute smoke tier (the `quick` pytest marker):
#                    Session API end-to-end on small traces plus the
#                    perf smoke.  CI's per-push gate.
#   make sweep-smoke - declarative-sweep smoke: a tiny grid search and a
#                    2-core mix through both executors against a
#                    persistent store (subset of the quick tier).
#   make resume-smoke - checkpointed-resume smoke: extend a 100k Pythia
#                    cell to 200k from its stored checkpoint, pinned
#                    bit-identical to a fresh run (quick tier).
#   make stress-smoke - store concurrency suite: the multiprocess x
#                    multithread stress harness plus the locking /
#                    eviction-race / single-flight regression tests
#                    (tests/test_store_concurrency.py, quick tier; runs
#                    in CI right after the resume smoke).
#   make test      - full unit suite (tests/), ~1 min.
#   make bench     - figure/table regeneration suite (benchmarks/), slow.
#   make perfbench - tracked throughput bench; rewrites BENCH_perf.json
#                    (commit the diff when a PR moves performance).
#   make profile   - cProfile one cell; configure via PROFILE_ARGS, e.g.
#                    PROFILE_ARGS="--prefetcher spp --length 50000".
#   make lint      - the invariant checker (python -m repro.analysis):
#                    per-file rules (determinism, layering, hygiene,
#                    batching, exceptions, native), whole-program rules
#                    (concurrency, hotpath), and introspection rules
#                    (fingerprint, checkpoint) over src/repro,
#                    benchmarks/, scripts/, and tests/; per-line
#                    pragmas are the only suppression.  Every run
#                    parses every file and writes nothing.
#   make sanitize  - the native single-core and lockstep suites against an
#                    AddressSanitizer + UndefinedBehaviorSanitizer build of
#                    kernel.c (scripts/sanitize.py; needs libasan/libubsan).
#   make coverage  - line coverage (stdlib tracer, term-missing report)
#                    of every path in scripts/coverage_floor.json (today
#                    src/repro/analysis, api, core, sim, sim/engine.py
#                    and workloads), each checked against its floor;
#                    re-record with `python scripts/coverage.py
#                    --update-floor`.
#   make all       - everything pytest collects (tier-1 verify).

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: quick sweep-smoke resume-smoke stress-smoke test bench perfbench profile lint sanitize coverage all

quick:
	$(PY) -m pytest -m quick -q

sweep-smoke:
	$(PY) -m pytest benchmarks/test_sweep_smoke.py -q

resume-smoke:
	$(PY) -m pytest benchmarks/test_resume_smoke.py -q

stress-smoke:
	$(PY) -m pytest tests/test_store_concurrency.py -q

test:
	$(PY) -m pytest tests -q

bench:
	$(PY) -m pytest benchmarks -q

perfbench:
	REPRO_WRITE_BENCH=1 REPRO_PERF_STRICT=1 $(PY) -m pytest benchmarks/test_perf_throughput.py -q -m "not quick" -s

profile:
	$(PY) scripts/profile.py $(PROFILE_ARGS)

lint:
	$(PY) -m repro.analysis

sanitize:
	$(PY) scripts/sanitize.py

coverage:
	$(PY) scripts/coverage.py

all:
	$(PY) -m pytest -q
