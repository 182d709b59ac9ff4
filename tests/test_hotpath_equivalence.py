"""Hot-path equivalence: the PR 2 fast paths are pinned to the originals.

The simulator's per-record fast paths (NumPy Q-store, fused
observe+encode, O(1) DRAM counters, dict-indexed caches) are pure
optimizations: simulated behaviour must be *identical*.  This suite pins
that, at three levels:

1. Q-store: the NumPy and pure-Python implementations produce identical
   action selections and Q-updates on scripted and randomized episodes.
2. Feature path: the fused ``observe_basic_cols`` equals observe+encode for
   the paper's basic state-vector, including interleaved calls.
3. End to end: full ``SimulationResult`` stats match across store
   implementations, and the quick-smoke matrix matches the
   pre-optimization reference captured in
   ``tests/data/quick_smoke_expected.json`` (within 1e-6 relative).
4. Engine paths: the windowed :mod:`repro.sim.engine` replay — fresh,
   telemetry-windowed, and checkpoint-resumed — is pinned against the
   same pre-optimization reference, so resumable replay introduces no
   behaviour of its own.
5. Backends: batched and native replay equal scalar on single-core
   cells, and the native lockstep loop equals the Python lockstep loop
   on multi-core mixes, down to the state each leaves behind.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
from pathlib import Path

import pytest

from repro import registry
from repro.core.agent import SarsaAgent
from repro.core.config import PythiaConfig
from repro.core.eq import FILLED, HAS_REWARD
from repro.sim.config import CacheGeometry, SystemConfig
from repro.core.features import (
    BASIC_FEATURES,
    HISTORY,
    FeatureExtractor,
    compile_encoder,
    encode_feature,
)
from repro.core.qvstore import NumpyQVStore, QVStore
from repro.prefetchers.base import DemandContext, Prefetcher
from repro.sim.system import simulate, simulate_multi
from repro.types import make_line

EXPECTED_FILE = Path(__file__).parent / "data" / "quick_smoke_expected.json"


def both_stores(**config_kwargs):
    config = dataclasses.replace(PythiaConfig(), **config_kwargs)
    return QVStore(config), NumpyQVStore(config)


def assert_q_equal(py_store, np_store, state):
    py_q = py_store.q_values(state)
    np_q = np_store.q_values(state)
    assert list(py_q) == list(np_q), f"Q-rows diverge for state {state}"
    assert py_store.best_action(state) == np_store.best_action(state)


class TestStoreEquivalence:
    def test_agent_builds_the_flat_store(self):
        assert type(SarsaAgent(PythiaConfig()).qvstore) is NumpyQVStore

    def test_initial_rows_identical(self):
        py_store, np_store = both_stores()
        for state in [(0, 0), (1, 2), (12345, 67890)]:
            assert_q_equal(py_store, np_store, state)

    def test_scripted_episode_identical(self):
        """A fixed train/select/update script leaves both stores equal."""
        py_store, np_store = both_stores(alpha=0.1)
        states = [(7, 9), (7, 11), (100, 200), (7, 9)]
        script = [
            (states[0], 3, 12.0, states[1], 5),
            (states[1], 5, -4.0, states[2], 0),
            (states[2], 0, -12.0, states[0], 3),
            (states[0], 3, 20.0, states[3], 3),  # revisit after update
        ]
        for s, a, r, ns, na in script:
            td_py = py_store.sarsa_update(s, a, r, ns, na)
            td_np = np_store.sarsa_update(s, a, r, ns, na)
            assert td_py == td_np
            for state in states:
                assert_q_equal(py_store, np_store, state)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_episode_identical(self, seed):
        """Random interleavings of updates/selects over a small state set
        (heavy revisiting exercises the version-counter invalidation)."""
        rng = random.Random(seed)
        py_store, np_store = both_stores(alpha=0.05)
        state_pool = [(rng.randrange(1 << 16), rng.randrange(1 << 16)) for _ in range(12)]
        for _ in range(400):
            op = rng.random()
            state = rng.choice(state_pool)
            if op < 0.5:
                next_state = rng.choice(state_pool)
                action = rng.randrange(16)
                next_action = rng.randrange(16)
                reward = rng.uniform(-22.0, 20.0)
                td_py = py_store.sarsa_update(state, action, reward, next_state, next_action)
                td_np = np_store.sarsa_update(state, action, reward, next_state, next_action)
                assert td_py == td_np
            elif op < 0.75:
                assert py_store.best_action(state) == np_store.best_action(state)
            else:
                action = rng.randrange(16)
                assert py_store.q_value(state, action) == np_store.q_value(state, action)
        for state in state_pool:
            assert_q_equal(py_store, np_store, state)

    def test_storage_entries_match(self):
        py_store, np_store = both_stores()
        assert py_store.storage_entries == np_store.storage_entries


class TestFeaturePathEquivalence:
    @staticmethod
    def _contexts(count=300, seed=3):
        rng = random.Random(seed)
        return [
            DemandContext(
                pc=rng.choice([0x400, 0x404, 0x890]),
                line=make_line(rng.randrange(300), rng.randrange(64)),
                cycle=i,
            )
            for i in range(count)
        ]

    def test_observe_basic_matches_observe_plus_encode(self):
        fused = FeatureExtractor()
        generic = FeatureExtractor()
        for ctx in self._contexts():
            state_fused = fused.observe_basic_cols(ctx.pc, ctx.page, ctx.offset)
            obs = generic.observe(ctx)
            state_generic = tuple(
                encode_feature(spec, obs) for spec in BASIC_FEATURES
            )
            assert state_fused == state_generic

    def test_observe_basic_interleaves_safely(self):
        """Mixing the fused and generic paths advances state identically."""
        mixed = FeatureExtractor()
        generic = FeatureExtractor()
        for i, ctx in enumerate(self._contexts()):
            obs = generic.observe(ctx)
            expected = tuple(encode_feature(spec, obs) for spec in BASIC_FEATURES)
            if i % 2 == 0:
                assert mixed.observe_basic_cols(ctx.pc, ctx.page, ctx.offset) == expected
            else:
                obs_mixed = mixed.observe(ctx)
                assert obs_mixed == obs

    def test_compiled_encoders_match_encode_feature(self):
        from repro.core.features import all_feature_specs

        extractor = FeatureExtractor()
        observations = [extractor.observe(ctx) for ctx in self._contexts(100)]
        for spec in all_feature_specs():
            compiled = compile_encoder(spec)
            for obs in observations:
                assert compiled(obs) == encode_feature(spec, obs)


#: One committed sample of the external-trace ingestion path
#: (tests/data/traces), exercised through the ``file/`` namespace.
SAMPLE_FILE_TRACE = (
    f"file/{Path(__file__).parent / 'data' / 'traces' / 'mixed.champsim.gz'}"
)


class TestSimulationEquivalence:
    @pytest.mark.parametrize(
        "trace_name",
        [
            "spec06/lbm-1",
            "ligra/cc-1",
            # The ISSUE 4 scenario-engine additions: both new synthetic
            # families, and an externally-ingested file trace — every new
            # scenario source must keep the fast Q-store bit-identical.
            "synth/llist-small-1",
            "synth/llist-deep-1",
            "synth/phase-regular-1",
            "synth/phase-adversarial-1",
            SAMPLE_FILE_TRACE,
        ],
    )
    def test_store_implementations_bit_identical(self, trace_name):
        """Pythia with the NumPy store == Pythia with the Python store."""
        trace = registry.cached_trace(trace_name, 2000)
        results = {}
        for impl in ("python", "numpy"):
            pf = registry.create("pythia")
            if impl == "python":
                pf.agent.qvstore = QVStore(pf.config)
            results[impl] = dataclasses.asdict(
                simulate(trace, prefetcher=pf, warmup_fraction=0.2)
            )
        assert results["python"] == results["numpy"]

    @staticmethod
    def _assert_matches_reference(key: str, exp: dict, result: dict) -> None:
        for field_name, value in exp.items():
            got = result[field_name]
            if isinstance(value, list):
                assert got == pytest.approx(value, rel=1e-6), (
                    f"{key}.{field_name}"
                )
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                assert got == pytest.approx(value, rel=1e-6), (
                    f"{key}.{field_name}: {value!r} -> {got!r}"
                )
            else:
                assert got == value, f"{key}.{field_name}"

    @pytest.mark.parametrize("backend", ["batched", "scalar"])
    def test_quick_smoke_matrix_matches_preoptimization_reference(self, backend):
        """Stats match the values captured before the hot-loop rework.

        The reference JSON was recorded from the seed implementation; a
        1e-6 relative drift budget is allowed, but in practice the fast
        paths are bit-identical.  Both replay backends are pinned to the
        same reference, so batched == scalar == seed.
        """
        config = dataclasses.replace(SystemConfig(), replay_backend=backend)
        expected = json.loads(EXPECTED_FILE.read_text())
        for key, exp in expected.items():
            trace_name, pf_name = key.split("|")
            trace = registry.cached_trace(trace_name, 2000)
            result = dataclasses.asdict(
                simulate(
                    trace,
                    config=config,
                    prefetcher=registry.create(pf_name),
                    warmup_fraction=0.2,
                )
            )
            self._assert_matches_reference(key, exp, result)

    def test_engine_paths_match_preoptimization_reference(self):
        """Windowed and checkpoint-resumed replay are pinned to the seed.

        For every reference cell, three engine configurations — fresh
        full run, telemetry-windowed run, and a run resumed from a
        mid-trace checkpoint — must all reproduce the pre-optimization
        values; fresh and resumed must additionally be *equal* to each
        other field for field.
        """
        from repro.sim.engine import SimulationEngine

        class Sink:
            def __init__(self):
                self.states = {}

            def entries(self):
                return sorted(self.states)

            def has(self, records, drained_at):
                return (records, drained_at) in self.states

            def load(self, records, drained_at):
                return self.states.get((records, drained_at))

            def save(self, state):
                self.states[(state.records, state.drained_at)] = state

        expected = json.loads(EXPECTED_FILE.read_text())
        for key, exp in expected.items():
            trace_name, pf_name = key.split("|")
            trace = registry.cached_trace(trace_name, 2000)

            fresh = simulate(
                trace, prefetcher=registry.create(pf_name), warmup_fraction=0.2
            )

            windowed = dataclasses.asdict(
                simulate(
                    trace,
                    prefetcher=registry.create(pf_name),
                    warmup_fraction=0.2,
                    telemetry_window=500,
                )
            )
            windowed.pop("timeline")
            self._assert_matches_reference(key, exp, windowed)

            # Interrupt a checkpointing run mid-trace, then resume it in
            # a brand-new engine from the stored snapshot.
            sink = Sink()
            first = SimulationEngine(
                trace,
                prefetcher=registry.create(pf_name),
                warmup_fraction=0.2,
                checkpoints=sink,
                checkpoint_every=700,
            )
            first.cancel = lambda: first.position >= 1400
            with pytest.raises(Exception):
                first.run()
            second = SimulationEngine(
                trace,
                prefetcher=registry.create(pf_name),
                warmup_fraction=0.2,
                checkpoints=sink,
            )
            resumed = second.run()
            assert second.resumed_from == 1400, key
            assert dataclasses.asdict(resumed) == dataclasses.asdict(fresh), key
            self._assert_matches_reference(key, exp, dataclasses.asdict(resumed))


class TestBatchedBackendEquivalence:
    """The ISSUE 7 batched epoch kernel is pinned to the scalar engine.

    ``replay_backend`` is a non-semantic toggle: every trace family the
    scenario engine can produce must simulate bit-identically under both
    backends, and a checkpoint written by one run must resume into the
    exact state a fresh replay reaches.
    """

    @staticmethod
    def _config(backend):
        return dataclasses.replace(SystemConfig(), replay_backend=backend)

    @pytest.mark.parametrize("pf_name", ["pythia", "spp"])
    @pytest.mark.parametrize(
        "trace_name",
        [
            "spec06/lbm-1",
            "spec06/mcf-1",
            "synth/llist-small-1",
            "synth/phase-adversarial-1",
            SAMPLE_FILE_TRACE,
        ],
    )
    def test_backends_bit_identical(self, trace_name, pf_name):
        trace = registry.cached_trace(trace_name, 2000)
        results = {}
        for backend in ("batched", "scalar"):
            results[backend] = dataclasses.asdict(
                simulate(
                    trace,
                    config=self._config(backend),
                    prefetcher=registry.create(pf_name),
                    warmup_fraction=0.2,
                )
            )
        assert results["batched"] == results["scalar"]

    def test_backend_rejects_unknown_value(self):
        trace = registry.cached_trace("spec06/lbm-1", 2000)
        with pytest.raises(ValueError, match="replay_backend"):
            simulate(trace, config=self._config("simd"))
        # Mixes reject it too, rather than silently picking a loop.
        with pytest.raises(ValueError, match="replay_backend"):
            simulate_multi(
                [trace, trace],
                dataclasses.replace(
                    SystemConfig(num_cores=2), replay_backend="bogus"
                ),
                lambda: registry.create("none"),
            )

    def test_checkpoint_resume_100k_to_200k(self):
        """The perfbench-scale extension: run 100k records under the
        batched backend, checkpoint, then resume the checkpoint into a
        200k replay.  The resumed result must equal both a fresh batched
        and a fresh scalar 200k run bit for bit (the checkpoint payload
        is backend-agnostic)."""
        from repro.sim.engine import SimulationEngine

        class Sink:
            def __init__(self):
                self.states = {}

            def entries(self):
                return sorted(self.states)

            def has(self, records, drained_at):
                return (records, drained_at) in self.states

            def load(self, records, drained_at):
                return self.states.get((records, drained_at))

            def save(self, state):
                self.states[(state.records, state.drained_at)] = state

        warmup = 20_000
        trace100 = registry.cached_trace("spec06/lbm-1", 100_000)
        trace200 = registry.cached_trace("spec06/lbm-1", 200_000)

        sink = Sink()
        first = SimulationEngine(
            trace100,
            config=self._config("batched"),
            prefetcher=registry.create("pythia"),
            warmup_records=warmup,
            checkpoints=sink,
        )
        first.run()
        assert sink.has(100_000, (warmup,))

        second = SimulationEngine(
            trace200,
            config=self._config("batched"),
            prefetcher=registry.create("pythia"),
            warmup_records=warmup,
            checkpoints=sink,
        )
        resumed = dataclasses.asdict(second.run())
        assert second.resumed_from == 100_000

        fresh_batched = dataclasses.asdict(
            simulate(
                trace200,
                config=self._config("batched"),
                prefetcher=registry.create("pythia"),
                warmup_records=warmup,
            )
        )
        fresh_scalar = dataclasses.asdict(
            simulate(
                trace200,
                config=self._config("scalar"),
                prefetcher=registry.create("pythia"),
                warmup_records=warmup,
            )
        )
        assert resumed == fresh_batched
        assert fresh_batched == fresh_scalar


class TestNativeBackendEquivalence:
    """The ISSUE 10 compiled C kernel is pinned to batched and scalar.

    ``replay_backend="native"`` must be invisible in results: every
    trace family simulates bit-identically under all three backends
    (fresh and telemetry-windowed), and checkpoints cross backends in
    both directions — a native run resumes a batched snapshot and vice
    versa, landing on the exact same state.  The whole class skips when
    no C compiler is available (the engine then falls back to batched;
    ``tests/test_native_build.py`` pins that path).
    """

    @staticmethod
    def _config(backend):
        return dataclasses.replace(SystemConfig(), replay_backend=backend)

    @pytest.fixture(autouse=True)
    def _native_kernel(self):
        from repro.sim import _native

        if not _native.available():
            pytest.skip("no C compiler: native replay backend unavailable")

    @pytest.mark.parametrize("pf_name", ["pythia", "spp"])
    @pytest.mark.parametrize(
        "trace_name",
        [
            "spec06/lbm-1",
            "spec06/mcf-1",
            "synth/llist-small-1",
            "synth/phase-adversarial-1",
            SAMPLE_FILE_TRACE,
        ],
    )
    def test_backends_bit_identical(self, trace_name, pf_name):
        # spp trains through the kernel's Python hooks, pythia in C.
        trace = registry.cached_trace(trace_name, 2000)
        results = {}
        for backend in ("native", "batched", "scalar"):
            results[backend] = dataclasses.asdict(
                simulate(
                    trace,
                    config=self._config(backend),
                    prefetcher=registry.create(pf_name),
                    warmup_fraction=0.2,
                )
            )
        assert results["native"] == results["batched"]
        assert results["batched"] == results["scalar"]

    def test_windowed_runs_bit_identical(self):
        trace = registry.cached_trace("spec06/lbm-1", 2000)
        results = {}
        for backend in ("native", "batched", "scalar"):
            results[backend] = dataclasses.asdict(
                simulate(
                    trace,
                    config=self._config(backend),
                    prefetcher=registry.create("pythia"),
                    warmup_fraction=0.2,
                    telemetry_window=500,
                )
            )
        # Full comparison including the telemetry timeline.
        assert results["native"] == results["batched"]
        assert results["batched"] == results["scalar"]

    def test_checkpoint_resume_crosses_backends(self):
        """100k→200k resume crossing backends, both directions.

        A checkpoint written by a native 100k run must resume under the
        batched backend (and vice versa) into the exact state of a
        fresh 200k run — the snapshot payload is backend-agnostic.
        ``TestBatchedBackendEquivalence`` pins fresh batched == fresh
        scalar at this scale, so equality here chains to all three.
        """
        from repro.sim.engine import SimulationEngine

        class Sink:
            def __init__(self):
                self.states = {}

            def entries(self):
                return sorted(self.states)

            def has(self, records, drained_at):
                return (records, drained_at) in self.states

            def load(self, records, drained_at):
                return self.states.get((records, drained_at))

            def save(self, state):
                self.states[(state.records, state.drained_at)] = state

        warmup = 20_000
        trace100 = registry.cached_trace("spec06/lbm-1", 100_000)
        trace200 = registry.cached_trace("spec06/lbm-1", 200_000)

        fresh = {}
        for backend in ("native", "batched"):
            fresh[backend] = dataclasses.asdict(
                simulate(
                    trace200,
                    config=self._config(backend),
                    prefetcher=registry.create("pythia"),
                    warmup_records=warmup,
                )
            )
        assert fresh["native"] == fresh["batched"]

        for writer, resumer in (("native", "batched"), ("batched", "native")):
            sink = Sink()
            first = SimulationEngine(
                trace100,
                config=self._config(writer),
                prefetcher=registry.create("pythia"),
                warmup_records=warmup,
                checkpoints=sink,
            )
            first.run()
            assert sink.has(100_000, (warmup,))

            second = SimulationEngine(
                trace200,
                config=self._config(resumer),
                prefetcher=registry.create("pythia"),
                warmup_records=warmup,
                checkpoints=sink,
            )
            resumed = dataclasses.asdict(second.run())
            assert second.resumed_from == 100_000, (writer, resumer)
            assert resumed == fresh["native"], (writer, resumer)


def _cache_state(cache) -> tuple:
    """A cache's per-slot buffers, policy metadata, tick and counters."""
    policy = cache._policy
    return (
        cache._tag,
        cache._pf,
        cache._used,
        policy.meta_a,
        getattr(policy, "meta_b", None),
        getattr(policy, "meta_c", None),
        getattr(policy, "_shct", None),
        cache._tick,
        cache._where,
        cache._filled,
        dataclasses.asdict(cache.stats),
    )


def _page_table(extractor) -> list:
    """Resident pages in LRU order: (page, last offset, deltas, offsets)."""
    rows = []
    for page, slot in extractor.page_index().items():
        assert extractor.pt_page[slot] == page
        base = slot * HISTORY
        rows.append(
            (
                page,
                extractor.pt_lastoff[slot],
                extractor.pt_deltas[base : base + extractor.pt_dlen[slot]].tolist(),
                extractor.pt_offsets[base : base + extractor.pt_olen[slot]].tolist(),
            )
        )
    return rows


def _eq_slots(eq) -> list[int]:
    """Resident EQ slots, oldest first."""
    return [(eq.head_slot + i) % eq.capacity for i in range(eq.count)]


def _eq_entries(eq) -> list:
    """Resident EQ entries in FIFO order: (state, action, line, reward or
    None while unrewarded, filled bit)."""
    return [
        (
            eq.state_at(slot),
            eq.action[slot],
            eq.line[slot],
            eq.reward[slot] if eq.flags[slot] & HAS_REWARD else None,
            bool(eq.flags[slot] & FILLED),
        )
        for slot in _eq_slots(eq)
    ]


def _core_state(hierarchy, core) -> dict:
    """One core's private state: L1/L2, MSHR, fill queues, counters, core
    model and (for Pythia) the agent, with float/int types visible."""
    mshr = hierarchy.mshr
    state = {
        "l1": _cache_state(hierarchy.l1),
        "l2": _cache_state(hierarchy.l2),
        "mshr": (mshr._entries, mshr._by_completion, mshr.allocations, mshr.stalls),
        "fills": (
            hierarchy._pending_fills,
            hierarchy._inflight_prefetch,
            hierarchy._merged_inflight,
        ),
        "counters": (
            hierarchy.prefetches_issued,
            hierarchy.prefetches_dropped,
            hierarchy.late_prefetch_merges,
        ),
        "core": (
            repr(core.cycle),
            core.instructions,
            repr(core.stall_cycles),
            list(core._outstanding),
        ),
    }
    prefetcher = hierarchy.prefetcher
    if hasattr(prefetcher, "agent"):
        agent = prefetcher.agent
        extractor = prefetcher.extractor
        state["agent"] = (
            agent.qvstore._cells.tolist(),
            _eq_entries(agent.eq),
            _page_table(extractor),
            extractor.last_pcs[: extractor.lastpc_count].tolist(),
            agent._rng.getstate(),
            agent.updates,
            agent.explorations,
            prefetcher.action_counts,
            prefetcher.rewards_assigned,
        )
    return state


def _dram_state(dram) -> tuple:
    """DRAM counters, utilization window and per-channel state."""
    return (
        list(dram._events),
        dram._window_busy,
        dram._bucket_cycles,
        dram._last_bucket_cycle,
        dram.total_requests,
        dram.demand_requests,
        dram.prefetch_requests,
        dram.busy_cycles,
        [
            (ch._bus_free, ch._demand_bus_free, ch._bank_free, ch._open_row,
             ch.row_hits, ch.row_misses)
            for ch in dram._channels
        ],
    )


def _lockstep_state(engine) -> dict:
    """Everything a lockstep run leaves behind, with float/int types
    visible (``repr``) where Python may hold either."""
    return {
        "cores": [
            _core_state(hierarchy, core)
            for hierarchy, core in zip(engine.hierarchies, engine.cores)
        ],
        "llc": _cache_state(engine.llc),
        "dram": _dram_state(engine.dram),
        "steps": engine.steps,
        "cursors": engine.cursors,
        "measured": engine.measured,
        "warm_remaining": engine.warm_remaining,
        "marks": [repr(mark) for mark in engine.marks],
    }


class TestNativeLockstepEquivalence:
    """The compiled lockstep loop is pinned to the Python lockstep loop.

    ``MultiCoreEngine`` replays a supported mix in one native call unless
    ``replay_backend="scalar"``, which keeps the Python loop as the
    reference.  Each case runs both and requires equal results —
    ``dataclasses.asdict`` equality, and equal ``repr`` so a cycle count
    Python holds as an int stays one — and equal final state: every
    core's caches, MSHR, fill queues, core model and Pythia agent, the
    shared LLC and DRAM, and the engine's steps, cursors, warmup
    countdowns, measured counts and marks.  Every case also checks which
    loop ran, by wrapping :func:`repro.sim._native.replay_lockstep`.
    """

    @pytest.fixture(autouse=True)
    def _native_kernel(self):
        from repro.sim import _native

        if not _native.available():
            pytest.skip("no C compiler: native replay backend unavailable")

    @pytest.fixture
    def lockstep_calls(self, monkeypatch):
        from repro.sim import _native

        calls = []
        real = _native.replay_lockstep

        def counting(engine):
            calls.append(engine)
            return real(engine)

        monkeypatch.setattr(_native, "replay_lockstep", counting)
        return calls

    @staticmethod
    def _engines(names, config, pf_name, length, **kwargs):
        """(native-eligible engine, Python-loop engine), both run."""
        from repro.sim.engine import MultiCoreEngine

        engines = []
        for backend in ("native", "scalar"):
            traces = [registry.cached_trace(name, length) for name in names]
            engine = MultiCoreEngine(
                traces,
                dataclasses.replace(config, replay_backend=backend),
                lambda: registry.create(pf_name),
                0.2,
                **kwargs,
            )
            engines.append((engine, engine.run()))
        return engines

    def _assert_lockstep_equal(self, names, config, pf_name, length, calls, **kwargs):
        (native, got), (python, want) = self._engines(
            names, config, pf_name, length, **kwargs
        )
        assert calls == [native], "the native lockstep loop did not run"
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))
        assert _lockstep_state(native) == _lockstep_state(python)
        return native, got

    @pytest.mark.parametrize("pf_name", ["pythia", "none"])
    @pytest.mark.parametrize("kind", ["heterogeneous", "homogeneous"])
    @pytest.mark.parametrize("cores", [2, 4])
    def test_mixes_bit_identical(self, cores, kind, pf_name, lockstep_calls):
        from repro.workloads.mixes import (
            heterogeneous_mix_names,
            homogeneous_mix_names,
        )

        if kind == "heterogeneous":
            names = heterogeneous_mix_names(cores, 1, seed=1)[0][1]
        else:
            names = homogeneous_mix_names("spec06/lbm", cores)
        config = registry.system(f"{cores}c")
        assert config.llc.replacement == "ship"
        self._assert_lockstep_equal(names, config, pf_name, 1500, lockstep_calls)

    def test_lru_llc_bit_identical(self, lockstep_calls):
        from repro.workloads.mixes import heterogeneous_mix_names

        names = heterogeneous_mix_names(2, 1, seed=5)[0][1]
        base = registry.system("2c")
        config = dataclasses.replace(
            base, llc=dataclasses.replace(base.llc, replacement="lru")
        )
        self._assert_lockstep_equal(names, config, "pythia", 1500, lockstep_calls)

    @pytest.mark.parametrize("pf_name", ["pythia", "none"])
    def test_stress_geometry_regrows(self, pf_name, lockstep_calls, monkeypatch):
        """Few-line caches and 2-entry MSHRs force evictions everywhere
        and structural stalls; a utilization window longer than the run
        keeps every DRAM event, so the shared event ring outgrows its
        import headroom and the kernel re-enters (rc=1) several times."""
        from repro.sim._native import bridge
        from repro.sim.config import CacheGeometry
        from repro.workloads.mixes import heterogeneous_mix_names

        lib = bridge.get_lib()
        real = lib.repro_replay_lockstep
        codes = []

        def recording(args):
            rc = real(args)
            codes.append(rc)
            return rc

        monkeypatch.setattr(lib, "repro_replay_lockstep", recording)
        base = registry.system("4c")
        config = dataclasses.replace(
            base,
            l1=CacheGeometry(4 * 64, 2, 4, 2),
            l2=CacheGeometry(8 * 64, 2, 14, 2),
            llc=CacheGeometry(16 * 64, 2, 34, 2, "ship"),
            dram=dataclasses.replace(base.dram, utilization_window=1 << 40),
        )
        names = heterogeneous_mix_names(4, 1, seed=2)[0][1]
        native, _ = self._assert_lockstep_equal(
            names, config, pf_name, 1500, lockstep_calls
        )
        assert codes.count(1) >= 1 and codes[-1] == 0, codes
        assert sum(h.mshr.stalls for h in native.hierarchies) > 0

    def test_zero_warmup_and_cursor_wrap(self, lockstep_calls):
        """No warmup (the mark is taken on each core's first step) and a
        quota past the end of every trace (cursors wrap around)."""
        from repro.workloads.mixes import heterogeneous_mix_names

        names = heterogeneous_mix_names(2, 1, seed=3)[0][1]
        native, _ = self._assert_lockstep_equal(
            names,
            registry.system("2c"),
            "pythia",
            600,
            lockstep_calls,
            warmup_records=0,
            records_per_core=1400,
        )
        assert native.warm_remaining == [0, 0]
        assert min(native.cursors) > 600

    def test_stalled_cycles_stay_ints(self, lockstep_calls):
        """Back-to-back missing loads (gap 0) fill the ROB after 256 of
        them, so from then on a load's own issue stalls and leaves
        ``CoreModel.cycle`` a Python int; the marks (taken after 500
        records) and results must carry the same int/float types as the
        Python loop's, or the store's JSON digests would differ."""
        from repro.sim.engine import MultiCoreEngine
        from repro.sim.trace import Trace, TraceRecord

        traces = [
            Trace(
                f"stream-{core}",
                [
                    TraceRecord(pc=0x400 + core, line=(core << 30) + 3 * i, gap=0)
                    for i in range(900)
                ],
            )
            for core in range(2)
        ]
        engines = []
        for backend in ("native", "scalar"):
            engine = MultiCoreEngine(
                traces,
                dataclasses.replace(registry.system("2c"), replay_backend=backend),
                lambda: registry.create("pythia"),
                warmup_records=500,
            )
            engines.append((engine, engine.run()))
        (native, got), (python, want) = engines
        assert lockstep_calls == [native]
        assert any(type(mark.cycles) is int for mark in python.marks)
        assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))
        assert _lockstep_state(native) == _lockstep_state(python)

    @pytest.mark.parametrize("case", ["spp", "telemetry"])
    def test_unsupported_runs_python_loop(self, case, lockstep_calls):
        """A telemetry-windowed pythia mix stays on the Python loop; an
        spp mix replays in the kernel through the training hooks.  Both
        match the Python loop's results."""
        from repro.workloads.mixes import heterogeneous_mix_names

        names = heterogeneous_mix_names(2, 1, seed=4)[0][1]
        kwargs = {"telemetry_window": 500} if case == "telemetry" else {}
        pf_name = "spp" if case == "spp" else "pythia"
        (native, got), (_, want) = self._engines(
            names, registry.system("2c"), pf_name, 800, **kwargs
        )
        if case == "spp":
            assert lockstep_calls == [native]
            assert native._use_native
        else:
            assert lockstep_calls == []
            assert not native._use_native
        assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))


class _Recording(Prefetcher):
    """Wraps a registered prefetcher and logs every call the replay
    makes into it — training (through ``train``, which the base
    ``train_cols`` wrapper and the scalar loop both reach) and the four
    outcome callbacks — by name and ``repr`` of the arguments, so an int
    arriving as a float or a bool as an int shows as a difference."""

    name = "recording"

    def __init__(self, inner: str) -> None:
        self.inner = registry.create(inner)
        self.log: list[tuple[str, str]] = []

    def train(self, ctx: DemandContext) -> list[int]:
        fields = (
            ctx.pc, ctx.line, ctx.page, ctx.offset, ctx.cycle, ctx.is_load,
            ctx.bandwidth_utilization, ctx.bandwidth_high,
        )
        self.log.append(("train", repr(fields)))
        return self.inner.train(ctx)

    def on_prefetch_fill(self, line: int, cycle: int) -> None:
        self.log.append(("fill", repr((line, cycle))))
        self.inner.on_prefetch_fill(line, cycle)

    def on_demand_hit_prefetched(self, line: int, cycle: int) -> None:
        self.log.append(("hit", repr((line, cycle))))
        self.inner.on_demand_hit_prefetched(line, cycle)

    def on_prefetch_dropped(self, line: int, cycle: int) -> None:
        self.log.append(("dropped", repr((line, cycle))))
        self.inner.on_prefetch_dropped(line, cycle)

    def on_prefetch_useless(self, line: int, cycle: int) -> None:
        self.log.append(("useless", repr((line, cycle))))
        self.inner.on_prefetch_useless(line, cycle)


class TestNativeHookEquivalence:
    """Every prefetcher replays natively, pinned native == scalar.

    The kernel models ``none`` and basic Pythia in C and trains every
    other prefetcher (and every L1 prefetcher) through the Python hooks.
    Each case compares results and the end state the run leaves behind:
    the prefetcher's pickled state always, and the hierarchy's where a
    case drives the rare paths (drops, useless evictions, regrowth).
    The whole class skips without a C compiler.
    """

    @staticmethod
    def _config(backend, base=None):
        return dataclasses.replace(
            base if base is not None else SystemConfig(), replay_backend=backend
        )

    @pytest.fixture(autouse=True)
    def _native_kernel(self):
        from repro.sim import _native

        if not _native.available():
            pytest.skip("no C compiler: native replay backend unavailable")

    @pytest.fixture
    def span_codes(self, monkeypatch):
        """Return codes of every single-core kernel call."""
        from repro.sim._native import bridge

        lib = bridge.get_lib()
        real = lib.repro_replay_span
        codes = []

        def recording(*args):
            codes.append(real(*args))
            return codes[-1]

        monkeypatch.setattr(lib, "repro_replay_span", recording)
        return codes

    def _engines(self, trace, base=None, make=None, **kwargs):
        """(native engine, scalar engine), both run, with their results."""
        from repro.sim.engine import SimulationEngine

        runs = []
        for backend in ("native", "scalar"):
            prefetcher, l1_prefetcher = make()
            engine = SimulationEngine(
                trace,
                config=self._config(backend, base),
                prefetcher=prefetcher,
                l1_prefetcher=l1_prefetcher,
                **kwargs,
            )
            runs.append((engine, engine.run()))
        return runs

    def _assert_equal(self, trace, base=None, make=None, **kwargs):
        (native, got), (scalar, want) = self._engines(trace, base, make, **kwargs)
        assert native._use_native
        assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))
        assert _core_state(native.hierarchy, native.core) == _core_state(
            scalar.hierarchy, scalar.core
        )
        assert _dram_state(native.hierarchy.dram) == _dram_state(scalar.hierarchy.dram)
        assert _cache_state(native.hierarchy.llc) == _cache_state(scalar.hierarchy.llc)
        for attr in ("prefetcher", "l1_prefetcher"):
            assert pickle.dumps(getattr(native.hierarchy, attr)) == pickle.dumps(
                getattr(scalar.hierarchy, attr)
            ), attr
        return native, got

    @pytest.mark.parametrize("trace_name", ["spec06/mcf-1", "synth/phase-adversarial-1"])
    @pytest.mark.parametrize("pf_name", registry.available_prefetchers())
    def test_every_prefetcher_bit_identical(self, pf_name, trace_name):
        trace = registry.cached_trace(trace_name, 2000)
        self._assert_equal(
            trace, make=lambda: (registry.create(pf_name), None), warmup_fraction=0.2
        )

    @pytest.mark.parametrize("pf_name", ["spp", "bingo", "spp_ppf"])
    def test_windowed_runs_bit_identical(self, pf_name):
        trace = registry.cached_trace("spec06/lbm-1", 2000)
        _, got = self._assert_equal(
            trace,
            make=lambda: (registry.create(pf_name), None),
            warmup_fraction=0.2,
            telemetry_window=300,
        )
        assert len(got.timeline["rows"]) > 5

    @pytest.mark.parametrize("pf_name", ["spp", "cp_hw"])
    def test_checkpoint_resume_crosses_backends(self, pf_name):
        """A snapshot written by either backend resumes under the other
        into a fresh scalar run's exact result — the hooked prefetcher's
        state rides in the same pickled payload as the hierarchy's."""
        from repro.sim.engine import SimulationEngine

        class Sink:
            def __init__(self):
                self.states = {}

            def entries(self):
                return sorted(self.states)

            def has(self, records, drained_at):
                return (records, drained_at) in self.states

            def load(self, records, drained_at):
                return self.states.get((records, drained_at))

            def save(self, state):
                self.states[(state.records, state.drained_at)] = state

        warmup = 600
        short = registry.cached_trace("spec06/lbm-1", 3000)
        long = registry.cached_trace("spec06/lbm-1", 6000)
        fresh = dataclasses.asdict(
            simulate(
                long,
                config=self._config("scalar"),
                prefetcher=registry.create(pf_name),
                warmup_records=warmup,
            )
        )
        for writer, resumer in (("native", "scalar"), ("scalar", "native")):
            sink = Sink()
            SimulationEngine(
                short,
                config=self._config(writer),
                prefetcher=registry.create(pf_name),
                warmup_records=warmup,
                checkpoints=sink,
            ).run()
            assert sink.has(3000, (warmup,))
            second = SimulationEngine(
                long,
                config=self._config(resumer),
                prefetcher=registry.create(pf_name),
                warmup_records=warmup,
                checkpoints=sink,
            )
            resumed = dataclasses.asdict(second.run())
            assert second.resumed_from == 3000, (writer, resumer)
            assert resumed == fresh, (writer, resumer)

    @pytest.mark.parametrize("mtps", [300, 2400])
    @pytest.mark.parametrize("l2_name", ["streamer", "pythia"])
    def test_fig8d_l1_l2_pairs(self, l2_name, mtps):
        """Fig 8d's multi-level schemes: a stride L1 prefetcher, trained
        on every L1 access through the L1 hook, under a hooked (streamer)
        or C-modelled (pythia) L2 prefetcher."""
        trace = registry.cached_trace("spec06/lbm-1", 2000)
        native, _ = self._assert_equal(
            trace,
            base=SystemConfig().with_mtps(mtps),
            make=lambda: (registry.create(l2_name), registry.create("stride")),
            warmup_fraction=0.2,
        )
        assert native.hierarchy.l1.stats.prefetch_fills > 0

    @pytest.mark.parametrize("cores", [2, 4])
    @pytest.mark.parametrize("pf_name", ["spp", "bingo", "mlop", "spp_ppf"])
    def test_lockstep_mixes_bit_identical(self, pf_name, cores, monkeypatch):
        from repro.sim import _native
        from repro.sim.engine import MultiCoreEngine
        from repro.workloads.mixes import heterogeneous_mix_names

        calls = []
        real = _native.replay_lockstep
        monkeypatch.setattr(
            _native, "replay_lockstep", lambda engine: calls.append(engine) or real(engine)
        )
        names = heterogeneous_mix_names(cores, 1, seed=6)[0][1]
        runs = []
        for backend in ("native", "scalar"):
            engine = MultiCoreEngine(
                [registry.cached_trace(name, 1000) for name in names],
                self._config(backend, registry.system(f"{cores}c")),
                lambda: registry.create(pf_name),
                0.2,
            )
            runs.append((engine, engine.run()))
        (native, got), (scalar, want) = runs
        assert calls == [native]
        assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))
        assert _lockstep_state(native) == _lockstep_state(scalar)
        assert [pickle.dumps(h.prefetcher) for h in native.hierarchies] == [
            pickle.dumps(h.prefetcher) for h in scalar.hierarchies
        ]

    #: Few-line SHiP caches and 2-entry MSHRs: every fill evicts, most
    #: prefetches are dropped, and a utilization window longer than the
    #: run keeps every DRAM event, so the event ring outgrows its import
    #: headroom and the kernel re-enters (rc=1).  A degree cap of 2
    #: truncates the prefetchers' candidate lists, L1 and L2.
    STRESS = dataclasses.replace(
        SystemConfig(),
        l1=CacheGeometry(4 * 64, 2, 4, 2, "ship"),
        l2=CacheGeometry(8 * 64, 2, 14, 2, "ship"),
        llc=CacheGeometry(16 * 64, 2, 34, 2, "ship"),
        dram=dataclasses.replace(SystemConfig().dram, utilization_window=1 << 40),
        max_prefetch_degree=2,
    )

    @pytest.mark.parametrize("pf_name", ["st+s+b+d+m", "spp_ppf", "pythia"])
    def test_stress_geometry_drops_and_regrows(self, pf_name, span_codes):
        trace = registry.cached_trace("synth/phase-adversarial-1", 3000)
        native, _ = self._assert_equal(
            trace,
            base=self.STRESS,
            make=lambda: (registry.create(pf_name), registry.create("streamer")),
            warmup_fraction=0.2,
        )
        assert native.hierarchy.prefetches_dropped > 0
        assert span_codes.count(1) >= 1 and span_codes[-1] == 0, span_codes

    def test_recording_prefetcher_log_identical(self):
        """The hooks reach the prefetcher with the scalar loop's calls:
        the same training events and outcome callbacks, in the same
        order, with the same argument values and Python types."""
        trace = registry.cached_trace("synth/phase-adversarial-1", 3000)
        # Small caches with 16 MSHRs: every outcome callback fires
        # hundreds of times (the stress geometry starves them of fills).
        config = dataclasses.replace(
            SystemConfig(),
            l1=CacheGeometry(4 * 64, 2, 4, 2),
            l2=CacheGeometry(32 * 64, 4, 14, 16),
            llc=CacheGeometry(64 * 64, 4, 34, 16, "lru"),
        )
        (native, got), (scalar, want) = self._engines(
            trace,
            base=config,
            make=lambda: (_Recording("st+s+b+d+m"), None),
            warmup_fraction=0.2,
        )
        assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))
        log = native.hierarchy.prefetcher.log
        assert log == scalar.hierarchy.prefetcher.log
        assert {kind for kind, _ in log} == {"train", "fill", "hit", "dropped", "useless"}


class TestRewardAccounting:
    """Every selected action has its reward counted exactly once in
    ``rewards_assigned``: at insert (no prefetch, out of page), while
    resident (R_AT / R_AL) or when the EQ evicts it unrewarded (R_IN).
    Only resident entries still awaiting a reward are uncounted, on the
    scalar loop and in the C kernel alike."""

    @pytest.mark.parametrize("backend", ["scalar", "native"])
    def test_every_action_is_rewarded_once(self, backend):
        from repro.sim import _native
        from repro.sim._native import bridge
        from repro.sim.engine import SimulationEngine

        if backend == "native" and not _native.available():
            pytest.skip("no C compiler: native replay backend unavailable")
        engine = SimulationEngine(
            registry.cached_trace("spec06/lbm-1", 2000),
            config=dataclasses.replace(SystemConfig(), replay_backend=backend),
            prefetcher=registry.create("pythia"),
            warmup_fraction=0.2,
        )
        engine.run()
        if backend == "native":
            assert engine._use_native
            assert bridge.training_mode(engine.hierarchy) == bridge.TRAIN_PYTHIA
        pythia = engine.hierarchy.prefetcher
        eq = pythia.agent.eq
        assert pythia.agent.updates > 0  # the EQ has evicted
        assert pythia.rewards_assigned["inaccurate"] > 0
        pending = sum(not eq.flags[slot] & HAS_REWARD for slot in _eq_slots(eq))
        assert sum(pythia.rewards_assigned.values()) == (
            sum(pythia.action_counts) - pending
        )
