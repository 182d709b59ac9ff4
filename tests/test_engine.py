"""Windowed-engine invariants: telemetry, checkpoint/resume, state round-trips.

The :mod:`repro.sim.engine` refactor must be a pure re-arrangement of
the replay loop: windows, checkpoints, progress, and cancellation may
only *observe* simulation state, never perturb it.  This suite pins
that from several directions:

* windowed / chunked / interrupted replay produces the byte-identical
  ``SimulationResult`` of a plain run;
* ``EngineState`` round-trips — capture → pickle → restore → continue —
  equal uninterrupted replay, property-tested over seeded random
  interruption points for Pythia (both Q-store implementations) and
  SPP;
* resume compatibility rules: drain-history and prefix-stamp mismatches
  are rejected instead of silently corrupting results;
* the store checkpoint namespace: round-trip, prefix listing, and the
  size cap's oldest-first eviction;
* timeline semantics: contiguous coverage, window-sum == run totals,
  phase segmentation.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
from array import array

import pytest

from repro import registry
from repro.api.store import ResultStore
from repro.core.config import PythiaConfig
from repro.core.qvstore import QVStore
from repro.sim.cache import Cache
from repro.sim.engine import (
    STATE_LAYOUT,
    EngineState,
    SimulationCancelled,
    SimulationEngine,
    Timeline,
)
from repro.sim.replacement import ShipPolicy, SlotBuffers
from repro.sim.system import simulate, simulate_multi
from repro.sim.config import baseline_multi_core

pytestmark = pytest.mark.quick

SEEDS = [0, 1, 2]
TRACE = "spec06/lbm-1"
LENGTH = 3_000


class MemorySink:
    """Minimal in-memory checkpoint namespace (the engine's duck type)."""

    def __init__(self) -> None:
        self.states: dict[tuple[int, tuple[int, ...]], EngineState] = {}
        self.loads = 0

    def entries(self):
        return sorted(self.states)

    def has(self, records, drained_at):
        return (records, drained_at) in self.states

    def load(self, records, drained_at):
        self.loads += 1
        return self.states.get((records, drained_at))

    def save(self, state):
        self.states[(state.records, state.drained_at)] = state


def result_dict(result):
    return dataclasses.asdict(result)


def make_prefetcher(spec: str):
    if spec == "pythia-python":
        prefetcher = registry.create("pythia")
        prefetcher.agent.qvstore = QVStore(prefetcher.config)
        return prefetcher
    if spec == "pythia-numpy":
        return registry.create("pythia")
    return registry.create(spec)


PREFETCHER_SPECS = ["pythia-numpy", "pythia-python", "spp"]


class TestWindowedEquivalence:
    @pytest.mark.parametrize("spec", PREFETCHER_SPECS)
    def test_telemetry_windows_do_not_perturb(self, spec):
        trace = registry.cached_trace(TRACE, LENGTH)
        plain = simulate(trace, prefetcher=make_prefetcher(spec))
        windowed = simulate(
            trace, prefetcher=make_prefetcher(spec), telemetry_window=500
        )
        expected = result_dict(plain)
        got = result_dict(windowed)
        timeline = got.pop("timeline")
        expected.pop("timeline")
        assert got == expected
        assert timeline["window"] == 500
        # Rows break at window multiples plus the warmup split (600).
        split = int(LENGTH * 0.2)
        boundaries = sorted({*range(500, LENGTH + 1, 500), split, LENGTH})
        assert len(timeline["rows"]) == len(boundaries)
        assert [r["end_record"] for r in timeline["rows"]] == boundaries

    def test_timeline_rows_are_contiguous_and_sum_to_totals(self):
        trace = registry.cached_trace(TRACE, LENGTH)
        result = simulate(
            trace, prefetcher=registry.create("spp"), telemetry_window=700
        )
        timeline = Timeline.from_payload(result.timeline)
        assert timeline.rows[0].start_record == 0
        assert timeline.rows[-1].end_record == LENGTH
        split = int(LENGTH * 0.2)
        for prev, row in zip(timeline.rows, timeline.rows[1:]):
            assert row.start_record == prev.end_record
        for row in timeline.rows:
            # No row straddles the warmup split, and the flag matches
            # the side of the split the row's records lie on.
            assert row.end_record <= split or row.start_record >= split
            assert row.warmup == (row.end_record <= split)
        assert [row.index for row in timeline.rows] == list(
            range(len(timeline.rows))
        )
        # Windows tile the whole run, so deltas must sum to run totals
        # (warmup rows included; the result counts post-warmup only, so
        # compare against full-run counters via a zero-warmup run).
        full = simulate(
            trace, prefetcher=registry.create("spp"), warmup_fraction=0.0
        )
        assert sum(r.instructions for r in timeline.rows) == full.instructions
        assert (
            sum(r.prefetches_issued for r in timeline.rows)
            == full.prefetches_issued
        )

    def test_progress_and_cancellation(self):
        trace = registry.cached_trace(TRACE, LENGTH)
        seen = []
        simulate(
            trace,
            prefetcher=registry.create("none"),
            telemetry_window=1_000,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (LENGTH, LENGTH)
        assert all(total == LENGTH for _, total in seen)

        polls = {"count": 0}

        def cancel():
            polls["count"] += 1
            return polls["count"] > 2

        engine = SimulationEngine(
            trace,
            prefetcher=registry.create("none"),
            telemetry_window=500,
            cancel=cancel,
        )
        with pytest.raises(SimulationCancelled):
            engine.run()
        assert 0 < engine.position < LENGTH
        # The engine stays valid: clearing the cancel finishes the run
        # with a result identical to an uninterrupted one.
        engine.cancel = None
        resumed = result_dict(engine.run())
        plain = result_dict(simulate(trace, prefetcher=registry.create("none")))
        assert resumed.pop("timeline") is not None
        plain.pop("timeline")
        assert resumed == plain

    def test_multi_core_telemetry_does_not_perturb(self):
        config = baseline_multi_core(2)
        traces = [
            registry.cached_trace("spec06/lbm-1", 1_500),
            registry.cached_trace("ligra/cc-1", 1_500),
        ]
        plain = simulate_multi(traces, config, lambda: registry.create("spp"))
        windowed = simulate_multi(
            traces, config, lambda: registry.create("spp"), telemetry_window=500
        )
        expected = result_dict(plain)
        got = result_dict(windowed)
        assert got.pop("timeline") is not None
        expected.pop("timeline")
        assert got == expected


class TestEngineStateRoundTrip:
    """Capture → pickle → restore → continue equals uninterrupted replay."""

    @pytest.mark.parametrize("spec", PREFETCHER_SPECS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_roundtrip_at_random_interruption(self, spec, seed):
        rng = random.Random(seed)
        trace = registry.cached_trace(TRACE, LENGTH)
        stop_at = rng.randrange(1, LENGTH)
        warmup_records = rng.choice([0, 600, 1_200])

        uninterrupted = simulate(
            trace, prefetcher=make_prefetcher(spec), warmup_records=warmup_records
        )

        engine = SimulationEngine(
            trace,
            prefetcher=make_prefetcher(spec),
            warmup_records=warmup_records,
            checkpoint_every=stop_at,  # forces an epoch boundary at stop_at
            checkpoints=MemorySink(),
        )
        engine.cancel = lambda: engine.position >= stop_at
        with pytest.raises(SimulationCancelled):
            engine.run()
        assert engine.position == stop_at

        # Serialize across the interruption, restore into a fresh engine.
        state = pickle.loads(pickle.dumps(engine.capture_state()))
        assert state.records == stop_at
        fresh = SimulationEngine(
            trace, prefetcher=make_prefetcher(spec), warmup_records=warmup_records
        )
        fresh.adopt_state(state)
        resumed = fresh.run()
        assert result_dict(resumed) == result_dict(uninterrupted)

    def test_adoption_rejects_incompatible_states(self):
        trace = registry.cached_trace(TRACE, LENGTH)
        sink = MemorySink()
        engine = SimulationEngine(
            trace,
            prefetcher=registry.create("spp"),
            warmup_records=600,
            checkpoints=sink,
            checkpoint_every=1_000,
        )
        engine.run()
        state = sink.states[(1_000, (600,))]

        # Wrong drain history for the adopter's warmup split.
        other_split = SimulationEngine(
            trace, prefetcher=registry.create("spp"), warmup_records=900
        )
        with pytest.raises(ValueError, match="drained"):
            other_split.adopt_state(state)

        # Wrong trace content for the claimed prefix.
        other_trace = SimulationEngine(
            registry.cached_trace("ligra/cc-1", LENGTH),
            prefetcher=registry.create("spp"),
            warmup_records=600,
        )
        with pytest.raises(ValueError, match="prefix stamp"):
            other_trace.adopt_state(state)

        # Beyond the adopter's trace.
        short = SimulationEngine(
            registry.cached_trace(TRACE, 800),
            prefetcher=registry.create("spp"),
            warmup_records=600,
        )
        with pytest.raises(ValueError, match="consumed"):
            short.adopt_state(state)

    def test_numpy_qvstore_views_survive_pickling(self):
        """The restored Q-store must keep table/flat/ravel aliased."""
        prefetcher = registry.create("pythia")
        store = pickle.loads(pickle.dumps(prefetcher)).agent.qvstore
        state = (3, 7)
        before = list(store.q_values(state))
        store.sarsa_update(state, 0, 5.0, state, 0)
        after = list(store.q_values(state))
        assert after != before  # update visible through the views


class TestStateLayout:
    def test_checkpoint_payload_size_pinned(self):
        """The flat cache layout keeps a pythia snapshot under 1 MB
        (the per-way object layout pickled this state to 3.43 MB)."""
        sink = MemorySink()
        SimulationEngine(
            registry.cached_trace("spec06/gemsfdtd-1", 3_000),
            prefetcher=registry.create("pythia"),
            warmup_records=600,
            checkpoints=sink,
            checkpoint_every=3_000,
        ).run()
        state = sink.states[(3_000, (600,))]
        assert state.size_bytes < 1_000_000

    def test_snapshot_with_list_caches_restores(self, monkeypatch):
        """A snapshot pickled while the caches held plain lists
        (``Cache._meta_a`` aliasing the policy's list; layout 3 changed
        only the Pythia agent's form, layout 4 only the prefix stamp's
        encoding) restores into typed buffers and finishes the run
        bit-identically on the default backend, which hands those
        buffers to the native kernel."""
        assert STATE_LAYOUT == 4
        trace = registry.cached_trace(TRACE, LENGTH)
        expected = simulate(
            trace, prefetcher=registry.create("pythia"), warmup_records=600
        )
        stop_at = 1_500
        engine = SimulationEngine(
            trace,
            prefetcher=registry.create("pythia"),
            warmup_records=600,
            checkpoint_every=stop_at,
            checkpoints=MemorySink(),
        )
        engine.cancel = lambda: engine.position >= stop_at
        with pytest.raises(SimulationCancelled):
            engine.run()

        def caches(hierarchy):
            return (hierarchy.l1, hierarchy.l2, hierarchy.llc)

        # Put the engine's caches back in the list form they held before
        # the buffers were typed, and pickle them without the
        # buffer-aware __getstate__.
        for cache in caches(engine.hierarchy):
            policy = cache._policy
            for owner, names in (
                (cache, ("_tag", "_pf", "_used")),
                (policy, ("meta_a", "meta_b", "meta_c", "_shct")),
            ):
                for name in names:
                    buf = getattr(owner, name, None)
                    if isinstance(buf, bytearray):
                        setattr(owner, name, list(map(bool, buf)))
                    elif buf is not None:
                        setattr(owner, name, buf.tolist())
            cache._meta_a = policy.meta_a
        assert isinstance(engine.hierarchy.llc._policy, ShipPolicy)
        with monkeypatch.context() as patch:
            patch.delattr(Cache, "__getstate__")
            patch.delattr(SlotBuffers, "__getstate__")
            state = pickle.loads(pickle.dumps(engine.capture_state()))
        old_llc = pickle.loads(state.payload)[0].llc.__dict__
        assert old_llc["_meta_a"] is old_llc["_policy"].meta_a

        fresh = SimulationEngine(
            trace, prefetcher=registry.create("pythia"), warmup_records=600
        )
        fresh.adopt_state(state)
        for cache in caches(fresh.hierarchy):
            policy = cache._policy
            assert type(cache._tag) is array and type(policy.meta_a) is array
            assert type(cache._pf) is bytearray and type(cache._used) is bytearray
            assert cache._meta_a is policy.meta_a
        ship = fresh.hierarchy.llc._policy
        assert type(ship.meta_b) is array and type(ship._shct) is array
        assert type(ship.meta_c) is bytearray
        assert result_dict(fresh.run()) == result_dict(expected)


    def test_snapshot_with_qvstore_impl_config_restores(self, monkeypatch):
        """A layout-3 snapshot whose ``PythiaConfig`` still carries the
        removed ``qvstore_impl`` field, pickled as a config holding that
        field pickles (its ``__dict__``), restores and finishes the run
        bit-identically: the stale key is inert."""
        trace = registry.cached_trace(TRACE, LENGTH)
        expected = simulate(
            trace, prefetcher=registry.create("pythia"), warmup_records=600
        )
        stop_at = 1_500
        engine = SimulationEngine(
            trace,
            prefetcher=registry.create("pythia"),
            warmup_records=600,
            checkpoint_every=stop_at,
            checkpoints=MemorySink(),
        )
        engine.cancel = lambda: engine.position >= stop_at
        with pytest.raises(SimulationCancelled):
            engine.run()
        with monkeypatch.context() as patch:
            patch.setattr(
                PythiaConfig,
                "__getstate__",
                lambda config: {**config.__dict__, "qvstore_impl": "auto"},
                raising=False,
            )
            state = pickle.loads(pickle.dumps(engine.capture_state()))

        fresh = SimulationEngine(
            trace, prefetcher=registry.create("pythia"), warmup_records=600
        )
        fresh.adopt_state(state)
        pythia = fresh.hierarchy.prefetcher
        assert pythia.config.__dict__["qvstore_impl"] == "auto"
        assert pythia.agent.qvstore.config.__dict__["qvstore_impl"] == "auto"
        assert result_dict(fresh.run()) == result_dict(expected)


class TestCheckpointResume:
    @pytest.mark.parametrize("spec", ["pythia-numpy", "spp"])
    def test_extension_resumes_bit_identical(self, spec):
        """Growing trace_length resumes from the shorter run's snapshot."""
        sink = MemorySink()
        short_trace = registry.cached_trace(TRACE, 2_000)
        long_trace = registry.cached_trace(TRACE, 4_000)
        SimulationEngine(
            short_trace,
            prefetcher=make_prefetcher(spec),
            warmup_records=400,
            checkpoints=sink,
            checkpoint_every=1_000,
        ).run()
        assert (2_000, (400,)) in sink.states

        resumed_engine = SimulationEngine(
            long_trace,
            prefetcher=make_prefetcher(spec),
            warmup_records=400,
            checkpoints=sink,
            checkpoint_every=1_000,
        )
        resumed = resumed_engine.run()
        assert resumed_engine.resumed_from == 2_000
        fresh = simulate(
            long_trace, prefetcher=make_prefetcher(spec), warmup_records=400
        )
        assert result_dict(resumed) == result_dict(fresh)

    def test_fractional_warmup_reuses_pre_drain_prefix_only(self):
        """With fractional warmup the split moves with the length, so
        only pre-drain snapshots are compatible — and results must still
        be bit-identical."""
        sink = MemorySink()
        short_trace = registry.cached_trace(TRACE, 2_000)
        long_trace = registry.cached_trace(TRACE, 4_000)
        SimulationEngine(
            short_trace,
            prefetcher=registry.create("spp"),
            warmup_fraction=0.2,
            checkpoints=sink,
            checkpoint_every=200,
        ).run()
        engine = SimulationEngine(
            long_trace,
            prefetcher=registry.create("spp"),
            warmup_fraction=0.2,
            checkpoints=sink,
        )
        resumed = engine.run()
        # Longest compatible snapshot is the short run's warmup split
        # (pre-drain); everything after it carries the wrong drain point.
        assert engine.resumed_from == 400
        fresh = simulate(long_trace, prefetcher=registry.create("spp"))
        assert result_dict(resumed) == result_dict(fresh)

    def test_telemetry_disables_adoption_but_still_saves(self):
        sink = MemorySink()
        trace = registry.cached_trace(TRACE, 2_000)
        SimulationEngine(
            trace,
            prefetcher=registry.create("spp"),
            warmup_records=400,
            checkpoints=sink,
        ).run()
        saved = dict(sink.states)
        engine = SimulationEngine(
            trace,
            prefetcher=registry.create("spp"),
            warmup_records=400,
            telemetry_window=500,
            checkpoints=sink,
        )
        result = engine.run()
        assert engine.resumed_from == 0  # no adoption under telemetry
        # Window multiples {500..2000} plus the warmup split at 400.
        assert len(Timeline.from_payload(result.timeline).rows) == 5
        assert set(saved) <= set(sink.states)


class TestStoreCheckpointNamespace:
    def test_roundtrip_and_listing(self, tmp_path):
        store = ResultStore(tmp_path)
        trace = registry.cached_trace(TRACE, 1_000)
        engine = SimulationEngine(
            trace,
            prefetcher=registry.create("spp"),
            warmup_records=200,
            checkpoints=store.checkpoints("ab" * 32),
            checkpoint_every=500,
        )
        engine.run()
        namespace = store.checkpoints("ab" * 32)
        assert namespace.entries() == [(500, (200,)), (1_000, (200,))]
        state = namespace.load(1_000, (200,))
        assert isinstance(state, EngineState)
        assert state.records == 1_000

        # A second store over the same directory sees the disk layer.
        reopened = ResultStore(tmp_path).checkpoints("ab" * 32)
        assert reopened.entries() == namespace.entries()
        assert reopened.load(500, (200,)).records == 500
        assert store.stats["checkpoint_puts"] == 2

    def test_cap_evicts_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path)
        trace = registry.cached_trace(TRACE, 1_000)
        namespace = store.checkpoints("cd" * 32)
        engine = SimulationEngine(
            trace,
            prefetcher=registry.create("none"),
            warmup_records=0,
            checkpoints=namespace,
            checkpoint_every=250,
        )
        engine.run()
        assert len(namespace.entries()) == 4
        one_state = namespace.load(1_000, ())
        # Shrink the cap below the live footprint: oldest snapshots go,
        # newest survive, and the result layer is untouched.
        store.checkpoint_cap_bytes = 2 * one_state.size_bytes
        store._enforce_checkpoint_cap()
        remaining = namespace.entries()
        assert 0 < len(remaining) < 4
        assert remaining[-1] == (1_000, ())
        assert store.stats["checkpoint_evictions"] > 0

    def test_clear_drops_checkpoints(self, tmp_path):
        store = ResultStore(tmp_path)
        trace = registry.cached_trace(TRACE, 500)
        SimulationEngine(
            trace,
            prefetcher=registry.create("none"),
            checkpoints=store.checkpoints("ef" * 32),
        ).run()
        assert store.checkpoints("ef" * 32).entries()
        store.clear()
        assert not store.checkpoints("ef" * 32).entries()


class TestPhases:
    def test_phase_segmentation_finds_the_switch(self):
        rows = []
        for i, ipc in enumerate([1.0, 1.02, 0.98, 2.0, 2.05, 1.95]):
            rows.append(
                dict(
                    index=i,
                    start_record=i * 100,
                    end_record=(i + 1) * 100,
                    warmup=False,
                    instructions=int(ipc * 100),
                    cycles=100.0,
                    llc_demand_hits=0,
                    llc_load_misses=0,
                    dram_reads=0,
                    dram_demand_reads=0,
                    dram_prefetch_reads=0,
                    prefetches_issued=0,
                    useful_prefetches=0,
                    useless_prefetches=0,
                    late_prefetch_merges=0,
                    bw_buckets=(1.0, 0.0, 0.0, 0.0),
                )
            )
        timeline = Timeline.from_payload({"window": 100, "rows": rows})
        phases = timeline.phases(metric="ipc", rel_tol=0.25)
        assert len(phases) == 2
        assert phases[0].windows == 3 and phases[1].windows == 3
        assert phases[0].mean == pytest.approx(1.0, rel=0.05)
        assert phases[1].mean == pytest.approx(2.0, rel=0.05)
        assert phases[1].start_record == 300
