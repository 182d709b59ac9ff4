"""Bridge-layer tests for the native replay kernel.

Small-trace, quick-tier drivers of ``repro.sim._native.bridge``: the
full Python → C → Python state round trip for both the training
(Pythia) and non-training (no-prefetch) kernels, a two-core mix through
the lockstep entry, the configuration ``supports()`` gate, and the
caches lending the kernel their own slot buffers.  The heavyweight
bit-identity matrix (five trace families, windowed, cross-backend
checkpointed resumes, and the lockstep mixes) lives in
``tests/test_hotpath_equivalence.py``; this file is the fast coverage
driver the traced coverage run can afford
(``scripts/coverage.py``).

The whole module skips when no C compiler is available — the engine
then never reaches the bridge (``tests/test_native_build.py`` pins
that fallback).
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from repro import registry
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.sim import _native
from repro.sim._native import bridge
from repro.sim.config import CacheGeometry, SystemConfig
from repro.sim.system import simulate

pytestmark = pytest.mark.quick


@pytest.fixture(autouse=True)
def native_kernel():
    if not _native.available():
        pytest.skip("no C compiler: native replay backend unavailable")


def _config(backend: str) -> SystemConfig:
    return dataclasses.replace(SystemConfig(), replay_backend=backend)


def _cell(backend: str, pf_name: str):
    trace = registry.cached_trace("spec06/lbm-1", 2000)
    return dataclasses.asdict(
        simulate(
            trace,
            config=_config(backend),
            prefetcher=registry.create(pf_name),
            warmup_fraction=0.2,
        )
    )


@pytest.mark.parametrize("pf_name", ["pythia", "none"])
def test_round_trip_bit_identical(pf_name):
    """One training and one non-training cell through the C kernel.

    Covers the full import/export of caches (LRU + SHiP on the LLC),
    MSHR, DRAM channels, core, and — for pythia — the Q-table,
    evaluation queue, page table, and RNG stream.
    """
    assert _cell("native", pf_name) == _cell("batched", pf_name)


def test_supports_gates_unsupported_configurations():
    from repro.sim.engine import SimulationEngine

    trace = registry.cached_trace("spec06/lbm-1", 2000)

    def engine(pf_name, **kwargs):
        return SimulationEngine(
            trace, config=_config("native"), prefetcher=registry.create(pf_name), **kwargs
        )

    supported = engine("pythia")
    assert bridge.supports(supported.hierarchy)
    assert bridge.usable(supported.hierarchy)
    assert bridge.training_mode(supported.hierarchy) == bridge.TRAIN_PYTHIA
    assert bridge.training_mode(engine("none").hierarchy) == bridge.TRAIN_NONE

    # A prefetcher the kernel has no C model of trains through the hooks.
    spp = engine("spp")
    assert bridge.supports(spp.hierarchy)
    assert bridge.training_mode(spp.hierarchy) == bridge.TRAIN_HOOK
    assert spp._use_native

    # So does an L1 prefetcher, which the batched backend cannot train.
    l1 = engine("pythia", l1_prefetcher=registry.create("spp"))
    assert l1._use_native and not l1._use_batched

    # What the kernel cannot mirror is structural: a negative degree cap
    # would let an L1 prefetcher issue past the per-record headroom.
    negative = SimulationEngine(
        trace,
        config=dataclasses.replace(_config("native"), max_prefetch_degree=-1),
        prefetcher=registry.create("spp"),
    )
    assert not bridge.supports(negative.hierarchy)
    assert not negative._use_native and negative._use_batched


#: (owner, attribute, kernel element type) of every per-slot buffer the
#: kernel receives, by its ``_CacheArgs`` field.
_SHARED_BUFFERS = {
    "tag": ("cache", "_tag", np.int64),
    "pf": ("cache", "_pf", np.uint8),
    "used": ("cache", "_used", np.uint8),
    "meta_a": ("policy", "meta_a", np.int64),
    "meta_b": ("policy", "meta_b", np.int64),
    "meta_c": ("policy", "meta_c", np.uint8),
    "shct": ("policy", "_shct", np.int64),
}


def test_kernel_replays_on_the_caches_own_buffers(monkeypatch):
    """Every cache level lends the kernel its own slot buffers: each
    pointer the bridge stores is the address of the cache's (or its
    policy's) buffer, no copy is made, the buffers survive the span, and
    the residency index rebuilt afterwards agrees with the tags."""
    from repro.sim.engine import SimulationEngine

    seen = []
    real_import = bridge._import_cache

    def recording(k, cache):
        bufs = real_import(k, cache)
        seen.append(
            (cache, {field: getattr(k, field) for field in _SHARED_BUFFERS})
        )
        return bufs

    monkeypatch.setattr(bridge, "_import_cache", recording)
    trace = registry.cached_trace("spec06/lbm-1", 2000)
    engine = SimulationEngine(
        trace, config=_config("native"), prefetcher=registry.create("pythia")
    )
    hierarchy = engine.hierarchy
    caches = (hierarchy.l1, hierarchy.l2, hierarchy.llc)

    def buffers(cache):
        owners = {"cache": cache, "policy": cache._policy}
        return {
            field: getattr(owners[owner], name, None)
            for field, (owner, name, _) in _SHARED_BUFFERS.items()
        }

    before = [buffers(cache) for cache in caches]
    engine.run()
    assert [cache for cache, _ in seen[:3]] == list(caches)
    assert len(seen) == 3 * 2  # the warmup span and the measured span
    for cache, pointers in seen:
        for field, buf in buffers(cache).items():
            if buf is None:  # SHiP-only buffers of an LRU cache: null
                assert pointers[field] is None
                continue
            dtype = _SHARED_BUFFERS[field][2]
            assert pointers[field] == np.frombuffer(buf, dtype).ctypes.data, (
                cache.name,
                field,
            )
    assert type(hierarchy.llc._policy).__name__ == "ShipPolicy"
    for cache, previous in zip(caches, before):
        assert all(buf is previous[field] for field, buf in buffers(cache).items())
        assert cache._meta_a is cache._policy.meta_a
        tags = cache._tag
        assert cache._where == {
            tag: slot for slot, tag in enumerate(tags) if tag != -1
        }
        assert cache._filled == [
            sum(tag != -1 for tag in tags[s * cache.ways : (s + 1) * cache.ways])
            for s in range(cache.num_sets)
        ]
        assert cache.occupancy > 0


#: (owner, attribute, kernel element type) of every Pythia buffer the
#: kernel replays on in place, by its ``_CoreArgs`` field.
_AGENT_BUFFERS = {
    "qcells": ("qvstore", "_cells", np.float64),
    "eq_state": ("eq", "state", np.int64),
    "eq_action": ("eq", "action", np.int64),
    "eq_line": ("eq", "line", np.int64),
    "eq_reward": ("eq", "reward", np.float64),
    "eq_flags": ("eq", "flags", np.uint8),
    "pt_page": ("extractor", "pt_page", np.int64),
    "pt_lastoff": ("extractor", "pt_lastoff", np.int64),
    "pt_deltas": ("extractor", "pt_deltas", np.int64),
    "pt_offsets": ("extractor", "pt_offsets", np.int64),
    "pt_dlen": ("extractor", "pt_dlen", np.uint8),
    "pt_olen": ("extractor", "pt_olen", np.uint8),
    "pt_order": ("extractor", "pt_order", np.int64),
    "last_pcs": ("extractor", "last_pcs", np.int64),
}


def test_kernel_replays_on_the_agents_own_buffers(monkeypatch):
    """Pythia lends the kernel its own Q-table, EQ ring, page table and
    PC history: each agent pointer the bridge stores is the address of
    the agent's own buffer, the buffers survive the span, and the
    EQ's line index and the page index rebuilt afterwards agree with
    the buffers."""
    from repro.sim.engine import SimulationEngine

    seen = []
    real_import = bridge._import_agent

    def recording(c, bufs, prefetcher):
        real_import(c, bufs, prefetcher)
        seen.append({field: getattr(c, field) for field in _AGENT_BUFFERS})

    monkeypatch.setattr(bridge, "_import_agent", recording)
    trace = registry.cached_trace("spec06/lbm-1", 2000)
    engine = SimulationEngine(
        trace, config=_config("native"), prefetcher=registry.create("pythia")
    )
    pythia = engine.hierarchy.prefetcher
    agent = pythia.agent

    def buffers():
        owners = {"qvstore": agent.qvstore, "eq": agent.eq, "extractor": pythia.extractor}
        return {
            field: getattr(owners[owner], name)
            for field, (owner, name, _) in _AGENT_BUFFERS.items()
        }

    before = buffers()
    initial_q = agent.qvstore._cells.tolist()
    engine.run()
    assert len(seen) == 2  # the warmup span and the measured span
    for pointers in seen:
        for field, buf in buffers().items():
            dtype = _AGENT_BUFFERS[field][2]
            assert pointers[field] == np.frombuffer(buf, dtype).ctypes.data, field
    assert all(buf is before[field] for field, buf in buffers().items())
    assert agent.updates > 0 and agent.qvstore._cells.tolist() != initial_q

    eq = agent.eq
    assert eq.count == eq.capacity
    by_line = {}
    for i in range(eq.count):  # oldest to newest: the most recent wins
        slot = (eq.head_slot + i) % eq.capacity
        if eq.line[slot] >= 0:
            by_line[eq.line[slot]] = slot
    assert by_line and eq.by_line() == by_line

    extractor = pythia.extractor
    pages = extractor.page_index()
    assert list(pages.values()) == extractor.pt_order[: extractor.ptab_count].tolist()
    assert sorted(pages.values()) == list(range(extractor.ptab_count))
    assert all(extractor.pt_page[slot] == page for page, slot in pages.items())
    assert len(pages) > 1
    assert extractor.lastpc_count == 3


def _rebuilt_index(cache) -> tuple:
    """``(_where, _filled)`` rebuilt from scratch from the cache's tags."""
    tags = cache._tag
    where = {tag: slot for slot, tag in enumerate(tags) if tag != -1}
    filled = [
        sum(tag != -1 for tag in tags[s * cache.ways : (s + 1) * cache.ways])
        for s in range(cache.num_sets)
    ]
    return where, filled


@pytest.fixture
def checked_exports(monkeypatch):
    """Assert after every native span that each cache's residency index,
    patched by tag diff, equals a from-scratch rebuild; yields the names
    of the caches checked."""
    checked = []
    real = bridge._export_cache

    def checking(k, cache, bufs):
        real(k, cache, bufs)
        assert (cache._where, cache._filled) == _rebuilt_index(cache), cache.name
        checked.append(cache.name)

    monkeypatch.setattr(bridge, "_export_cache", checking)
    return checked


#: Few-line SHiP caches: every fill past the first evicts, so lines move
#: between slots within one span.
_TINY = dataclasses.replace(
    SystemConfig(),
    l1=CacheGeometry(4 * 64, 2, 4, 2, "ship"),
    l2=CacheGeometry(8 * 64, 2, 14, 2, "ship"),
    llc=CacheGeometry(16 * 64, 2, 34, 2, "ship"),
    max_prefetch_degree=2,
)


@pytest.mark.parametrize("system", ["1c", "tiny"])
def test_residency_index_patched_by_diff(system, checked_exports):
    """A 1c run in four spans (warmup, then telemetry windows): after
    each, ``_where`` and ``_filled`` match a rebuild from the tags."""
    from repro.sim.engine import SimulationEngine

    config = SystemConfig() if system == "1c" else _TINY
    engine = SimulationEngine(
        registry.cached_trace("ligra/cc-1", 2000),
        config=dataclasses.replace(config, replay_backend="native"),
        prefetcher=registry.create("pythia"),
        telemetry_window=600,
    )
    engine.run()
    assert len(checked_exports) >= 3 * 4
    assert engine.hierarchy.llc.occupancy > 0


def test_residency_index_patched_by_diff_in_a_mix(checked_exports):
    """The same after one lockstep call over a 4-core mix and its shared
    LLC, against the Python loop's final indexes.  The private caches
    start full, so the call evicts lines resident at import."""
    from repro.sim.engine import MultiCoreEngine
    from repro.workloads.mixes import heterogeneous_mix_names

    names = heterogeneous_mix_names(4, 1, seed=1)[0][1]
    traces = [registry.cached_trace(name, 2500) for name in names]
    engines = {
        backend: MultiCoreEngine(
            traces,
            dataclasses.replace(registry.system("4c"), replay_backend=backend),
            lambda: registry.create("pythia"),
            warmup_fraction=0.2,
        )
        for backend in ("native", "scalar")
    }
    for engine in engines.values():
        for k, hierarchy in enumerate(engine.hierarchies):
            for cache in (hierarchy.l1, hierarchy.l2):
                for line in range(k << 30, (k << 30) + cache.capacity_lines):
                    cache.fill(line, 0, False)
        engine.run()
    assert len(checked_exports) == 4 * 2 + 1
    native, scalar = engines["native"], engines["scalar"]
    assert native.llc._where == scalar.llc._where
    assert native.llc._filled == scalar.llc._filled
    for mine, theirs in zip(native.hierarchies, scalar.hierarchies):
        assert mine.l2._where == theirs.l2._where


@pytest.mark.parametrize("pf_name", ["pythia", "none"])
def test_lockstep_mix_round_trip(pf_name, monkeypatch):
    """A small two-core mix: one lockstep kernel call, Python-loop result."""
    from repro.sim.system import simulate_multi

    calls = []
    real = _native.replay_lockstep
    monkeypatch.setattr(
        _native, "replay_lockstep", lambda engine: calls.append(engine) or real(engine)
    )
    traces = [
        registry.cached_trace(name, 1000) for name in ("spec06/lbm-1", "ligra/cc-1")
    ]
    config = registry.system("2c")
    results = [
        simulate_multi(
            traces,
            dataclasses.replace(config, replay_backend=backend),
            lambda: registry.create(pf_name),
            warmup_fraction=0.2,
        )
        for backend in ("native", "scalar")
    ]
    assert len(calls) == 1
    assert repr(dataclasses.asdict(results[0])) == repr(dataclasses.asdict(results[1]))


# -- prefetcher failures inside the kernel -----------------------------------


class _FailingTrain(Prefetcher):
    """A stride prefetcher whose ``train`` raises on its 100th call."""

    name = "failing-train"
    error = ValueError

    def __init__(self) -> None:
        self.inner = StridePrefetcher()
        self.calls = 0

    def train(self, ctx):
        self.calls += 1
        if self.calls == 100:
            raise self.error("train failed on call 100")
        return self.inner.train(ctx)


class _FailingFill(Prefetcher):
    """A stride prefetcher whose ``on_prefetch_fill`` raises."""

    name = "failing-fill"

    def __init__(self) -> None:
        self.inner = StridePrefetcher()

    def train(self, ctx):
        return self.inner.train(ctx)

    def on_prefetch_fill(self, line, cycle):
        raise ValueError("on_prefetch_fill failed")


class _InterruptedTrain(_FailingTrain):
    error = KeyboardInterrupt


@pytest.fixture
def unraisable(monkeypatch):
    """Everything reported through ``sys.unraisablehook`` (where ctypes
    reports a callback exception it swallowed)."""
    seen = []
    monkeypatch.setattr(sys, "unraisablehook", seen.append)
    return seen


@pytest.mark.parametrize("path", ["single-core", "lockstep"])
@pytest.mark.parametrize("failing", [_FailingTrain, _FailingFill])
def test_prefetcher_exception_fails_the_cell(
    failing, path, monkeypatch, capfd, unraisable
):
    """The prefetcher's own exception leaves the kernel with its type and
    traceback; nothing is stored, ctypes prints nothing, and the session
    goes on to run a healthy cell."""
    from repro.api import ResultStore, Session

    monkeypatch.setitem(registry._EXTRA_PREFETCHERS, "failing", failing)
    session = Session(store=ResultStore(path=None), trace_length=1500)
    traces = ["spec06/lbm-1", "ligra/cc-1"]
    with pytest.raises(ValueError, match="failed") as excinfo:
        if path == "single-core":
            session.run_one(traces[0], "failing")
        else:
            session.run_mix(traces, "failing")
    raising = "train" if failing is _FailingTrain else "on_prefetch_fill"
    assert any(entry.name == raising for entry in excinfo.traceback)
    assert len(session.store) == 0
    assert "Exception ignored" not in capfd.readouterr().err
    assert unraisable == []

    if path == "single-core":
        healthy = session.run_one(traces[0], "spp").result
    else:
        healthy, _ = session.run_mix(traces, "spp")
    assert healthy.prefetches_issued > 0
    assert len(session.store) == 2


def test_keyboard_interrupt_in_a_hook_propagates(capfd, unraisable):
    trace = registry.cached_trace("spec06/lbm-1", 2000)
    with pytest.raises(KeyboardInterrupt):
        simulate(trace, config=_config("native"), prefetcher=_InterruptedTrain())
    assert "Exception ignored" not in capfd.readouterr().err
    assert unraisable == []


def test_exception_escaping_a_hook_handler_still_aborts(monkeypatch, capfd, unraisable):
    """An exception raised before a hook's ``try`` (a KeyboardInterrupt
    delivered on its first instruction) reaches ctypes, which reports it
    through ``sys.unraisablehook``; the bridge routes it to the kernel's
    abort word and re-raises it."""

    def unguarded(train_cols, cands, failure):
        def hook(*args):
            got = train_cols(*args)
            cands.array[: len(got)] = got
            return len(got)

        hook.failure = failure
        return bridge._TRAIN_HOOK(hook)

    monkeypatch.setattr(bridge, "_train_hook", unguarded)
    trace = registry.cached_trace("spec06/lbm-1", 2000)
    with pytest.raises(ValueError, match="call 100"):
        simulate(trace, config=_config("native"), prefetcher=_FailingTrain())
    assert "Exception ignored" not in capfd.readouterr().err
    assert unraisable == []


def test_bad_candidate_count_raises_native_replay_error(monkeypatch):
    """A training hook that claims more candidates than its buffer holds
    stops the kernel (rc=-7) at the first training event."""

    def overclaiming(train_cols, cands, failure):
        hook = lambda *args: cands.cap + 1  # noqa: E731
        hook.failure = failure
        return bridge._TRAIN_HOOK(hook)

    monkeypatch.setattr(bridge, "_train_hook", overclaiming)
    trace = registry.cached_trace("spec06/lbm-1", 2000)
    with pytest.raises(_native.NativeReplayError) as excinfo:
        simulate(trace, config=_config("native"), prefetcher=registry.create("spp"))
    assert excinfo.value.rc == -7
    assert excinfo.value.index == 0


def test_lockstep_internal_error_carries_the_step():
    """A core with an empty trace cannot step: the kernel stops (rc=-5)
    and the error names the lockstep step."""
    from repro.sim.engine import MultiCoreEngine
    from repro.sim.trace import Trace

    traces = [Trace("empty", []), registry.cached_trace("spec06/lbm-1", 500)]
    engine = MultiCoreEngine(
        traces,
        registry.system("2c"),
        lambda: registry.create("spp"),
        warmup_records=0,
        records_per_core=10,
    )
    with pytest.raises(_native.NativeReplayError) as excinfo:
        engine.run()
    assert (excinfo.value.rc, excinfo.value.index) == (-5, 0)


def test_candidate_buffer_grows_without_truncation():
    """A prefetcher returning far more candidates than the initial buffer
    holds (duplicates, out-of-page and negative lines included) issues
    and drops exactly what the scalar loop does.  Two MSHRs make most
    prefetches drop, so a duplicate the dedup missed would be fetched
    (and dropped) twice."""
    from repro.sim.config import CacheGeometry
    from repro.sim.engine import SimulationEngine

    class Flood(Prefetcher):
        name = "flood"

        def train(self, ctx):
            near = [ctx.line + d for d in (1, 1, 2, -1, 2, 3)]
            return [*near, ctx.line - 500, *range(ctx.line + 4, ctx.line + 300), -1] * 2

    config = dataclasses.replace(
        SystemConfig(), llc=CacheGeometry(2 * 1024 * 1024, 16, 34, 2, "ship")
    )
    trace = registry.cached_trace("spec06/lbm-1", 2000)
    runs = []
    for backend in ("native", "scalar"):
        engine = SimulationEngine(
            trace,
            config=dataclasses.replace(config, replay_backend=backend),
            prefetcher=Flood(),
        )
        result = dataclasses.asdict(engine.run())
        hierarchy = engine.hierarchy
        runs.append(
            (
                result,
                hierarchy.prefetches_dropped,
                dataclasses.asdict(hierarchy.llc.stats),
            )
        )
    assert runs[0] == runs[1]
    assert runs[0][0]["prefetches_issued"] > 0 and runs[0][1] > 0
