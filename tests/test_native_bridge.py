"""Bridge-layer tests for the native replay kernel.

Small-trace, quick-tier drivers of ``repro.sim._native.bridge``: the
full Python → C → Python state round trip for both the training
(Pythia) and non-training (no-prefetch) kernels, a two-core mix through
the lockstep entry, the configuration ``supports()`` gate, and the
short-span delegation back to the batched backend.  The heavyweight
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

import pytest

from repro import registry
from repro.sim import _native
from repro.sim._native import bridge
from repro.sim.config import SystemConfig
from repro.sim.system import simulate

pytestmark = pytest.mark.quick


@pytest.fixture(autouse=True)
def native_kernel(monkeypatch):
    if not _native.available():
        pytest.skip("no C compiler: native replay backend unavailable")
    # 2000-record traces produce spans well under the production
    # threshold; force them through the C kernel.
    monkeypatch.setattr(bridge, "MIN_NATIVE_SPAN", 0)


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

    supported = SimulationEngine(
        trace, config=_config("native"), prefetcher=registry.create("pythia")
    )
    assert bridge.supports(supported.hierarchy)
    assert bridge.usable(supported.hierarchy)

    # A prefetcher the kernel has no implementation for.
    spp = SimulationEngine(
        trace, config=_config("native"), prefetcher=registry.create("spp")
    )
    assert not bridge.supports(spp.hierarchy)

    # An L1 prefetcher disables every fast backend before the bridge is
    # even consulted.
    l1 = SimulationEngine(
        trace,
        config=_config("native"),
        prefetcher=registry.create("pythia"),
        l1_prefetcher=registry.create("spp"),
    )
    assert not l1._use_native


def test_short_spans_delegate_to_batched(monkeypatch):
    """Below the span threshold the bridge hands off to the batched
    kernel wholesale — same results, no C round trip."""
    monkeypatch.setattr(bridge, "MIN_NATIVE_SPAN", 1 << 30)
    calls = []
    real_get_lib = bridge.get_lib

    def counting_get_lib():
        lib = real_get_lib()
        calls.append(lib)
        return lib

    monkeypatch.setattr(bridge, "get_lib", counting_get_lib)
    assert _cell("native", "pythia") == _cell("batched", "pythia")
    # The engine probed the kernel for usability, but every span was
    # delegated — so no span entered the C entry point (get_lib calls
    # come only from usable()).
    assert all(lib is not None for lib in calls)


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
