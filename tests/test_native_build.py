"""Build-layer tests for the native replay kernel.

Pins the build cache's contracts rather than simulation semantics
(``tests/test_hotpath_equivalence.py`` owns bit-identity):

* the shared-object cache is keyed by the C source's CRC, so editing
  the source forces a rebuild and an untouched source is a cache hit;
* with no C compiler reachable, ``replay_backend="native"`` degrades
  transparently to the batched backend — the full ``Session`` path
  still runs and produces the batched result, with one logged notice —
  and a mix degrades to the Python lockstep loop;
* a corrupt cached ``.so`` is discarded and rebuilt, not fatal.

Every test resets the package's latched build/load state on the way in
and out so outcomes cannot leak between tests (or into other files).
"""

from __future__ import annotations

import dataclasses
import zlib

import pytest

from repro import registry
from repro.sim import _native
from repro.sim._native import build
from repro.sim.config import SystemConfig
from repro.sim.system import simulate

pytestmark = pytest.mark.quick


@pytest.fixture(autouse=True)
def fresh_native_state(tmp_path, monkeypatch):
    """Isolate the build cache and un-latch load state around each test."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    _native.reset()
    yield
    _native.reset()


def _config(backend: str) -> SystemConfig:
    return dataclasses.replace(SystemConfig(), replay_backend=backend)


TINY_KERNEL = b"""
#include <stdint.h>
int64_t repro_abi_sizeof(int64_t which) { (void)which; return -1; }
int64_t repro_replay_span(void *core, void *shared) { (void)core; (void)shared; return -2; }
int64_t repro_replay_lockstep(void *args) { (void)args; return -2; }
"""


def test_object_path_is_named_by_the_source_bytes(tmp_path):
    # The cached object's name is the CRC-32 of the bytes compiled, so an
    # edited kernel always maps to a new file and can never bind a stale
    # build; no separately maintained checksum is needed.
    source = build.kernel_source_path().read_bytes()
    path = build.object_path(source, tmp_path)
    assert path == build.object_path(source, tmp_path)
    assert path.parent == tmp_path
    assert path.name == f"kernel-{zlib.crc32(source):08x}.so"
    assert build.object_path(source + b"\n", tmp_path) != path


def test_build_caches_by_source_crc(tmp_path):
    if build.compiler() is None:
        pytest.skip("no C compiler on PATH")
    src = tmp_path / "tiny.c"
    out = tmp_path / "out"
    src.write_bytes(TINY_KERNEL)

    first = build.build(source=src, directory=out)
    assert first is not None and first.exists()
    assert build.was_rebuilt()

    # Unchanged source: cache hit, no recompile.
    again = build.build(source=src, directory=out)
    assert again == first
    assert not build.was_rebuilt()

    # Edited source: new CRC, new object file, recompiled.
    src.write_bytes(TINY_KERNEL + b"/* edited */\n")
    changed = build.build(source=src, directory=out)
    assert changed is not None and changed.exists()
    assert changed != first
    assert build.was_rebuilt()


def test_corrupt_cached_object_is_rebuilt():
    if build.compiler() is None:
        pytest.skip("no C compiler on PATH")
    so = build.build()
    assert so is not None
    # Truncate the cached object so dlopen fails; load() must discard
    # it and compile a fresh one instead of latching a failure.
    so.write_bytes(b"not an ELF object")
    assert _native.available()
    assert build.was_rebuilt()


def test_abi_mismatch_falls_back(monkeypatch, tmp_path):
    if build.compiler() is None:
        pytest.skip("no C compiler on PATH")
    # A kernel that loads but reports the wrong struct size must be
    # rejected by the bridge's ABI check, not trusted.
    src = tmp_path / "tiny.c"
    src.write_bytes(TINY_KERNEL)
    monkeypatch.setattr(build, "kernel_source_path", lambda: src)
    assert not _native.available()


def test_no_compiler_falls_back_to_batched(monkeypatch, caplog):
    # Mask the compiler: $CC wins over `cc` and points nowhere.
    monkeypatch.setenv("CC", "no-such-compiler-for-test")
    assert build.compiler() is None
    with caplog.at_level("INFO", logger="repro.sim.native"):
        assert not _native.available()
    assert any("no C compiler" in r.message for r in caplog.records)

    trace = registry.cached_trace("spec06/lbm-1", 2000)
    native = simulate(
        trace,
        config=_config("native"),
        prefetcher=registry.create("pythia"),
        warmup_fraction=0.2,
    )
    batched = simulate(
        trace,
        config=_config("batched"),
        prefetcher=registry.create("pythia"),
        warmup_fraction=0.2,
    )
    assert dataclasses.asdict(native) == dataclasses.asdict(batched)


def test_no_compiler_session_runs_transparently(monkeypatch, tmp_path):
    """The acceptance path: a full ``Session`` cell with
    ``replay_backend="native"`` and no compiler anywhere."""
    from repro.api import ResultStore, Session

    monkeypatch.setenv("CC", "no-such-compiler-for-test")
    session = Session(store=ResultStore(path=None), trace_length=2000)
    record = session.run_one("spec06/lbm-1", "pythia", system=_config("native"))
    reference = session.run_one("spec06/lbm-1", "pythia", system=_config("batched"))
    assert dataclasses.asdict(record.result) == dataclasses.asdict(reference.result)


def test_no_compiler_mix_runs_python_loop(monkeypatch):
    """A mix on any backend but scalar asks for the native lockstep loop;
    with the compiler masked it runs the Python loop, same results."""
    from repro.sim.engine import MultiCoreEngine

    monkeypatch.setenv("CC", "no-such-compiler-for-test")
    traces = [
        registry.cached_trace(name, 800) for name in ("spec06/lbm-1", "ligra/cc-1")
    ]
    config = registry.system("2c")
    engines = [
        MultiCoreEngine(
            traces,
            dataclasses.replace(config, replay_backend=backend),
            lambda: registry.create("pythia"),
            0.2,
        )
        for backend in ("batched", "scalar")
    ]
    assert not engines[0]._use_native
    results = [dataclasses.asdict(engine.run()) for engine in engines]
    assert results[0] == results[1]


def test_kernel_loads_only_when_a_cell_simulates(monkeypatch, tmp_path):
    """Native is the default backend, yet building a session, resolving
    systems, fingerprinting an experiment and a warm run that hits the
    store for every cell never touch the kernel; the first cold cell
    loads it, once per process."""
    from repro.api import ResultStore, Session

    def experiment(session):
        return (
            session.experiment("lazy")
            .with_traces("spec06/lbm-1")
            .with_prefetchers("spp", "pythia")
            .with_length(1000)
        )

    store_path = tmp_path / "store"
    cold = Session(store=ResultStore(path=store_path))
    assert cold.run(experiment(cold)).stats["simulated"] == 3
    _native.reset()

    def no_kernel():
        raise AssertionError("the kernel was loaded")

    with monkeypatch.context() as patch:
        patch.setattr(build, "load", no_kernel)
        session = Session(store=ResultStore(path=store_path))
        assert registry.system("1c").replay_backend == "native"
        assert all(cell.fingerprint() for cell in experiment(session).cells())
        warm = session.run(experiment(session))
        assert warm.stats == {"cells": 3, "simulated": 0, "cached": 3}

    loads = []
    real_load = build.load
    monkeypatch.setattr(build, "load", lambda: loads.append(1) or real_load())
    session = Session(store=ResultStore(path=None), trace_length=1000)
    for prefetcher in ("spp", "bingo"):
        session.run_one("spec06/lbm-1", prefetcher)
    assert loads == [1]
