"""Tests for the unified string-addressable registry (repro.registry)."""

import pytest

from repro import registry
from repro.sim.config import SystemConfig

pytestmark = pytest.mark.quick


def test_available_prefetchers_covers_paper_names():
    names = registry.available_prefetchers()
    assert {"none", "spp", "bingo", "mlop", "pythia", "st+s+b+d+m"} <= set(names)


def test_create_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown prefetcher"):
        registry.create("nonexistent")


def test_create_forwards_overrides_to_pythia():
    prefetcher = registry.create("pythia", alpha=0.08, epsilon=0.01)
    assert prefetcher.config.alpha == 0.08
    assert prefetcher.config.epsilon == 0.01


def test_create_accepts_full_config_object():
    from repro.core import PythiaConfig

    config = PythiaConfig.named("strict")
    prefetcher = registry.create("pythia", config=config)
    assert prefetcher.config is config


def test_create_fresh_instances():
    assert registry.create("stride") is not registry.create("stride")


def test_combo_rejects_overrides():
    with pytest.raises(TypeError):
        registry.create("st+s", degree=4)


def test_register_prefetcher_extension():
    from repro.prefetchers.base import NoPrefetcher

    registry.register_prefetcher("custom-test", NoPrefetcher)
    try:
        assert "custom-test" in registry.available_prefetchers()
        assert isinstance(registry.create("custom-test"), NoPrefetcher)
    finally:
        registry._EXTRA_PREFETCHERS.pop("custom-test")


def test_make_trace_handles_cvp_namespace():
    trace = registry.make_trace("cvp/fp-stencil-1", length=500)
    assert trace.suite == "CVP-FP"
    assert len(trace) == 500


def test_suite_of_without_generation():
    assert registry.suite_of("spec06/lbm-1") == "SPEC06"
    assert registry.suite_of("ligra/cc") == "LIGRA"
    assert registry.suite_of("cvp/server-db-2") == "CVP-SERVER"
    with pytest.raises(KeyError):
        registry.suite_of("nope/nothing-1")


def test_system_names_and_modifiers():
    assert registry.system("1c").num_cores == 1
    assert registry.system("4c").num_cores == 4
    assert registry.system("4c").dram.channels == 2
    modified = registry.system("1c@mtps=600,llc_scale=0.5")
    assert modified.dram.mtps == 600
    assert modified.llc.size_bytes == SystemConfig().llc.size_bytes // 2
    with pytest.raises(KeyError):
        registry.system("1c@bogus=1")
    with pytest.raises(KeyError):
        registry.system("warpcore")


def test_system_passthrough_and_registration():
    config = SystemConfig(num_cores=2)
    assert registry.system(config) is config
    registry.register_system("test-sys", lambda: SystemConfig(num_cores=8))
    try:
        assert registry.system("test-sys").num_cores == 8
        assert "test-sys" in registry.available_systems()
    finally:
        registry._EXTRA_SYSTEMS.pop("test-sys")


def test_trace_generation_is_process_stable():
    """Trace content must not depend on PYTHONHASHSEED (the store and the
    process-pool executor both require cross-process determinism)."""
    import pathlib
    import subprocess
    import sys

    repo_root = pathlib.Path(__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.workloads.generators import generate_trace\n"
        "t = generate_trace('spec06/lbm-1', length=50)\n"
        "print([(r.pc, r.line) for r in t])\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            cwd=repo_root,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(outputs) == 1 and outputs != {""}
