"""Tests for the simulation loops (single- and multi-core)."""

import dataclasses

import pytest

from repro.registry import create
from repro.sim import baseline_multi_core, baseline_single_core, simulate, simulate_multi
from repro.sim.config import SystemConfig
from repro.sim.trace import Trace, TraceRecord
from repro.types import make_line


def stride_trace(n=2000, stride=1, gap=20, name="stride"):
    records = [
        TraceRecord(pc=0x400, line=make_line(100, 0) + i * stride, gap=gap)
        for i in range(n)
    ]
    return Trace(name, records, suite="TEST")


def test_simulate_returns_sane_result():
    result = simulate(stride_trace(), baseline_single_core())
    assert result.instructions > 0
    assert result.cycles > 0
    assert 0 < result.ipc <= 4.0
    assert result.prefetcher_name == "none"
    assert result.llc_load_misses > 0


def test_warmup_excluded_from_stats():
    trace = stride_trace(2000)
    full = simulate(trace, baseline_single_core(), warmup_fraction=0.0)
    warmed = simulate(trace, baseline_single_core(), warmup_fraction=0.5)
    assert warmed.instructions < full.instructions
    assert warmed.llc_load_misses < full.llc_load_misses


def test_prefetcher_improves_stride_trace():
    trace = stride_trace(4000)
    base = simulate(trace, baseline_single_core())
    result = simulate(trace, baseline_single_core(), create("stride"))
    assert result.llc_load_misses < base.llc_load_misses
    assert result.ipc >= base.ipc * 0.95


def test_simulate_is_deterministic():
    trace = stride_trace()
    a = simulate(trace, baseline_single_core(), create("spp"))
    b = simulate(trace, baseline_single_core(), create("spp"))
    assert a.ipc == b.ipc
    assert a.dram_reads == b.dram_reads


def test_prefetch_accuracy_property():
    trace = stride_trace(3000)
    result = simulate(trace, baseline_single_core(), create("stride"))
    assert 0.0 <= result.prefetch_accuracy <= 1.0


def test_multi_core_requires_matching_traces():
    config = baseline_multi_core(2)
    with pytest.raises(ValueError):
        simulate_multi([stride_trace()], config, lambda: create("none"))


def test_multi_core_runs_and_reports_per_core_ipc():
    config = baseline_multi_core(2)
    traces = [stride_trace(name="a"), stride_trace(name="b")]
    result = simulate_multi(
        traces, config, lambda: create("none"), records_per_core=800
    )
    assert len(result.per_core_ipc) == 2
    assert all(ipc > 0 for ipc in result.per_core_ipc)
    assert result.instructions > 0


def test_multi_core_prefetching_reduces_misses():
    config = baseline_multi_core(2)
    traces = [stride_trace(name="a"), stride_trace(name="b")]
    base = simulate_multi(traces, config, lambda: create("none"), records_per_core=800)
    pf = simulate_multi(traces, config, lambda: create("stride"), records_per_core=800)
    assert pf.llc_load_misses < base.llc_load_misses


def test_channel_scaling_with_cores():
    assert baseline_multi_core(1).dram.channels == 1
    assert baseline_multi_core(4).dram.channels == 2
    assert baseline_multi_core(8).dram.channels == 4
    assert baseline_multi_core(12).dram.channels == 4


def test_config_sweeps():
    base = baseline_single_core()
    assert base.with_mtps(150).dram.mtps == 150
    assert base.scaled_llc(0.5).llc.size_bytes == base.llc.size_bytes // 2


@pytest.mark.parametrize("backend", ["native", "batched", "scalar"])
def test_system_config_accepts_every_replay_backend(backend):
    for base in (baseline_single_core(), baseline_multi_core(2)):
        assert dataclasses.replace(base, replay_backend=backend).replay_backend == backend


@pytest.mark.parametrize("backend", ["bogus", "Native", ""])
def test_system_config_rejects_unknown_replay_backend(backend):
    # One check at construction serves both engines, so a typo fails
    # before any replay loop is chosen.
    with pytest.raises(ValueError, match="replay_backend"):
        SystemConfig(replay_backend=backend)
    with pytest.raises(ValueError, match="replay_backend"):
        dataclasses.replace(baseline_multi_core(2), replay_backend=backend)
