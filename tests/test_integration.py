"""End-to-end integration tests crossing module boundaries.

These check the qualitative behaviours the paper's figures rely on, at
tiny scale so the whole file runs in well under a minute.
"""

import pytest

from repro.api import ResultStore, Session
from repro.core import Pythia, PythiaConfig
from repro.registry import create
from repro.sim import baseline_multi_core, baseline_single_core, simulate, simulate_multi
from repro.sim.metrics import coverage, overprediction, speedup
from repro.workloads import generate_trace, homogeneous_mix


@pytest.fixture(scope="module")
def session():
    # Long enough for Pythia's optimistic exploration to settle on the
    # noise workloads; short enough that the whole module stays fast.
    return Session(store=ResultStore(), trace_length=10_000)


def test_pythia_learns_delta_workload(session):
    """GemsFDTD-like: Pythia's top offsets should be the pattern deltas."""
    trace = session.trace("spec06/gemsfdtd-1")
    pythia = create("pythia")
    simulate(trace, baseline_single_core(), pythia)
    top_offsets = [offset for offset, _ in pythia.top_actions(4)]
    assert 23 in top_offsets or 11 in top_offsets


def test_pythia_beats_baseline_on_prefetchable(session):
    record = session.run_one("spec06/lbm-1", "pythia")
    assert record.speedup > 1.02
    assert record.coverage > 0.3


def test_pythia_low_overprediction_on_irregular(session):
    """On mcf-like noise Pythia learns to hold back (low overprediction).

    Early in the run the optimistic initialization makes Pythia try its
    prefetch actions; by the end of a 10k-access trace the measured
    overprediction must have decayed well below an always-prefetching
    policy (which would sit near 1.0).
    """
    record = session.run_one("spec06/mcf-1", "pythia")
    assert record.overprediction < 0.45


def test_bingo_wins_region_workloads(session):
    """Fig 1 regime: footprint predictors dominate sphinx/canneal."""
    bingo = session.run_one("parsec/canneal-1", "bingo")
    spp = session.run_one("parsec/canneal-1", "spp")
    assert bingo.coverage > spp.coverage


def test_spp_handles_delta_workloads(session):
    spp = session.run_one("spec06/gemsfdtd-1", "spp")
    assert spp.coverage > 0.2
    assert spp.speedup > 1.0


def test_mlop_overpredicts_more_than_pythia(session):
    """Fig 7's overprediction ordering on an irregular-heavy workload."""
    mlop = session.run_one("ligra/cc-1", "mlop")
    pythia = session.run_one("ligra/cc-1", "pythia")
    assert mlop.overprediction > pythia.overprediction


def test_bandwidth_constrained_flips_ordering():
    """Fig 8b's crossover: aggressive prefetchers lose at low MTPS."""
    trace = generate_trace("ligra/cc", length=8000, seed=1)
    constrained = baseline_single_core().with_mtps(300)
    base = simulate(trace, constrained)
    mlop = simulate(trace, constrained, create("mlop"))
    pythia = simulate(trace, constrained, create("pythia"))
    assert speedup(pythia, base) > speedup(mlop, base)


def test_bw_oblivious_pythia_worse_when_constrained():
    """Fig 11: bandwidth awareness matters at low MTPS."""
    trace = generate_trace("ligra/pagerankdelta", length=8000, seed=1)
    constrained = baseline_single_core().with_mtps(300)
    base = simulate(trace, constrained)
    basic = simulate(trace, constrained, create("pythia"))
    oblivious = simulate(trace, constrained, create("pythia_bw_oblivious"))
    # Allow a small tolerance: at tiny scale the gap can be noisy, but
    # the oblivious variant must not be meaningfully better.
    assert speedup(oblivious, base) <= speedup(basic, base) + 0.05


def test_multicore_end_to_end():
    traces = homogeneous_mix("spec06/lbm", 2, length=8000)
    config = baseline_multi_core(2)
    base = simulate_multi(traces, config, lambda: create("none"), records_per_core=4000)
    pythia = simulate_multi(traces, config, lambda: create("pythia"), records_per_core=4000)
    assert pythia.prefetches_issued > 0
    assert pythia.llc_load_misses < base.llc_load_misses
    # At this tiny scale Pythia is still converging; require it to be
    # at worst mildly below baseline and typically above.
    assert pythia.ipc > base.ipc * 0.9


def test_multilevel_stride_plus_pythia(session):
    """Fig 8d: L1 stride + L2 Pythia runs and helps."""
    trace = session.trace("spec06/leslie3d-1")
    base = session.baseline("spec06/leslie3d-1", baseline_single_core())
    result = simulate(
        trace,
        baseline_single_core(),
        create("pythia"),
        l1_prefetcher=create("stride"),
    )
    assert speedup(result, base) > 0.95


def test_prefetcher_combination_overpredicts_more(session):
    """Fig 9b/10b: combining prefetchers combines overpredictions."""
    combo = session.run_one("ligra/bfs-1", "st+s+b+d+m")
    single = session.run_one("ligra/bfs-1", "spp")
    assert combo.overprediction >= single.overprediction - 0.05


def test_strict_pythia_reduces_traffic_on_ligra(session):
    basic = session.run_one("ligra/cc-1", "pythia")
    strict = session.run_one("ligra/cc-1", "pythia_strict")
    assert strict.result.dram_prefetch_reads <= basic.result.dram_prefetch_reads * 1.1


def test_unseen_traces_run(session):
    record = session.run_one("cvp/fp-solver-1", "pythia")
    assert record.speedup > 0.8
