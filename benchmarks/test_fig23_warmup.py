"""Fig 23 (appendix B.6): sensitivity to the number of warmup instructions."""

from conftest import once
from repro.harness.rollup import format_table
from repro.sim.config import baseline_single_core
from repro.sim.metrics import geomean, speedup
from repro.sim.system import simulate
from repro.registry import create

TRACES = ["spec06/lbm-1", "spec06/gemsfdtd-1"]
WARMUPS = [0.0, 0.1, 0.3]
PREFETCHERS = ["spp", "bingo", "pythia"]


def test_fig23_warmup_sensitivity(session, benchmark):
    def run():
        table = {}
        for warmup in WARMUPS:
            for pf in PREFETCHERS:
                speeds = []
                for name in TRACES:
                    trace = session.trace(name)
                    base = simulate(
                        trace, baseline_single_core(), warmup_fraction=warmup
                    )
                    result = simulate(
                        trace,
                        baseline_single_core(),
                        create(pf),
                        warmup_fraction=warmup,
                    )
                    speeds.append(speedup(result, base))
                table[(warmup, pf)] = geomean(speeds)
        return table

    table = once(benchmark, run)
    rows = [
        (f"{int(w * 100)}%", *[f"{table[(w, pf)]:.3f}" for pf in PREFETCHERS])
        for w in WARMUPS
    ]
    print("\nFig 23: geomean speedup vs warmup fraction")
    print(format_table(["warmup", *PREFETCHERS], rows))

    # Paper shape: Pythia keeps its benefit even with zero warmup (it
    # learns online quickly).
    assert table[(0.0, "pythia")] > 1.0
