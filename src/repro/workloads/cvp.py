"""Unseen-trace suite standing in for the CVP-2 championship traces.

§6.4 of the paper evaluates Pythia on 500 traces from the second value
prediction championship — traces *not used for any tuning* — split into
crypto, integer, floating-point and server categories.  We mirror that
with generator configurations and seeds disjoint from everything in
:mod:`repro.workloads.suites`: different archetype parameters, different
seed ranges.  Nothing in :mod:`repro.tuning` ever touches these.
"""

from __future__ import annotations

from repro.sim.trace import Trace
from repro.workloads.generators import WorkloadSpec, build_columns, stable_seed

#: Category -> list of (name, archetype, params, gap).  Parameters are
#: deliberately off-grid from the tuned suites.
_CVP_SPECS: list[WorkloadSpec] = [
    WorkloadSpec("cvp/crypto-aes", "CVP-CRYPTO", "stride", {"strides": [2, 2, 6]}, gap=58),
    WorkloadSpec("cvp/crypto-sha", "CVP-CRYPTO", "mixed", {"deltas": [6, 13]}, gap=64),
    WorkloadSpec("cvp/int-compress", "CVP-INT", "irregular",
                 {"working_set_pages": 3072, "locality": 0.2, "regular_weight": 0.4}, gap=42),
    WorkloadSpec("cvp/int-parse", "CVP-INT", "pointer", {"nodes": 30_000}, gap=52),
    WorkloadSpec("cvp/fp-solver", "CVP-FP", "delta",
                 {"deltas": [17], "accesses_per_page": 3}, gap=32),
    WorkloadSpec("cvp/fp-stencil", "CVP-FP", "stride", {"strides": [1, 6, 12]}, gap=32),
    WorkloadSpec("cvp/server-web", "CVP-SERVER", "server", {"contexts": 10}, gap=42),
    WorkloadSpec("cvp/server-db", "CVP-SERVER", "server", {"contexts": 14}, gap=32),
]

_BY_NAME = {s.name: s for s in _CVP_SPECS}

#: Seed offset guaranteeing no overlap with tuned-suite seeds.
_UNSEEN_SEED_BASE = 10_000


def cvp_trace_names(per_workload: int = 2) -> list[str]:
    """All unseen trace names, *per_workload* seeds each."""
    return [
        f"{spec.name}-{i}"
        for spec in _CVP_SPECS
        for i in range(1, per_workload + 1)
    ]


def cvp_categories() -> list[str]:
    """The Fig 12 category labels."""
    return ["CVP-CRYPTO", "CVP-INT", "CVP-FP", "CVP-SERVER"]


def cvp_suite_of(trace_name: str) -> str:
    """Suite (category) label of a CVP trace name."""
    base, _, _ = trace_name.rpartition("-")
    if base not in _BY_NAME:
        raise KeyError(f"unknown CVP trace: {trace_name!r}")
    return _BY_NAME[base].suite


def generate_cvp_trace(name: str, length: int = 20_000) -> Trace:
    """Instantiate one unseen trace (name format ``cvp/<wl>-<seed>``)."""
    base, _, seed_s = name.rpartition("-")
    if base not in _BY_NAME or not seed_s.isdigit():
        raise KeyError(f"unknown CVP trace: {name!r}")
    spec = _BY_NAME[base]
    seed = _UNSEEN_SEED_BASE + int(seed_s)
    return Trace(name, build_columns(spec, length, stable_seed(base, seed)), spec.suite)
