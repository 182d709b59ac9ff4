"""The benchmark's workloads: what each one asks of ``repro.api.Session``.

Every workload is a closed loop with one caller: a single thread makes
each ``Session`` call and waits for its ``ResultSet`` before the next,
with library defaults (the default replay backend and
``SerialExecutor``), so at most one core is busy.  Every cell starts
with empty modelled caches, and the warmup prefix is excluded from the
simulated statistics (the session's default 20% warmup, or an absolute
warmup where stated).

The seed picks trace replicas through ``registry.reseed_trace_name`` and
the mix draw through ``heterogeneous_mix_names(..., seed=)``.  The
program under test receives only the generated names (:func:`inputs`);
lengths, prefetchers and grids are fixed here and never depend on the
seed.

A process-pool workload is left out: on a two-core host it would
measure the scheduler, not the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

#: sweep-1c: a streaming SPEC06 trace, a LIGRA graph trace and a PARSEC
#: trace, the shape of the paper's Fig 9 single-core comparison.
SWEEP_TRACES = ("spec06/lbm", "ligra/cc", "parsec/canneal")
SWEEP_PREFETCHERS = ("spp", "bingo", "mlop", "pythia")
SWEEP_LENGTH = 5_000

#: search-short: a Fig 20-shaped grid over Pythia's hyperparameters.
SEARCH_TRACES = ("spec06/mcf", "ligra/pagerank")
SEARCH_GRID = {
    "alpha": (0.001, 0.02, 0.2),
    "gamma": (0.3, 0.556),
    "epsilon": (0.005, 0.1),
}
SEARCH_LENGTH = 1_500

#: extend-ckpt: Pythia cells run at EXTEND_LENGTH, then extended to
#: twice that length from their stored snapshots.
EXTEND_TRACES = ("spec06/gemsfdtd", "ligra/pagerankdelta")
EXTEND_LENGTH = 3_000
EXTEND_WARMUP = 600
EXTEND_CHECKPOINT_EVERY = EXTEND_LENGTH

#: mix-4c: heterogeneous four-core mixes, the shape of Fig 10.
MIX_CORES = 4
MIX_COUNT = 1
MIX_LENGTH = 3_000

#: Fraction of each trace used as warmup unless a workload pins warmup
#: in records (the session default).
WARMUP_FRACTION = 0.2


@dataclass
class Call:
    """One ``Session`` call of a workload and what it should have done.

    Attributes:
        label: stable name of the call inside the workload.
        results: the returned ``ResultSet``.
        stats: the call's ``{"cells", "simulated", "cached"}`` counts.
        length: trace length of every cell of the call.
        split: warmup records per trace (per core for mixes).
        cells: cells a cold store must simulate.
        records: trace records a cold store asks the simulator to
            replay (resumed prefixes excluded; every core of a mix).
        resumes: cells that must resume from a stored checkpoint.
    """

    label: str
    results: Any
    stats: dict
    length: int
    split: int
    cells: int
    records: int
    resumes: int = 0


@dataclass(frozen=True)
class Workload:
    """A named workload and the layers it is meant to load.

    ``why``, ``loads`` and ``bypasses`` are printed with every result,
    so a reader of the numbers sees which layer each workload stresses
    and which metrics a change to another layer should leave alone.
    ``purpose`` maps the traced layer shares of ``run_s`` to
    ``(confirmed, explanation)``.
    """

    name: str
    why: str
    loads: str
    bypasses: str
    checkpoint_every: int
    inputs: Callable[[int], dict]
    drive: Callable[[Any, dict, Any], list[Call]]
    purpose: Callable[[dict], tuple[bool, str]]
    #: Layers whose share of the traced cold ``run_s`` is printed.
    shares: tuple[str, ...] = ()


def _reseeded(names, seed: int) -> list[str]:
    from repro import registry

    return [registry.reseed_trace_name(name, seed) for name in names]


# ---- sweep-1c ----------------------------------------------------------


def _sweep_inputs(seed: int) -> dict:
    return {"traces": _reseeded(SWEEP_TRACES, seed)}


def _sweep_drive(session, inputs: dict, system) -> list[Call]:
    traces = inputs["traces"]
    experiment = (
        session.experiment("sweep-1c")
        .with_traces(*traces)
        .with_prefetchers(*SWEEP_PREFETCHERS)
        .with_systems(system)
        .with_length(SWEEP_LENGTH)
    )
    results = session.run(experiment)
    cells = len(traces) * (len(SWEEP_PREFETCHERS) + 1)  # + shared baselines
    return [
        Call(
            label="sweep",
            results=results,
            stats=dict(results.stats),
            length=SWEEP_LENGTH,
            split=int(SWEEP_LENGTH * WARMUP_FRACTION),
            cells=cells,
            records=cells * SWEEP_LENGTH,
        )
    ]


def _sweep_purpose(shares: dict) -> tuple[bool, str]:
    replay = shares["replay"]
    return replay >= 0.5, f"per-record replay is {replay:.0%} of run_s (want >= 50%)"


# ---- search-short ------------------------------------------------------


def _search_inputs(seed: int) -> dict:
    return {"traces": _reseeded(SEARCH_TRACES, seed)}


def _search_drive(session, inputs: dict, system) -> list[Call]:
    traces = inputs["traces"]
    search = (
        session.search("search-short")
        .over(**SEARCH_GRID)
        .with_prefetcher("pythia")
        .phase1(traces)
        .with_system(system)
        .with_length(SEARCH_LENGTH)
    )
    outcome = search.run()
    points = math.prod(len(values) for values in SEARCH_GRID.values())
    cells = len(traces) * (points + 1)
    return [
        Call(
            label="search",
            results=outcome.phase1_results,
            stats=dict(outcome.stats["phase1"]),
            length=SEARCH_LENGTH,
            split=int(SEARCH_LENGTH * WARMUP_FRACTION),
            cells=cells,
            records=cells * SEARCH_LENGTH,
        )
    ]


def _search_purpose(shares: dict) -> tuple[bool, str]:
    fixed = shares["fixed"]
    return fixed >= 0.25, (
        f"per-cell fixed cost is {fixed:.0%} of run_s (want >= 25%; "
        f"engine construction alone {shares['construct']:.0%})"
    )


# ---- extend-ckpt -------------------------------------------------------


def _extend_inputs(seed: int) -> dict:
    return {"traces": _reseeded(EXTEND_TRACES, seed)}


def _extend_drive(session, inputs: dict, system) -> list[Call]:
    traces = inputs["traces"]
    base = (
        session.experiment("extend-ckpt")
        .with_traces(*traces)
        .with_prefetchers("pythia")
        .with_systems(system)
        .with_length(EXTEND_LENGTH)
        .with_warmup(records=EXTEND_WARMUP)
    )
    first = session.run(base)
    longer = 2 * EXTEND_LENGTH
    second = session.run(base.with_length(longer))
    cells = 2 * len(traces)  # pythia + its baseline per trace
    return [
        Call(
            label="short",
            results=first,
            stats=dict(first.stats),
            length=EXTEND_LENGTH,
            split=EXTEND_WARMUP,
            cells=cells,
            records=cells * EXTEND_LENGTH,
        ),
        Call(
            label="extended",
            results=second,
            stats=dict(second.stats),
            length=longer,
            split=EXTEND_WARMUP,
            cells=cells,
            # Each extended cell resumes from the short run's final
            # snapshot, so only the new half is replayed.
            records=cells * (longer - EXTEND_LENGTH),
            resumes=cells,
        ),
    ]


def _extend_purpose(shares: dict) -> tuple[bool, str]:
    ckpt = shares["checkpoint"]
    return ckpt >= 0.2, f"checkpoint capture/restore/store is {ckpt:.0%} of run_s (want >= 20%)"


# ---- mix-4c ------------------------------------------------------------


def _mix_inputs(seed: int) -> dict:
    from repro.workloads.mixes import heterogeneous_mix_names

    return {
        "mixes": [
            [name, list(traces)]
            for name, traces in heterogeneous_mix_names(MIX_CORES, MIX_COUNT, seed=seed)
        ]
    }


def _mix_drive(session, inputs: dict, system) -> list[Call]:
    # The mix system is the paper's four-core baseline; *system* selects
    # a single-core replay backend, which the lockstep engine never uses.
    mixes = [(name, tuple(traces)) for name, traces in inputs["mixes"]]
    experiment = (
        session.experiment("mix-4c")
        .with_mixes(*mixes)
        .with_prefetchers("pythia")
        .with_length(MIX_LENGTH)
    )
    results = session.run(experiment)
    cells = 2 * len(mixes)  # pythia + its baseline per mix
    return [
        Call(
            label="mix",
            results=results,
            stats=dict(results.stats),
            length=MIX_LENGTH,
            split=int(MIX_LENGTH * WARMUP_FRACTION),
            cells=cells,
            # Each core replays its warmup plus an equal measured quota,
            # which is the whole trace when the traces share a length.
            records=cells * MIX_CORES * MIX_LENGTH,
        )
    ]


def _mix_purpose(shares: dict) -> tuple[bool, str]:
    multicore = shares["multicore"]
    return multicore >= 0.5 and shares["replay_calls"] == 0, (
        f"lockstep engine is {multicore:.0%} of run_s (want >= 50%) with "
        f"{shares['replay_calls']:.0f} single-core replay spans (want 0)"
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sweep-1c",
            why=(
                "3 single-core traces x spp/bingo/mlop/pythia plus shared "
                "baselines (Fig 9 shape): per-record replay dominates"
            ),
            loads=(
                "per-record replay: sim.batch / sim._native replay spans and "
                "the prefetcher models; bingo and mlop have no native kernel, "
                "so a change that pushes them onto the scalar loop shows here "
                "as a cost"
            ),
            bypasses=(
                "checkpoints (no change predicted in store_mb) and the "
                "lockstep multi-core engine"
            ),
            checkpoint_every=0,
            inputs=_sweep_inputs,
            drive=_sweep_drive,
            purpose=_sweep_purpose,
            shares=("replay", "construct", "fixed"),
        ),
        Workload(
            name="search-short",
            why=(
                "Session.search grid over pythia alpha x gamma x epsilon on "
                "2 short traces (Fig 20 shape): per-cell fixed cost dominates"
            ),
            loads=(
                "per-cell fixed cost: SimulationEngine construction, "
                "fingerprinting, the fsync'd store put and record assembly; "
                "a per-record kernel change shows less here than on sweep-1c"
            ),
            bypasses="checkpoints and the lockstep multi-core engine",
            checkpoint_every=0,
            inputs=_search_inputs,
            drive=_search_drive,
            purpose=_search_purpose,
            shares=("fixed", "construct", "replay"),
        ),
        Workload(
            name="extend-ckpt",
            why=(
                "checkpointed pythia cells, then the same cells at twice the "
                "length resumed from their snapshots: the only checkpoint user"
            ),
            loads=(
                "EngineState capture/restore and the checkpoint namespace of "
                "the store; state-layout or checkpoint-format changes show "
                "in its run_s, peak_rss_mb and store_mb and nowhere else"
            ),
            bypasses="the lockstep multi-core engine",
            checkpoint_every=EXTEND_CHECKPOINT_EVERY,
            inputs=_extend_inputs,
            drive=_extend_drive,
            purpose=_extend_purpose,
            shares=("checkpoint", "replay", "construct"),
        ),
        Workload(
            name="mix-4c",
            why=(
                "a heterogeneous 4-core mix drawn by seed, pythia vs none "
                "(Fig 10 shape): the lockstep MultiCoreEngine"
            ),
            loads=(
                "MultiCoreEngine construction and its lockstep loop; a native "
                "multi-core loop would show only here"
            ),
            bypasses=(
                "both single-core replay kernels (a single-core backend change "
                "predicts no change here) and checkpoints"
            ),
            checkpoint_every=0,
            inputs=_mix_inputs,
            drive=_mix_drive,
            purpose=_mix_purpose,
            shares=("multicore", "fixed"),
        ),
    )
}


def system_for(backend: str | None):
    """The single-core system spec: ``"1c"``, or it on another backend.

    Only the reference recorder passes a backend (``"scalar"``); the
    benchmark itself always runs the library default.
    """
    if backend is None:
        return "1c"
    from repro import registry

    return ("1c", replace(registry.system("1c"), replay_backend=backend))
