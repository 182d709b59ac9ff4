"""Workload-shape self-test of the benchmark, on short traced runs.

Each workload runs once through the benchmark's own command with
``--seconds 1 --trace 1`` (one untraced and one traced repetition), and
the per-layer counts must show the shape each workload claims: only
``extend-ckpt`` checkpoints, ``mix-4c`` never reaches a single-core
replay kernel, every warm phase is served from the store, and the seed
changes nothing but the generated names.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from perfbench.run import ROOT
from perfbench.workloads import WORKLOADS

_RUNS: dict[tuple[str, int, int], dict] = {}


def bench_run(workload: str, seed: int = 1, trace: int = 1) -> dict:
    """The JSON result of one short run (memoized per module)."""
    key = (workload, seed, trace)
    if key not in _RUNS:
        proc = subprocess.run(
            [
                sys.executable, "-m", "perfbench.run",
                "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RUNS[key]


def metric(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_is_correct(workload):
    result = bench_run(workload)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_only_extend_ckpt_touches_checkpoints(workload):
    result = bench_run(workload)
    captures = metric(result, "sim.engine.capture.calls")
    puts = metric(result, "api.store.put_checkpoint.calls")
    if workload == "extend-ckpt":
        assert captures > 0 and puts > 0
        assert metric(result, "sim.engine.resumed_share") > 0
    else:
        assert captures == 0 and puts == 0


def test_mix_reaches_no_single_core_replay_kernel():
    result = bench_run("mix-4c")
    assert metric(result, "sim.batch.replay_span.calls") == 0
    assert metric(result, "sim._native.replay_span.calls") == 0
    assert metric(result, "sim.multicore.run.records") == metric(result, "model.records")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_warm_phase_is_served_from_the_store(workload):
    result = bench_run(workload)
    assert metric(result, "warm.api.store.hit_ratio") == 1
    assert metric(result, "warm.sim.engine.construct.calls") == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_only_the_generated_names(workload):
    from repro import registry

    first, second = (WORKLOADS[workload].inputs(seed) for seed in (1, 2))
    assert first != second
    assert first.keys() == second.keys()

    def shape(inputs: dict):
        """Inputs with every trace name reduced to its workload."""
        if "mixes" in inputs:
            return [len(traces) for _, traces in inputs["mixes"]]
        return [registry.base_workload_name(name) for name in inputs["traces"]]

    assert shape(first) == shape(second)


def test_seed_leaves_the_traced_work_unchanged():
    counts = [
        {
            name: value["value"]
            for name, value in bench_run("extend-ckpt", seed)["metrics"].items()
            if name.endswith((".calls", ".records")) or name == "model.records"
        }
        for seed in (1, 2)
    ]
    assert counts[0] == counts[1]


def test_reported_metrics_match_the_benchmark_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        declared = {m["name"]: m["unit"] for m in contract[section]}
        reported = bench_run("mix-4c", trace=trace)["metrics"]
        assert {name: m["unit"] for name, m in reported.items()} == declared
