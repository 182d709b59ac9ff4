"""Session-level benchmark of the Pythia reproduction.

Usage (from the root of a checkout)::

    python3 -m perfbench.run --workload sweep-1c --seed 1 --seconds 12 --trace 0

One run repeats the workload for about ``--seconds`` seconds.  Each
repetition uses a fresh on-disk store and fresh interpreters: one cold
phase runs the workload's ``Session`` calls against the empty store, then
warm phases repeat them against the populated store.  End-to-end metrics
are medians over the repetitions of an untraced run (``--trace 0``).
``--trace 1`` instead reports per-layer metrics from one more repetition
in which :mod:`perfbench.tracer` wraps each layer's entry point, and
writes its spans to ``perfbench/out/``.

Every cell's output is checked (:mod:`perfbench.checks`); a failed check
or an exception counts the cell as failed.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Timings are host wall time.  Simulated statistics (``model.*``, IPC
speedups) come from the model, which is unvalidated against hardware:
the traces are synthetic and the repository holds no reference
measurements, so no error figure is given.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Per-invocation scratch space (stores, kernel cache, temp files).
SCRATCH_DIR = ROOT / "perfbench" / ".scratch"
#: Traced-run span files, written when the benchmark ends.
OUT_DIR = ROOT / "perfbench" / "out"

#: Repetitions an untraced run makes even when they overrun ``--seconds``.
MIN_REPS = 3
#: Warm phases per untraced repetition: each is a short phase, so a few
#: of them steady ``warm_s`` and ``setup_s`` at little cost.
WARM_PHASES = 2
#: A phase slower than this is killed and counted as failed; a healthy
#: phase takes seconds, and a failed run must still end within 180 s.
PHASE_TIMEOUT_S = 60
MB = 1024 * 1024

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("warm_s", "s"),
    ("records_per_s", "records/s"),
    ("peak_rss_mb", "MB"),
    ("store_mb", "MB"),
)

_UNIT_SUFFIXES = (
    (".calls", "count"),
    (".records", "records"),
    (".bytes", "bytes"),
    (".ns_per_record", "ns/record"),
    ("_share", "ratio"),
    ("_ratio", "ratio"),
    (".checkpoint_evictions", "count"),
    ("model.dram_reads", "count"),
    ("model.prefetches_issued", "count"),
    ("model.prefetch_accuracy", "ratio"),
    ("model.ipc_speedup", "ratio"),
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name (times are seconds)."""
    for suffix, unit in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "s"


@dataclass
class Phase:
    """Outcome of one phase (``data``), or why it failed (``error``)."""

    data: dict | None
    error: str | None = None


def spawn_phase(
    workload: str,
    inputs: dict,
    store: Path,
    trace: bool,
    work: Path,
    tag: str,
    backend: str | None = None,
) -> Phase:
    """Run one phase in a fresh interpreter against the store at *store*.

    *backend* is for the reference recorder only; the benchmark runs the
    library's default replay backend.
    """
    spec = work / f"{tag}.spec.json"
    out = work / f"{tag}.out.json"
    spec.write_text(
        json.dumps(
            {
                "workload": workload,
                "inputs": inputs,
                "trace": trace,
                "backend": backend,
                "out": str(out),
            }
        )
    )
    env = dict(os.environ, REPRO_CACHE_DIR=str(store))
    cmd = [sys.executable, "-m", "perfbench.phase", str(spec)]
    try:
        proc = subprocess.run(
            [*cmd, repr(time.monotonic())],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=PHASE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Phase(None, f"{tag}: no result within {PHASE_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Phase(None, f"{tag}: exited {proc.returncode}: {tail[0]}")
    return Phase(json.loads(out.read_text()))


def store_bytes(store: Path) -> int:
    """Bytes in every file under the store."""
    return sum(f.stat().st_size for f in store.rglob("*") if f.is_file())


@dataclass
class Repetition:
    """One cold phase and its warm phases against one fresh store."""

    cold: Phase
    warms: list[Phase]
    store_size: int
    wall_s: float
    #: label -> messages of every check the repetition failed; the
    #: label ``*`` fails every cell of the repetition.
    failures: dict[str, list[str]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.cold.data is not None and all(w.data is not None for w in self.warms)


def run_repetition(workload, inputs: dict, trace: bool, warm_phases: int, work: Path, index: int) -> Repetition:
    started = time.monotonic()
    store = work / f"store-{index}"
    cold = spawn_phase(workload.name, inputs, store, trace, work, f"cold-{index}")
    size = store_bytes(store) if store.exists() else 0
    warms = [
        spawn_phase(workload.name, inputs, store, trace, work, f"warm-{index}-{k}")
        if cold.data is not None
        else Phase(None, "warm phase skipped: cold phase failed")
        for k in range(warm_phases)
    ]
    shutil.rmtree(store, ignore_errors=True)
    return Repetition(cold, warms, size, time.monotonic() - started)


def workload_cells(phase: dict) -> int:
    return sum(call["cells"] for call in phase["calls"])


def check_repetition(rep: Repetition, reference: dict | None) -> None:
    """Fill ``rep.failures`` from every output check."""
    from perfbench.checks import reference_errors, warm_errors

    def fail(label: str, message: str) -> None:
        rep.failures.setdefault(label, []).append(message)

    for phase in (rep.cold, *rep.warms):
        if phase.error is not None:
            fail("*", phase.error)
    cold = rep.cold.data
    if cold is None:
        return
    for label, messages in cold["errors"].items():
        for message in messages:
            fail(label, message)
    for call in cold["calls"]:
        stats = call["stats"]
        if stats["simulated"] != call["cells"] or stats["cells"] != call["cells"]:
            fail("*", f"{call['label']}: cold store simulated {stats} (want {call['cells']} cells)")
    resumes = sum(call["resumes"] for call in cold["calls"])
    hits = cold["store_stats"]["checkpoint_hits"]
    if hits != resumes:
        fail("*", f"{hits} checkpoint hits for {resumes} extended cells")
    if len(cold["results"]) != workload_cells(cold):
        fail("*", "result labels collide")
    if reference is not None:
        for label, messages in reference_errors(cold["results"], reference).items():
            for message in messages:
                fail(label, message)
    for warm in (w.data for w in rep.warms if w.data is not None):
        for call in warm["calls"]:
            if call["stats"]["simulated"] != 0:
                fail("*", f"{call['label']}: warm phase simulated {call['stats']['simulated']} cells")
        for label, messages in warm_errors(cold["results"], warm["results"]).items():
            for message in messages:
                fail(label, message)


def build_kernel() -> tuple[float | None, str]:
    """Compile the native kernel into this invocation's cache directory.

    Done once, before any timed phase, so no phase pays for a compile
    even when a later default routes replay through the kernel.
    """
    from repro.sim._native import build

    if build.compiler() is None:
        return None, "NOTICE: no C compiler on PATH; native kernel not built"
    started = time.perf_counter()
    so = build.build()
    elapsed = time.perf_counter() - started
    if so is None:
        return None, "NOTICE: native kernel build failed; replay uses the batched backend"
    return elapsed, f"native kernel compiled in {elapsed:.3f} s (kept out of setup_s)"


def end_to_end(reps: list[Repetition]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric over the complete repetitions."""
    samples: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
    for rep in reps:
        if not rep.complete:
            continue
        cold, warms = rep.cold.data, [w.data for w in rep.warms]
        records = sum(call["records"] for call in cold["calls"])
        samples["setup_s"] += [cold["setup_s"]] + [w["setup_s"] for w in warms]
        samples["run_s"].append(cold["run_s"])
        samples["warm_s"] += [w["run_s"] for w in warms]
        samples["records_per_s"].append(records / cold["run_s"])
        samples["peak_rss_mb"].append(cold["peak_rss_mb"])
        samples["store_mb"].append(rep.store_size / MB)
    return samples


def model_metrics(cold: dict) -> dict[str, float]:
    """Simulated statistics of the cold phase (exact, not timings)."""
    results = cold["results"].values()
    useful = sum(r["useful_prefetches"] for r in results)
    judged = useful + sum(r["useless_prefetches"] for r in results)
    speedups = cold["speedups"]
    return {
        "model.dram_reads": sum(r["dram_reads"] for r in results),
        "model.prefetches_issued": sum(r["prefetches_issued"] for r in results),
        "model.prefetch_accuracy": useful / judged if judged else 0.0,
        "model.ipc_speedup": math.exp(
            math.fsum(math.log(s) for s in speedups) / len(speedups)
        ),
    }


#: Per-layer metrics also reported for the traced warm phase.
WARM_LAYERS = (
    "workloads.make_trace.calls",
    "workloads.make_trace.s",
    "api.fingerprint.s",
    "api.store.get.s",
    "api.store.hit_ratio",
    "sim.engine.construct.calls",
)


def traced_metrics(rep: Repetition, untraced_run_s: list[float], build_s: float | None, workload) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced repetition, and printable notes."""
    from perfbench.tracer import layer_metrics

    cold, warm = rep.cold.data, rep.warms[0].data
    layers = layer_metrics(cold["spans"], cold["run_s"], cold["store_stats"])
    warm_layers = layer_metrics(warm["spans"], warm["run_s"], warm["store_stats"])
    metrics = dict(layers["metrics"])
    metrics["sim._native.build.s"] = build_s if build_s is not None else 0.0
    metrics["trace.overhead_s"] = cold["run_s"] - statistics.median(untraced_run_s)
    for name in WARM_LAYERS:
        metrics[f"warm.{name}"] = warm_layers["metrics"][name]
    metrics["model.records"] = layers["replayed_records"]
    metrics.update(model_metrics(cold))

    expected = sum(call["records"] for call in cold["calls"])
    if layers["replayed_records"] != expected:
        rep.failures.setdefault("*", []).append(
            f"engines replayed {layers['replayed_records']} records; "
            f"records_per_s counts {expected}"
        )
    total = layers["self_s_total"] + metrics["trace.unaccounted_s"]
    notes = [
        f"traced cold run_s {cold['run_s']:.4f} s = layer self times "
        f"{layers['self_s_total']:.4f} s + trace.unaccounted_s "
        f"{metrics['trace.unaccounted_s']:.4f} s (sum {total:.4f} s)"
    ]
    shares = layers["shares"]
    for key in workload.shares:
        notes.append(f"share of traced run_s, {key}: {shares[key]:.1%}")
    confirmed, why = workload.purpose(shares)
    notes.append(f"purpose {'CONFIRMED' if confirmed else 'MISMATCH'}: {why}")
    return metrics, notes


def write_spans(workload: str, seed: int, rep: Repetition) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-spans.json"
    payload = {
        "workload": workload,
        "seed": seed,
        "fields": ["name", "start", "end", "parent", "cell", "extra"],
        "phases": {
            phase: {"run_s": data["run_s"], "spans": data["spans"]}
            for phase, data in (("cold", rep.cold.data), ("warm", rep.warms[0].data))
        },
    }
    path.write_text(json.dumps(payload))
    return path


def print_header(workload, seed: int, inputs: dict) -> None:
    print(f"workload {workload.name} (seed {seed}): {workload.why}")
    print(f"  loads:    {workload.loads}")
    print(f"  bypasses: {workload.bypasses}")
    print(f"  inputs:   {json.dumps(inputs)}")
    print(
        "  one caller, serial executor, default replay backend; caches start "
        "empty and warmup records are excluded from simulated statistics"
    )


def run(args: argparse.Namespace, work: Path) -> int:
    from perfbench.checks import load_reference
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    reference = load_reference().get(workload.name, {}).get(str(args.seed))
    print_header(workload, args.seed, inputs)
    print(
        "  statistics reference: "
        + ("scalar-backend digests, compared exactly" if reference else "none for this seed")
    )
    build_s, build_note = build_kernel()
    print(f"  {build_note}")

    # Start another repetition only while it should end within
    # --seconds, keeping room for the traced repetition if one follows.
    # A repetition whose phase failed ends the run: the program is
    # broken, and more repetitions would only add to the run time.
    reps: list[Repetition] = []
    started = time.monotonic()
    while True:
        reps.append(run_repetition(workload, inputs, False, WARM_PHASES, work, len(reps)))
        if not reps[-1].complete:
            break
        elapsed = time.monotonic() - started
        longest = max(rep.wall_s for rep in reps)
        if args.trace:
            if elapsed + 2.5 * longest > args.seconds:
                break
        elif len(reps) >= MIN_REPS and elapsed + longest > args.seconds:
            break
    traced = None
    if args.trace and reps[-1].complete:
        traced = run_repetition(workload, inputs, True, 1, work, len(reps))
    all_reps = reps + ([traced] if traced else [])
    for rep in all_reps:
        check_repetition(rep, reference)

    samples = end_to_end(reps)
    if not samples["run_s"] or (args.trace and not (traced and traced.complete)):
        for rep in all_reps:
            for label, messages in rep.failures.items():
                print(f"FAILED {label}: {'; '.join(messages)}", file=sys.stderr)
        print("perfbench: no complete repetition to report", file=sys.stderr)
        return 1

    print(f"\nend-to-end (host wall time; medians over {len(samples['run_s'])} repetitions):")
    for name, unit in END_TO_END:
        values = samples[name]
        print(
            f"  {name:<14} {statistics.median(values):>14.6g} {unit:<10} "
            f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})"
        )

    metrics: dict[str, dict] = {}
    if not args.trace:
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    else:
        layer, notes = traced_metrics(traced, samples["run_s"], build_s, workload)
        print(
            "\nper-layer (one traced repetition; model.* are simulated "
            "statistics of an unvalidated model, not host time):"
        )
        for name in sorted(layer):
            unit = unit_of(name)
            print(f"  {name:<40} {layer[name]:>16.6g} {unit}")
            metrics[name] = {"value": layer[name], "unit": unit}
        for note in notes:
            print(f"  {note}")
        spans = write_spans(workload.name, args.seed, traced)
        print(f"  spans written to {spans.relative_to(ROOT)}")

    known = max(workload_cells(r.cold.data) for r in all_reps if r.cold.data)
    attempted = failed = 0
    for rep in all_reps:
        cells = workload_cells(rep.cold.data) if rep.cold.data else known
        attempted += cells
        failed += cells if "*" in rep.failures else len(rep.failures)
        for label, messages in rep.failures.items():
            print(f"FAILED {label}: {'; '.join(messages)}")
    print(f"\ncells attempted {attempted}, failed {failed}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="replica / mix-draw seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


@contextlib.contextmanager
def scratch_space():
    """A fresh per-invocation directory that every child writes into.

    The kernel cache, temp files and stores all live under it, so a run
    touches neither the per-user result store nor the shared kernel
    cache, and nothing of it outlives the run.
    """
    work = SCRATCH_DIR / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(work / "native")
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_CACHE_DIR"] = str(work / "no-store")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(ROOT / "src"))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    # A terminated run still stops its phase and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with scratch_space() as work:
        return run(args, work)


if __name__ == "__main__":
    sys.exit(main())
