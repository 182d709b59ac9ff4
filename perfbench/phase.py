"""One phase of one workload in a fresh interpreter.

Run by :mod:`perfbench.run` as ``python3 -m perfbench.phase SPEC SPAWNED``
from the checkout root, with ``REPRO_CACHE_DIR`` naming the run's store.
*SPEC* is a JSON file naming the workload, its generated inputs, whether
to trace, and where to write the outcome; *SPAWNED* is the parent's
``time.monotonic()`` just before it started this interpreter, so
``setup_s`` covers interpreter start, imports, registry and store open.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

from perfbench.checks import accounting_errors


def _measured_instructions(registry, names, length: int, split: int) -> int:
    """Instructions carried by records ``[split, length)`` of each trace."""
    return sum(
        record.gap + 1
        for name in names
        for record in registry.cached_trace(name, length).records[split:]
    )


def main(argv: list[str]) -> int:
    spec_path, spawned = Path(argv[0]), float(argv[1])
    spec = json.loads(spec_path.read_text())

    from repro import registry
    from repro.api import Session

    from perfbench.workloads import WORKLOADS, system_for

    workload = WORKLOADS[spec["workload"]]
    session = Session(checkpoint_every=workload.checkpoint_every)
    system = system_for(spec.get("backend"))
    registry.system("1c")
    registry.available_prefetchers()
    setup_s = time.monotonic() - spawned

    tracer = None
    if spec["trace"]:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        calls = workload.drive(session, spec["inputs"], system)
    finally:
        run_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    width = registry.system("1c").core.width
    results: dict[str, dict] = {}
    errors: dict[str, list[str]] = {}
    speedups: list[float] = []
    for call in calls:
        for record in call.results:
            names = list(getattr(record, "traces", ()) or [record.trace_name])
            instructions = _measured_instructions(
                registry, names, call.length, call.split
            )
            for label, result, baseline in (
                (f"{call.label}:{record.trace_name}:{record.prefetcher}", record.result, False),
                (f"{call.label}:{record.trace_name}:baseline", record.baseline, True),
            ):
                payload = dataclasses.asdict(result)
                results[label] = payload
                problems = accounting_errors(
                    payload,
                    cores=len(names),
                    width=width,
                    instructions=instructions,
                    baseline=baseline,
                )
                if problems:
                    errors[label] = problems
            speedups.append(record.speedup)

    outcome = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "calls": [
            {
                "label": call.label,
                "stats": call.stats,
                "cells": call.cells,
                "records": call.records,
                "resumes": call.resumes,
            }
            for call in calls
        ],
        "results": results,
        "errors": errors,
        "speedups": speedups,
        "store_stats": session.store.stats,
        "spans": tracer.spans if tracer is not None else None,
    }
    Path(spec["out"]).write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
