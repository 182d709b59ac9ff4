"""Output checks: accounting identities, warm-equals-cold, references.

Each check returns a list of messages; an empty list means the cell
passed.  A cell with any message, or one whose phase raised, counts as
failed.  The accounting identities were first confirmed on every
recorded reference seed with ``replay_backend="scalar"``
(``python3 -m perfbench.record_reference``), which refuses to record a
reference that breaks one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: Scalar-backend statistics digests: {workload: {seed: {label: digest}}}.
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def accounting_errors(
    result: dict,
    *,
    cores: int,
    width: int,
    instructions: int,
    baseline: bool,
) -> list[str]:
    """Identities every ``SimulationResult`` (as a dict) must satisfy.

    Args:
        result: ``dataclasses.asdict`` of the result.
        cores: simulated cores (4 for a mix).
        width: core retire width; no core's IPC may exceed it.
        instructions: instructions the measured (post-warmup) records
            carry, each record's gap plus itself, summed over cores.
        baseline: whether the cell ran without a prefetcher.
    """
    errors = []

    def need(ok: bool, message: str) -> None:
        if not ok:
            errors.append(message)

    r = result
    need(
        r["dram_reads"] == r["dram_demand_reads"] + r["dram_prefetch_reads"],
        "dram_reads != dram_demand_reads + dram_prefetch_reads",
    )
    if cores == 1:
        # A prefetch is issued only when it misses both L2 and the LLC,
        # so each one is exactly one DRAM prefetch read.  (A mix deltas
        # DRAM counters from the first core's warmup mark and prefetch
        # counts from each core's own, so the two need not agree.)
        need(
            r["dram_prefetch_reads"] == r["prefetches_issued"],
            "dram_prefetch_reads != prefetches_issued",
        )
    need(
        min(r["useful_prefetches"], r["useless_prefetches"], r["late_prefetch_merges"]) >= 0,
        "negative prefetch outcome count",
    )
    fractions = r["bw_bucket_fractions"]
    need(
        len(fractions) == 4
        and all(0.0 <= f <= 1.0 for f in fractions)
        and abs(sum(fractions) - 1.0) <= 1e-9,
        "bandwidth-bucket fractions are not 4 shares summing to 1",
    )
    need(
        r["instructions"] == instructions,
        f"instructions {r['instructions']} != {instructions} carried by the measured records",
    )
    need(r["cycles"] > 0, "cycles <= 0")
    need(
        0 <= r["stall_cycles"] <= r["cycles"] * cores,
        "stall_cycles outside [0, cycles x cores]",
    )
    per_core = r["per_core_ipc"]
    need(
        len(per_core) == cores and all(0 < ipc <= width for ipc in per_core),
        f"per-core IPC not in (0, {width}] on each of {cores} cores",
    )
    if r["cycles"] > 0:
        need(
            0 < r["instructions"] / r["cycles"] <= width * cores,
            f"IPC not in (0, {width * cores}]",
        )
    if baseline:
        need(
            r["prefetches_issued"] == 0
            and r["dram_prefetch_reads"] == 0
            and r["useful_prefetches"] == 0
            and r["useless_prefetches"] == 0,
            "a no-prefetching baseline reports prefetch activity",
        )
    return errors


def digest(result: dict) -> str:
    """Exact fingerprint of every statistic of one result."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference() -> dict:
    """The recorded scalar-backend digests (empty if none recorded)."""
    try:
        return json.loads(REFERENCE_FILE.read_text())["digests"]
    except FileNotFoundError:
        return {}


def reference_errors(results: dict[str, dict], reference: dict[str, str]) -> dict[str, list[str]]:
    """Cells whose statistics differ from the scalar-backend reference."""
    errors: dict[str, list[str]] = {}
    for label in sorted(set(results) | set(reference)):
        if label not in results:
            errors[label] = ["reference cell missing from the results"]
        elif label not in reference:
            errors[label] = ["cell has no reference statistics"]
        elif digest(results[label]) != reference[label]:
            errors[label] = ["statistics differ from the scalar-backend reference"]
    return errors


def warm_errors(cold: dict[str, dict], warm: dict[str, dict]) -> dict[str, list[str]]:
    """Cells whose warm (store-hit) result differs from the cold one."""
    errors: dict[str, list[str]] = {}
    for label in sorted(set(cold) | set(warm)):
        if cold.get(label) != warm.get(label):
            errors[label] = ["warm result differs from the cold result"]
    return errors
