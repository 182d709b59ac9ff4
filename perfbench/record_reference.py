"""Record the scalar-backend statistics the benchmark compares exactly.

Usage (from the root of a checkout)::

    python3 -m perfbench.record_reference --seeds 0-15

Runs the cold phase of every workload, for every seed, with
``replay_backend="scalar"`` (the reference loop the faster backends are
pinned bit-identical to), checks every accounting identity of
:mod:`perfbench.checks`, and writes one digest of every statistic of
every cell to ``perfbench/reference.json``.  It refuses to write when
any identity fails.  Re-record only when a change is meant to alter the
simulated statistics, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.checks import REFERENCE_FILE, digest
from perfbench.run import ROOT, scratch_space, spawn_phase
from perfbench.workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-15"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"record_reference: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    digests: dict[str, dict[str, dict[str, str]]] = {}
    problems = []
    with scratch_space() as work:
        for name, workload in WORKLOADS.items():
            for seed in args.seeds:
                tag = f"{name}-{seed}"
                phase = spawn_phase(
                    name, workload.inputs(seed), work / tag, False, work, tag,
                    backend="scalar",
                )
                if phase.data is None:
                    problems.append(phase.error)
                    continue
                for label, messages in phase.data["errors"].items():
                    problems.append(f"{tag} {label}: {'; '.join(messages)}")
                digests.setdefault(name, {})[str(seed)] = {
                    label: digest(result)
                    for label, result in sorted(phase.data["results"].items())
                }
                print(f"{tag}: {len(phase.data['results'])} cells", flush=True)
    if problems:
        print("not recorded:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    REFERENCE_FILE.write_text(
        json.dumps({"backend": "scalar", "digests": digests}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
