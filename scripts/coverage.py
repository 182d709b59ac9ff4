#!/usr/bin/env python
"""Line coverage for the gated packages (``TARGET_PACKAGES``), stdlib-only.

The container has no ``pytest-cov``/``coverage`` wheel, so this is a
small self-contained tracer with the same report shape: per-file
``Stmts / Miss / Cover / Missing`` (term-missing style) plus per-package
totals.  It runs a fixed, fast test selection (``COVERAGE_TESTS``)
in-process under ``sys.settrace`` and compares the package percentages
against the recorded floor in
``scripts/coverage_floor.json`` — CI fails when coverage drops below the
floor (see ``scripts/ci.sh`` / ``make coverage``).

Usage::

    python scripts/coverage.py              # report + floor check
    python scripts/coverage.py --update-floor   # re-record the floor
                                                # (measured minus margin)

Mechanics and caveats:

* Executable lines come from the compiled code objects' ``co_lines``
  tables — the same line table ``settrace`` events derive from, so the
  two sides agree by construction.  ``if TYPE_CHECKING:`` bodies and
  lines/blocks marked ``# pragma: no cover`` are excluded, mirroring
  coverage.py's defaults.
* Work shipped to :class:`ProcessPoolExecutor` workers runs in child
  processes the tracer cannot see; the serial executor paths cover the
  same simulation lines, so the floor is recorded accordingly.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import threading
from pathlib import Path
from types import CodeType, FrameType

REPO = Path(__file__).resolve().parent.parent
FLOOR_FILE = REPO / "scripts" / "coverage_floor.json"

#: Targets the floor is enforced on (repo-relative).  Directories
#: aggregate every ``.py`` under them; a ``.py`` entry records its own
#: floor (the engine module gets one beside its package, since it is
#: the resumable-replay core the ISSUE 5 refactor added).
TARGET_PACKAGES = [
    "src/repro/analysis",
    "src/repro/api",
    "src/repro/core",
    "src/repro/workloads",
    "src/repro/sim",
    "src/repro/sim/engine.py",
]

#: Margin subtracted from the measured percentage when recording a new
#: floor — room for innocuous drift without letting real regressions in.
FLOOR_MARGIN = 2.0

#: The test selection run under the tracer: every suite that drives the
#: API or workloads layers, small-trace and fast.  Deliberately explicit
#: (not "everything") so the traced run stays well under a minute.
COVERAGE_TESTS = [
    "tests/test_analysis.py",
    "tests/test_project_rules.py",
    "tests/test_api_session.py",
    "tests/test_search.py",
    "tests/test_registry.py",
    "tests/test_ingest.py",
    "tests/test_replication.py",
    "tests/test_generators.py",
    "tests/test_patterns.py",
    "tests/test_trace.py",
    "tests/test_harness.py",
    "tests/test_figures.py",
    "tests/test_tuning.py",
    # src/repro/sim drivers: the structural unit suites plus the engine
    # suite (windows, checkpoints, resume).  Kept to the small-trace
    # tests — per-line tracing multiplies simulation cost, so the long
    # replay tiers stay out of the traced run.
    "tests/test_system.py",
    "tests/test_engine.py",
    "tests/test_batch.py",
    "tests/test_native_build.py",
    "tests/test_native_bridge.py",
    "tests/test_cache.py",
    "tests/test_dram.py",
    "tests/test_mshr.py",
    "tests/test_core_model.py",
    "tests/test_hierarchy.py",
    "tests/test_replacement.py",
    "tests/test_metrics.py",
    # src/repro/core drivers: the Pythia agent's unit suites.
    "tests/test_eq.py",
    "tests/test_features.py",
    "tests/test_agent_pythia.py",
    "tests/test_qvstore.py",
    "tests/test_tile_coding.py",
    "tests/test_rewards_pipeline.py",
]


def _have_compiler() -> bool:
    import os
    import shutil

    return shutil.which(os.environ.get("CC", "cc")) is not None


def target_files() -> list[Path]:
    files: dict[Path, None] = {}
    # Without a C compiler the native bridge is unreachable (its suites
    # skip and the engine stays on the batched backend), so its lines
    # would read as misses on a box that cannot execute them.
    skip_native = not _have_compiler()
    if skip_native:
        print(
            "coverage: NOTICE: no C compiler — src/repro/sim/_native "
            "excluded from the measured set"
        )
    for package in TARGET_PACKAGES:
        root = REPO / package
        if root.suffix == ".py":
            files.setdefault(root)
        else:
            for file in sorted(root.rglob("*.py")):
                if skip_native and "_native" in file.parts:
                    continue
                files.setdefault(file)
    return list(files)


def _excluded_lines(tree: ast.Module, source_lines: list[str]) -> set[int]:
    """Lines not expected to execute: TYPE_CHECKING bodies and
    ``# pragma: no cover`` lines/blocks."""
    excluded: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            test = node.test
            name = getattr(test, "id", getattr(test, "attr", None))
            if name == "TYPE_CHECKING":
                for child in node.body:
                    excluded.update(range(child.lineno, (child.end_lineno or child.lineno) + 1))
        lineno = getattr(node, "lineno", None)
        if lineno is not None and "pragma: no cover" in source_lines[lineno - 1]:
            excluded.update(range(node.lineno, (node.end_lineno or node.lineno) + 1))
    return excluded


def executable_lines(path: Path) -> set[int]:
    """All lines the interpreter can emit trace events for, minus
    exclusions."""
    source = path.read_text()
    code = compile(source, str(path), "exec")
    lines: set[int] = set()
    stack: list[CodeType] = [code]
    while stack:
        current = stack.pop()
        lines.update(line for _, _, line in current.co_lines() if line)
        stack.extend(c for c in current.co_consts if isinstance(c, CodeType))
    excluded = _excluded_lines(ast.parse(source), source.splitlines())
    return lines - excluded


class Tracer:
    """Per-file line collection restricted to the target set."""

    def __init__(self, targets: set[str]) -> None:
        self.targets = targets
        self.seen: dict[str, set[int]] = {t: set() for t in targets}

    def global_trace(self, frame: FrameType, event: str, arg):
        if event != "call":
            return None
        filename = frame.f_code.co_filename
        if filename in self.targets:
            self.seen[filename].add(frame.f_lineno)
            return self.local_trace
        return None

    def local_trace(self, frame: FrameType, event: str, arg):
        if event == "line":
            self.seen[frame.f_code.co_filename].add(frame.f_lineno)
        return self.local_trace

    def install(self) -> None:
        threading.settrace(self.global_trace)
        sys.settrace(self.global_trace)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def _ranges(lines: list[int]) -> str:
    """Compress sorted line numbers into ``a-b, c`` range notation."""
    out: list[str] = []
    start = prev = None
    for line in lines:
        if start is None:
            start = prev = line
        elif line == prev + 1:
            prev = line
        else:
            out.append(f"{start}-{prev}" if prev > start else str(start))
            start = prev = line
    if start is not None:
        out.append(f"{start}-{prev}" if prev > start else str(start))
    return ", ".join(out)


def run(update_floor: bool) -> int:
    files = target_files()
    targets = {str(f): f for f in files}
    tracer = Tracer(set(targets))

    tracer.install()
    try:
        import pytest

        exit_code = pytest.main(["-q", "-p", "no:cacheprovider", *COVERAGE_TESTS])
    finally:
        tracer.uninstall()
    if exit_code != 0:
        print(f"coverage: traced test run failed (pytest exit {exit_code})")
        return int(exit_code)

    per_package: dict[str, list[int]] = {p: [0, 0] for p in TARGET_PACKAGES}
    width = max(len(str(f.relative_to(REPO))) for f in files)
    print(f"\n{'Name'.ljust(width)}  Stmts  Miss  Cover  Missing")
    print("-" * (width + 40))
    for filename, path in sorted(targets.items()):
        statements = executable_lines(path)
        missed = sorted(statements - tracer.seen[filename])
        # A file may feed several targets (its package, plus its own
        # entry when floored individually, e.g. the engine module).
        for package in TARGET_PACKAGES:
            root = REPO / package
            if path == root or root in path.parents:
                per_package[package][0] += len(statements)
                per_package[package][1] += len(missed)
        percent = 100.0 * (1 - len(missed) / len(statements)) if statements else 100.0
        print(
            f"{str(path.relative_to(REPO)).ljust(width)}  "
            f"{len(statements):5d}  {len(missed):4d}  {percent:4.0f}%  {_ranges(missed)}"
        )

    measured: dict[str, float] = {}
    for package, (statements, missed) in per_package.items():
        measured[package] = (
            100.0 * (1 - missed / statements) if statements else 100.0
        )
    print("-" * (width + 40))
    for package, percent in measured.items():
        print(f"{package.ljust(width)}  {percent:6.2f}%")

    if update_floor:
        floors = {p: round(v - FLOOR_MARGIN, 1) for p, v in measured.items()}
        FLOOR_FILE.write_text(json.dumps(floors, indent=2, sort_keys=True) + "\n")
        print(f"\ncoverage: floor re-recorded in {FLOOR_FILE.relative_to(REPO)}: {floors}")
        return 0

    if not FLOOR_FILE.exists():
        print(f"\ncoverage: no floor recorded; run with --update-floor to create {FLOOR_FILE.name}")
        return 1
    floors = json.loads(FLOOR_FILE.read_text())
    failed = False
    for package, floor in floors.items():
        got = measured.get(package, 0.0)
        status = "ok" if got >= floor else "BELOW FLOOR"
        if got < floor:
            failed = True
        print(f"coverage: {package}: {got:.2f}% (floor {floor:.1f}%) {status}")
    if failed:
        print("coverage: FAILED — coverage dropped below the recorded floor")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-floor",
        action="store_true",
        help=f"re-record the floor as measured minus {FLOOR_MARGIN} points",
    )
    args = parser.parse_args()
    # Drop the scripts/ dir the interpreter put first on sys.path —
    # scripts/profile.py would shadow the stdlib ``profile`` module that
    # pytest-benchmark imports — and make src/ importable instead.
    script_dir = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if str(Path(p or ".").resolve()) != script_dir]
    sys.path.insert(0, str(REPO / "src"))
    return run(update_floor=args.update_floor)


if __name__ == "__main__":
    sys.exit(main())
