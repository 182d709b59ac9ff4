"""CLI for the invariant checker: ``python -m repro.analysis [paths]``.

Exit codes: ``0`` clean (or everything suppressed), ``1`` findings,
``2`` usage error.  ``make lint`` runs this over the default tree set
(``src/repro`` + ``benchmarks`` + ``scripts`` + ``tests``); CI gates on
it (see ``scripts/ci.sh``).  Every run parses every file and writes
nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.engine import run
from repro.analysis.rules import (
    AST_RULES,
    INTROSPECTION_RULES,
    PROJECT_RULES,
    all_rule_names,
)

#: Trees linted by default — the package source plus every tree that
#: holds executable Python riding on it.
DEFAULT_TREES = (
    Path("src/repro"),
    Path("benchmarks"),
    Path("scripts"),
    Path("tests"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="statically enforce the store/checkpoint soundness rules",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help=(
            "files or directories to analyze "
            f"(default: {' '.join(str(t) for t in DEFAULT_TREES)})"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule allowlist (default: every rule)",
    )
    parser.add_argument(
        "--no-introspect",
        action="store_true",
        help="skip the import-time rules (fingerprint, checkpoint)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in all_rule_names():
            cls = (
                AST_RULES.get(name)
                or PROJECT_RULES.get(name)
                or INTROSPECTION_RULES.get(name)
            )
            kind = (
                "ast"
                if name in AST_RULES
                else "project"
                if name in PROJECT_RULES
                else "introspection"
            )
            print(f"{name:14s} [{kind}] {cls.description}")
        return 0

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = set(rules) - set(all_rule_names())
        if unknown:
            parser.error(f"unknown rules: {', '.join(sorted(unknown))}")

    paths = args.paths or [tree for tree in DEFAULT_TREES if tree.exists()]

    started = time.perf_counter()
    report = run(paths, rules=rules, introspect=not args.no_introspect)
    elapsed = time.perf_counter() - started

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.as_json() for f in report.findings],
                    "suppressed": report.suppressed,
                    "files_checked": report.files_checked,
                    "elapsed_seconds": round(elapsed, 3),
                },
                indent=2,
            )
        )
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"analysis: {len(report.findings)} finding(s), "
            f"{report.suppressed} suppressed, {report.files_checked} file(s) "
            f"in {elapsed:.2f}s"
        )
        print(summary if report.findings else f"{summary} — clean")

    return 1 if report.findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream consumer (head, jq -e with early exit) closed the
        # pipe; suppress the traceback and report "findings emitted".
        sys.stderr.close()
        sys.exit(1)
