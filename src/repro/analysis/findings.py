"""Finding records for the static-analysis pass.

A :class:`Finding` is one rule violation at one source location.  The
tuple is deliberately small and order-friendly so findings can be
sorted and rendered as either text or JSON without any extra machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePath


def repo_relative(path: str) -> str:
    """Trim an absolute source path down to its ``src/repro/...`` tail.

    Findings from different passes (per-file, whole-program,
    introspection) must agree on path spelling so pragma lookups
    match; this is the shared normal form.  Paths outside
    a ``repro`` package pass through unchanged.
    """
    parts = PurePath(path).parts
    if "repro" in parts:
        idx = parts.index("repro")
        prefix = ("src",) if idx > 0 and parts[idx - 1] == "src" else ()
        return str(PurePath(*prefix, *parts[idx:]))
    return path


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation.

    Attributes:
        path: repo-relative (or as-given) path of the offending file.
        line: 1-based line number; introspection rules point at the
            class/def line of the offending object.
        rule: the rule identifier, e.g. ``"determinism"`` — the same
            name a ``# repro: ignore[rule]`` pragma suppresses.
        message: human-readable description of the violation.

    The CLI fails on any unsuppressed finding.
    """

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """One-line text rendering: ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_json(self) -> dict:
        """JSON-serializable form (used by ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }
