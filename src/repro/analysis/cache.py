"""Incremental result cache for the analysis engine.

Warm ``make lint`` reruns should cost file stamping, not re-analysis.
The cache is a JSON sidecar (``scripts/lint_cache.json``, gitignored)
holding *raw* — pre-pragma, pre-baseline — findings:

* per file, keyed by the file's CRC32 content stamp — folded with the
  bytes of every other file a rule reads for it
  (:meth:`~repro.analysis.rules.AstRule.reads`: the ``native`` rule
  reads ``kernel.c`` beside ``sim/_native/build.py``) — plus the exact
  rule list applied to it, the AST findings and the file's pragma
  table (pragmas live in the file, so the CRC covers them);
* per cross-file pass (``project``, ``introspect``), keyed by a CRC
  over *every* project file's stamp — any edit anywhere invalidates
  cross-file verdicts, exactly the soundness boundary of whole-program
  rules.

The whole sidecar is guarded by a **ruleset signature** derived from
every registered rule's ``(name, version)`` pair: bumping a rule's
``version`` (or adding/removing a rule) discards all cached verdicts.
Suppression state is deliberately *not* cached — pragma and baseline
filtering re-run each invocation over the cached raw findings, so
editing the baseline or a pragma-bearing file never serves stale
verdicts, and the ``unused-pragma`` pass keeps seeing the full pragma
table.  A corrupt or unreadable sidecar degrades to a cold run.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import rule_versions

#: Bump when the sidecar layout changes incompatibly.
SCHEMA = 1


def ruleset_signature() -> str:
    """Hex CRC over every registered rule's ``(name, version)``."""
    blob = ";".join(f"{name}={version}" for name, version in rule_versions())
    return f"{SCHEMA}:{zlib.crc32(blob.encode()):08x}"


def _encode_findings(findings: list[Finding]) -> list[list]:
    return [
        [f.path, f.line, f.rule, f.message, f.severity.value]
        for f in findings
    ]


def _decode_findings(rows: list[list]) -> list[Finding]:
    return [
        Finding(
            path=path,
            line=line,
            rule=rule,
            message=message,
            severity=Severity(severity),
        )
        for path, line, rule, message, severity in rows
    ]


class AnalysisCache:
    """The sidecar: load once, query per file, save once."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._signature = ruleset_signature()
        self._files: dict[str, dict] = {}
        self._global: dict[str, dict] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        if payload.get("signature") != self._signature:
            # Rule added/removed/re-versioned: every verdict is stale.
            self._dirty = True
            return
        self._files = payload.get("files", {})
        self._global = payload.get("global", {})

    # -- per-file entries --------------------------------------------------

    def lookup_file(
        self, display: str, crc: int, rules: list[str]
    ) -> tuple[list[Finding], list[list]] | None:
        """Cached ``(raw findings, pragma entries)`` for an unchanged
        file analyzed under the same rule list, else ``None``."""
        entry = self._files.get(display)
        if entry is None or entry.get("crc") != crc or entry.get("rules") != rules:
            return None
        return _decode_findings(entry["findings"]), entry["pragmas"]

    def store_file(
        self,
        display: str,
        crc: int,
        rules: list[str],
        findings: list[Finding],
        pragmas: list[list],
    ) -> None:
        self._files[display] = {
            "crc": crc,
            "rules": rules,
            "findings": _encode_findings(findings),
            "pragmas": pragmas,
        }
        self._dirty = True

    # -- cross-file entries ------------------------------------------------

    def lookup_global(
        self, kind: str, stamp: int, rules: list[str]
    ) -> list[Finding] | None:
        """Cached cross-file findings (``kind`` ∈ project/introspect)
        for an unchanged tree under the same rule list."""
        entry = self._global.get(kind)
        if (
            entry is None
            or entry.get("stamp") != stamp
            or entry.get("rules") != rules
        ):
            return None
        return _decode_findings(entry["findings"])

    def store_global(
        self, kind: str, stamp: int, rules: list[str], findings: list[Finding]
    ) -> None:
        self._global[kind] = {
            "stamp": stamp,
            "rules": rules,
            "findings": _encode_findings(findings),
        }
        self._dirty = True

    # -- persistence -------------------------------------------------------

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {
            "signature": self._signature,
            "files": self._files,
            "global": self._global,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(payload) + "\n")
        except OSError:
            # Cache is an accelerator, never a correctness dependency.
            return
        self._dirty = False
