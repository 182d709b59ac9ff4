"""Analysis driver: collect files, run rules, apply suppressions.

The flow per invocation:

1. Expand the given paths into ``.py`` files and derive each file's
   dotted module name (the ``repro...`` tail of its path), which is how
   package-scoped rules (determinism, layering, hygiene) decide whether
   they apply.  Files outside the package (``benchmarks/``,
   ``scripts/``, ``tests/``) get a per-tree rule profile
   (:data:`TREE_PROFILES`); the lint-fixture corpus under
   ``tests/data`` is never collected — it is violations on purpose.
2. Run every applicable :class:`AstRule` over every file; every
   selected :class:`ProjectRule` once over a
   :class:`~repro.analysis.project.ProjectContext` of the whole
   package tree; and every selected :class:`IntrospectionRule` once
   (cross-file findings are anchored to the definition site of the
   offending object, and honor pragmas in *that* file even when it was
   not an analyzed path).
3. Drop findings suppressed by a ``# repro: ignore[rule]`` pragma on
   their line or by the committed baseline; report pragmas that
   suppressed nothing (rule ``unused-pragma``) and baseline entries
   that no longer fire (rule ``stale-baseline``) so suppressions decay
   instead of accreting.

An optional :class:`~repro.analysis.cache.AnalysisCache` makes warm
reruns incremental: unchanged files (by CRC32 content stamp, folded
with every other file a rule reads for them, under an unchanged
ruleset) reuse their recorded raw findings without being
re-parsed, and the cross-file passes reuse theirs unless *any* stamp in
the tree moved.  Suppression (pragmas, baseline, unused-pragma decay)
always re-runs over the raw findings, so cache hits can never serve a
stale suppression decision.

:func:`run` returns the surviving findings; the CLI turns a non-empty
list into a non-zero exit.
"""

from __future__ import annotations

import ast
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.cache import AnalysisCache
from repro.analysis.findings import Finding, Severity, repo_relative
from repro.analysis.pragmas import PragmaIndex
from repro.analysis.project import ProjectContext, module_name_of
from repro.analysis.rules import (
    AST_RULES,
    INTROSPECTION_RULES,
    PROJECT_RULES,
    FileContext,
)

__all__ = [
    "Report",
    "TREE_PROFILES",
    "collect_files",
    "module_name_of",
    "run",
]

#: Rule profiles for files outside the ``repro`` package, keyed by the
#: tree they live in.  Package-scoped rules (determinism, layering,
#: batching) are no-ops there by construction; the profile states which
#: of the remaining rules gate each tree.  Tests may catch broadly
#: (asserting on failure paths), so ``exceptions`` gates benchmarks and
#: scripts but not tests.
TREE_PROFILES: dict[str, frozenset[str]] = {
    "benchmarks": frozenset({"exceptions", "hygiene", "unused-pragma"}),
    "scripts": frozenset({"exceptions", "hygiene", "unused-pragma"}),
    "tests": frozenset({"hygiene", "unused-pragma"}),
}

#: Profile for out-of-package files in an unrecognized tree.
DEFAULT_TREE_PROFILE = frozenset({"hygiene", "unused-pragma"})


def collect_files(paths: Sequence[Path]) -> list[Path]:
    files: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                parts = file.parts
                if "__pycache__" in parts:
                    continue
                # The lint-fixture corpus is deliberate violations;
                # linting it would drown the report.
                if any(
                    parts[i] == "tests" and parts[i + 1] == "data"
                    for i in range(len(parts) - 1)
                ):
                    continue
                files.setdefault(file)
        elif path.suffix == ".py":
            files.setdefault(path)
    return list(files)


def _tree_profile(path: Path) -> frozenset[str]:
    for part in path.parts:
        if part in TREE_PROFILES:
            return TREE_PROFILES[part]
    return DEFAULT_TREE_PROFILE


def _package_root(files: Sequence[Path]) -> Path | None:
    """The ``repro`` package directory among *files*, if any — the tree
    whole-program rules parse."""
    for file in files:
        parts = file.parts
        if "repro" in parts:
            return Path(*parts[: parts.index("repro") + 1])
    return None


def _installed_root() -> Path | None:
    """Source root of the importable ``repro`` package (the tree the
    introspection rules actually inspect)."""
    try:
        import repro

        return Path(repro.__file__).parent
    except (ImportError, TypeError):  # pragma: no cover - broken install
        return None


def _combined_stamp(stamps: dict[str, int]) -> int:
    crc = 0
    for path in sorted(stamps):
        crc = zlib.crc32(f"{path}:{stamps[path]};".encode(), crc)
    return crc


@dataclass
class Report:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    #: Files whose raw findings came from the incremental cache
    #: (no read-beyond-stamp, no re-parse).
    files_reused: int = 0
    #: Whether the cross-file passes were served from cache.
    project_reused: bool = False
    introspect_reused: bool = False

    @property
    def files_reparsed(self) -> int:
        return self.files_checked - self.files_reused

    @property
    def failed(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)


def run(
    paths: Sequence[Path],
    *,
    rules: Iterable[str] | None = None,
    baseline: Baseline | None = None,
    introspect: bool = True,
    module_override: str | None = None,
    project: bool = True,
    project_context: ProjectContext | None = None,
    cache: AnalysisCache | None = None,
) -> Report:
    """Run the selected rules over *paths*.

    Args:
        paths: files or directories to analyze.
        rules: rule-name allowlist (default: all registered rules).
        baseline: grandfathered findings; ``None`` means empty.
        introspect: run the import-time rules too (they inspect the
            installed ``repro`` package, not the given paths).
        module_override: force this dotted module name for every file —
            lets fixture files outside the tree masquerade as, say,
            ``repro.sim.cache`` in tests.  Disables the whole-program
            pass and the cache (fixtures are not a project).
        project: run the whole-program rules over the ``repro`` package
            tree found among *paths*.
        project_context: pre-built project for the whole-program rules
            (tests); skips tree discovery and project caching.
        cache: incremental result cache; ``None`` runs cold.
    """
    selected = set(rules) if rules is not None else None
    baseline = baseline if baseline is not None else Baseline()
    report = Report()

    def wanted(name: str) -> bool:
        return selected is None or name in selected

    use_cache = cache if module_override is None else None
    files = collect_files(paths)

    # ── per-file pass: raw AST findings + pragma tables ─────────────────
    raw_by_path: dict[str, list[Finding]] = {}
    pragma_lookup: dict[str, PragmaIndex] = {}
    analyzed: list[tuple[str, list[str], frozenset[str] | None]] = []

    for path in files:
        display = str(path)
        module = module_override if module_override else module_name_of(path)
        profile = _tree_profile(path) if module is None else None
        applied = sorted(
            name
            for name in AST_RULES
            if wanted(name) and (profile is None or name in profile)
        )
        source = path.read_text()
        crc = zlib.crc32(source.encode())
        # Fold in every other file a rule reads to check this one.
        for name in applied:
            for extra in AST_RULES[name]().reads(path, module):
                data = b"\1" + extra.read_bytes() if extra.is_file() else b"\0"
                crc = zlib.crc32(data, crc)
        report.files_checked += 1
        hit = (
            use_cache.lookup_file(display, crc, applied) if use_cache else None
        )
        if hit is not None:
            raw, pragma_entries = hit
            pragmas = PragmaIndex.from_entries(pragma_entries)
            report.files_reused += 1
        else:
            ctx = FileContext(
                path=display, module=module, source=source, tree=ast.parse(source)
            )
            pragmas = PragmaIndex(source)
            raw = [
                finding
                for name in applied
                for finding in AST_RULES[name]().check(ctx)
            ]
            if use_cache is not None:
                use_cache.store_file(display, crc, applied, raw, pragmas.entries())
        raw_by_path.setdefault(display, []).extend(raw)
        # Alias the repo-relative spelling too: cross-file passes anchor
        # findings at the normal form, and suppression bookkeeping must
        # land on the *same* PragmaIndex instance either way.
        pragma_lookup[display] = pragmas
        pragma_lookup.setdefault(repo_relative(display), pragmas)
        analyzed.append((display, applied, profile))

    # ── whole-program pass ──────────────────────────────────────────────
    cross_file_rules: set[str] = set()
    if project and module_override is None:
        wanted_project = sorted(n for n in PROJECT_RULES if wanted(n))
        root = None if project_context is not None else _package_root(files)
        if wanted_project and (project_context is not None or root is not None):
            findings: list[Finding] | None = None
            stamp: int | None = None
            if use_cache is not None and root is not None:
                stamp = _combined_stamp(ProjectContext.stamp_files(root))
                findings = use_cache.lookup_global(
                    "project", stamp, wanted_project
                )
                if findings is not None:
                    report.project_reused = True
            if findings is None:
                pctx = (
                    project_context
                    if project_context is not None
                    else ProjectContext.build(root)
                )
                findings = [
                    finding
                    for name in wanted_project
                    for finding in PROJECT_RULES[name]().check(pctx)
                ]
                if use_cache is not None and stamp is not None:
                    use_cache.store_global(
                        "project", stamp, wanted_project, findings
                    )
            cross_file_rules.update(wanted_project)
            for finding in findings:
                raw_by_path.setdefault(finding.path, []).append(finding)

    # ── introspection pass ──────────────────────────────────────────────
    if introspect:
        wanted_intro = sorted(n for n in INTROSPECTION_RULES if wanted(n))
        if wanted_intro:
            findings = None
            stamp = None
            if use_cache is not None:
                intro_root = _installed_root()
                if intro_root is not None:
                    stamp = _combined_stamp(
                        ProjectContext.stamp_files(intro_root)
                    )
                    findings = use_cache.lookup_global(
                        "introspect", stamp, wanted_intro
                    )
                    if findings is not None:
                        report.introspect_reused = True
            if findings is None:
                findings = [
                    finding
                    for name in wanted_intro
                    for finding in INTROSPECTION_RULES[name]().check()
                ]
                if use_cache is not None and stamp is not None:
                    use_cache.store_global(
                        "introspect", stamp, wanted_intro, findings
                    )
            cross_file_rules.update(wanted_intro)
            for finding in findings:
                raw_by_path.setdefault(finding.path, []).append(finding)

    # ── suppression & assembly (always runs, cache or not) ──────────────
    def admit(finding: Finding, pragmas: PragmaIndex | None) -> None:
        if pragmas is not None and pragmas.suppresses(finding.line, finding.rule):
            report.suppressed += 1
        elif baseline.suppresses(finding):
            report.suppressed += 1
        else:
            report.findings.append(finding)

    # Pragma indexes for cross-file finding sites outside the analyzed
    # set, loaded on demand so an ignore pragma beside a class works
    # even when the class's file was not among the analyzed paths.
    site_pragmas: dict[str, PragmaIndex | None] = {}

    def pragmas_for(path_str: str) -> PragmaIndex | None:
        if path_str in pragma_lookup:
            return pragma_lookup[path_str]
        if path_str not in site_pragmas:
            site = Path(path_str)
            site_pragmas[path_str] = (
                PragmaIndex(site.read_text()) if site.exists() else None
            )
        return site_pragmas[path_str]

    for path_str in sorted(raw_by_path):
        for finding in raw_by_path[path_str]:
            admit(finding, pragmas_for(path_str))

    for display, applied, profile in analyzed:
        if not wanted("unused-pragma"):
            continue
        if profile is not None and "unused-pragma" not in profile:
            continue
        governable = set(applied) | cross_file_rules
        for pragma in pragma_lookup[display].unused():
            # A pragma naming a rule that was deselected this run (by
            # allowlist or tree profile) may legitimately have had
            # nothing to suppress.
            if all(r in governable for r in pragma.rules):
                admit(
                    Finding(
                        path=display,
                        line=pragma.line,
                        rule="unused-pragma",
                        message=(
                            "pragma suppresses nothing: # repro: "
                            f"ignore[{', '.join(sorted(pragma.rules)) or '*'}]"
                        ),
                    ),
                    None,
                )

    for path_, rule_, message_ in baseline.stale():
        report.findings.append(
            Finding(
                path=path_,
                line=1,
                rule="stale-baseline",
                message=(
                    f"baseline entry no longer fires ({rule_}: {message_}); "
                    "remove it or regenerate with --update-baseline"
                ),
            )
        )

    if use_cache is not None:
        use_cache.save()

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return report
