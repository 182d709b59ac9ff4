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
   their line, and report pragmas that suppressed nothing (rule
   ``unused-pragma``) so suppressions decay instead of accreting.

Every run parses every file and runs every selected rule; nothing is
cached between runs and nothing is written.  :func:`run` returns the
surviving findings; the CLI turns a non-empty list into a non-zero
exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import Finding, repo_relative
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


@dataclass
class Report:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0


def run(
    paths: Sequence[Path],
    *,
    rules: Iterable[str] | None = None,
    introspect: bool = True,
    module_override: str | None = None,
) -> Report:
    """Run the selected rules over *paths*.

    Args:
        paths: files or directories to analyze.
        rules: rule-name allowlist (default: all registered rules).
        introspect: run the import-time rules too (they inspect the
            installed ``repro`` package, not the given paths).
        module_override: force this dotted module name for every file —
            lets fixture files outside the tree masquerade as, say,
            ``repro.sim.cache`` in tests.  Disables the whole-program
            pass (fixtures are not a project).
    """
    selected = set(rules) if rules is not None else None
    report = Report()

    def wanted(name: str) -> bool:
        return selected is None or name in selected

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
        ctx = FileContext.parse(path, display, module)
        pragmas = PragmaIndex(ctx.source)
        report.files_checked += 1
        raw_by_path.setdefault(display, []).extend(
            finding for name in applied for finding in AST_RULES[name]().check(ctx)
        )
        # Alias the repo-relative spelling too: cross-file passes anchor
        # findings at the normal form, and suppression bookkeeping must
        # land on the *same* PragmaIndex instance either way.
        pragma_lookup[display] = pragmas
        pragma_lookup.setdefault(repo_relative(display), pragmas)
        analyzed.append((display, applied, profile))

    # ── whole-program pass ──────────────────────────────────────────────
    cross_file_rules: set[str] = set()
    wanted_project = sorted(n for n in PROJECT_RULES if wanted(n))
    root = _package_root(files) if module_override is None else None
    if wanted_project and root is not None:
        project = ProjectContext.build(root)
        cross_file_rules.update(wanted_project)
        for name in wanted_project:
            for finding in PROJECT_RULES[name]().check(project):
                raw_by_path.setdefault(finding.path, []).append(finding)

    # ── introspection pass ──────────────────────────────────────────────
    if introspect:
        wanted_intro = sorted(n for n in INTROSPECTION_RULES if wanted(n))
        cross_file_rules.update(wanted_intro)
        for name in wanted_intro:
            for finding in INTROSPECTION_RULES[name]().check():
                raw_by_path.setdefault(finding.path, []).append(finding)

    # ── suppression & assembly ──────────────────────────────────────────
    # Cross-file findings may sit outside the analyzed set; load those
    # sites' pragmas on demand so an ignore pragma beside a class works
    # even when the class's file was not among the analyzed paths.
    for path_str in sorted(raw_by_path):
        pragmas = pragma_lookup.get(path_str)
        site = Path(path_str)
        if pragmas is None and site.exists():
            pragmas = PragmaIndex(site.read_text())
        for finding in raw_by_path[path_str]:
            if pragmas is not None and pragmas.suppresses(finding.line, finding.rule):
                report.suppressed += 1
            else:
                report.findings.append(finding)

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
                report.findings.append(
                    Finding(
                        path=display,
                        line=pragma.line,
                        rule="unused-pragma",
                        message=(
                            "pragma suppresses nothing: # repro: "
                            f"ignore[{', '.join(sorted(pragma.rules)) or '*'}]"
                        ),
                    )
                )

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return report
