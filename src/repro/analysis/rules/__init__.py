"""Rule framework: base classes, registry, and the shipped rule set.

Three pass kinds exist:

* :class:`AstRule` — pure syntax: visits one file's AST and yields
  findings at source lines.  Cheap, runs per file, needs no imports.
* :class:`ProjectRule` — whole-program: receives a
  :class:`~repro.analysis.project.ProjectContext` (every file parsed,
  symbols and call graph resolvable across modules) and yields findings
  anywhere in the tree.  Runs once per invocation.
* :class:`IntrospectionRule` — imports the live package and inspects
  real objects (config dataclasses, registered prefetchers, the
  checkpoint object graph).  Runs once per invocation, anchored to the
  source locations of the offending classes.

Rules self-register via :func:`register`; ``python -m repro.analysis
--list-rules`` renders the registry.  Adding a rule is: subclass one of
the bases in a new module here, decorate it, import the module below.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Type

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.project import ProjectContext


@dataclass
class FileContext:
    """Everything an :class:`AstRule` may look at for one file."""

    path: str
    module: str | None
    source: str
    tree: ast.Module

    @classmethod
    def parse(cls, path: Path, display: str, module: str | None) -> "FileContext":
        source = path.read_text()
        return cls(path=display, module=module, source=source, tree=ast.parse(source))

    def in_package(self, *packages: str) -> bool:
        """True when this file's module sits under any of *packages*
        (dotted prefixes relative to ``repro``, e.g. ``"sim"``)."""
        if self.module is None:
            return False
        for pkg in packages:
            full = f"repro.{pkg}"
            if self.module == full or self.module.startswith(full + "."):
                return True
        return False


class AstRule:
    """Base for pure-syntax rules.  Subclasses yield findings from
    :meth:`check`; helpers keep path plumbing out of rules."""

    name: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            rule=self.name,
            message=message,
        )


class ProjectRule:
    """Base for whole-program rules over a :class:`ProjectContext`.

    ``check`` receives the parsed project — symbol tables, the
    mutable-global write index, and (via
    :class:`~repro.analysis.callgraph.CallGraph`) call resolution — and
    yields findings anchored anywhere in the tree.  Pragmas address
    them exactly like AST findings.
    """

    name: str = ""
    description: str = ""

    def check(self, project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(
            path=path,
            line=line,
            rule=self.name,
            message=message,
        )


class IntrospectionRule:
    """Base for import-time rules over the live ``repro`` package.

    ``check`` yields findings whose path/line point at the *definition
    site* of the offending object (via ``inspect``), so pragmas address
    them exactly like AST findings.
    """

    name: str = ""
    description: str = ""

    def check(self) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(self, obj: object, message: str, *, offset: int = 0) -> Finding:
        import inspect

        try:
            path = inspect.getsourcefile(obj) or "<unknown>"
            line = inspect.getsourcelines(obj)[1] + offset
        except (TypeError, OSError):
            path, line = "<unknown>", 1
        return Finding(
            path=_repo_relative(path),
            line=line,
            rule=self.name,
            message=message,
        )


# Path normal form shared by every pass (kept under its historical
# private name for callers inside this package).
from repro.analysis.findings import repo_relative as _repo_relative  # noqa: E402


AST_RULES: dict[str, Type[AstRule]] = {}
PROJECT_RULES: dict[str, Type[ProjectRule]] = {}
INTROSPECTION_RULES: dict[str, Type[IntrospectionRule]] = {}


def register(cls):
    """Class decorator: add a rule to the registry by its ``name``."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if issubclass(cls, AstRule):
        target = AST_RULES
    elif issubclass(cls, ProjectRule):
        target = PROJECT_RULES
    else:
        target = INTROSPECTION_RULES
    if cls.name in target:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    target[cls.name] = cls
    return cls


def all_rule_names() -> list[str]:
    return sorted({*AST_RULES, *PROJECT_RULES, *INTROSPECTION_RULES})


# Import the shipped rules so registration happens on package import.
from repro.analysis.rules import (  # noqa: E402  (registration imports)
    batching,
    checkpoints,
    concurrency,
    determinism,
    exceptions,
    fingerprints,
    hotpath,
    hygiene,
    layering,
    native,
)

__all__ = [
    "AST_RULES",
    "INTROSPECTION_RULES",
    "PROJECT_RULES",
    "AstRule",
    "FileContext",
    "IntrospectionRule",
    "ProjectRule",
    "all_rule_names",
    "register",
    "batching",
    "checkpoints",
    "concurrency",
    "determinism",
    "exceptions",
    "fingerprints",
    "hotpath",
    "hygiene",
    "layering",
    "native",
]
