"""Whole-program context: every file parsed once, symbols resolved.

Per-file :class:`AstRule` passes structurally cannot see cross-file
properties — a module-level cache in ``repro.registry`` mutated by a
function that ``repro.api.experiment`` reaches through two import
aliases, say.  :class:`ProjectContext` closes that gap: it parses the
whole tree once and derives

* a **module symbol table** — per module: import aliases (module-level
  *and* function-scoped), top-level functions, classes with their
  methods and base names, and module-level data names;
* a **mutable-global write index** — every module-level name assigned
  outside its defining statement, plus ``global``-declared assignments,
  attribute/subscript stores, and mutating method calls
  (``.update(...)``, ``.append(...)``, …) that target module state,
  whether addressed directly or through an import alias.

:mod:`repro.analysis.callgraph` layers def/use call resolution on top;
:class:`~repro.analysis.rules.ProjectRule` subclasses consume both.

Tests build small synthetic projects with :meth:`ProjectContext.
from_sources`, mapping dotted module names to source strings — the same
structures come out, no files needed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.findings import repo_relative


def module_name_of(path: Path) -> str | None:
    """Dotted module for a source file, or ``None`` outside ``repro``.

    ``src/repro/sim/cache.py`` → ``repro.sim.cache``;
    package ``__init__`` files map to the package itself.
    """
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    dotted = parts[parts.index("repro") :]
    dotted[-1] = dotted[-1].removesuffix(".py")
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


#: Method names that mutate their receiver in place.  Calling one on an
#: expression rooted at a module-level name is a write to module state.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(slots=True)
class GlobalWrite:
    """One write to module-level state.

    ``writer`` is the qualified name of the function performing the
    write, or ``None`` for a module-level (import-time) re-assignment.
    Import-time writes are benign for concurrency purposes — workers
    fork/spawn after import — so rules filter on ``writer``.
    """

    module: str  #: module owning the written name
    name: str  #: the module-level name written
    writer: str | None  #: qualified writer function, None = import time
    path: str  #: file containing the write site
    line: int
    kind: str  #: "assign" | "mutate" | "reassign"


@dataclass(slots=True)
class FunctionInfo:
    """One function or method, addressable by qualified name."""

    qualname: str  #: e.g. ``repro.api.experiment.Cell.execute``
    module: str
    path: str
    line: int
    node: ast.AST
    #: function-scoped import aliases (``from repro import registry``
    #: inside a def) — alias → dotted target.
    imports: dict[str, str] = field(default_factory=dict)
    #: names bound locally (params, assignments, loop/with targets, …);
    #: loads of these never resolve to module globals.
    bound: set[str] = field(default_factory=set)


@dataclass(slots=True)
class ClassInfo:
    name: str
    module: str
    line: int
    #: method name → qualified function name
    methods: dict[str, str] = field(default_factory=dict)
    #: base-class name expressions as dotted strings (``"Policy"``,
    #: ``"base.ReplacementPolicy"``) for shallow MRO walks.
    bases: list[str] = field(default_factory=list)


@dataclass(slots=True)
class ModuleInfo:
    """Symbol table of one parsed module."""

    module: str
    path: str
    tree: ast.Module
    #: module-level import aliases: alias → dotted target.  A plain
    #: ``import a.b`` binds ``a`` → ``a``; ``import a.b as c`` binds
    #: ``c`` → ``a.b``; ``from a import b`` binds ``b`` → ``a.b``.
    imports: dict[str, str] = field(default_factory=dict)
    #: top-level function name → qualified name
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level data name → line of its defining statement
    globals_: dict[str, int] = field(default_factory=dict)
    #: data names assigned exactly once to an immutable literal —
    #: hoisting-exempt constants like ``EPOCH = 16_384``.
    constants: set[str] = field(default_factory=set)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` attribute chain as a string, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _root_name(node: ast.AST) -> str | None:
    """The leftmost ``Name`` of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_immutable_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Tuple):
        return all(_is_immutable_literal(e) for e in node.elts)
    if isinstance(node, ast.UnaryOp):
        return _is_immutable_literal(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_immutable_literal(node.left) and _is_immutable_literal(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        # frozenset({...}) / range(...) of literals: immutable values.
        if node.func.id in ("frozenset", "range") and not node.keywords:
            return True
    return False


def _resolve_import_from(node: ast.ImportFrom, module: str) -> str:
    """Absolute dotted base of a ``from X import ...`` statement."""
    if node.level == 0:
        return node.module or ""
    # Relative import: climb from the importing module's package.
    parts = module.split(".")[: -node.level] if "." in module else []
    base = ".".join(parts)
    if node.module:
        base = f"{base}.{node.module}" if base else node.module
    return base


def _collect_bound_names(fn: ast.AST) -> set[str]:
    """Every name the function binds locally (its own body only)."""
    bound: set[str] = set()
    args = fn.args
    for a in (
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ):
        bound.add(a.arg)
    declared_global: set[str] = set()
    for node in _walk_function_body(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, _FUNCTION_NODES) and node is not fn:
            bound.add(node.name)
        elif isinstance(node, ast.ClassDef):
            bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    # Import aliases are *not* treated as opaque locals: they resolve
    # through FunctionInfo.imports, so symbol lookups can see through
    # function-scoped ``from repro import registry`` idioms.
    return bound - declared_global


def _walk_function_body(fn: ast.AST):
    """ast.walk limited to *fn*'s own scope: nested function and class
    bodies are not descended into (they are separate scopes)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (*_FUNCTION_NODES, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class ProjectContext:
    """The parsed project: modules, functions, and the write index."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: qualified name → FunctionInfo, every def at every nesting.
        self.functions: dict[str, FunctionInfo] = {}
        self.writes: list[GlobalWrite] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, root: Path) -> "ProjectContext":
        """Parse every ``.py`` under *root* (a ``repro`` package dir)."""
        sources: dict[str, tuple[str, str]] = {}
        for file in sorted(root.rglob("*.py")):
            if "__pycache__" in file.parts:
                continue
            module = module_name_of(file)
            if module is None:
                continue
            # Findings anchor at the repo-relative normal form so they
            # match per-file pragma indexes regardless of how the root
            # was spelled (absolute vs relative).
            sources[module] = (repo_relative(str(file)), file.read_text())
        return cls._from_parsed(sources)

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "ProjectContext":
        """Build from ``{dotted module name: source}`` (tests)."""
        return cls._from_parsed(
            {mod: (f"<{mod}>", src) for mod, src in sources.items()}
        )

    @classmethod
    def _from_parsed(
        cls, sources: dict[str, tuple[str, str]]
    ) -> "ProjectContext":
        ctx = cls()
        # Phase 1: per-module structure, so phase 2 can resolve names
        # across module boundaries.
        for module, (path, source) in sources.items():
            ctx._scan_module(module, path, source)
        # Phase 2: per-function writes, with the full symbol table.
        for info in list(ctx.functions.values()):
            ctx._scan_function(info)
        return ctx

    # -- phase 1: module structure ----------------------------------------

    def _scan_module(self, module: str, path: str, source: str) -> None:
        tree = ast.parse(source)
        info = ModuleInfo(module=module, path=path, tree=tree)
        self.modules[module] = info
        assign_counts: dict[str, int] = {}
        immutable: dict[str, bool] = {}

        # Module-level control flow (try/except import guards, version
        # branches) still executes at import time, so recurse into those
        # blocks — but never into def/class bodies (separate scopes).
        def walk_toplevel(body: Sequence[ast.stmt]) -> None:
            for stmt in body:
                if isinstance(stmt, ast.Import):
                    for alias in stmt.names:
                        if alias.asname:
                            info.imports[alias.asname] = alias.name
                        else:
                            root = alias.name.split(".")[0]
                            info.imports[root] = root
                elif isinstance(stmt, ast.ImportFrom):
                    base = _resolve_import_from(stmt, module)
                    for alias in stmt.names:
                        if alias.name == "*":
                            continue
                        bound = alias.asname or alias.name
                        info.imports[bound] = (
                            f"{base}.{alias.name}" if base else alias.name
                        )
                elif isinstance(stmt, _FUNCTION_NODES):
                    qual = f"{module}.{stmt.name}"
                    info.functions[stmt.name] = qual
                    self._register_functions(stmt, module, path, qual)
                elif isinstance(stmt, ast.ClassDef):
                    self._scan_class(stmt, info, path)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    self._scan_module_assign(stmt, info, assign_counts, immutable)
                elif isinstance(stmt, (ast.If, ast.For, ast.While)):
                    walk_toplevel(stmt.body)
                    walk_toplevel(stmt.orelse)
                elif isinstance(stmt, ast.Try):
                    walk_toplevel(stmt.body)
                    for handler in stmt.handlers:
                        walk_toplevel(handler.body)
                    walk_toplevel(stmt.orelse)
                    walk_toplevel(stmt.finalbody)
                elif isinstance(stmt, ast.With):
                    walk_toplevel(stmt.body)

        walk_toplevel(tree.body)
        info.constants = {
            name
            for name, count in assign_counts.items()
            if count == 1 and immutable.get(name, False)
        }

    def _scan_module_assign(
        self,
        stmt: ast.stmt,
        info: ModuleInfo,
        assign_counts: dict[str, int],
        immutable: dict[str, bool],
    ) -> None:
        targets = (
            stmt.targets
            if isinstance(stmt, ast.Assign)
            else [stmt.target]
        )
        value = getattr(stmt, "value", None)
        for target in targets:
            names = (
                [e for e in target.elts if isinstance(e, ast.Name)]
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for tgt in names:
                if not isinstance(tgt, ast.Name):
                    continue
                name = tgt.id
                assign_counts[name] = assign_counts.get(name, 0) + 1
                if name not in info.globals_:
                    info.globals_[name] = stmt.lineno
                    immutable[name] = value is not None and _is_immutable_literal(
                        value
                    )
                else:
                    # Re-assigned outside its defining statement: an
                    # import-time write (e.g. try/except import guards).
                    self.writes.append(
                        GlobalWrite(
                            module=info.module,
                            name=name,
                            writer=None,
                            path=info.path,
                            line=stmt.lineno,
                            kind="reassign",
                        )
                    )

    def _scan_class(
        self, node: ast.ClassDef, info: ModuleInfo, path: str
    ) -> None:
        cinfo = ClassInfo(
            name=node.name,
            module=info.module,
            line=node.lineno,
            bases=[d for b in node.bases if (d := _dotted(b)) is not None],
        )
        info.classes[node.name] = cinfo
        for stmt in node.body:
            if isinstance(stmt, _FUNCTION_NODES):
                qual = f"{info.module}.{node.name}.{stmt.name}"
                cinfo.methods[stmt.name] = qual
                self._register_functions(stmt, info.module, path, qual)

    def _register_functions(
        self, fn: ast.AST, module: str, path: str, qualname: str
    ) -> None:
        """Register *fn* and, recursively, the defs nested inside it."""
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=module,
            path=path,
            line=fn.lineno,
            node=fn,
        )
        for node in _walk_function_body(fn):
            if isinstance(node, _FUNCTION_NODES):
                self._register_functions(
                    node, module, path, f"{qualname}.{node.name}"
                )

    # -- phase 2: function-scope writes ------------------------------------

    def _scan_function(self, fn: FunctionInfo) -> None:
        minfo = self.modules[fn.module]
        declared_global: set[str] = set()
        for node in _walk_function_body(fn.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_import_from(node, fn.module)
                for alias in node.names:
                    if alias.name != "*":
                        bound = alias.asname or alias.name
                        fn.imports[bound] = (
                            f"{base}.{alias.name}" if base else alias.name
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    fn.imports[bound] = alias.asname and alias.name or bound
        fn.bound = _collect_bound_names(fn.node)

        for node in _walk_function_body(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    self._record_store(fn, minfo, target, declared_global)
            elif isinstance(node, ast.Call):
                self._record_mutator_call(fn, minfo, node)

    def _record_store(
        self,
        fn: FunctionInfo,
        minfo: ModuleInfo,
        target: ast.AST,
        declared_global: set[str],
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(fn, minfo, elt, declared_global)
            return
        if isinstance(target, ast.Name):
            if target.id in declared_global:
                self.writes.append(
                    GlobalWrite(
                        module=fn.module,
                        name=target.id,
                        writer=fn.qualname,
                        path=fn.path,
                        line=target.lineno,
                        kind="assign",
                    )
                )
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            resolved = self._resolve_state(fn, minfo, target)
            if resolved is not None:
                module, name = resolved
                self.writes.append(
                    GlobalWrite(
                        module=module,
                        name=name,
                        writer=fn.qualname,
                        path=fn.path,
                        line=target.lineno,
                        kind="mutate",
                    )
                )

    def _record_mutator_call(
        self, fn: FunctionInfo, minfo: ModuleInfo, call: ast.Call
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATOR_METHODS:
            return
        resolved = self._resolve_state(fn, minfo, func.value)
        if resolved is not None:
            module, name = resolved
            self.writes.append(
                GlobalWrite(
                    module=module,
                    name=name,
                    writer=fn.qualname,
                    path=fn.path,
                    line=call.lineno,
                    kind="mutate",
                )
            )

    def _resolve_state(
        self, fn: FunctionInfo, minfo: ModuleInfo, node: ast.AST
    ) -> tuple[str, str] | None:
        """Resolve an expression to ``(module, global name)`` when it is
        rooted at module-level state; ``None`` for locals/attributes."""
        # Peel subscripts: ``cache[k]`` targets ``cache``.
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            name = node.id
            if name in fn.bound:
                return None
            if name in minfo.globals_:
                return (minfo.module, name)
            # An imported *object* mutated in place (``from x import
            # CACHE; CACHE.update(...)``): attribute the write to the
            # defining module when we know it.
            alias = fn.imports.get(name) or minfo.imports.get(name)
            if alias and "." in alias:
                owner, _, attr = alias.rpartition(".")
                owner_info = self.modules.get(owner)
                if owner_info is not None and attr in owner_info.globals_:
                    return (owner, attr)
            return None
        if isinstance(node, ast.Attribute):
            # ``registry._CACHE`` → module alias + its global.
            base = node.value
            if isinstance(base, ast.Name) and base.id not in fn.bound:
                alias = fn.imports.get(base.id) or minfo.imports.get(base.id)
                if alias is not None:
                    owner_info = self.modules.get(alias)
                    if owner_info is not None and node.attr in owner_info.globals_:
                        return (alias, node.attr)
            return None
        return None

    # -- queries -----------------------------------------------------------

    def function_writes(self) -> list[GlobalWrite]:
        """Writes performed by functions (import-time ones excluded)."""
        return [w for w in self.writes if w.writer is not None]

    def mutable_globals(self) -> set[tuple[str, str]]:
        """``(module, name)`` pairs with at least one function-scope
        write anywhere in the project — state that is *not* read-only
        after import."""
        return {(w.module, w.name) for w in self.writes if w.writer is not None}

    def resolve_name(
        self, fn: FunctionInfo, name: str
    ) -> str | None:
        """What a bare ``Name`` load inside *fn* refers to, as a dotted
        target: an import alias target, a module symbol's qualified
        name, or ``None`` (builtin/local/unknown)."""
        if name in fn.bound:
            return None
        minfo = self.modules[fn.module]
        target = fn.imports.get(name) or minfo.imports.get(name)
        if target is not None:
            return target
        if name in minfo.functions:
            return minfo.functions[name]
        if name in minfo.classes:
            return f"{fn.module}.{name}"
        if name in minfo.globals_:
            return f"{fn.module}.{name}"
        return None
