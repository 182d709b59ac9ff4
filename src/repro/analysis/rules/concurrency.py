"""Concurrency rule: worker-reachable code must not mutate module state.

The ROADMAP's fleet-executor and ``repro.serve`` arcs put the same
modules in many workers (processes today, threads tomorrow).  Module
state that a worker-reachable function *writes* is then a cross-worker
race — or, for process pools, a silent divergence between parent and
child interpreters.  The rule computes, over the whole program:

1. every write to module-level state performed inside a function (the
   :class:`~repro.analysis.project.ProjectContext` write index), and
2. the set of functions reachable through the call graph from the
   executor/worker entry points — ``_init_worker``, any ``*Cell.
   execute``, ``Session.run``,

and reports each write whose writer is reachable.  State that is only
assigned at import time is read-only after import and never reported.
Deliberate worker-local state (the executor's per-process store handle,
the registry's memo caches) carries a ``# repro: ignore[concurrency]``
pragma at the write site, with a comment saying why it is safe.

The rule also enforces the store's write discipline: inside
``repro.api.store``, raw file writes (``open("w")``, ``write_text``,
``pickle.dump``, ``os.replace``) may appear only in the designated
atomic-write helpers, so every persisted artifact goes through the one
tmp-file + atomic-rename path that concurrent writers can share.

Finally it guards the session's single-flight registry: ``Session``
methods share ``self._inflight`` across request threads, so every
mutation of it (subscript assignment, ``pop``/``clear``/``update``,
rebinding) must sit lexically inside a ``with self._lock`` block.
``__init__`` is exempt — construction happens before the instance can
be shared.  The attribute set is small and explicit
(:data:`GUARDED_SESSION_STATE`); grow it when the session gains more
thread-shared state.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import CallGraph
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext, _walk_function_body
from repro.analysis.rules import ProjectRule, register

#: Qualified-name suffixes marking executor/worker entry points.  The
#: ``Cell.execute`` suffix matches every cell flavor (``MixCell``,
#: replicated cells, …) by construction.
ENTRY_SUFFIXES = ("._init_worker", "Cell.execute", "Session.run")

#: The module whose file writes must route through atomic helpers, and
#: the helper functions (by bare name) allowed to touch files raw.
STORE_MODULE = "repro.api.store"
ATOMIC_HELPERS = frozenset(
    {"_atomic_write_text", "_atomic_write_bytes", "_atomic_write_pickle"}
)

#: Raw-write call shapes: attribute callees that write, name callees
#: that open for writing, and module functions that replace files.
_WRITE_ATTRS = frozenset({"write_text", "write_bytes"})
_REPLACE_FUNCS = frozenset({"replace", "rename"})

#: Session attributes shared across request threads: every mutation
#: must hold the session lock.  Reads are deliberately out of scope —
#: the registry's read-then-claim races are closed by the claim
#: protocol itself, not by the lock.
GUARDED_SESSION_STATE = frozenset({"_inflight"})

#: Lock attributes whose ``with self.<lock>`` blocks satisfy the guard.
_SESSION_LOCKS = frozenset({"_lock"})

#: Mutating mapping methods on a guarded attribute.
_MUTATING_METHODS = frozenset(
    {"pop", "popitem", "clear", "update", "setdefault", "__setitem__"}
)


def entry_points(ctx: ProjectContext) -> list[str]:
    """Worker entry points present in this project, sorted."""
    return sorted(
        qual
        for qual in ctx.functions
        if any(qual.endswith(suffix) for suffix in ENTRY_SUFFIXES)
    )


def _is_write_mode(call: ast.Call, *, method: bool) -> bool:
    """Whether an ``open``-style call requests a writable mode.

    For the builtin (``open(path, "w")``) the mode is the second
    positional; for the ``Path.open("wb")`` method it is the first.
    """
    index = 0 if method else 1
    mode = None
    if len(call.args) > index and isinstance(call.args[index], ast.Constant):
        mode = call.args[index].value
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            mode = kw.value.value
    if not isinstance(mode, str):
        return False
    return any(ch in mode for ch in "wax+")


@register
class ConcurrencyRule(ProjectRule):
    name = "concurrency"
    description = (
        "module-level state must not be written by functions reachable "
        "from worker entry points; store file writes go through the "
        "atomic-write helpers; session single-flight state mutates only "
        "under the session lock"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        yield from self._check_reachable_writes(project)
        yield from self._check_store_writes(project)
        yield from self._check_guarded_session_state(project)

    # -- reachable mutable-global writes -----------------------------------

    def _check_reachable_writes(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        entries = entry_points(project)
        if not entries:
            return
        graph = CallGraph.build(project)
        reached = graph.reachable_from(entries)
        seen: set[tuple[str, int, str]] = set()
        for write in project.function_writes():
            if write.writer not in reached:
                continue
            key = (write.path, write.line, f"{write.module}.{write.name}")
            if key in seen:
                continue
            seen.add(key)
            entry, _ = reached[write.writer]
            chain = graph.chain(reached, write.writer)
            via = (
                f" via {' -> '.join(p.rsplit('.', 1)[1] for p in chain[1:-1])}"
                if len(chain) > 2
                else ""
            )
            yield self.finding(
                write.path,
                write.line,
                f"module-level state '{write.module}.{write.name}' is "
                f"written by {write.writer!r}, reachable from worker "
                f"entry point {entry!r}{via}; shared mutable module "
                "state races across workers — make it worker-local, "
                "guard it, or pragma the write with a safety argument",
            )

    # -- store write discipline --------------------------------------------

    def _check_store_writes(self, project: ProjectContext) -> Iterator[Finding]:
        minfo = project.modules.get(STORE_MODULE)
        if minfo is None:
            return
        for qual, fn in project.functions.items():
            if fn.module != STORE_MODULE:
                continue
            bare = qual.rsplit(".", 1)[1]
            if bare in ATOMIC_HELPERS:
                continue
            for node in _walk_function_body(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                label = self._raw_write_label(node)
                if label is not None:
                    yield self.finding(
                        fn.path,
                        node.lineno,
                        f"raw file write ({label}) in {qual!r}: store "
                        "artifacts must be persisted through the "
                        "atomic-write helpers "
                        "(_atomic_write_text/_atomic_write_bytes/"
                        "_atomic_write_pickle) so concurrent writers "
                        "never observe torn files",
                    )

    # -- session single-flight guard ---------------------------------------

    def _check_guarded_session_state(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        for qual, fn in project.functions.items():
            if "Session." not in qual or qual.endswith(".__init__"):
                continue
            guarded = _lock_guarded_nodes(fn.node)
            for node in _walk_function_body(fn.node):
                attr = _guarded_mutation(node)
                if attr is None or node in guarded:
                    continue
                yield self.finding(
                    fn.path,
                    node.lineno,
                    f"mutation of thread-shared 'self.{attr}' in {qual!r} "
                    "outside a 'with self._lock' block: the single-flight "
                    "registry is shared by every thread running this "
                    "session — take the session lock around the mutation",
                )

    @staticmethod
    def _raw_write_label(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "open" and _is_write_mode(call, method=False):
                return "open(..., 'w')"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in _WRITE_ATTRS:
            return f".{func.attr}()"
        if func.attr == "open" and _is_write_mode(call, method=True):
            return ".open('w')"
        if func.attr == "dump" and isinstance(func.value, ast.Name):
            if func.value.id in ("pickle", "json", "marshal"):
                return f"{func.value.id}.dump()"
        if func.attr in _REPLACE_FUNCS and isinstance(func.value, ast.Name):
            if func.value.id == "os":
                return f"os.{func.attr}()"
        return None


def _is_guarded_self_attr(expr: ast.expr) -> str | None:
    """``self.<attr>`` where *attr* is guarded session state, else None."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in GUARDED_SESSION_STATE
    ):
        return expr.attr
    return None


def _is_session_lock(expr: ast.expr) -> bool:
    """``self._lock`` (any registered session lock attribute)."""
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in _SESSION_LOCKS
    )


def _lock_guarded_nodes(fn_node: ast.AST) -> set[ast.AST]:
    """Every AST node lexically inside a ``with self._lock`` block."""
    guarded: set[ast.AST] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            _is_session_lock(item.context_expr) for item in node.items
        ):
            for stmt in node.body:
                guarded.add(stmt)
                guarded.update(ast.walk(stmt))
    return guarded


def _guarded_mutation(node: ast.AST) -> str | None:
    """The guarded attribute *node* mutates, or ``None``.

    Covers subscript assignment/deletion, augmented assignment,
    rebinding of the attribute itself, and the mutating mapping
    methods (``pop``/``clear``/``update``/``setdefault``/…).
    """
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
            if isinstance(node, ast.AugAssign)
            else node.targets
        )
        for target in targets:
            if isinstance(target, ast.Subscript):
                attr = _is_guarded_self_attr(target.value)
                if attr is not None:
                    return attr
            attr = _is_guarded_self_attr(target)
            if attr is not None:
                return attr
        return None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATING_METHODS:
            return _is_guarded_self_attr(node.func.value)
    return None
