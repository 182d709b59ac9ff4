"""Hot-path purity rule: inner loops must not allocate or re-resolve.

ISSUE 7's batched replay backend earns its throughput from a specific
loop discipline: everything the per-record loop touches is hoisted to a
local before the loop, no objects/dicts/lists/closures are constructed
per iteration, and no ``try`` frame is entered per record.  Nothing
functional breaks when that discipline erodes — the differential
harness stays green and only the throughput bench (eventually) notices.
This rule pins the discipline statically for a registry of known hot
functions.

Inside each registered function's loop bodies (any nesting), a finding
fires for:

* ``try`` statements — frame setup/teardown per iteration;
* lambdas, nested ``def``s, and comprehensions/generator expressions —
  closure or frame allocation per iteration;
* dict/list/set display literals — container allocation per iteration;
* calls that resolve (through the project symbol table and import
  aliases) to a project *class* or to a container-constructing builtin
  (``list``, ``dict``, ``set``, …) — object allocation per iteration;
* loads of module-level names that some function somewhere *writes*
  (mutable globals) — a dict lookup per iteration that a hoisted local
  would make free, plus a read of racing state.

Deliberately exempt: tuple displays (keys on hoisted dicts), calls
through hoisted local aliases, loads of single-assignment module
constants (``EPOCH``), and loads of functions/classes — the loop may
still *call* hoisted helpers, and import aliases are resolved, not
flagged, unless they construct objects.

Unavoidable allocations (the MSHR entry an actual miss must create)
carry ``# repro: ignore[hotpath]`` at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.findings import Finding
from repro.analysis.project import (
    _FUNCTION_NODES,
    FunctionInfo,
    ProjectContext,
)
from repro.analysis.rules import ProjectRule, register

#: The hot-function registry: the ISSUE 7 kernels and every per-access
#: callee they lean on.  Extend this tuple when a new function joins
#: the measured replay path.
HOT_FUNCTIONS: tuple[str, ...] = (
    "repro.sim.batch.replay_span",
    "repro.core.qvstore.QVStore.sarsa_update",
    "repro.core.qvstore.NumpyQVStore.sarsa_update",
    "repro.sim.dram.Dram.access",
    "repro.sim.hierarchy.CacheHierarchy.process_fills",
    "repro.sim.engine.MultiCoreEngine.run",
    "repro.sim.replacement.LruPolicy.victim",
    "repro.sim.replacement.LruPolicy.on_fill",
    "repro.sim.replacement.LruPolicy.on_hit",
    "repro.sim.replacement.ShipPolicy.victim",
    "repro.sim.replacement.ShipPolicy.on_fill",
    "repro.sim.replacement.ShipPolicy.on_hit",
    "repro.sim.replacement.ShipPolicy.on_evict",
)

#: Builtins whose call constructs a fresh container.
CONTAINER_BUILTINS = frozenset(
    {
        "list",
        "dict",
        "set",
        "frozenset",
        "bytearray",
        "deque",
        "defaultdict",
        "OrderedDict",
        "Counter",
    }
)

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_DISPLAY_NODES = (ast.Dict, ast.List, ast.Set)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _loop_bodies(fn_node: ast.AST) -> Iterator[Sequence[ast.stmt]]:
    """Every loop body in *fn*'s own scope (nested defs excluded)."""
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (*_FUNCTION_NODES, ast.Lambda)):
            continue
        if isinstance(node, _LOOP_NODES):
            yield node.body
        stack.extend(ast.iter_child_nodes(node))


def _walk_body(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk loop-body statements without entering nested scopes (the
    nested def/lambda node itself is yielded, its body is not)."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (*_FUNCTION_NODES, ast.Lambda, *_COMPREHENSIONS)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@register
class HotpathRule(ProjectRule):
    name = "hotpath"
    description = (
        "registered hot functions must not allocate objects/containers/"
        "closures, resolve mutable globals, or enter try frames inside "
        "loop bodies"
    )

    def __init__(self, hot: tuple[str, ...] | None = None) -> None:
        self._hot = HOT_FUNCTIONS if hot is None else hot

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        mutable = project.mutable_globals()
        for qualname in self._hot:
            fn = project.functions.get(qualname)
            if fn is None:
                continue
            yield from self._check_function(project, fn, mutable)

    def _check_function(
        self,
        project: ProjectContext,
        fn: FunctionInfo,
        mutable: set[tuple[str, str]],
    ) -> Iterator[Finding]:
        minfo = project.modules[fn.module]
        reported: set[tuple[int, str]] = set()

        def emit(node: ast.AST, label: str, message: str) -> Finding | None:
            key = (getattr(node, "lineno", fn.line), label)
            if key in reported:
                return None
            reported.add(key)
            return self.finding(
                fn.path,
                key[0],
                f"hot function {fn.qualname!r}: {message} inside a loop "
                "body; hoist it above the loop or pragma the line with "
                "a why-it-cannot-hoist note",
            )

        for body in _loop_bodies(fn.node):
            for node in _walk_body(body):
                found: Finding | None = None
                if isinstance(node, ast.Try):
                    found = emit(
                        node, "try", "enters a try frame per iteration"
                    )
                elif isinstance(node, (ast.Lambda, *_FUNCTION_NODES)):
                    found = emit(
                        node, "closure", "constructs a closure per iteration"
                    )
                elif isinstance(node, _COMPREHENSIONS):
                    found = emit(
                        node,
                        "comprehension",
                        "builds a comprehension/generator per iteration",
                    )
                elif isinstance(node, _DISPLAY_NODES):
                    kind = type(node).__name__.lower()
                    found = emit(
                        node,
                        "display",
                        f"allocates a {kind} literal per iteration",
                    )
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name
                ):
                    found = self._check_name_call(
                        project, fn, node, emit
                    )
                elif (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id not in fn.bound
                    and (minfo.module, node.id) in mutable
                ):
                    found = emit(
                        node,
                        f"global:{node.id}",
                        f"resolves mutable module global {node.id!r} "
                        "per iteration",
                    )
                if found is not None:
                    yield found

    def _check_name_call(self, project, fn, call, emit):
        name = call.func.id
        if name in fn.bound:
            return None
        target = project.resolve_name(fn, name)
        if target is None:
            # Unknown/builtin: flag only the container constructors.
            if name in CONTAINER_BUILTINS:
                return emit(
                    call,
                    f"alloc:{name}",
                    f"constructs a {name}() per iteration",
                )
            return None
        # Resolved to a project symbol: constructing a class instance
        # per iteration is the regression; calling a function is fine.
        owner, _, attr = target.rpartition(".")
        owner_info = project.modules.get(owner)
        if owner_info is not None and attr in owner_info.classes:
            return emit(
                call,
                f"alloc:{name}",
                f"constructs {target} per iteration",
            )
        if name in CONTAINER_BUILTINS:
            return emit(
                call, f"alloc:{name}", f"constructs a {name}() per iteration"
            )
        return None
