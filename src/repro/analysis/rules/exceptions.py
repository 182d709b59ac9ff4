"""Exception-safety rule: no silent broad ``except`` in ``api``/``sim``.

Cancellation and resume correctness both flow through exceptions:
``SimulationCancelled`` unwinds a replay at a window boundary so the
engine can checkpoint and re-raise, and ``KeyboardInterrupt`` is the
operator's only lever on a stuck sweep.  A broad ``except`` anywhere on
those paths — ``except Exception``, ``except BaseException``, or a bare
``except`` — can swallow either one, leaving a worker running a
cancelled cell or a checkpoint recorded as clean when the replay died
mid-window.  Explicitly catching the sensitive types is the same hazard
spelled out.

A broad/sensitive handler is compliant when it provably does not
*swallow*: it re-raises (any ``raise`` in the handler body, including
``raise Wrapped(...) from exc``), or it binds the exception
(``except Exception as exc``) and actually uses the bound name —
recording it in a result, a log, or a telemetry field.  Catching
narrowly (``except (ValueError, KeyError)``) never fires the rule.

Scope: ``repro.api`` and ``repro.sim`` — the layers cancellation and
checkpointing traverse.  Analysis/tooling code may catch broadly to
report errors as findings.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import AstRule, FileContext, register

#: Catch-alls: handlers for these types see every exception in flight.
BROAD_TYPES = frozenset({"Exception", "BaseException"})

#: Types that must never be silently consumed, even when named.
SENSITIVE_TYPES = frozenset({"SimulationCancelled", "KeyboardInterrupt"})

RESTRICTED_PACKAGES = ("api", "sim")


def _caught_names(handler: ast.ExceptHandler) -> set[str]:
    """Tail names of the exception types a handler catches; empty set
    for a bare ``except:``."""
    node = handler.type
    if node is None:
        return set()
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    names: set[str] = set()
    for elt in elts:
        if isinstance(elt, ast.Name):
            names.add(elt.id)
        elif isinstance(elt, ast.Attribute):
            names.add(elt.attr)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body contains a ``raise`` in its own scope."""
    stack: list[ast.AST] = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise):
            return True
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _records(handler: ast.ExceptHandler) -> bool:
    """Whether the handler binds the exception and uses the binding."""
    if handler.name is None:
        return False
    for node in ast.walk(handler):
        if (
            isinstance(node, ast.Name)
            and node.id == handler.name
            and isinstance(node.ctx, ast.Load)
        ):
            return True
    return False


@register
class ExceptionsRule(AstRule):
    name = "exceptions"
    description = (
        "broad except handlers in api/sim must re-raise or record — "
        "never silently swallow SimulationCancelled/KeyboardInterrupt"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*RESTRICTED_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                caught = _caught_names(handler)
                bare = handler.type is None
                broad = bare or (caught & BROAD_TYPES)
                sensitive = caught & SENSITIVE_TYPES
                if not broad and not sensitive:
                    continue
                if _reraises(handler) or _records(handler):
                    continue
                label = (
                    "bare except"
                    if bare
                    else f"except {', '.join(sorted(caught))}"
                )
                swallows = (
                    ", ".join(sorted(sensitive))
                    if sensitive
                    else "SimulationCancelled/KeyboardInterrupt"
                )
                yield self.finding(
                    ctx,
                    handler,
                    f"{label} can swallow {swallows} without re-raising "
                    "or recording the exception; catch narrowly, "
                    "re-raise, or record the bound exception",
                )
