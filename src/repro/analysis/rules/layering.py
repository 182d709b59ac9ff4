"""Layering rule: the package dependency DAG must not invert.

The codebase layers bottom-up — ``types`` < ``prefetchers`` <
``core``/``hwmodel`` < ``sim`` < ``workloads`` < ``registry`` < ``api``
< ``tuning``/``harness`` — and the platform's refactorability depends
on those arrows never reversing: ``sim`` importing ``api`` would weld
the replay core to the caching facade, ``prefetchers`` importing
``harness`` would make every worker process drag the figure layer in.

Only *module-level* imports are checked: a function-scoped import is
the sanctioned escape hatch for runtime-only upward references (the
``Cell.execute`` → registry hop), because it neither creates an import
cycle nor taxes workers that never call it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import AstRule, FileContext, register

#: Rank of each layer, keyed by the dotted name relative to ``repro``
#: (empty string = the package root / top-level modules).  A module may
#: import layers of equal or lower rank at module level.
LAYER_RANKS: dict[str, int] = {
    "": 0,
    "types": 0,
    "prefetchers": 1,
    "core": 2,
    "hwmodel": 3,
    "sim": 3,
    "workloads": 4,
    "registry": 5,
    "api": 6,
    "tuning": 7,
    "harness": 7,
    "analysis": 8,
}

def _layer_of(module: str) -> str | None:
    """Layer key for a dotted ``repro...`` module name.

    ``None`` for anything outside ``repro`` *and* for repro submodules
    not yet in :data:`LAYER_RANKS` — a new subpackage does not gate
    until someone places it in the DAG (the rule's docstring is the
    prompt to do so).
    """
    if module != "repro" and not module.startswith("repro."):
        return None
    tail = module[len("repro.") :] if module != "repro" else ""
    head = tail.split(".")[0]
    return head if head in LAYER_RANKS else None


@register
class LayeringRule(AstRule):
    name = "layering"
    description = "enforce the core→sim→api→harness dependency DAG"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module is None:
            return
        own_layer = _layer_of(ctx.module)
        if own_layer is None:
            return
        own_rank = LAYER_RANKS[own_layer]
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module] if node.module else []
            else:
                continue
            for target in targets:
                yield from self._check_target(ctx, node, target, own_rank)

    def _check_target(
        self, ctx: FileContext, node: ast.AST, target: str, own_rank: int
    ) -> Iterator[Finding]:
        target_layer = _layer_of(target)
        if target_layer is None:
            return
        # Rank is only enforced for module-level imports: the col_offset
        # check keeps function-scoped escape hatches legal.
        if getattr(node, "col_offset", 0) != 0:
            return
        target_rank = LAYER_RANKS[target_layer]
        if target_rank > own_rank:
            own_layer_name = _layer_of(ctx.module) or "<root>"
            yield self.finding(
                ctx,
                node,
                f"layer inversion: {own_layer_name!r} (rank {own_rank}) "
                f"imports {target!r} (layer {target_layer!r}, rank "
                f"{target_rank}) at module level; move the import into "
                "the function that needs it or restructure",
            )
