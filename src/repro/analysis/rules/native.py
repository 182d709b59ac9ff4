"""Native-kernel rule: ``ctypes`` containment.

The compiled replay backend is deliberately quarantined: every
``ctypes`` touch point — the ABI struct, the pointer plumbing, the
``dlopen`` — lives inside ``repro.sim._native`` so the rest of the tree
stays pure Python.  A ``ctypes`` import anywhere else is either a
quarantine leak or a second FFI surface growing without review; both
fire here.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import AstRule, FileContext, register

#: The only package allowed to import ``ctypes``.
NATIVE_PACKAGE = "repro.sim._native"


def _in_native_package(module: str | None) -> bool:
    if module is None:
        return False
    return module == NATIVE_PACKAGE or module.startswith(NATIVE_PACKAGE + ".")


@register
class NativeRule(AstRule):
    name = "native"
    description = "confine ctypes to repro.sim._native"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if _in_native_package(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] if node.module else []
            else:
                continue
            for name in names:
                if name == "ctypes" or name.startswith("ctypes."):
                    yield self.finding(
                        ctx,
                        node,
                        "ctypes import outside repro.sim._native; the FFI "
                        "surface is confined to the native package — go "
                        "through repro.sim._native's public helpers",
                    )
