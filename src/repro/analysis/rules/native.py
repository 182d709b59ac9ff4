"""Native-kernel rule: ``ctypes`` containment and CRC pinning.

The compiled replay backend is deliberately quarantined: every
``ctypes`` touch point — the ABI struct, the pointer plumbing, the
``dlopen`` — lives inside ``repro.sim._native`` so the rest of the tree
stays pure Python.  A ``ctypes`` import anywhere else is either a
quarantine leak or a second FFI surface growing without review; both
fire here.

The second check guards the build cache's correctness contract:
``repro.sim._native.build.KERNEL_SOURCE_CRC`` pins the CRC-32 of the
committed ``kernel.c``.  The cache keys shared objects by that CRC, and
the equivalence tests trust the constant to describe the source they
exercised — so a kernel edit that forgets to refresh the constant must
fail CI, not ship a stale binding.  The rule recomputes the CRC from
the sibling ``kernel.c`` and fails on drift (skipping silently when no
sibling source exists, which keeps lint fixtures self-contained).
"""

from __future__ import annotations

import ast
import zlib
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import AstRule, FileContext, register

#: The only package allowed to import ``ctypes``.
NATIVE_PACKAGE = "repro.sim._native"

#: Module that must pin the kernel-source CRC.
BUILD_MODULE = "repro.sim._native.build"

#: Name of the pinned constant inside :data:`BUILD_MODULE`.
CRC_CONSTANT = "KERNEL_SOURCE_CRC"


def _kernel_source(path) -> Path:
    """The ``kernel.c`` beside the build module at *path*."""
    return Path(path).with_name("kernel.c")


def _in_native_package(module: str | None) -> bool:
    if module is None:
        return False
    return module == NATIVE_PACKAGE or module.startswith(NATIVE_PACKAGE + ".")


@register
class NativeRule(AstRule):
    name = "native"
    description = (
        "confine ctypes to repro.sim._native and pin KERNEL_SOURCE_CRC "
        "to the committed kernel.c"
    )
    version = 1

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_ctypes_containment(ctx)
        if ctx.module == BUILD_MODULE:
            yield from self._check_crc_pin(ctx)

    def reads(self, path: Path, module: str | None) -> list[Path]:
        return [_kernel_source(path)] if module == BUILD_MODULE else []

    def _check_ctypes_containment(self, ctx: FileContext) -> Iterator[Finding]:
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

    def _check_crc_pin(self, ctx: FileContext) -> Iterator[Finding]:
        pinned: tuple[ast.AST, int] | None = None
        for node in ctx.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == CRC_CONSTANT:
                    if isinstance(node.value, ast.Constant) and isinstance(
                        node.value.value, int
                    ):
                        pinned = (node, node.value.value)
                    else:
                        yield self.finding(
                            ctx,
                            node,
                            f"{CRC_CONSTANT} must be a literal integer so "
                            "the lint pass can verify it against kernel.c",
                        )
                        return
        kernel = _kernel_source(ctx.path)
        if pinned is None:
            yield self.finding(
                ctx,
                ctx.tree,
                f"{BUILD_MODULE} must pin {CRC_CONSTANT} (CRC-32 of the "
                "committed kernel.c)",
            )
            return
        try:
            actual = zlib.crc32(kernel.read_bytes()) & 0xFFFFFFFF
        except OSError:
            # No sibling source (lint fixtures, partial checkouts):
            # nothing to verify against.
            return
        node, value = pinned
        if value != actual:
            yield self.finding(
                ctx,
                node,
                f"{CRC_CONSTANT} is 0x{value:08X} but kernel.c hashes to "
                f"0x{actual:08X}; the kernel changed without refreshing "
                "the pinned CRC (stale-binding guard)",
            )
