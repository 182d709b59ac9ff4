#!/usr/bin/env python
"""Compile (or reuse) the native replay kernel's shared object.

The engine builds the kernel on demand, so this script is never
*required* — it exists so CI and curious users can force the build
outside a simulation run and see exactly where the object landed::

    python scripts/build_native.py            # build into the shared cache
    python scripts/build_native.py --force    # recompile even on a cache hit
    REPRO_NATIVE_CACHE=/tmp/x python scripts/build_native.py

Exits 0 on success (printing the `.so` path and whether it was
rebuilt), 1 when no C compiler is on PATH or the compile fails — the
engine would fall back to the batched backend in that case.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force", action="store_true", help="recompile even if the cached .so is current"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="output directory (default: the shared cache)"
    )
    args = parser.parse_args(argv)

    from repro.sim._native import build

    directory = Path(args.cache_dir) if args.cache_dir else build.cache_dir()
    if args.force:
        source = build.kernel_source_path().read_bytes()
        build.object_path(source, directory).unlink(missing_ok=True)

    so = build.build(directory=directory)
    if so is None:
        cc = build.compiler()
        if cc is None:
            print("error: no C compiler on PATH (set $CC or install cc)", file=sys.stderr)
        else:
            print(f"error: compile failed with {cc} (see log output)", file=sys.stderr)
        return 1
    state = "rebuilt" if build.was_rebuilt() else "cached"
    print(f"{so} ({state})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
