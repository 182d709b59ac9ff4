#!/usr/bin/env python
"""Run the native-kernel suites against a sanitized build of ``kernel.c``.

Compiles ``src/repro/sim/_native/kernel.c`` with AddressSanitizer and
UndefinedBehaviorSanitizer into a scratch ``REPRO_NATIVE_CACHE``, under
the file name :func:`repro.sim._native.build.build` looks up there, so the
suites load the sanitized object instead of compiling the production one.
It then runs the single-core, lockstep and hook native suites (the
last drives the Python callback sites, candidate-buffer growth and the
hook abort path) with the compiler's ``libasan`` and ``libubsan``
preloaded (the interpreter itself
is not instrumented) and leak detection off (CPython keeps allocations
alive until exit)::

    python scripts/sanitize.py      # or: make sanitize

``-fno-sanitize-recover=all`` makes every finding abort the test process.
Exits with pytest's status; 1 when the sanitized compile fails; 2 when no
C compiler or no sanitizer runtime is available.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

SANITIZE_FLAGS = (
    "-O1",
    "-g",
    "-fPIC",
    "-shared",
    "-ffp-contract=off",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
)
SUITES = (
    "tests/test_native_bridge.py",
    "tests/test_hotpath_equivalence.py::TestNativeBackendEquivalence",
    "tests/test_hotpath_equivalence.py::TestNativeLockstepEquivalence",
    "tests/test_hotpath_equivalence.py::TestNativeHookEquivalence",
)


def runtime(cc: str, name: str) -> str | None:
    """Absolute path of the compiler's *name* runtime library, if any."""
    proc = subprocess.run(
        [cc, f"-print-file-name={name}"], capture_output=True, text=True
    )
    path = proc.stdout.strip()
    return path if os.path.isabs(path) and os.path.isfile(path) else None


def main() -> int:
    from repro.sim._native import build

    cc = build.compiler()
    if cc is None:
        print("sanitize: no C compiler on PATH", file=sys.stderr)
        return 2
    preload = [runtime(cc, "libasan.so"), runtime(cc, "libubsan.so")]
    if None in preload:
        print(f"sanitize: {cc} ships no libasan/libubsan runtime", file=sys.stderr)
        return 2
    source = build.kernel_source_path()
    with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as cache:
        so = build.object_path(source.read_bytes(), Path(cache))
        compiled = subprocess.run([cc, *SANITIZE_FLAGS, "-o", str(so), str(source)])
        if compiled.returncode != 0:
            print("sanitize: sanitized compile failed", file=sys.stderr)
            return 1
        env = dict(
            os.environ,
            REPRO_NATIVE_CACHE=cache,
            LD_PRELOAD=" ".join(preload),
            ASAN_OPTIONS="detect_leaks=0",
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
            ),
        )
        # --capture=sys leaves file descriptor 2 alone, so a sanitizer
        # report reaches the terminal even though it aborts the process.
        return subprocess.call(
            [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--capture=sys", *SUITES,
            ],
            cwd=REPO,
            env=env,
        )


if __name__ == "__main__":
    raise SystemExit(main())
