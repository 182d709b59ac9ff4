"""On-demand compilation and caching of the native replay kernel.

``kernel.c`` is a single translation unit with no dependencies beyond
libc, so "the build system" is one ``cc`` invocation.  The shared
object is cached keyed by a CRC of the C source bytes that
:func:`build` compiles (:func:`object_path`): editing the kernel
changes the CRC, which changes the cache file name, which forces a
rebuild — no mtime comparisons, no stale binaries.

Everything degrades gracefully: no compiler on PATH, a failed compile,
or a corrupt cached object all make :func:`load` return ``None`` (after
one :mod:`logging` notice), and the engine falls back from the default
native backend to batched — the two are bit-identical, so only
throughput changes.
"""

from __future__ import annotations

import ctypes
import logging
import os
import shutil
import subprocess
import tempfile
import zlib
from pathlib import Path

_LOG = logging.getLogger("repro.sim.native")

#: ``-ffp-contract=off`` is load-bearing: fused multiply-adds would
#: round differently from Python's separate multiply and add, breaking
#: bit-identity of the SARSA chain.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_lib: ctypes.CDLL | None = None
_lib_failed = False
_logged = False
_last_build_rebuilt = False


def kernel_source_path() -> Path:
    """Path of the committed C source."""
    return Path(__file__).with_name("kernel.c")


def cache_dir() -> Path:
    """Directory holding compiled kernels (override: REPRO_NATIVE_CACHE)."""
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-native-{uid}"


def compiler() -> str | None:
    """The C compiler to use (``$CC`` or ``cc``), or ``None`` if absent.

    Probed fresh on every call — tests mask PATH to exercise the
    no-compiler fallback, and a user installing a compiler mid-session
    should not need a process restart.
    """
    return shutil.which(os.environ.get("CC", "cc"))


def object_path(source_bytes: bytes, directory: Path | None = None) -> Path:
    """Cache path of the kernel compiled from *source_bytes*.

    The name embeds the source CRC, so a cached file of that name *is*
    the up-to-date build.
    """
    crc = zlib.crc32(source_bytes) & 0xFFFFFFFF
    out_dir = Path(directory) if directory is not None else cache_dir()
    return out_dir / f"kernel-{crc:08x}.so"


def was_rebuilt() -> bool:
    """Whether the most recent :func:`build` call actually compiled."""
    return _last_build_rebuilt


def build(source: Path | None = None, directory: Path | None = None) -> Path | None:
    """Ensure a compiled kernel exists; return its path or ``None``.

    The output name embeds the source CRC, so a cache hit *is* the
    up-to-date check.  Compilation goes through a temp file and an
    atomic rename — concurrent builders race benignly.
    """
    global _last_build_rebuilt
    # Safe: process-local status flag for tooling output — a racing
    # writer can only flip what "the most recent build" refers to.
    _last_build_rebuilt = False  # repro: ignore[concurrency]
    src = Path(source) if source is not None else kernel_source_path()
    try:
        text = src.read_bytes()
    except OSError:
        return None
    so = object_path(text, directory)
    if so.exists():
        return so
    cc = compiler()
    if cc is None:
        return None
    try:
        so.parent.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    tmp = so.with_name(f".{so.name}.{os.getpid()}.tmp")
    cmd = [cc, *CFLAGS, "-o", str(tmp), str(src)]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=300)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        _LOG.warning(
            "native kernel compile failed (%s): %s",
            cc,
            proc.stderr.decode(errors="replace").strip()[:500],
        )
        try:
            tmp.unlink()
        except OSError:
            pass
        return None
    try:
        os.replace(tmp, so)
    except OSError:
        return None
    _last_build_rebuilt = True  # repro: ignore[concurrency]
    return so


def _bind(so: Path) -> ctypes.CDLL | None:
    """dlopen the shared object and type its entry points."""
    try:
        lib = ctypes.CDLL(str(so))
        lib.repro_abi_sizeof.restype = ctypes.c_int64
        lib.repro_abi_sizeof.argtypes = [ctypes.c_int64]
        lib.repro_replay_span.restype = ctypes.c_int64
        lib.repro_replay_span.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
        lib.repro_replay_lockstep.restype = ctypes.c_int64
        lib.repro_replay_lockstep.argtypes = [ctypes.c_void_p]
    except (OSError, AttributeError):
        return None
    return lib


def log_fallback_once(reason: str) -> None:
    """Log the batched-backend fallback notice (once per process)."""
    global _logged
    if not _logged:
        # Safe: process-local once-latch — a race means the notice is
        # logged twice instead of once.
        _logged = True  # repro: ignore[concurrency]
        _LOG.info(
            "native replay kernel unavailable (%s); using the batched "
            "backend (bit-identical, slower)",
            reason,
        )


def load() -> ctypes.CDLL | None:
    """Build (if needed) and load the kernel; ``None`` on any failure.

    The outcome is latched either way: one process builds and binds at
    most once.  A cached object that fails to ``dlopen`` (truncated or
    corrupted cache) is deleted and rebuilt once before giving up.
    """
    global _lib, _lib_failed
    if _lib is not None:
        return _lib
    if _lib_failed:
        return None
    so = build()
    if so is None:
        reason = "no C compiler" if compiler() is None else "build failed"
        # Safe: process-local latch — racing writers all record the
        # same deterministic build outcome.
        _lib_failed = True  # repro: ignore[concurrency]
        log_fallback_once(reason)
        return None
    lib = _bind(so)
    if lib is None:
        try:
            so.unlink()
        except OSError:
            pass
        so = build()
        lib = _bind(so) if so is not None else None
    if lib is None:
        _lib_failed = True  # repro: ignore[concurrency]
        log_fallback_once("cached object unloadable")
        return None
    _lib = lib  # repro: ignore[concurrency]
    return lib


def reset() -> None:
    """Forget the latched build/load outcome (test hook)."""
    global _lib, _lib_failed, _logged, _last_build_rebuilt
    _lib = None
    _lib_failed = False
    _logged = False
    _last_build_rebuilt = False
