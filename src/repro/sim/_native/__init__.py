"""Native compiled replay backend (``replay_backend="native"``).

One C translation unit (:mod:`kernel.c <repro.sim._native.build>`)
replays decoded trace columns end to end — caches, MSHR, DRAM, core,
and the Pythia SARSA chain — in the exact operation order of
:func:`repro.sim.batch.replay_span` (:func:`replay_span`, single-core)
and of ``MultiCoreEngine.run``'s lockstep loop (:func:`replay_lockstep`,
mixes), so results are bit-identical to the Python loops.  The package
is self-contained: :mod:`~repro.sim._native.build` compiles and caches
the shared object on demand, :mod:`~repro.sim._native.bridge` owns the
``ctypes`` state round trip (the only place in the tree allowed to
import ``ctypes``), and everything degrades to the Python loops when a
compiler, the build, or the configuration is unsupported.
"""

from repro.sim._native.bridge import (
    MIN_NATIVE_SPAN,
    get_lib,
    replay_lockstep,
    replay_span,
    supports,
    usable,
)


def available() -> bool:
    """True when the compiled kernel is built, loaded, and ABI-matched."""
    return get_lib() is not None


def reset() -> None:
    """Forget all latched build/load state (test hook)."""
    from repro.sim._native import bridge, build

    bridge.reset()
    build.reset()


__all__ = [
    "MIN_NATIVE_SPAN",
    "available",
    "get_lib",
    "replay_lockstep",
    "replay_span",
    "reset",
    "supports",
    "usable",
]
