"""Native compiled replay backend (``replay_backend="native"``).

The default backend.  One C translation unit (:mod:`kernel.c
<repro.sim._native.build>`) replays decoded trace columns end to end —
caches, MSHR, DRAM, core, and the Pythia SARSA chain — in the exact
operation order of :func:`repro.sim.batch.replay_span`
(:func:`replay_span`, single-core) and of ``MultiCoreEngine.run``'s
lockstep loop (:func:`replay_lockstep`, mixes), so results are
bit-identical to the Python loops.  Prefetchers without a C model train
through Python callbacks the kernel calls (the hook ABI, see
:mod:`~repro.sim._native.bridge`), so every prefetcher replays here; a
callback's exception fails the cell with the original exception, and
any other kernel failure raises :class:`NativeReplayError`.  The
package is self-contained: :mod:`~repro.sim._native.build` compiles and
caches the shared object on first use (only when a cell simulates),
:mod:`~repro.sim._native.bridge` owns the ``ctypes`` state round trip
(the only place in the tree allowed to import ``ctypes``) — the caches
lend the kernel their own slot buffers, the rest is copied — and
everything degrades to the batched loop when no compiler or build is
available.
"""

from repro.sim._native.bridge import (
    NativeReplayError,
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
    "NativeReplayError",
    "available",
    "get_lib",
    "replay_lockstep",
    "replay_span",
    "reset",
    "supports",
    "usable",
]
