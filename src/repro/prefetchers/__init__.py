"""Baseline prefetchers the paper compares Pythia against.

Every prefetcher implements :class:`repro.prefetchers.base.Prefetcher`:
it is trained on L1 demand misses and proposes cacheline numbers to
prefetch into L2/LLC.  See :mod:`repro.registry` for the name → factory
map used by the experiment harness.
"""

from repro.prefetchers.base import DemandContext, NoPrefetcher, Prefetcher
from repro.prefetchers.bingo import BingoPrefetcher
from repro.prefetchers.composite import CompositePrefetcher
from repro.prefetchers.cp_hw import CpHwPrefetcher
from repro.prefetchers.dspatch import DspatchPrefetcher
from repro.prefetchers.ipcp import IpcpPrefetcher
from repro.prefetchers.mlop import MlopPrefetcher
from repro.prefetchers.power7 import Power7Prefetcher
from repro.prefetchers.ppf import SppPpfPrefetcher
from repro.prefetchers.spp import SppPrefetcher
from repro.prefetchers.streamer import StreamerPrefetcher
from repro.prefetchers.stride import StridePrefetcher


__all__ = [
    "DemandContext",
    "NoPrefetcher",
    "Prefetcher",
    "BingoPrefetcher",
    "CompositePrefetcher",
    "CpHwPrefetcher",
    "DspatchPrefetcher",
    "IpcpPrefetcher",
    "MlopPrefetcher",
    "Power7Prefetcher",
    "SppPpfPrefetcher",
    "SppPrefetcher",
    "StreamerPrefetcher",
    "StridePrefetcher",
]
