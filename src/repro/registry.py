"""Unified string-addressable registries: prefetchers, workloads, systems.

This module is the single name → object map for the whole system.  Every
layer that previously kept its own registry (a prefetcher table in
``repro.prefetchers``, ``repro.workloads.generators``/``repro.workloads.cvp``
for traces, ad-hoc helpers in ``repro.sim.config`` for systems) is
addressable from here, so the declarative :class:`repro.api.Experiment`
layer can be built entirely from strings:

* :func:`create` — instantiate a fresh prefetcher by name, forwarding
  keyword overrides to the factory (``create("pythia", alpha=0.08)``).
* :func:`make_trace` / :func:`suite_of` — instantiate any named trace,
  including the unseen ``cvp/`` namespace.
* :func:`system` — resolve a named system config, with ``@key=value``
  modifiers for the paper's sweep axes (``"1c@mtps=600"``).

Prefetcher names follow the paper's labels: the five competitors of
Table 7, the auxiliary comparison points of the appendices, Pythia's
three configurations, and the cumulative combinations of Fig 9(b)/10(b)
(``st``, ``st+s``, ``st+s+b``, ``st+s+b+d``, ``st+s+b+d+m``).  Factories
construct *fresh* instances — prefetcher state is per-core hardware and
must never leak between runs or cores.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.prefetchers.base import Prefetcher
    from repro.sim.config import SystemConfig
    from repro.sim.trace import Trace

# --------------------------------------------------------------------------
# Prefetchers
# --------------------------------------------------------------------------

#: User-registered prefetcher factories layered over the built-ins.
_EXTRA_PREFETCHERS: dict[str, Callable[..., "Prefetcher"]] = {}


def _combo(*names: str) -> Callable[..., "Prefetcher"]:
    def factory(**overrides: object) -> "Prefetcher":
        if overrides:
            raise TypeError(
                f"composite prefetcher {'+'.join(names)} takes no overrides; "
                "override the component prefetchers instead"
            )
        from repro.prefetchers.composite import CompositePrefetcher

        return CompositePrefetcher([create(n) for n in names])

    return factory


def _pythia(preset: str) -> Callable[..., "Prefetcher"]:
    def factory(**overrides: object) -> "Prefetcher":
        import dataclasses

        from repro.core import Pythia, PythiaConfig

        config = overrides.pop("config", None)
        if config is None:
            config = PythiaConfig.named(preset)
        if overrides:
            config = dataclasses.replace(config, **overrides)
        return Pythia(config)

    return factory


def _builtin_prefetchers() -> dict[str, Callable[..., "Prefetcher"]]:
    from repro.prefetchers.base import NoPrefetcher
    from repro.prefetchers.bingo import BingoPrefetcher
    from repro.prefetchers.cp_hw import CpHwPrefetcher
    from repro.prefetchers.dspatch import DspatchPrefetcher
    from repro.prefetchers.ipcp import IpcpPrefetcher
    from repro.prefetchers.mlop import MlopPrefetcher
    from repro.prefetchers.power7 import Power7Prefetcher
    from repro.prefetchers.ppf import SppPpfPrefetcher
    from repro.prefetchers.spp import SppPrefetcher
    from repro.prefetchers.streamer import StreamerPrefetcher
    from repro.prefetchers.stride import StridePrefetcher

    return {
        "none": NoPrefetcher,
        "stride": StridePrefetcher,
        "streamer": StreamerPrefetcher,
        "spp": SppPrefetcher,
        "spp_ppf": SppPpfPrefetcher,
        "dspatch": DspatchPrefetcher,
        "bingo": BingoPrefetcher,
        "mlop": MlopPrefetcher,
        "ipcp": IpcpPrefetcher,
        "cp_hw": CpHwPrefetcher,
        "power7": Power7Prefetcher,
        "pythia": _pythia("basic"),
        "pythia_strict": _pythia("strict"),
        "pythia_bw_oblivious": _pythia("bw_oblivious"),
        # Fig 9b / 10b cumulative combinations.
        "st": StridePrefetcher,
        "st+s": _combo("stride", "spp"),
        "st+s+b": _combo("stride", "spp", "bingo"),
        "st+s+b+d": _combo("stride", "spp", "bingo", "dspatch"),
        "st+s+b+d+m": _combo("stride", "spp", "bingo", "dspatch", "mlop"),
        # Fig 8d multi-level comparators (L2 part; L1 stride is added by
        # the harness via the l1_prefetcher hook).
        "stride+streamer": _combo("stride", "streamer"),
    }


def _prefetcher_registry() -> dict[str, Callable[..., "Prefetcher"]]:
    registry = _builtin_prefetchers()
    registry.update(_EXTRA_PREFETCHERS)
    return registry


def register_prefetcher(name: str, factory: Callable[..., "Prefetcher"]) -> None:
    """Register (or shadow) a prefetcher *factory* under *name*.

    The factory must accept keyword overrides (or none) and return a
    fresh :class:`~repro.prefetchers.base.Prefetcher` per call.  To be
    usable with spawn-based process pools the factory must be picklable
    (a top-level function or class, not a lambda/closure).
    """
    _EXTRA_PREFETCHERS[name] = factory


def available_prefetchers() -> list[str]:
    """All registered prefetcher names."""
    return sorted(_prefetcher_registry())


def create(name: str, **overrides: object) -> "Prefetcher":
    """Instantiate a fresh prefetcher by registry *name*.

    Keyword *overrides* are forwarded to the factory: constructor
    arguments for plain prefetchers, :class:`~repro.core.PythiaConfig`
    field overrides for the ``pythia*`` entries (plus ``config=`` to
    supply a complete config object).
    """
    registry = _prefetcher_registry()
    if name not in registry:
        raise KeyError(f"unknown prefetcher {name!r}; known: {sorted(registry)}")
    return registry[name](**overrides)


#: Memo for resolved prefetcher descriptions, keyed by a canonical JSON
#: rendering of (name, overrides) — override *values* may be unhashable
#: (lists, dicts), so ``lru_cache`` over the raw values cannot be used.
_RESOLVED_CONFIG_CACHE: dict[str, object] = {}


def _resolved_prefetcher_config(name: str, overrides: dict) -> object:
    import dataclasses
    import inspect

    from repro.api.fingerprint import canonical

    prefetcher = create(name, **overrides)
    description: dict[str, object] = {"class": type(prefetcher).__name__}
    config = getattr(prefetcher, "config", None)
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        # Config-object prefetchers (Pythia): the complete resolved
        # config — preset defaults, named-preset deltas, overrides.
        description["config"] = canonical(config)
    else:
        # Plain prefetchers: constructor defaults merged with overrides,
        # so retuning a default parameter changes the description.
        try:
            params = {
                p.name: p.default
                for p in inspect.signature(type(prefetcher).__init__).parameters.values()
                if p.default is not inspect.Parameter.empty
            }
        except (TypeError, ValueError):  # pragma: no cover - builtins
            params = {}
        params.update(overrides)
        description["params"] = canonical(params)
        members = getattr(prefetcher, "members", None)
        if members is not None:  # composites: resolve each member
            description["members"] = [
                resolved_prefetcher_config(m.name) for m in members
            ]
    return description


def resolved_prefetcher_config(name: str, **overrides: object) -> object:
    """Canonical description of the *resolved* prefetcher configuration.

    Used by result-store fingerprints so cache entries self-invalidate
    when a preset or constructor default is retuned, instead of relying
    on a manual ``SCHEMA_VERSION`` bump.  Memoized per (name, overrides)
    — composites recurse into their members.
    """
    import json

    from repro.api.fingerprint import canonical

    key = json.dumps([name, canonical(overrides)], sort_keys=True)
    cached = _RESOLVED_CONFIG_CACHE.get(key)
    if cached is None:
        # Safe: process-local memo cache — worst case under a racing
        # writer is a redundant recompute of a deterministic value.
        if len(_RESOLVED_CONFIG_CACHE) > 256:
            _RESOLVED_CONFIG_CACHE.clear()  # repro: ignore[concurrency]
        cached = _resolved_prefetcher_config(name, overrides)
        _RESOLVED_CONFIG_CACHE[key] = cached  # repro: ignore[concurrency]
    return cached


# --------------------------------------------------------------------------
# Workloads / traces
# --------------------------------------------------------------------------

#: Name prefix of the external-trace namespace (see
#: :mod:`repro.workloads.ingest`): ``file/<alias>`` for registered
#: files, ``file/<path>`` for direct filesystem addressing.
FILE_NAMESPACE = "file/"


@dataclass(frozen=True)
class TraceFileEntry:
    """One registered (or directly-addressed) external trace file."""

    path: str
    suite: str = "FILE"
    fmt: str | None = None
    gap: int | None = None


#: Registered external trace files, keyed by alias (no ``file/`` prefix).
_TRACE_FILES: dict[str, TraceFileEntry] = {}


def register_trace_file(
    alias: str,
    path: "str | object",
    suite: str = "FILE",
    fmt: str | None = None,
    gap: int | None = None,
) -> str:
    """Register an external trace file under ``file/<alias>``.

    Returns the full registry name.  *fmt* (``"text"``/``"binary"``) and
    *gap* override the loader's suffix detection and default non-memory
    gap.  Unregistered files remain addressable as ``file/<path>``
    (suite ``"FILE"``, suffix-detected format).
    """
    if "/" in alias:
        raise ValueError(f"trace-file alias {alias!r} must not contain '/'")
    _TRACE_FILES[alias] = TraceFileEntry(
        path=str(path), suite=suite, fmt=fmt, gap=gap
    )
    return f"{FILE_NAMESPACE}{alias}"


def registered_trace_files() -> list[str]:
    """Full registry names of all registered external trace files."""
    return sorted(f"{FILE_NAMESPACE}{alias}" for alias in _TRACE_FILES)


def _file_entry(name: str) -> TraceFileEntry:
    rest = name[len(FILE_NAMESPACE):]
    entry = _TRACE_FILES.get(rest)
    if entry is None:
        return TraceFileEntry(path=rest)
    # An alias must never silently shadow a real file of the same name —
    # "file/data.csv" meaning ./data.csv would load the alias's target
    # instead, producing wrong results with the wrong fingerprint.
    from pathlib import Path

    if Path(rest).exists() and Path(entry.path).resolve() != Path(rest).resolve():
        raise KeyError(
            f"{name!r} is ambiguous: alias {rest!r} is registered to "
            f"{entry.path!r} but a file {rest!r} also exists — address the "
            f"file as 'file/./{rest}' or re-register the alias"
        )
    return entry


#: path → ((mtime_ns, size), CRC32).  Stamps are validated by a cheap
#: ``stat`` instead of re-reading the file: fingerprinting a sweep calls
#: :func:`trace_stamp` once per cell *and* baseline, which would
#: otherwise re-decompress a multi-hundred-MB recording dozens of times
#: per run.  A changed file changes its mtime/size and is re-CRC'd.
_FILE_STAMP_CACHE: dict[str, tuple[tuple[int, int], int]] = {}


def _file_stamp(path: str) -> int:
    import os

    from repro.workloads.ingest import file_stamp

    try:
        stat = os.stat(path)
    except OSError:
        return file_stamp(path)  # raises TraceIngestError with context
    key = (stat.st_mtime_ns, stat.st_size)
    cached = _FILE_STAMP_CACHE.get(path)
    if cached is not None and cached[0] == key:
        return cached[1]
    # Safe: process-local memo cache — a racing writer at worst evicts
    # or recomputes a deterministic stamp, never corrupts one.
    if len(_FILE_STAMP_CACHE) >= 256:
        _FILE_STAMP_CACHE.pop(next(iter(_FILE_STAMP_CACHE)))  # repro: ignore[concurrency]
    stamp = file_stamp(path)
    _FILE_STAMP_CACHE[path] = (key, stamp)  # repro: ignore[concurrency]
    return stamp


def make_trace(name: str, length: int = 20_000) -> "Trace":
    """Instantiate a trace by name, handling the ``cvp/`` (unseen) and
    ``file/`` (externally ingested) namespaces."""
    if name.startswith(FILE_NAMESPACE):
        from repro.workloads.ingest import load_trace_file

        entry = _file_entry(name)
        return load_trace_file(
            entry.path,
            length=length,
            name=name,
            suite=entry.suite,
            fmt=entry.fmt,
            gap=entry.gap,
        )
    if name.startswith("cvp/"):
        from repro.workloads.cvp import generate_cvp_trace

        return generate_cvp_trace(name, length=length)
    from repro.workloads.generators import generate_trace

    return generate_trace(name, length=length)


@functools.lru_cache(maxsize=128)
def _cached_generated_trace(name: str, length: int) -> "Trace":
    return make_trace(name, length)


#: (name, length) → (file stamp at load time, trace).  File traces are
#: validated against the file's current CRC32 on every lookup, so an
#: edited file is reloaded instead of served stale.
_FILE_TRACE_CACHE: dict[tuple[str, int], tuple[int, "Trace"]] = {}


def cached_trace(name: str, length: int = 20_000) -> "Trace":
    """Memoized :func:`make_trace`.

    Traces are immutable and deterministic, so one instance per
    (name, length) serves every cell that replays it — without this, a
    traces × prefetchers sweep would regenerate each trace once per
    prefetcher (plus once for the baseline).  The cache is per-process;
    process-pool workers each warm their own.  ``file/`` traces are
    additionally keyed by the file's current content stamp, so a file
    whose bytes change mid-process is reloaded rather than served stale.
    """
    if name.startswith(FILE_NAMESPACE):
        stamp = _file_stamp(_file_entry(name).path)
        cached = _FILE_TRACE_CACHE.get((name, length))
        if cached is not None and cached[0] == stamp:
            return cached[1]
        # Safe: process-local memo cache of immutable traces — a racing
        # writer at worst reloads the same deterministic trace twice.
        if len(_FILE_TRACE_CACHE) >= 64:
            # Evict the oldest entry only — clearing wholesale would
            # re-parse every live trace of a >64-file sweep per miss.
            _FILE_TRACE_CACHE.pop(next(iter(_FILE_TRACE_CACHE)))  # repro: ignore[concurrency]
        trace = make_trace(name, length)
        _FILE_TRACE_CACHE[(name, length)] = (stamp, trace)  # repro: ignore[concurrency]
        return trace
    return _cached_generated_trace(name, length)


@functools.lru_cache(maxsize=1024)
def _generated_trace_stamp(name: str, length: int) -> int:
    return _cached_generated_trace(name, length).content_stamp


def trace_stamp(name: str, length: int = 20_000) -> int:
    """Content stamp (CRC32) of the named trace at *length*.

    Result-store fingerprints fold this in so entries self-invalidate
    when a workload generator changes the records it emits — the
    (name, length) pair alone cannot see generator code changes.  For
    generated traces this uses the memoized trace, so sweeps pay the
    generation cost once; for ``file/`` traces it is the CRC32 of the
    file's current bytes, validated against the file's mtime/size on
    every call — a rewritten file is re-stamped, an unchanged one costs
    a ``stat`` instead of a full (possibly gunzipped) re-read per cell.
    """
    if name.startswith(FILE_NAMESPACE):
        return _file_stamp(_file_entry(name).path)
    return _generated_trace_stamp(name, length)


def suite_of(trace_name: str) -> str:
    """Suite label of a trace name, without generating the trace."""
    if trace_name.startswith(FILE_NAMESPACE):
        return _file_entry(trace_name).suite
    if trace_name.startswith("cvp/"):
        from repro.workloads.cvp import cvp_suite_of

        return cvp_suite_of(trace_name)
    from repro.workloads.generators import WORKLOADS

    base = trace_name
    if base not in WORKLOADS and "-" in base:
        head, _, tail = base.rpartition("-")
        if tail.isdigit():
            base = head
    if base not in WORKLOADS:
        raise KeyError(f"unknown workload: {trace_name!r}")
    return WORKLOADS[base].suite


def base_workload_name(trace_name: str) -> str:
    """The workload behind a trace name, with any seed suffix stripped.

    ``spec06/lbm-2`` → ``spec06/lbm``; bare workload names and ``file/``
    traces (which have no seed axis) pass through unchanged.
    """
    if trace_name.startswith(FILE_NAMESPACE):
        return trace_name
    suite_of(trace_name)  # raises KeyError for unknown workloads
    head, _, tail = trace_name.rpartition("-")
    if head and tail.isdigit():
        return head
    return trace_name


def reseed_trace_name(trace_name: str, seed: int) -> "str | None":
    """The *seed*-th replicate of a trace, or ``None`` if not reseedable.

    Generated traces replicate by seed suffix (``spec06/lbm-1`` at seed 3
    → ``spec06/lbm-3``); externally-ingested ``file/`` traces are fixed
    recordings with no seed axis and return ``None``.
    """
    if trace_name.startswith(FILE_NAMESPACE):
        return None
    return f"{base_workload_name(trace_name)}-{seed}"


def available_workloads(suite: str | None = None) -> list[str]:
    """Named workloads (optionally filtered by suite), plus cvp/ names."""
    from repro.workloads.cvp import cvp_trace_names
    from repro.workloads.generators import workload_names

    names = workload_names(suite) if suite else workload_names()
    if suite is None:
        names = names + sorted({n.rpartition("-")[0] for n in cvp_trace_names()})
    return names


# --------------------------------------------------------------------------
# Systems
# --------------------------------------------------------------------------

#: User-registered named system-config factories.
_EXTRA_SYSTEMS: dict[str, Callable[[], "SystemConfig"]] = {}

_CORES_PATTERN = re.compile(r"^(\d+)c$")


def register_system(name: str, factory: Callable[[], "SystemConfig"]) -> None:
    """Register a named system configuration factory."""
    _EXTRA_SYSTEMS[name] = factory


def available_systems() -> list[str]:
    """Built-in named systems plus registered customs."""
    return sorted({"default", "baseline", "1c", "2c", "4c", "8c", *_EXTRA_SYSTEMS})


def _base_system(name: str) -> "SystemConfig":
    from repro.sim.config import baseline_multi_core, baseline_single_core

    if name in _EXTRA_SYSTEMS:
        return _EXTRA_SYSTEMS[name]()
    if name in ("default", "baseline", "1c", ""):
        return baseline_single_core()
    match = _CORES_PATTERN.match(name)
    if match:
        return baseline_multi_core(int(match.group(1)))
    raise KeyError(
        f"unknown system {name!r}; known: {available_systems()} "
        "(or any '<n>c' core count)"
    )


def system(spec: "str | SystemConfig") -> "SystemConfig":
    """Resolve a system spec: a config object, a name, or ``name@mods``.

    Supported modifiers (comma-separated after ``@``) mirror the paper's
    sweep axes: ``mtps=<int>`` (Fig 8b) and ``llc_scale=<float>``
    (Fig 8c).  Examples: ``"1c"``, ``"4c@mtps=600"``,
    ``"1c@llc_scale=0.25,mtps=1200"``.
    """
    from repro.sim.config import SystemConfig

    if isinstance(spec, SystemConfig):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"system spec must be a name or SystemConfig, got {spec!r}")
    base, _, mods = spec.partition("@")
    config = _base_system(base)
    if mods:
        for mod in mods.split(","):
            key, _, value = mod.partition("=")
            key = key.strip()
            if key == "mtps":
                config = config.with_mtps(int(value))
            elif key == "llc_scale":
                config = config.scaled_llc(float(value))
            else:
                raise KeyError(f"unknown system modifier {key!r} in {spec!r}")
    return config
