"""Content-addressed fingerprints for simulation work units.

A fingerprint is a SHA-256 digest over a *canonical* JSON rendering of
everything that determines a simulation's outcome: the trace spec, the
prefetcher spec (name plus every override), the complete system config
(all nested dataclasses), the trace length and the warmup fraction.
Two cells collide on a fingerprint iff re-simulating them would produce
byte-identical results, which is what lets :class:`repro.api.ResultStore`
be shared across processes, sessions and machines.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

#: Salt folded into every fingerprint.  Bump this whenever simulator
#: *semantics* change in a way the fingerprinted inputs cannot see (a
#: timing-model bug fix, a cache-policy change).  Two formerly manual
#: cases now self-invalidate: retuned prefetcher presets/defaults (the
#: *resolved* prefetcher config is fingerprinted) and workload-generator
#: tweaks (each trace's content stamp is fingerprinted) — see
#: :meth:`repro.api.experiment.Cell.fingerprint`.  The package version
#: is folded in as well, so releases self-invalidate even when this
#: constant is forgotten.  Bumped to 2 when ``EngineState``/``CounterMark``
#: went slotted: their checkpoint pickle layout changed, and the bump
#: orphans pre-slots snapshots instead of letting them fail to unpickle.
SCHEMA_VERSION = 2


def _schema_salt() -> str:
    from repro import __version__

    return f"{__version__}/{SCHEMA_VERSION}"


def canonical(obj: Any) -> Any:
    """Reduce *obj* to a deterministic JSON-serializable structure.

    Dataclasses are tagged with their class name so two config types with
    coincidentally equal fields do not collide; enums render as
    ``ClassName.MEMBER``; mappings are key-sorted; anything else falls
    back to ``repr``.

    Dataclass fields declared with ``metadata={"semantic": False}`` are
    *excluded*: they flag knobs that cannot affect simulation results
    (e.g. :attr:`SystemConfig.replay_backend`, whose backends are
    pinned bit-identical by tests), so equivalent work keeps one cache
    entry regardless of how it is executed.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.metadata.get("semantic", True)
        }
        return {"__class__": type(obj).__name__, **fields}
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical form of *obj* (schema-salted)."""
    payload = json.dumps(
        {"schema": _schema_salt(), "value": canonical(obj)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
