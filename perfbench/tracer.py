"""Outside-in span tracer: wraps the public entry point of each layer.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install`
replaces each layer's entry point (a module function or a method) with
a wrapper that records one span per call, and :meth:`Tracer.uninstall`
puts the originals back.  Spans are kept in memory as
``[name, start, end, parent, cell, extra]`` and written out by the
benchmark when it ends.

``cell`` is one identifier shared by every span of a cell: the cell's
label for spans opened on a cell object (fingerprint, execute, record),
the label behind a fingerprint for store lookups and puts, and the
enclosing span's cell for everything else (engine, replay, checkpoint).

A span's self time is its duration minus the time its child spans
cover.  The benchmark is serial, so children nest inside their parent
and never overlap each other.
"""

from __future__ import annotations

import functools
import math
import time

#: Span names whose self time is per-record replay work.
REPLAY_SPANS = ("sim.batch.replay_span", "sim._native.replay_span")
#: Span names whose self time is checkpoint work.
CHECKPOINT_SPANS = (
    "sim.engine.capture",
    "sim.engine.restore",
    "api.store.put_checkpoint",
    "api.store.get_checkpoint",
)
#: Every span the tracer records; each one's self time is reported.
SPAN_NAMES = (
    "api.session.run",
    "api.search.run",
    "api.fingerprint",
    "api.store.get",
    "api.store.put",
    "api.store.get_checkpoint",
    "api.store.put_checkpoint",
    "api.cell.execute",
    "api.resultset.record",
    "workloads.make_trace",
    "sim.trace.columns",
    "sim.engine.construct",
    "sim.engine.run",
    "sim.engine.capture",
    "sim.engine.restore",
    "sim.batch.replay_span",
    "sim._native.replay_span",
    "sim.multicore.construct",
    "sim.multicore.run",
)


def cell_label(cell) -> str:
    """Readable identifier of a single-core or mix cell."""
    name = getattr(cell, "name", None) or cell.trace
    return f"{name}|{cell.prefetcher.display}|{cell.trace_length}"


class Tracer:
    """Records spans around each layer's entry point while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        #: fingerprint -> cell label, filled by the fingerprint wrapper
        #: so store lookups can be attributed to their cell.
        self._labels: dict[str, str] = {}

    # ---- span bookkeeping -------------------------------------------------

    def _open(self, name: str, cell: str | None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if cell is None and parent >= 0:
            cell = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, cell, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, cell=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *cell* maps the call's arguments to a cell label; *after* runs
        once the span is closed (so its own cost is not attributed to
        the layer) and returns the span's extra payload.
        """
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = tracer._open(name, cell(args) if cell is not None else None)
            try:
                out = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                tracer.spans[index][5] = after(args, out)
            return out

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, original))

    # ---- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry point (call once, before timing)."""
        from repro import registry
        from repro.api import experiment, search, session, store
        from repro.sim import _native, batch, engine, trace

        def label_key(args, key):
            self._labels[key] = cell_label(args[0])
            return None

        def store_cell(args):
            return self._labels.get(args[1])

        def put_bytes(args, _):
            result_store, key = args[0], args[1]
            if result_store.path is None:
                return 0
            return result_store._file(key).stat().st_size

        def span_records(args, _):
            return args[4] - args[3]  # replay_span(h, core, cols, start, stop)

        def engine_records(args, _):
            run = args[0]
            return [run.total - run.resumed_from, run.resumed_from, run.total]

        self._wrap(session.Session, "run", "api.session.run")
        self._wrap(search.GridSearch, "run", "api.search.run")
        for cls in (experiment.Cell, experiment.MixCell):
            self._wrap(
                cls, "fingerprint", "api.fingerprint",
                cell=lambda args: cell_label(args[0]), after=label_key,
            )
            self._wrap(
                cls, "execute", "api.cell.execute",
                cell=lambda args: cell_label(args[0]),
            )
        for cls in (experiment.Cell, experiment.ReplicatedCell, experiment.MixCell):
            self._wrap(
                cls, "record", "api.resultset.record",
                cell=lambda args: cell_label(args[0]),
            )
        self._wrap(store.ResultStore, "get", "api.store.get", cell=store_cell)
        self._wrap(
            store.ResultStore, "put", "api.store.put", cell=store_cell, after=put_bytes
        )
        self._wrap(store.ResultStore, "get_checkpoint", "api.store.get_checkpoint")
        self._wrap(
            store.ResultStore, "put_checkpoint", "api.store.put_checkpoint",
            after=lambda args, _: args[2].size_bytes,
        )
        self._wrap(registry, "make_trace", "workloads.make_trace")
        self._wrap(trace.Trace, "columns", "sim.trace.columns")
        self._wrap(engine.SimulationEngine, "__init__", "sim.engine.construct")
        self._wrap(engine.SimulationEngine, "run", "sim.engine.run", after=engine_records)
        self._wrap(engine.EngineState, "capture", "sim.engine.capture")
        self._wrap(engine.EngineState, "restore", "sim.engine.restore")
        self._wrap(batch, "replay_span", "sim.batch.replay_span", after=span_records)
        self._wrap(_native, "replay_span", "sim._native.replay_span", after=span_records)
        self._wrap(engine.MultiCoreEngine, "__init__", "sim.multicore.construct")
        self._wrap(
            engine.MultiCoreEngine, "run", "sim.multicore.run",
            after=lambda args, _: args[0].steps,
        )

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---- aggregation ------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], run_s: float, store_stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced phase.

    Args:
        spans: the phase's spans.
        run_s: the phase's traced wall time.
        store_stats: ``ResultStore.stats`` at the end of the phase.
    """
    own = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    seconds = dict.fromkeys(SPAN_NAMES, 0.0)
    extra: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0)
    replayed = resumed = total = 0
    for span, self_s in zip(spans, own):
        name, payload = span[0], span[5]
        calls[name] += 1
        seconds[name] += self_s
        if name == "sim.engine.run":
            replayed += payload[0]
            resumed += payload[1]
            total += payload[2]
        elif payload is not None:
            extra[name] += payload

    def per_record(name: str) -> float:
        return seconds[name] * 1e9 / extra[name] if extra[name] else 0.0

    # Per simulated cell: everything attributed to it outside replay.
    replay = set(REPLAY_SPANS) | {"sim.multicore.run"}
    executed = {span[4] for span in spans if span[0] == "api.cell.execute"}
    fixed = sum(
        self_s
        for span, self_s in zip(spans, own)
        if span[4] in executed and span[0] not in replay
    )
    lookups = store_stats["hits"] + store_stats["misses"]
    metrics = {
        "workloads.make_trace.calls": calls["workloads.make_trace"],
        "workloads.make_trace.s": seconds["workloads.make_trace"],
        "sim.trace.columns.calls": calls["sim.trace.columns"],
        "sim.trace.columns.s": seconds["sim.trace.columns"],
        "api.fingerprint.calls": calls["api.fingerprint"],
        "api.fingerprint.s": seconds["api.fingerprint"],
        "sim.engine.construct.calls": calls["sim.engine.construct"],
        "sim.engine.construct.s": seconds["sim.engine.construct"],
        "sim.engine.run.self_s": seconds["sim.engine.run"],
        "sim.engine.capture.calls": calls["sim.engine.capture"],
        "sim.engine.capture.s": seconds["sim.engine.capture"],
        "sim.engine.restore.calls": calls["sim.engine.restore"],
        "sim.engine.restore.s": seconds["sim.engine.restore"],
        "sim.engine.resumed_share": resumed / total if total else 0.0,
        "sim.batch.replay_span.calls": calls["sim.batch.replay_span"],
        "sim.batch.replay_span.records": extra["sim.batch.replay_span"],
        "sim.batch.replay_span.s": seconds["sim.batch.replay_span"],
        "sim.batch.replay_span.ns_per_record": per_record("sim.batch.replay_span"),
        "sim._native.replay_span.calls": calls["sim._native.replay_span"],
        "sim._native.replay_span.records": extra["sim._native.replay_span"],
        "sim._native.replay_span.s": seconds["sim._native.replay_span"],
        "sim._native.replay_span.ns_per_record": per_record("sim._native.replay_span"),
        "sim.multicore.construct.s": seconds["sim.multicore.construct"],
        "sim.multicore.run.s": seconds["sim.multicore.run"],
        "sim.multicore.run.records": extra["sim.multicore.run"],
        "sim.multicore.run.ns_per_record": per_record("sim.multicore.run"),
        "api.store.get.calls": calls["api.store.get"],
        "api.store.get.s": seconds["api.store.get"],
        "api.store.hit_ratio": store_stats["hits"] / lookups if lookups else 0.0,
        "api.store.put.calls": calls["api.store.put"],
        "api.store.put.s": seconds["api.store.put"],
        "api.store.put.bytes": extra["api.store.put"],
        "api.store.put_checkpoint.calls": calls["api.store.put_checkpoint"],
        "api.store.put_checkpoint.s": seconds["api.store.put_checkpoint"],
        "api.store.put_checkpoint.bytes": extra["api.store.put_checkpoint"],
        "api.store.get_checkpoint.calls": calls["api.store.get_checkpoint"],
        "api.store.get_checkpoint.s": seconds["api.store.get_checkpoint"],
        "api.store.checkpoint_evictions": store_stats["checkpoint_evictions"],
        "api.session.run.self_s": seconds["api.session.run"],
        "api.search.run.self_s": seconds["api.search.run"],
        "api.cell.execute.self_s": seconds["api.cell.execute"],
        "api.resultset.record.s": seconds["api.resultset.record"],
        "sim.cell.fixed_s": fixed / len(executed) if executed else 0.0,
        "trace.unaccounted_s": run_s - math.fsum(own),
    }
    shares = {
        "replay": (
            seconds["sim.batch.replay_span"]
            + seconds["sim._native.replay_span"]
            + seconds["sim.engine.run"]
        ) / run_s,
        "construct": seconds["sim.engine.construct"] / run_s,
        "fixed": fixed / run_s,
        "checkpoint": sum(seconds[name] for name in CHECKPOINT_SPANS) / run_s,
        "multicore": (
            seconds["sim.multicore.run"] + seconds["sim.multicore.construct"]
        ) / run_s,
        "replay_calls": calls["sim.batch.replay_span"] + calls["sim._native.replay_span"],
    }
    return {
        "metrics": metrics,
        "shares": shares,
        "self_s_total": math.fsum(own),
        "replayed_records": replayed + extra["sim.multicore.run"],
        "executed_cells": len(executed),
    }
