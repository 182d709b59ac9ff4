"""Tests for the unified repro.api layer: experiments, executors, store,
session caching — plus the baseline-keying regression the old Runner had."""

import dataclasses

import pytest

from repro.api import (
    Experiment,
    PrefetcherSpec,
    ProcessPoolExecutor,
    ResultStore,
    SerialExecutor,
    Session,
    SystemSpec,
    fingerprint,
)
from repro.sim.config import SystemConfig

pytestmark = pytest.mark.quick

LENGTH = 1200


@pytest.fixture()
def session(tmp_path):
    return Session(store=ResultStore(tmp_path / "store"), trace_length=LENGTH)


# ---- experiment expansion -------------------------------------------------


def test_experiment_expansion_cross_product():
    ex = (
        Experiment.define("mini")
        .with_traces("spec06/lbm-1", "spec06/mcf-1")
        .with_prefetchers("stride", "spp", "none")
        .with_systems("1c", "1c@mtps=600")
    )
    cells = ex.cells()
    assert len(cells) == 2 * 3 * 2 == len(ex)
    assert len({c.fingerprint() for c in cells}) == len(cells)
    labels = {c.system.label for c in cells}
    assert labels == {"1c", "1c@mtps=600"}


def test_experiment_builder_is_immutable():
    base = Experiment.define("base").with_traces("spec06/lbm-1")
    derived = base.with_prefetchers("stride")
    assert base.prefetchers == ()
    assert derived.traces == base.traces


def test_experiment_without_axes_raises():
    with pytest.raises(ValueError):
        Experiment.define("empty").with_prefetchers("stride").cells()
    with pytest.raises(ValueError):
        Experiment.define("empty").with_traces("spec06/lbm-1").cells()


def test_prefetcher_spec_coercion_and_labels():
    spec = PrefetcherSpec.of(("pythia", {"alpha": 0.1}))
    assert spec.name == "pythia"
    assert spec.display == "pythia[alpha]"
    assert PrefetcherSpec.of("spp").display == "spp"
    labelled = PrefetcherSpec("pythia", label="tuned")
    assert labelled.display == "tuned"


def test_cell_fingerprint_covers_overrides():
    ex = Experiment.define("fp").with_traces("spec06/lbm-1")
    plain = ex.with_prefetchers("pythia").cells()[0]
    tuned = ex.with_prefetchers(("pythia", {"alpha": 0.1})).cells()[0]
    assert plain.fingerprint() != tuned.fingerprint()
    # ... but both share the same no-prefetching baseline cell.
    assert plain.baseline_cell().fingerprint() == tuned.baseline_cell().fingerprint()


def test_with_seeds_expansion():
    ex = (
        Experiment.define("rep")
        .with_traces("spec06/lbm-1")
        .with_prefetchers("stride")
        .with_seeds(3)
    )
    cells = ex.cells()
    assert [c.trace for c in cells] == ["spec06/lbm-1", "spec06/lbm-2", "spec06/lbm-3"]
    assert [c.seed for c in cells] == [1, 2, 3]
    assert all(c.base_trace == "spec06/lbm" for c in cells)
    assert len(ex) == 3
    # A replicate shares its fingerprint (and so its store entry) with
    # the equivalent unreplicated cell on the same seeded trace.
    plain = (
        Experiment.define("plain")
        .with_traces("spec06/lbm-2")
        .with_prefetchers("stride")
        .cells()[0]
    )
    assert cells[1].fingerprint() == plain.fingerprint()
    with pytest.raises(ValueError):
        ex.with_seeds(0)


def test_with_seeds_collapses_multi_seed_trace_axes():
    """A suite-style axis listing several seeds of one workload must
    expand to one replicate set, not one per listed seed — duplicates
    would inflate n and understate std/ci95."""
    ex = (
        Experiment.define("rep")
        .with_traces("spec06/lbm-1", "spec06/lbm-2", "spec06/mcf-1")
        .with_prefetchers("stride")
        .with_seeds(2)
    )
    cells = ex.cells()
    assert [(c.trace, c.seed) for c in cells] == [
        ("spec06/lbm-1", 1),
        ("spec06/lbm-2", 2),
        ("spec06/mcf-1", 1),
        ("spec06/mcf-2", 2),
    ]
    assert len({c.fingerprint() for c in cells}) == len(cells)


# ---- store ----------------------------------------------------------------


def test_store_round_trip_and_persistence(tmp_path, session):
    ex = (
        session.experiment("rt")
        .with_traces("spec06/lbm-1")
        .with_prefetchers("stride")
    )
    first = session.run(ex)
    assert first.stats["simulated"] == first.stats["cells"] == 2  # cell + baseline

    # A brand-new store on the same directory serves everything from disk.
    fresh = Session(store=ResultStore(tmp_path / "store"), trace_length=LENGTH)
    again = fresh.run(ex)
    assert again.stats["simulated"] == 0
    assert dataclasses.asdict(again[0].result) == dataclasses.asdict(first[0].result)


def test_store_memory_only_mode():
    store = ResultStore()
    assert not store.persistent
    ex = Experiment.define("mem").with_traces("spec06/lbm-1").with_prefetchers("none")
    session = Session(store=store, trace_length=LENGTH)
    session.run(ex)
    assert len(store) > 0


def test_repeated_run_hits_store_with_zero_resimulation(session):
    ex = (
        session.experiment("cache")
        .with_traces("spec06/lbm-1", "spec06/mcf-1")
        .with_prefetchers("stride", "spp")
    )
    session.run(ex)
    repeat = session.run(ex)
    assert repeat.stats["simulated"] == 0
    assert repeat.stats["cached"] == repeat.stats["cells"]
    # Overlapping experiments reuse shared cells too.
    overlap = session.run(
        session.experiment("overlap")
        .with_traces("spec06/lbm-1")
        .with_prefetchers("stride", "streamer")
    )
    assert overlap.stats["simulated"] == 1  # only streamer is new


# ---- executors ------------------------------------------------------------


def test_process_pool_matches_serial(tmp_path):
    ex = (
        Experiment.define("eq")
        .with_traces("spec06/lbm-1", "spec06/mcf-1")
        .with_prefetchers("stride", "spp")
        .with_length(LENGTH)
    )
    serial = Session(store=ResultStore(), executor=SerialExecutor()).run(ex)
    pooled = Session(
        store=ResultStore(), executor=ProcessPoolExecutor(max_workers=2)
    ).run(ex)
    assert len(serial) == len(pooled)
    for a, b in zip(serial, pooled):
        assert dataclasses.asdict(a.result) == dataclasses.asdict(b.result)
        assert dataclasses.asdict(a.baseline) == dataclasses.asdict(b.baseline)


# ---- result set queries ---------------------------------------------------


def test_resultset_queries(session):
    results = session.run(
        session.experiment("queries")
        .with_traces("spec06/lbm-1", "parsec/canneal-1")
        .with_prefetchers("stride", "spp")
    )
    assert set(results.rollup("suite")) == {"SPEC06", "PARSEC"}
    pivoted = results.pivot("suite", "prefetcher")
    assert set(pivoted["SPEC06"]) == {"stride", "spp"}
    only_stride = results.filter(prefetcher="stride")
    assert len(only_stride) == 2
    assert only_stride.geomean() > 0
    rows = results.to_rows()
    assert len(rows) == 4 and {"trace", "suite", "prefetcher", "system",
                               "speedup"} <= set(rows[0])
    text = results.table(rows="suite")
    assert "SPEC06" in text and "stride" in text


def test_none_prefetcher_is_its_own_baseline(session):
    record = session.run_one("spec06/lbm-1", "none")
    assert record.speedup == pytest.approx(1.0)
    assert record.result is record.baseline


# ---- the historical baseline under-keying bug -----------------------------


def test_baselines_distinct_when_only_l2_differs(session):
    """Regression: configs differing only in L2 geometry must not share a
    cached baseline (the old Runner._config_key ignored L1/L2/length/warmup)."""
    small_l2 = SystemConfig()
    big_l2 = dataclasses.replace(
        small_l2, l2=dataclasses.replace(small_l2.l2, size_bytes=1024 * 1024)
    )
    a = session.baseline("spec06/lbm-1", small_l2)
    b = session.baseline("spec06/lbm-1", big_l2)
    assert a is not b
    assert fingerprint(small_l2) != fingerprint(big_l2)


def test_baselines_distinct_across_length_and_warmup(session):
    a = session.baseline("spec06/lbm-1", SystemConfig())
    b = session.baseline("spec06/lbm-1", SystemConfig(), trace_length=LENGTH // 2)
    c = session.baseline("spec06/lbm-1", SystemConfig(), warmup_fraction=0.5)
    assert a is not b and a is not c
    assert b.instructions < a.instructions


def test_run_mix_cached(session):
    from repro.sim.config import baseline_multi_core

    config = baseline_multi_core(2)
    result, baseline = session.run_mix(
        ["spec06/lbm-1", "spec06/mcf-1"], "stride", config
    )
    assert result.instructions > 0 and baseline.prefetcher_name == "none"
    before = session.store.puts
    result2, _ = session.run_mix(["spec06/lbm-1", "spec06/mcf-1"], "stride", config)
    assert session.store.puts == before  # fully cached
    assert result2 is result


# ---- telemetry and checkpointed resume (ISSUE 5) --------------------------


def test_with_telemetry_attaches_timelines(session):
    experiment = (
        session.experiment("telemetry")
        .with_traces("spec06/lbm-1")
        .with_prefetchers("spp")
        .with_telemetry(window=300)
    )
    results = session.run(experiment)
    record = results[0]
    timeline = record.timeline()
    assert timeline.window == 300
    # Window multiples plus the warmup split (rows break there too).
    split = int(LENGTH * 0.2)
    assert len(timeline) == len({*range(300, LENGTH + 1, 300), split, LENGTH})
    assert timeline.rows[-1].end_record == LENGTH
    assert record.phases() == record.timeline().phases()
    rows = results.timeline_rows()
    assert len(rows) == len(timeline)
    assert rows[0]["prefetcher"] == "spp" and rows[0]["trace"] == "spec06/lbm-1"
    assert all(row["ipc"] > 0 for row in rows)


def test_telemetry_rerun_upgrades_cached_results(session):
    """A result cached without telemetry is re-simulated (bit-identically)
    when telemetry is requested — and the upgraded entry then serves both
    telemetry and non-telemetry requests from the store."""
    plain = session.run_one("spec06/lbm-1", "spp")
    assert plain.result.timeline is None

    simulated_before = session.store.puts
    with_rows = session.run_one("spec06/lbm-1", "spp", telemetry_window=400)
    assert session.store.puts > simulated_before  # re-simulated + re-stored
    assert with_rows.result.timeline is not None

    plain_dict = dataclasses.asdict(plain.result)
    rows_dict = dataclasses.asdict(with_rows.result)
    assert rows_dict.pop("timeline") is not None
    plain_dict.pop("timeline")
    assert rows_dict == plain_dict  # telemetry never perturbs results

    # Same-window request now hits the upgraded entry; a plain request
    # is happy with the entry too (extra rows are harmless).
    before = session.store.puts
    again = session.run_one("spec06/lbm-1", "spp", telemetry_window=400)
    assert session.store.puts == before
    assert again.result is with_rows.result
    assert session.run_one("spec06/lbm-1", "spp").result is with_rows.result


def test_session_checkpointing_resumes_extension(tmp_path):
    """Growing trace_length under Session(checkpoint_every=...) resumes
    from the shorter run's snapshots instead of re-simulating."""
    store = ResultStore(tmp_path / "ckpt-store")
    session = Session(store=store, checkpoint_every=400)
    short = session.run_one(
        "spec06/lbm-1", "spp", trace_length=800, warmup_records=200
    )
    assert short.result.instructions > 0
    hits_before = store.checkpoint_hits
    extended = session.run_one(
        "spec06/lbm-1", "spp", trace_length=1600, warmup_records=200
    )
    assert store.checkpoint_hits > hits_before

    fresh = Session(store=ResultStore(tmp_path / "plain-store")).run_one(
        "spec06/lbm-1", "spp", trace_length=1600, warmup_records=200
    )
    assert dataclasses.asdict(extended.result) == dataclasses.asdict(fresh.result)
    assert dataclasses.asdict(extended.baseline) == dataclasses.asdict(
        fresh.baseline
    )


def test_checkpointed_experiment_run_matches_executor_run(tmp_path):
    """Session.run with checkpointing on (cells execute in-session) equals
    the executor path, table for table."""
    def experiment(session):
        return (
            session.experiment("ckpt-run")
            .with_traces("spec06/lbm-1", "spec06/mcf-1")
            .with_prefetchers("stride", "spp")
            .with_warmup(records=200)
        )

    plain = Session(store=ResultStore(tmp_path / "a"), trace_length=LENGTH)
    checkpointed = Session(
        store=ResultStore(tmp_path / "b"),
        trace_length=LENGTH,
        checkpoint_every=500,
    )
    table_plain = plain.run(experiment(plain)).table()
    table_ckpt = checkpointed.run(experiment(checkpointed)).table()
    assert table_plain == table_ckpt
    assert checkpointed.store.stats["checkpoint_puts"] > 0


def test_pool_workers_adopt_store_checkpoints(tmp_path):
    """A ProcessPoolExecutor session ships its store path to workers:
    checkpointable cells fan out, snapshot into the shared namespace,
    and a longer re-run resumes from them with results identical to a
    fresh serial simulation."""
    store = ResultStore(tmp_path / "pool-store")
    pool = ProcessPoolExecutor(max_workers=2)
    session = Session(
        store=store, executor=pool, trace_length=800, checkpoint_every=400
    )
    short = (
        session.experiment("pooled-ckpt")
        .with_traces("spec06/lbm-1", "spec06/mcf-1")
        .with_prefetchers("spp")
        .with_warmup(records=200)
    )
    session.run(short)
    # Session auto-configured the pool from its own store; the snapshot
    # files were written by the workers, so look on disk rather than at
    # this process's put counters.
    assert pool.store_path == store.path
    assert pool.resumes_checkpoints
    ckpt_root = store.path / "checkpoints"
    assert any(f.is_file() for f in ckpt_root.glob("**/*"))

    before = {f: f.stat().st_mtime_ns for f in ckpt_root.glob("**/*") if f.is_file()}

    extended_store = ResultStore(tmp_path / "pool-store")
    extended = Session(
        store=extended_store,
        executor=ProcessPoolExecutor(max_workers=2),
        trace_length=1600,
        checkpoint_every=400,
    )
    long_run = (
        extended.experiment("pooled-ckpt-ext")
        .with_traces("spec06/lbm-1")
        .with_prefetchers("spp")
        .with_warmup(records=200)
    )
    table_resumed = extended.run(long_run).table()
    # Workers resumed from the short run's snapshots: snapshots past the
    # short length appeared, and the pre-existing ones were not
    # rewritten (a from-zero replay would overwrite every cadence —
    # put_checkpoint replaces files unconditionally).
    after = {f: f.stat().st_mtime_ns for f in ckpt_root.glob("**/*") if f.is_file()}
    assert len(after) > len(before)
    assert all(after[f] == mtime for f, mtime in before.items())

    fresh = Session(store=ResultStore(tmp_path / "fresh"), trace_length=1600)
    fresh_run = (
        fresh.experiment("pooled-ckpt-fresh")
        .with_traces("spec06/lbm-1")
        .with_prefetchers("spp")
        .with_warmup(records=200)
    )
    assert table_resumed == fresh.run(fresh_run).table()


def test_warmup_records_fingerprint_semantics():
    """warmup_records participates in fingerprints; fraction-only cells
    keep their historical payload (store survival)."""
    base = dict(
        trace="spec06/lbm-1",
        prefetcher=PrefetcherSpec.of("spp"),
        system=SystemSpec.of("1c"),
        trace_length=LENGTH,
        warmup_fraction=0.2,
    )
    from repro.api import Cell

    fractional = Cell(**base)
    absolute = Cell(**base, warmup_records=240)
    other_absolute = Cell(**base, warmup_records=480)
    assert fractional.fingerprint() != absolute.fingerprint()
    assert absolute.fingerprint() != other_absolute.fingerprint()
    # telemetry is non-semantic: same fingerprint with it on or off
    observed = Cell(**base, telemetry_window=300)
    assert observed.fingerprint() == fractional.fingerprint()
    # the prefix namespace drops every length axis
    longer = dataclasses.replace(absolute, trace_length=4 * LENGTH)
    assert absolute.prefix_fingerprint() == longer.prefix_fingerprint()
    assert absolute.prefix_fingerprint() == fractional.prefix_fingerprint()


def test_state_layout_salts_checkpoint_keys_only(monkeypatch):
    """A new snapshot layout moves the checkpoint namespace (old
    snapshots are never listed) but keeps every result fingerprint."""
    from repro.api import Cell
    from repro.sim import engine

    cell = Cell(
        trace="spec06/lbm-1",
        prefetcher=PrefetcherSpec.of("pythia"),
        system=SystemSpec.of("1c"),
        trace_length=LENGTH,
        warmup_fraction=0.2,
    )
    result_key, prefix_key = cell.fingerprint(), cell.prefix_fingerprint()
    monkeypatch.setattr(engine, "STATE_LAYOUT", engine.STATE_LAYOUT + 1)
    assert cell.prefix_fingerprint() != prefix_key
    assert cell.fingerprint() == result_key


def test_baseline_not_resimulated_for_telemetry(session):
    """Telemetry requests must not re-simulate cached baselines: the
    baseline's timeline is unreachable through the API, so the pairing
    reuses the cached plain run."""
    session.run_one("spec06/lbm-1", "spp")  # caches spp + none
    puts_before = session.store.puts
    record = session.run_one("spec06/lbm-1", "spp", telemetry_window=400)
    assert record.result.timeline is not None
    assert record.baseline.timeline is None  # cached baseline, untouched
    assert session.store.puts == puts_before + 1  # only the spp cell re-ran


def test_explicit_none_cell_still_gets_telemetry(session):
    """An explicitly requested 'none' cell keeps its window even though
    implicit baselines drop theirs — the dedup prefers the windowed cell."""
    results = session.run(
        session.experiment("none-telemetry")
        .with_traces("spec06/lbm-1")
        .with_prefetchers("spp", "none")
        .with_telemetry(window=400)
    )
    none_record = results.filter(prefetcher="none")[0]
    assert none_record.result.timeline is not None
    assert len(none_record.timeline()) > 0


def test_mix_warmup_records_honored():
    """with_warmup(records=...) must reach MixCells (and their fingerprints)."""
    from repro.api import MixCell

    base = (
        Experiment.define("mix-warmup")
        .with_mixes(("m", ("spec06/lbm-1", "spec06/mcf-1")))
        .with_prefetchers("stride")
        .with_length(LENGTH)
    )
    fractional = base.cells()[0]
    absolute = base.with_warmup(records=200).cells()[0]
    assert isinstance(absolute, MixCell)
    assert absolute.warmup_records == 200
    assert absolute.fingerprint() != fractional.fingerprint()

    store_session = Session(store=ResultStore(), trace_length=LENGTH)
    warmed = store_session.run(base.with_warmup(records=200))[0]
    unwarmed = store_session.run(base.with_warmup(records=600))[0]
    # Different warmup splits measure different regions.
    assert warmed.result.instructions != unwarmed.result.instructions


# ---- single-flight deduplication ------------------------------------------


class _GatedExecutor:
    """Serial executor that parks inside run_cells until released, so a
    test can hold one thread mid-simulation while another joins it."""

    def __init__(self):
        import threading

        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def run_cells(self, cells):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(timeout=60)
        return SerialExecutor().run_cells(cells)


def test_single_flight_two_threads_simulate_once():
    """ISSUE 9 acceptance: two threads running the identical cell
    against one Session produce exactly one simulation (store puts == 1)
    and two identical ResultSets."""
    import threading

    store = ResultStore()
    gate = _GatedExecutor()
    shared = Session(store=store, executor=gate, trace_length=LENGTH)
    ex = (
        shared.experiment("dedup")
        .with_traces("spec06/lbm-1")
        .with_prefetchers("none")  # its own baseline: one fingerprint
    )

    outcomes: dict[int, object] = {}

    def run(slot):
        outcomes[slot] = shared.run(ex)

    first = threading.Thread(target=run, args=(0,))
    first.start()
    assert gate.entered.wait(timeout=60)  # thread 0 owns the simulation
    second = threading.Thread(target=run, args=(1,))
    second.start()
    # Thread 1 joins the in-flight cell rather than simulating; only
    # after the gate opens can either finish.
    gate.release.set()
    first.join(timeout=60)
    second.join(timeout=60)
    assert not first.is_alive() and not second.is_alive()

    assert gate.calls == 1  # one executor batch total
    assert store.stats["puts"] == 1  # exactly one simulation stored
    a, b = outcomes[0][0], outcomes[1][0]
    assert a.result == b.result
    assert a.baseline == b.baseline


def test_single_flight_run_one_threads_share_result():
    """run_one from many threads dedups through the same registry."""
    import threading

    store = ResultStore()
    shared = Session(store=store, trace_length=LENGTH)
    barrier = threading.Barrier(4)
    records = []

    def run():
        barrier.wait()
        records.append(shared.run_one("spec06/lbm-1", "stride"))

    threads = [threading.Thread(target=run) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert len(records) == 4
    # stride cell + its baseline: exactly two simulations ever ran,
    # however the four threads interleaved.
    assert store.stats["puts"] == 2
    assert all(r.result == records[0].result for r in records)


def test_single_flight_owner_failure_lets_waiter_retry(monkeypatch):
    """A waiter must not inherit the owner's failure: it retries and
    simulates the cell itself."""
    import threading

    from repro.api import experiment as experiment_module

    store = ResultStore()
    shared = Session(store=store, trace_length=LENGTH)

    real_execute = experiment_module.Cell.execute
    entered = threading.Event()
    release = threading.Event()
    fail_first = {"armed": True}

    def flaky(self, checkpoints=None, checkpoint_every=0):
        if fail_first["armed"]:
            fail_first["armed"] = False
            entered.set()
            assert release.wait(timeout=60)
            raise RuntimeError("owner died mid-simulation")
        return real_execute(
            self, checkpoints=checkpoints, checkpoint_every=checkpoint_every
        )

    monkeypatch.setattr(experiment_module.Cell, "execute", flaky)

    outcome = {}

    def owner():
        try:
            shared.run_one("spec06/lbm-1", "none")
        except RuntimeError as exc:
            outcome["owner"] = exc

    def waiter():
        entered.wait(timeout=60)
        outcome["waiter"] = shared.run_one("spec06/lbm-1", "none")

    threads = [threading.Thread(target=owner), threading.Thread(target=waiter)]
    for t in threads:
        t.start()
    # Let the waiter reach the in-flight registry, then fail the owner.
    release.set()
    for t in threads:
        t.join(timeout=120)

    assert isinstance(outcome["owner"], RuntimeError)  # error propagated
    assert outcome["waiter"].result.instructions > 0  # waiter recovered
    assert store.stats["puts"] == 1  # the retry's simulation
