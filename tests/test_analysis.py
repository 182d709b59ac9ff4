"""The invariant checker: rules, pragmas, CLI, and the gate.

Three layers of assurance:

* **fixture snippets** (``tests/data/lint/``) — each AST rule fires on
  its bad fixture, stays silent on the good one, and every pragma form
  (trailing, standalone, multi-rule) suppresses;
* **introspection rules** — synthetic config dataclasses and slotted
  classes with deliberately broken pickle hooks are injected as rule
  roots, pinning each failure mode the rules exist to catch (callable
  / set / untyped fields reaching fingerprints; ``__getstate__``
  missing a slot; an unpicklable member in a checkpoint graph);
* **the real tree** — ``run(src/repro)`` with every rule and
  introspection on must come back clean, which is exactly the CI gate
  (``make lint``), so a regression in the tree and a regression in the
  checker are both loud.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import pytest

import repro
from repro.analysis import Finding, PragmaIndex, Report, all_rule_names, run
from repro.analysis.__main__ import main
from repro.analysis.engine import module_name_of
from repro.analysis.rules.checkpoints import CheckpointCoverageRule
from repro.analysis.rules.fingerprints import FingerprintCompletenessRule

FIXTURES = Path(__file__).parent / "data" / "lint"
SRC_REPRO = Path(repro.__file__).parent


def run_fixture(name: str, module: str, rules=None):
    return run(
        [FIXTURES / name],
        rules=rules,
        module_override=module,
        introspect=False,
    )


def rules_fired(report) -> set[str]:
    return {f.rule for f in report.findings}


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.quick
def test_determinism_fires_on_every_violation_class():
    report = run_fixture("determinism_bad.py", "repro.sim.badfixture")
    messages = [f.message for f in report.findings if f.rule == "determinism"]
    assert any("hash()" in m for m in messages)
    assert any("random.random()" in m for m in messages)
    assert any("random.choice()" in m for m in messages)
    assert any("'time'" in m for m in messages)
    assert any("'datetime'" in m for m in messages)
    assert any("from random import randrange" in m for m in messages)


@pytest.mark.quick
def test_determinism_allows_seeded_random_and_crc():
    report = run_fixture("determinism_ok.py", "repro.sim.okfixture")
    assert report.findings == []


@pytest.mark.quick
def test_determinism_scoped_to_simulation_packages():
    # The identical source analyzed as a harness module is legal.
    report = run_fixture("determinism_bad.py", "repro.harness.timing")
    assert "determinism" not in rules_fired(report)


# ---------------------------------------------------------------------------
# hygiene
# ---------------------------------------------------------------------------


@pytest.mark.quick
def test_hygiene_mutable_defaults_and_unslotted_hot_dataclass():
    report = run_fixture("hygiene_bad.py", "repro.sim.cache")
    hygiene = [f for f in report.findings if f.rule == "hygiene"]
    mutable = [f for f in hygiene if "mutable default" in f.message]
    assert {m for f in mutable for m in [f.message.split(" in ")[1].split("(")[0]]} == {
        "accumulate",
        "tally",
        "collect",
    }
    assert any(
        "PerRecordThing" in f.message and "slots=True" in f.message for f in hygiene
    )


@pytest.mark.quick
def test_hygiene_slots_requirement_only_in_hot_modules():
    report = run_fixture("hygiene_bad.py", "repro.harness.rollup")
    hygiene = [f for f in report.findings if f.rule == "hygiene"]
    # Mutable defaults fire everywhere; the slots rule is hot-path only.
    assert all("mutable default" in f.message for f in hygiene)
    assert len(hygiene) == 3


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------


@pytest.mark.quick
def test_layering_inversions():
    report = run_fixture("layering_bad.py", "repro.sim.badfixture")
    layering = [f for f in report.findings if f.rule == "layering"]
    assert any("repro.api" in f.message and "inversion" in f.message for f in layering)
    assert any("repro.harness" in f.message for f in layering)
    assert len(layering) == 2
    # The function-scoped upward import is the sanctioned escape hatch.
    assert not any("ResultStore" in f.message for f in layering)


@pytest.mark.quick
def test_layering_allows_downhill_imports():
    # harness outranks api and equals itself, so nothing fires.
    report = run_fixture("layering_bad.py", "repro.harness.badfixture")
    assert not [f for f in report.findings if f.rule == "layering"]


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@pytest.mark.quick
def test_batching_fires_on_record_construction_in_replay_packages():
    for module in ("repro.sim.badfixture", "repro.core.badfixture"):
        report = run_fixture("batching_bad.py", module)
        batching = [f for f in report.findings if f.rule == "batching"]
        # Both the bare and the attribute-qualified construction fire.
        assert len(batching) == 2
        assert all("struct-of-arrays" in f.message for f in batching)


@pytest.mark.quick
def test_batching_allows_annotations_and_isinstance():
    report = run_fixture("batching_ok.py", "repro.sim.okfixture")
    assert "batching" not in rules_fired(report)


@pytest.mark.quick
def test_batching_scoped_to_replay_packages_and_trace_module():
    # Producers (workloads) may build records...
    report = run_fixture("batching_bad.py", "repro.workloads.generators")
    assert "batching" not in rules_fired(report)
    # ...and so may the defining module itself.
    report = run_fixture("batching_bad.py", "repro.sim.trace")
    assert "batching" not in rules_fired(report)


# ---------------------------------------------------------------------------
# native
# ---------------------------------------------------------------------------


@pytest.mark.quick
def test_native_fires_on_ctypes_outside_the_native_package():
    report = run_fixture("native_bad.py", "repro.sim.badfixture")
    native = [f for f in report.findings if f.rule == "native"]
    # Both the bare import and the from-import fire.
    assert len(native) == 2
    assert all("repro.sim._native" in f.message for f in native)


@pytest.mark.quick
def test_native_allows_ctypes_inside_the_native_package():
    report = run_fixture("native_ok.py", "repro.sim._native.okfixture")
    assert "native" not in rules_fired(report)


# ---------------------------------------------------------------------------
# pragmas
# ---------------------------------------------------------------------------


@pytest.mark.quick
def test_pragmas_suppress_trailing_standalone_and_multirule():
    report = run_fixture("pragma_ok.py", "repro.sim.fixture")
    assert report.findings == []
    assert report.suppressed == 3


@pytest.mark.quick
def test_unused_pragma_is_reported():
    report = run_fixture("pragma_unused.py", "repro.sim.fixture")
    assert rules_fired(report) == {"unused-pragma"}


@pytest.mark.quick
def test_standalone_pragma_above_decorators_governs_the_def(tmp_path):
    # The pragma rides above the decorator stack but must govern the
    # decorated statement, not the decorator line.
    source = (
        "import functools\n"
        "\n"
        "# repro: ignore[hygiene]\n"
        "@functools.lru_cache\n"
        "@functools.wraps(print)\n"
        "def collect(into=[]):\n"
        "    return into\n"
    )
    index = PragmaIndex(source)
    assert index.suppresses(6, "hygiene")  # the def line
    assert not index.suppresses(4, "hygiene")  # not the decorator

    fixture = tmp_path / "decorated.py"
    fixture.write_text(source)
    report = run([fixture], module_override="repro.sim.fixture", introspect=False)
    assert report.findings == []
    assert report.suppressed == 1


@pytest.mark.quick
def test_pragma_examples_in_docstrings_are_inert():
    index = PragmaIndex('"""docs: # repro: ignore[determinism]"""\nx = 1\n')
    assert not index.suppresses(1, "determinism")
    assert not index.suppresses(2, "determinism")


# ---------------------------------------------------------------------------
# fingerprint completeness (introspection)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _NestedCfg:
    depth: int = 3


@dataclass(frozen=True)
class _GoodCfg:
    name: str = "x"
    weights: tuple[float, ...] = (1.0,)
    nested: _NestedCfg = field(default_factory=_NestedCfg)
    table: dict[str, int] = field(default_factory=dict)
    maybe: int | None = None
    impl: str = field(default="auto", metadata={"semantic": False})


@dataclass(frozen=True)
class _BadCfg:
    score_fn: Callable[[int], float] = max
    tags: set[str] = field(default_factory=set)
    blob: Any = None
    # Tagged non-semantic: exempt even though a callable.
    hook: Callable[[], None] = field(default=print, metadata={"semantic": False})


class _NotADataclassCfg:
    pass


@pytest.mark.quick
def test_fingerprint_rule_accepts_stable_config_tree():
    assert list(FingerprintCompletenessRule(roots=[_GoodCfg]).check()) == []


@pytest.mark.quick
def test_fingerprint_rule_flags_unstable_fields():
    findings = list(FingerprintCompletenessRule(roots=[_BadCfg]).check())
    flagged = {f.message.split(":")[0].split(".")[-1] for f in findings}
    assert flagged == {"score_fn", "tags", "blob"}


@pytest.mark.quick
def test_fingerprint_rule_flags_non_dataclass_roots():
    findings = list(FingerprintCompletenessRule(roots=[_NotADataclassCfg]).check())
    assert len(findings) == 1 and "not a dataclass" in findings[0].message


# ---------------------------------------------------------------------------
# checkpoint coverage (introspection)
# ---------------------------------------------------------------------------


class _SlottedGood:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a, self.b = 1, 2


class _SlottedPartialGetstate:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a, self.b = 1, 2

    def __getstate__(self):
        return {"a": self.a}

    def __setstate__(self, state) -> None:
        self.a = state["a"]


class _SlottedNoSetstate:
    __slots__ = ("a",)

    def __init__(self) -> None:
        self.a = 1

    def __getstate__(self):
        return {"a": self.a}


class _Unpicklable:
    def __init__(self) -> None:
        self.hook = lambda: None


@pytest.mark.quick
def test_checkpoint_rule_accepts_clean_graph():
    graph = ("good", (_SlottedGood(), [1, 2], {"k": _SlottedGood()}))
    assert list(CheckpointCoverageRule(graphs=[graph]).check()) == []


@pytest.mark.quick
def test_checkpoint_rule_flags_getstate_missing_a_slot():
    findings = list(
        CheckpointCoverageRule(graphs=[("partial", _SlottedPartialGetstate())]).check()
    )
    assert any("does not cover slot 'b'" in f.message for f in findings)
    assert not any("slot 'a'" in f.message for f in findings)


@pytest.mark.quick
def test_checkpoint_rule_flags_missing_setstate():
    findings = list(
        CheckpointCoverageRule(graphs=[("nosetstate", _SlottedNoSetstate())]).check()
    )
    assert any("no __setstate__" in f.message for f in findings)


@pytest.mark.quick
def test_checkpoint_rule_flags_unpicklable_member():
    findings = list(
        CheckpointCoverageRule(graphs=[("lambda", _Unpicklable())]).check()
    )
    assert any("does not pickle round-trip" in f.message for f in findings)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.mark.quick
def test_cli_exit_codes_and_json(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = FIXTURES / "determinism_bad.py"
    # Fixture paths carry no repro module prefix, so package-scoped
    # rules skip them unless the tree is laid out as repro/... — build
    # a tiny repro-shaped tree to exercise the real path derivation.
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "badfixture.py").write_text(bad.read_text())

    assert main([str(pkg), "--no-introspect", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert all(f["rule"] == "determinism" for f in payload["findings"])
    assert payload["findings"][0]["line"] > 0

    clean = FIXTURES / "determinism_ok.py"
    (pkg / "badfixture.py").write_text(clean.read_text())
    assert main([str(pkg), "--no-introspect"]) == 0
    assert "clean" in capsys.readouterr().out


@pytest.mark.quick
def test_cli_writes_nothing(tmp_path, capsys, monkeypatch):
    # The checker is read-only: two runs from a scratch working
    # directory leave its listing exactly as it was.
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "fixture.py").write_text((FIXTURES / "determinism_bad.py").read_text())

    def listing() -> list[str]:
        return sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))

    before = listing()
    assert main([str(pkg), "--no-introspect"]) == 1
    first = capsys.readouterr().out
    assert main([str(pkg), "--no-introspect"]) == 1
    second = capsys.readouterr().out
    assert listing() == before
    # Same verdict both times; the summaries differ only in wall time.
    assert first.rsplit(" in ", 1)[0] == second.rsplit(" in ", 1)[0]


@pytest.mark.quick
def test_cli_sees_an_edit_that_keeps_size_and_mtime(tmp_path, capsys, monkeypatch):
    # Nothing carries over between runs: an edit that leaves the file's
    # size and modification time as they were still flips the verdict.
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    module = pkg / "fixture.py"
    clean = (
        "import random\n\n\n"
        "def pick(options, seed):\n"
        "    return random.Random(seed).choice(options)\n"
    )
    body = "import random\n\n\ndef pick(options, seed):\n    return random.choice(options)\n"
    bad = body + "#" * (len(clean) - len(body) - 1) + "\n"
    assert len(bad) == len(clean)

    argv = [str(pkg), "--no-introspect", "--rules", "determinism"]
    module.write_text(clean)
    before = module.stat()
    assert main(argv) == 0
    capsys.readouterr()

    module.write_text(bad)
    os.utime(module, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = module.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "fixture.py:5:" in out and "[determinism]" in out


@pytest.mark.quick
@pytest.mark.parametrize(
    "argv",
    [
        ["--cache", "lint_cache.json"],
        ["--no-cache"],
        ["--changed"],
        ["--baseline", "lint_baseline.json"],
        ["--update-baseline"],
        ["--no-project"],
    ],
    ids=lambda argv: argv[0].lstrip("-"),
)
def test_cli_has_no_cache_baseline_or_project_switches(argv, capsys):
    # Every run takes the one path, so these switches are usage errors
    # rather than options that are quietly accepted.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.quick
def test_run_takes_paths_and_three_options():
    params = inspect.signature(run).parameters
    assert list(params) == ["paths", "rules", "introspect", "module_override"]
    assert all(
        param.kind is inspect.Parameter.KEYWORD_ONLY
        for name, param in params.items()
        if name != "paths"
    )
    assert [f.name for f in dataclasses.fields(Report)] == [
        "findings",
        "suppressed",
        "files_checked",
    ]


@pytest.mark.quick
def test_cli_rejects_unknown_rules():
    with pytest.raises(SystemExit):
        main(["--rules", "no-such-rule"])


@pytest.mark.quick
def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("determinism", "fingerprint", "checkpoint", "layering", "hygiene"):
        assert rule in out


@pytest.mark.quick
def test_cli_list_rules_prints_name_and_kind_per_rule(capsys):
    assert main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == all_rule_names()
    # The kind follows the name directly; rules carry no version.
    assert {line.split()[1] for line in lines} <= {
        "[ast]",
        "[project]",
        "[introspection]",
    }


@pytest.mark.quick
def test_module_name_derivation():
    assert module_name_of(Path("src/repro/sim/cache.py")) == "repro.sim.cache"
    assert module_name_of(Path("src/repro/api/__init__.py")) == "repro.api"
    assert module_name_of(Path("elsewhere/module.py")) is None


# ---------------------------------------------------------------------------
# the real tree: the CI gate
# ---------------------------------------------------------------------------


def test_full_tree_is_clean_including_introspection():
    """`python -m repro.analysis src/repro` must exit 0 on this tree.

    Every rule (AST, whole-program and introspection) over the real
    package; pragmas are the only suppression.  Introspection warms a
    real replay graph per registered prefetcher, so this also pins
    "every prefetcher checkpoints".
    """
    report = run([SRC_REPRO], introspect=True)
    assert report.findings == []
    assert report.files_checked > 50
