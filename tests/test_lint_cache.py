"""The incremental analysis cache: reuse, invalidation, and decay.

Each test builds a small repro-shaped tree under ``tmp_path`` and runs
the real engine against a real :class:`AnalysisCache` sidecar, pinning
the contract the CLI leans on:

* a warm rerun re-parses **nothing** (every file served by CRC stamp,
  the cross-file pass by the combined stamp);
* touching one file re-analyzes exactly that file — plus the
  cross-file pass, which any stamp change must invalidate;
* editing a file a rule reads for another file (``kernel.c`` for the
  ``native`` rule's check of ``build.py``) re-analyzes that file;
* bumping any rule's ``version`` changes the ruleset signature and
  invalidates everything;
* suppression always re-runs over cached raw findings, so cache hits
  can never serve a stale pragma/baseline decision;
* a corrupt sidecar degrades to a cold run instead of crashing.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import pytest

from repro.analysis import Baseline, run
from repro.analysis.__main__ import main
from repro.analysis.cache import AnalysisCache, ruleset_signature
from repro.analysis.rules import AST_RULES

CLEAN_ALPHA = (
    "def scale(values, factor):\n"
    "    return [v * factor for v in values]\n"
)
CLEAN_EXEC = (
    "LIMIT = 8\n"
    "def dispatch(cells):\n"
    "    return [c() for c in cells][:LIMIT]\n"
)


def write_tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "repro"
    (pkg / "sim").mkdir(parents=True)
    (pkg / "api").mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "sim" / "__init__.py").write_text("")
    (pkg / "api" / "__init__.py").write_text("")
    (pkg / "sim" / "alpha.py").write_text(CLEAN_ALPHA)
    (pkg / "api" / "exec.py").write_text(CLEAN_EXEC)
    return pkg


def run_cached(pkg: Path, cache: AnalysisCache):
    return run(
        [pkg],
        baseline=Baseline(),
        introspect=False,
        cache=cache,
    )


@pytest.mark.quick
def test_warm_rerun_reuses_every_file_and_the_project_pass(tmp_path):
    pkg = write_tree(tmp_path)
    sidecar = tmp_path / "cache.json"

    cold = run_cached(pkg, AnalysisCache(sidecar))
    assert cold.findings == []
    assert cold.files_reused == 0
    assert cold.files_reparsed == cold.files_checked == 5
    assert not cold.project_reused
    assert sidecar.exists()

    warm = run_cached(pkg, AnalysisCache(sidecar))
    assert warm.findings == []
    assert warm.files_reused == warm.files_checked == 5
    assert warm.files_reparsed == 0
    assert warm.project_reused


@pytest.mark.quick
def test_touching_one_file_reanalyzes_exactly_it(tmp_path):
    pkg = write_tree(tmp_path)
    sidecar = tmp_path / "cache.json"
    run_cached(pkg, AnalysisCache(sidecar))

    (pkg / "sim" / "alpha.py").write_text(CLEAN_ALPHA + "\n# touched\n")
    rerun = run_cached(pkg, AnalysisCache(sidecar))
    assert rerun.files_reparsed == 1  # exactly the touched file
    assert rerun.files_reused == rerun.files_checked - 1
    # Any stamp movement invalidates the whole-program pass.
    assert not rerun.project_reused

    # And the run after that is fully warm again.
    warm = run_cached(pkg, AnalysisCache(sidecar))
    assert warm.files_reparsed == 0
    assert warm.project_reused


@pytest.mark.quick
def test_editing_a_file_a_rule_reads_reanalyzes_its_reader(tmp_path):
    """The ``native`` rule checks ``sim/_native/build.py``'s pinned CRC
    against the sibling ``kernel.c``: editing only ``kernel.c`` must
    re-check ``build.py`` on the next warm run instead of serving its
    cached clean verdict."""
    pkg = write_tree(tmp_path)
    native = pkg / "sim" / "_native"
    native.mkdir()
    (native / "__init__.py").write_text("")
    kernel = native / "kernel.c"
    kernel.write_text("int repro_kernel(void) { return 0; }\n")
    crc = zlib.crc32(kernel.read_bytes())
    (native / "build.py").write_text(f"KERNEL_SOURCE_CRC = 0x{crc:08X}\n")
    sidecar = tmp_path / "cache.json"
    assert run_cached(pkg, AnalysisCache(sidecar)).findings == []
    warm = run_cached(pkg, AnalysisCache(sidecar))
    assert warm.findings == [] and warm.files_reparsed == 0

    kernel.write_text("int repro_kernel(void) { return 1; }\n")
    edited = run_cached(pkg, AnalysisCache(sidecar))
    assert [f.rule for f in edited.findings] == ["native"]
    assert edited.findings[0].path.endswith("build.py")
    assert edited.files_reparsed == 1  # build.py, re-checked


@pytest.mark.quick
def test_rule_version_bump_invalidates_everything(tmp_path, monkeypatch):
    pkg = write_tree(tmp_path)
    sidecar = tmp_path / "cache.json"
    run_cached(pkg, AnalysisCache(sidecar))
    before = ruleset_signature()

    monkeypatch.setattr(AST_RULES["hygiene"], "version", 99)
    assert ruleset_signature() != before
    bumped = run_cached(pkg, AnalysisCache(sidecar))
    assert bumped.files_reused == 0
    assert bumped.files_reparsed == bumped.files_checked
    assert not bumped.project_reused


@pytest.mark.quick
def test_cache_hits_rerun_suppression_over_raw_findings(tmp_path):
    pkg = write_tree(tmp_path)
    (pkg / "sim" / "beta.py").write_text(
        "def collect(into=[]):\n"
        "    return into\n"
        "def tally(counts={}):  # repro: ignore[hygiene]\n"
        "    return counts\n"
    )
    sidecar = tmp_path / "cache.json"

    cold = run_cached(pkg, AnalysisCache(sidecar))
    assert [f.rule for f in cold.findings] == ["hygiene"]
    assert cold.suppressed == 1

    warm = run_cached(pkg, AnalysisCache(sidecar))
    assert warm.files_reparsed == 0
    # Identical verdicts from cached raw findings + re-run suppression.
    assert warm.findings == cold.findings
    assert warm.suppressed == 1

    # A baseline recorded now suppresses the cached finding too.
    baseline_file = tmp_path / "baseline.json"
    Baseline.save(baseline_file, cold.findings)
    grandfathered = run(
        [pkg],
        baseline=Baseline.load(baseline_file),
        introspect=False,
        cache=AnalysisCache(sidecar),
    )
    assert grandfathered.findings == []
    assert grandfathered.suppressed == 2


@pytest.mark.quick
def test_corrupt_sidecar_degrades_to_cold_run(tmp_path):
    pkg = write_tree(tmp_path)
    sidecar = tmp_path / "cache.json"
    sidecar.write_text("{not json")

    report = run_cached(pkg, AnalysisCache(sidecar))
    assert report.findings == []
    assert report.files_reused == 0
    # The rewrite leaves a loadable sidecar behind.
    assert json.loads(sidecar.read_text())
    warm = run_cached(pkg, AnalysisCache(sidecar))
    assert warm.files_reparsed == 0


@pytest.mark.quick
def test_cli_warm_summary_reports_zero_reparsed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no committed baseline in reach
    pkg = write_tree(tmp_path)
    args = [str(pkg), "--no-introspect", "--cache", str(tmp_path / "c.json")]

    assert main(args) == 0
    assert "re-parsed" in capsys.readouterr().out
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "0 re-parsed" in out
    assert "5 cached" in out
    assert "clean" in out


@pytest.mark.quick
def test_no_cache_flag_never_writes_a_sidecar(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pkg = write_tree(tmp_path)
    assert (
        main([str(pkg), "--no-introspect", "--no-cache", "--cache", "c.json"])
        == 0
    )
    capsys.readouterr()
    assert not (tmp_path / "c.json").exists()
