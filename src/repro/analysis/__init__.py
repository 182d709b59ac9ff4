"""Static analysis enforcing the platform's soundness invariants.

The result store, the process-pool executor, and checkpoint/resume are
only correct under invariants the type system cannot see: replay must
be deterministic (no builtin ``hash``, no global ``random`` stream, no
wall clock in simulation packages), fingerprints must fold in every
semantic config field, everything reachable from ``EngineState`` must
pickle completely, and the layering DAG must not invert.  This package
machine-checks all of them on every PR:

>>> python -m repro.analysis src/repro        # doctest: +SKIP

Architecture (see ``repro.analysis.rules`` for the rule registry):

* pure-AST rules run per file (``determinism``, ``layering``,
  ``hygiene``);
* import-time introspection rules inspect the live package once
  (``fingerprint``, ``checkpoint``);
* whole-program rules parse the package tree once (``concurrency``,
  ``hotpath``);
* per-line ``# repro: ignore[rule]`` pragmas suppress findings, and a
  pragma that suppresses nothing is itself a finding
  (``unused-pragma``).
"""

from repro.analysis.engine import Report, collect_files, module_name_of, run
from repro.analysis.findings import Finding
from repro.analysis.pragmas import PragmaIndex
from repro.analysis.rules import (
    AST_RULES,
    INTROSPECTION_RULES,
    AstRule,
    FileContext,
    IntrospectionRule,
    all_rule_names,
    register,
)

__all__ = [
    "AST_RULES",
    "AstRule",
    "FileContext",
    "Finding",
    "INTROSPECTION_RULES",
    "IntrospectionRule",
    "PragmaIndex",
    "Report",
    "all_rule_names",
    "collect_files",
    "module_name_of",
    "register",
    "run",
]
