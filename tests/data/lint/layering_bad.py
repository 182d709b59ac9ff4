"""Fixture: layering inversions (analyzed as a repro.sim module)."""

from repro.api import Session

import repro.harness


def legal_runtime_hop():
    # Function-scoped upward imports are the sanctioned escape hatch.
    from repro.api import ResultStore

    return ResultStore
