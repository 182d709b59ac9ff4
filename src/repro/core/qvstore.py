"""QVStore: the hierarchical, tile-coded Q-value store (§4.2.1).

Organization (Fig 5): one *vault* per program feature; each vault holds
``N`` *planes*, small tables indexed by a per-plane hash of the feature
value and by the action.  Retrieval:

    Q(φ_i, A) = Σ_planes  plane[idx_p(φ_i), A]          (Fig 5b)
    Q(S, A)   = max_i  Q(φ_i, A)                         (Eqn 3)

The max across vaults lets whichever feature correlates best with the
current pattern drive the decision; the per-plane sum is standard tile
coding.  SARSA updates apply the TD error to every plane of every vault
(the gradient of the sum), as the Pythia artifact does.

Two interchangeable implementations live here:

* :class:`QVStore` — the original pure-Python nested-list store.  Kept
  as the reference the fast path is pinned against
  (``tests/test_hotpath_equivalence.py``).
* :class:`NumpyQVStore` — one preallocated flat cell buffer in array
  layout for the whole store, scalar hot-path reads/updates, and a
  per-state Q-row cache invalidated by per-row version counters (one
  row reduction serves every action-select between learning updates).
  This is the store :class:`repro.core.agent.SarsaAgent` builds: the
  two implementations produce bit-identical Q-values by construction
  (same summation order, same update arithmetic), and checkpoints
  serialize through the same NumPy ``(features, planes, entries,
  actions)`` table as before.
"""

from __future__ import annotations

from array import array
from operator import add as _add, itemgetter

import numpy as _np

from repro.core.config import PythiaConfig
from repro.core.tile_coding import plane_indices

#: State values as passed around by the agent: one int per feature.
StateValues = tuple[int, ...]

#: Bound on memoization dictionaries (feature-value index caches and the
#: per-state Q-row cache); caches are cleared wholesale when exceeded.
_CACHE_LIMIT = 65536


class Vault:
    """Q-value storage for one program feature.

    Plain nested lists, not numpy: lookups touch three 16-float rows per
    query and per-element Python arithmetic beats small-array numpy
    dispatch by a wide margin on the simulator's hot path.
    """

    def __init__(self, config: PythiaConfig) -> None:
        self._shifts = config.plane_shifts
        self._entries = config.plane_entries
        self._num_actions = config.num_actions
        init = config.initial_q / config.num_planes
        self._planes: list[list[list[float]]] = [
            [[init] * config.num_actions for _ in range(config.plane_entries)]
            for _ in range(config.num_planes)
        ]
        self._index_cache: dict[int, tuple[int, ...]] = {}

    def indices(self, value: int) -> tuple[int, ...]:
        """Plane row indices for a feature *value* (memoized)."""
        cached = self._index_cache.get(value)
        if cached is None:
            cached = plane_indices(value, self._shifts, self._entries)
            if len(self._index_cache) > _CACHE_LIMIT:
                self._index_cache.clear()
            self._index_cache[value] = cached
        return cached

    def q_row(self, value: int) -> list[float]:
        """Q(φ, A) for all actions: the sum of partial rows (Fig 5b)."""
        rows = [
            self._planes[p][i] for p, i in enumerate(self.indices(value))
        ]
        first = rows[0]
        total = list(first)
        for row in rows[1:]:
            for a in range(self._num_actions):
                total[a] += row[a]
        return total

    def update(self, value: int, action: int, step: float) -> None:
        """Apply a TD step to every plane's partial Q for (value, action)."""
        for p, i in enumerate(self.indices(value)):
            self._planes[p][i][action] += step

    @property
    def storage_entries(self) -> int:
        """Total Q-value entries held (Table 4 accounting)."""
        return len(self._planes) * self._entries * self._num_actions


class QVStore:
    """The full store: one vault per constituent feature (pure Python)."""

    def __init__(self, config: PythiaConfig) -> None:
        self.config = config
        self.vaults = [Vault(config) for _ in config.features]

    def q_values(self, state: StateValues) -> list[float]:
        """Q(S, A) for every action: max over vaults (Eqn 3)."""
        rows = [vault.q_row(v) for vault, v in zip(self.vaults, state)]
        best = rows[0]
        if len(rows) == 1:
            return best
        total = list(best)
        for row in rows[1:]:
            for a in range(len(total)):
                if row[a] > total[a]:
                    total[a] = row[a]
        return total

    def q_value(self, state: StateValues, action: int) -> float:
        """Q(S, A) for one action."""
        return self.q_values(state)[action]

    def best_action(self, state: StateValues) -> tuple[int, float]:
        """Action index with the maximum Q-value, and that value."""
        q = self.q_values(state)
        best_a = 0
        best_q = q[0]
        for a in range(1, len(q)):
            if q[a] > best_q:
                best_q = q[a]
                best_a = a
        return best_a, best_q

    def sarsa_update(
        self,
        state: StateValues,
        action: int,
        reward: float,
        next_state: StateValues,
        next_action: int,
    ) -> float:
        """One SARSA step (Eqn 1 / Algorithm 1 line 29); returns the TD error.

        The TD error is computed once from the state-level Q-values and
        applied (scaled by α) to every plane of every vault.
        """
        q_sa = self.q_value(state, action)
        q_next = self.q_value(next_state, next_action)
        td_error = reward + self.config.gamma * q_next - q_sa
        step = self.config.alpha * td_error
        for vault, value in zip(self.vaults, state):
            vault.update(value, action, step)
        return td_error

    @property
    def storage_entries(self) -> int:
        """Total Q-value entries across vaults (Table 4 accounting)."""
        return sum(v.storage_entries for v in self.vaults)


class NumpyQVStore:
    """Array-layout tile-coded Q-store: the simulator's fast path.

    The whole store is one preallocated flat cell buffer laid out as
    ``(features, planes, entries, actions)`` in row-major order — the
    element index of ``(row, action)`` is ``row * num_actions + action``
    with row id ``(f * planes + p) * entries + i``.  The buffer is an
    ``array("d")``, the layout the native kernel replays on in place
    (``CoreArgs.qcells``): every hot access here is a single scalar read
    or read-modify-write, and checkpoints serialize it as one NumPy
    ``float64`` table.  An ``array("d")`` element and a Python float are
    the same IEEE-754 double, and every reduction below keeps the
    reference store's left-to-right association, so the two
    implementations stay bit-identical.  A writer other than this class
    (the kernel) must clear ``_state_cache`` afterwards: the version
    counters cannot see its writes.

    On top sits a per-state cache holding everything derived from a
    state value in one entry — flat row ids, element bases, a versions
    itemgetter, and (when valid) the reduced Q-row with its memoized
    argmax.  Each table row carries a version counter (bumped on
    update), and a cached Q-row is served only while the versions of
    every row it was reduced from are unchanged.  Loop-heavy traces
    revisit a small state set, so most selections are one dict probe
    plus an int-tuple compare — this is what "batch Q-table row reads
    between learning updates" amounts to: one reduction is reused
    across every select in the update-free stretch.  Reductions
    themselves run through C-level ``map``: elementwise ``add`` keeps
    the per-plane left-to-right summation, elementwise ``max`` keeps
    the reference's keep-first tie-break, so bit-identity survives.

    Single-(state, action) reads (``q_value``, the SARSA bootstrap pair)
    and TD steps bypass the row machinery entirely: they touch exactly
    ``features·planes`` scalars via flat element indices.
    """

    def __init__(self, config: PythiaConfig) -> None:
        self.config = config
        self._shifts = config.plane_shifts
        self._entries = config.plane_entries
        self._num_actions = config.num_actions
        self._num_planes = config.num_planes
        self._num_features = len(config.features)
        num_rows = self._num_features * self._num_planes * self._entries
        init = config.initial_q / config.num_planes
        #: The flat cell buffer (see class docstring for the layout).
        self._cells = array("d", [init]) * (num_rows * self._num_actions)
        #: Per-row update counters backing cache invalidation.
        self._versions: list[int] = [0] * num_rows
        self._alpha = config.alpha
        self._gamma = config.gamma
        # The paper's basic geometry (2 features × 3 planes) gets fully
        # unrolled reduction fast paths; anything else takes the generic
        # loops below.  Both compute the same left-to-right reductions.
        self._basic_geom = self._num_features == 2 and self._num_planes == 3
        self._index_cache: dict[int, tuple[int, ...]] = {}
        #: state -> [row ids, element bases, versions itemgetter,
        #:           version key at reduce time (None = stale),
        #:           reduced Q-row, memoized argmax (-1 = unknown)]
        self._state_cache: dict[StateValues, list] = {}

    # -- indexing ----------------------------------------------------------

    def _plane_indices(self, value: int) -> tuple[int, ...]:
        cached = self._index_cache.get(value)
        if cached is None:
            cached = plane_indices(value, self._shifts, self._entries)
            if len(self._index_cache) > _CACHE_LIMIT:
                self._index_cache.clear()
            self._index_cache[value] = cached
        return cached

    def _vault_rows(self, feature: int, value: int) -> list[int]:
        """Flat row ids of *value*'s partial rows in *feature*'s vault."""
        base = feature * self._num_planes
        entries = self._entries
        return [
            (base + p) * entries + i
            for p, i in enumerate(self._plane_indices(value))
        ]

    def _state_entry(self, state: StateValues) -> list:
        entry = self._state_cache.get(state)
        if entry is None:
            rows: list[int] = []
            for f, value in enumerate(state):
                rows.extend(self._vault_rows(f, value))
            bases = [r * self._num_actions for r in rows]
            entry = [rows, bases, itemgetter(*rows), None, None, -1]
            if len(self._state_cache) > _CACHE_LIMIT:
                self._state_cache.clear()
            self._state_cache[state] = entry
        return entry

    def _reduce(self, entry: list, version_key) -> list[float]:
        """Recompute *entry*'s Q-row and stamp it with *version_key*.

        Per vault: slice the first plane's row, then elementwise-add the
        remaining planes via C-level ``map`` (same left-to-right order as
        the reference's per-element loop).  Across vaults: elementwise
        ``max`` — Python's ``max`` returns its first argument on ties, so
        carrying the accumulated row first preserves the reference's
        strict-``>`` replace rule (including ``-0.0`` vs ``0.0``).
        """
        cells = self._cells
        num_actions = self._num_actions
        bases = entry[1]
        if self._basic_geom:
            n = num_actions
            b0, b1, b2, b3, b4, b5 = bases
            row1 = map(
                _add,
                map(_add, cells[b0 : b0 + n], cells[b1 : b1 + n]),
                cells[b2 : b2 + n],
            )
            row2 = map(
                _add,
                map(_add, cells[b3 : b3 + n], cells[b4 : b4 + n]),
                cells[b5 : b5 + n],
            )
            q = list(map(max, row1, row2))
        else:
            planes = self._num_planes
            q = None
            for f in range(0, len(bases), planes):
                base = bases[f]
                row = cells[base : base + num_actions].tolist()
                for p in range(1, planes):
                    b = bases[f + p]
                    row = list(map(_add, row, cells[b : b + num_actions]))
                q = row if q is None else list(map(max, q, row))
        entry[3] = version_key
        entry[4] = q
        entry[5] = -1
        return q

    def _q_one(self, bases: list[int], action: int) -> float:
        """Q(S, A) for one action from precomputed element bases."""
        cells = self._cells
        if self._basic_geom:
            b0, b1, b2, b3, b4, b5 = bases
            q1 = cells[b0 + action] + cells[b1 + action] + cells[b2 + action]
            q2 = cells[b3 + action] + cells[b4 + action] + cells[b5 + action]
            return q2 if q2 > q1 else q1
        planes = self._num_planes
        best = None
        for f in range(0, len(bases), planes):
            q = cells[bases[f] + action]
            for p in range(1, planes):
                q += cells[bases[f + p] + action]
            if best is None or q > best:
                best = q
        return best

    # -- queries -----------------------------------------------------------

    def q_values(self, state: StateValues) -> list[float]:
        """Q(S, A) for every action: max over vaults (Eqn 3)."""
        entry = self._state_entry(state)
        version_key = entry[2](self._versions)
        if entry[3] == version_key:
            return entry[4]
        return self._reduce(entry, version_key)

    def q_value(self, state: StateValues, action: int) -> float:
        """Q(S, A) for one action.

        Touches exactly the features·planes scalars that back the
        (state, action) pair — the SARSA bootstrap reads per record stay
        off the row-reduction path entirely.  Summation and max order
        match the pure-Python store bit for bit.
        """
        return self._q_one(self._state_entry(state)[1], action)

    def best_action(self, state: StateValues) -> tuple[int, float]:
        """Action index with the maximum Q-value, and that value.

        The scan keeps the first maximal index (the pure-Python store's
        strict-``>`` rule, via ``max`` over indices keyed by the row, which
        also keeps the first of equals); the index is memoized on the
        cache entry so repeat selections of a stable state cost one dict
        probe and one int-tuple compare.
        """
        entry = self._state_entry(state)
        version_key = entry[2](self._versions)
        if entry[3] == version_key:
            q = entry[4]
        else:
            q = self._reduce(entry, version_key)
        action = entry[5]
        if action < 0:
            action = max(range(len(q)), key=q.__getitem__)
            entry[5] = action
        return action, q[action]

    def sarsa_update(
        self,
        state: StateValues,
        action: int,
        reward: float,
        next_state: StateValues,
        next_action: int,
    ) -> float:
        """One SARSA step (Eqn 1 / Algorithm 1 line 29); returns the TD error.

        If *state*'s cached Q-row was valid going in, it is patched in
        place instead of being invalidated: this update touches exactly
        one action column of exactly the rows the cached reduction came
        from, so recomputing that single scalar keeps the cache exact.
        Loop-heavy traces hammer one state with interleaved
        select/update, making this the difference between a cache that
        always hits and one that always misses.
        """
        entry = self._state_entry(state)
        bases = entry[1]
        q_sa = self._q_one(bases, action)
        if next_state == state:
            q_next = self._q_one(bases, next_action)
        else:
            q_next = self._q_one(self._state_entry(next_state)[1], next_action)
        td_error = reward + self._gamma * q_next - q_sa
        step = self._alpha * td_error
        was_valid = entry[3] == entry[2](self._versions)
        cells = self._cells
        versions = self._versions
        for r, b in zip(entry[0], entry[1]):
            e = b + action
            cells[e] = cells[e] + step
            versions[r] += 1
        if was_valid:
            entry[4][action] = self._q_one(bases, action)
            entry[3] = entry[2](versions)
            entry[5] = -1  # argmax may have moved; recompute lazily
        return td_error

    @property
    def storage_entries(self) -> int:
        """Total Q-value entries across vaults (Table 4 accounting)."""
        return len(self._cells)

    # -- serialization -----------------------------------------------------

    def __getstate__(self):
        """Pickle only the semantic state: the config and the Q-table.

        The cell buffer is serialized as one NumPy ``float64`` table of
        shape ``(features, planes, entries, actions)``.  The memo caches
        hold pure, rebuildable accelerations, and the
        version counters only gate those caches; restoring re-derives
        everything from ``(config, table)`` with empty caches —
        Q-values, and therefore simulated behaviour, are bit-identical.
        """
        table = _np.array(self._cells, dtype=_np.float64).reshape(
            self._num_features, self._num_planes, self._entries, self._num_actions
        )
        return {"config": self.config, "table": table}

    def __setstate__(self, state) -> None:
        self.__init__(state["config"])
        self._cells = array("d", _np.asarray(state["table"], _np.float64).tobytes())

