"""EQ: the evaluation queue of recently-taken actions (§4.2.3).

Pythia cannot reward an action when it takes it — whether the prefetch
turns out useful is only known later.  The EQ is a FIFO of the last
``eq_size`` actions; rewards attach to entries at three moments:

1. **insertion** — no-prefetch and out-of-page actions get their reward
   immediately;
2. **residency** — a demand matching the entry's prefetch address earns
   R_AT or R_AL depending on the *filled* bit;
3. **eviction** — entries still unrewarded were inaccurate (R_IN, by
   bandwidth usage).

On eviction the entry's (state, action, reward) plus the (state, action)
at the EQ *head* form the SARSA update pair.
"""

from __future__ import annotations

from array import array

from repro.core.qvstore import StateValues

#: ``EvaluationQueue.flags`` bits.
HAS_REWARD = 1
FILLED = 2


class EvaluationQueue:
    """Fixed-capacity FIFO of taken actions with address lookup.

    The queue is a ring of per-slot typed buffers, the layout the native
    kernel replays on in place (``CoreArgs.eq_*``):

    * ``state`` (``array("q")``, ``capacity * num_features``) — each
      slot's feature values;
    * ``action`` (``array("q")``) — the action index;
    * ``line`` (``array("q")``) — the prefetch line, ``-1`` for none;
    * ``reward`` (``array("d")``) — the reward, valid under
      :data:`HAS_REWARD`;
    * ``flags`` (``bytearray``) — :data:`HAS_REWARD` | :data:`FILLED`;

    with the oldest entry at slot ``head_slot`` and ``count`` entries
    resident.  :meth:`by_line` maps each prefetch line to the slot of its
    most recent resident entry.  Entries are read and written by slot:
    :meth:`repro.core.agent.SarsaAgent.record` inserts through
    :meth:`evict` and :meth:`push`.
    """

    def __init__(self, capacity: int, num_features: int = 2) -> None:
        if capacity <= 0:
            raise ValueError("EQ capacity must be positive")
        self.capacity = capacity
        self.num_features = num_features
        self.state = array("q", bytes(8 * capacity * num_features))
        self.action = array("q", bytes(8 * capacity))
        self.line = array("q", [-1]) * capacity
        self.reward = array("d", bytes(8 * capacity))
        self.flags = bytearray(capacity)
        self.head_slot = 0
        self.count = 0
        self._by_line: dict[int, int] | None = {}

    def __len__(self) -> int:
        return self.count

    def state_at(self, slot: int) -> StateValues:
        """The feature values held in *slot*."""
        base = slot * self.num_features
        return tuple(self.state[base : base + self.num_features])

    def by_line(self) -> dict[int, int]:
        """``line -> slot`` of the most recent resident entry per prefetch
        line.  After :meth:`drop_index` it is rebuilt from the ring on
        first use, oldest to newest, so the most recent entry wins."""
        by_line = self._by_line
        if by_line is None:
            slots = self._ring()
            by_line = dict(zip(map(self.line.__getitem__, slots), slots))
            by_line.pop(-1, None)  # the entries without a prefetch line
            self._by_line = by_line
        return by_line

    def drop_index(self) -> None:
        """Forget :meth:`by_line` after the ring was written from outside
        (the native kernel replays on it in place)."""
        self._by_line = None

    def __getstate__(self) -> dict:
        """Pickle the ring alone; :meth:`by_line` is rebuilt on first use
        after restore."""
        state = self.__dict__.copy()
        state["_by_line"] = None
        return state

    def mark_filled(self, line: int) -> bool:
        """Set the filled bit for *line*'s entry (Algorithm 1 line 32)."""
        slot = self.by_line().get(line)
        if slot is None:
            return False
        self.flags[slot] |= FILLED
        return True

    def evict(self) -> int:
        """Drop the oldest entry; return its slot.

        The slot's fields stay readable until the next :meth:`push`,
        which (the queue being full) overwrites exactly this slot.
        """
        slot = self.head_slot
        line = self.line[slot]
        if line >= 0:
            by_line = self.by_line()
            if by_line.get(line) == slot:
                del by_line[line]
        self.head_slot = (slot + 1) % self.capacity
        self.count -= 1
        return slot

    def push(
        self, state: StateValues, action: int, line: int, reward: float, flags: int
    ) -> None:
        """Append an entry on raw fields (``line`` -1 for none); the
        queue must not be full."""
        slot = (self.head_slot + self.count) % self.capacity
        base = slot * self.num_features
        buf = self.state
        for value in state:
            buf[base] = value
            base += 1
        self.action[slot] = action
        self.line[slot] = line
        self.reward[slot] = reward
        self.flags[slot] = flags
        self.count += 1
        if line >= 0:
            self.by_line()[line] = slot

    def _ring(self) -> list[int]:
        """The resident slots, oldest first."""
        cap = self.capacity
        return [i % cap for i in range(self.head_slot, self.head_slot + self.count)]
