"""The SARSA agent: policy + learning loop over QVStore and EQ.

This class is the RL half of Pythia, separated from the prefetcher
plumbing so it can be unit-tested (and reused) without a simulator:
given observations and reward events it maintains the Q-values and
selects actions ε-greedily.
"""

from __future__ import annotations

import random

from repro.core.config import PythiaConfig
from repro.core.eq import EqEntry, EvaluationQueue
from repro.core.qvstore import StateValues, make_qvstore


class SarsaAgent:
    """ε-greedy SARSA agent with an evaluation queue for delayed rewards."""

    def __init__(self, config: PythiaConfig) -> None:
        self.config = config
        self.qvstore = make_qvstore(config)
        self.eq = EvaluationQueue(config.eq_size, len(config.features))
        self._rng = random.Random(config.seed)
        self._rng_random = self._rng.random  # bound-method hoist (hot path)
        self._epsilon = config.epsilon
        self.updates = 0
        self.explorations = 0

    def select_action(self, state: StateValues) -> int:
        """Pick an action index: ε-random, otherwise argmax Q (lines 13-16)."""
        if self._rng_random() <= self._epsilon:
            self.explorations += 1
            return self._rng.randrange(self.config.num_actions)
        action, _ = self.qvstore.best_action(state)
        return action

    def record(self, entry: EqEntry, bandwidth_high: bool = False) -> EqEntry | None:
        """Insert a taken action into the EQ; learn from the eviction.

        If the EQ evicts an entry that never earned a reward, the
        prefetch was inaccurate: assign R_IN for the *current* bandwidth
        condition, then run the SARSA update against the EQ head
        (Algorithm 1, lines 23-29).  Returns the evicted entry with the
        reward it was updated with, or ``None``.
        """
        evicted = self.eq.insert(entry)
        if evicted is None:
            return None
        if evicted.reward is None:
            evicted.reward = self.config.rewards.inaccurate(bandwidth_high)
        head = self.eq.head
        if head is None:  # capacity 1: degenerate, bootstrap on itself
            next_state, next_action = evicted.state, evicted.action
        else:
            next_state, next_action = head.state, head.action
        self.qvstore.sarsa_update(
            evicted.state,
            evicted.action,
            evicted.reward,
            next_state,
            next_action,
        )
        self.updates += 1
        return evicted

    def next_eviction(self) -> EqEntry | None:
        """The entry that will be evicted by the next insert, if full."""
        if len(self.eq) < self.config.eq_size:
            return None
        return self.eq.head
