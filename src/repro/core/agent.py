"""The SARSA agent: policy + learning loop over QVStore and EQ.

This class is the RL half of Pythia, separated from the prefetcher
plumbing so it can be unit-tested (and reused) without a simulator:
given observations and reward events it maintains the Q-values and
selects actions ε-greedily.  :meth:`repro.core.pythia.Pythia.train_cols`
drives it once per trained record.
"""

from __future__ import annotations

import random

from repro.core.config import PythiaConfig
from repro.core.eq import HAS_REWARD, EvaluationQueue
from repro.core.qvstore import NumpyQVStore, StateValues


class SarsaAgent:
    """ε-greedy SARSA agent with an evaluation queue for delayed rewards."""

    def __init__(self, config: PythiaConfig) -> None:
        self.config = config
        self.qvstore = NumpyQVStore(config)
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

    def record(
        self,
        state: StateValues,
        action: int,
        line: int,
        reward: float,
        flags: int,
        bandwidth_high: bool,
    ) -> bool:
        """Push a taken action into the EQ; learn from the eviction.

        The entry is given on raw fields (:meth:`EvaluationQueue.push`).
        When the EQ is full its oldest entry is evicted first; one that
        never earned a reward was an inaccurate prefetch and gets R_IN
        for the *current* bandwidth condition.  The evicted entry's
        (state, action, reward) then takes one SARSA step against the
        EQ head after the push (Algorithm 1, lines 23-29).  Returns
        whether R_IN was assigned.
        """
        eq = self.eq
        if eq.count < eq.capacity:
            eq.push(state, action, line, reward, flags)
            return False
        evicted = eq.evict()
        evicted_state = eq.state_at(evicted)
        evicted_action = eq.action[evicted]
        inaccurate = not eq.flags[evicted] & HAS_REWARD
        if inaccurate:
            evicted_reward = self.config.rewards.inaccurate(bandwidth_high)
        else:
            evicted_reward = eq.reward[evicted]
        eq.push(state, action, line, reward, flags)
        head = eq.head_slot
        self.qvstore.sarsa_update(
            evicted_state,
            evicted_action,
            evicted_reward,
            eq.state_at(head),
            eq.action[head],
        )
        self.updates += 1
        return inaccurate
