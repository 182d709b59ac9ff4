"""Pythia: the RL-based prefetcher (Algorithm 1, end to end).

For every demand request Pythia:

1. searches the EQ with the demanded address and rewards a matching
   entry R_AT / R_AL by its filled bit (lines 6-11);
2. extracts the state-vector from the request's attributes (line 12);
3. ε-greedily selects a prefetch-offset action (lines 13-16);
4. issues the prefetch — unless the action is 0 (no prefetch) or lands
   outside the physical page, which earn their reward immediately
   (lines 17-22);
5. inserts the new EQ entry; the eviction this causes assigns R_IN if
   needed and performs the SARSA update against the EQ head
   (lines 23-29).

Prefetch fills set the filled bit via :meth:`on_prefetch_fill`
(lines 31-32).
"""

from __future__ import annotations

from repro.core.agent import SarsaAgent
from repro.core.config import PythiaConfig
from repro.core.eq import FILLED, HAS_REWARD
from repro.core.features import (
    BASIC_FEATURES,
    FeatureExtractor,
    Observation,
    compile_encoder,
)
from repro.core.qvstore import StateValues
from repro.prefetchers.base import DemandContext, Prefetcher
from repro.types import LINES_PER_PAGE, make_line


class Pythia(Prefetcher):
    """Customizable RL prefetcher.

    Args:
        config: design-time/register configuration; defaults to the
            basic configuration of Table 2.

    The instance exposes its :class:`~repro.core.agent.SarsaAgent` as
    ``agent`` for introspection (Q-value case studies, tests) and counts
    action selections in ``action_counts`` (Fig 13's "most selected
    offsets" statistic).
    """

    name = "pythia"

    def __init__(self, config: PythiaConfig | None = None) -> None:
        self.config = config if config is not None else PythiaConfig()
        self.agent = SarsaAgent(self.config)
        self.extractor = FeatureExtractor()
        self._encoders = [compile_encoder(spec) for spec in self.config.features]
        # The paper's basic two-feature state-vector has a fused
        # observe+encode path on the extractor (pinned equivalent by
        # tests); other feature sets use the generic encoder chain.
        self._basic_features = self.config.features == BASIC_FEATURES
        self.action_counts = [0] * self.config.num_actions
        self.rewards_assigned: dict[str, int] = {
            "accurate_timely": 0,
            "accurate_late": 0,
            "coverage_loss": 0,
            "inaccurate": 0,
            "no_prefetch": 0,
        }

    # -- Algorithm 1 --------------------------------------------------------

    def train(self, ctx: DemandContext) -> list[int]:
        return self.train_cols(
            ctx.pc,
            ctx.line,
            ctx.page,
            ctx.offset,
            ctx.cycle,
            ctx.is_load,
            ctx.bandwidth_utilization,
            ctx.bandwidth_high,
        )

    def train_cols(
        self,
        pc: int,
        line: int,
        page: int,
        offset: int,
        cycle: int,
        is_load: bool,
        bandwidth_utilization: float,
        bandwidth_high: bool,
    ) -> list[int]:
        """Algorithm 1 on decoded scalars — the one training implementation.

        The batched replay kernel calls this directly with each record's
        column values; the scalar path's :meth:`train` unpacks its
        :class:`DemandContext` into the same arguments, so both backends
        run byte-for-byte the same algorithm.  Action selection and the
        eviction-time R_IN + SARSA step are the agent's
        (:meth:`SarsaAgent.select_action`, :meth:`SarsaAgent.record`).
        """
        config = self.config
        rewards = config.rewards
        agent = self.agent
        eq = agent.eq
        flags = eq.flags
        rewards_assigned = self.rewards_assigned

        # (1) Reward a resident entry whose prefetch this demand vindicates.
        slot = eq.by_line().get(line)
        if slot is not None and not flags[slot] & HAS_REWARD:
            if flags[slot] & FILLED:
                eq.reward[slot] = rewards.accurate_timely
                rewards_assigned["accurate_timely"] += 1
            else:
                eq.reward[slot] = rewards.accurate_late
                rewards_assigned["accurate_late"] += 1
            flags[slot] |= HAS_REWARD

        # (2) Extract the state-vector.
        if self._basic_features:
            state = self.extractor.observe_basic_cols(pc, page, offset)
        else:
            state = self._encode_state(
                self.extractor.observe(
                    DemandContext(
                        pc=pc,
                        line=line,
                        cycle=cycle,
                        is_load=is_load,
                        bandwidth_utilization=bandwidth_utilization,
                        bandwidth_high=bandwidth_high,
                    )
                )
            )

        # (3) Select an action.
        action = agent.select_action(state)
        self.action_counts[action] += 1
        offset_delta = config.actions[action]

        # (4) Generate the prefetch / classify degenerate actions.
        prefetches: list[int] = []
        target_offset = offset + offset_delta
        prefetch_line = -1
        reward = 0.0
        new_flags = HAS_REWARD
        if offset_delta == 0:
            reward = rewards.no_prefetch(bandwidth_high)
            rewards_assigned["no_prefetch"] += 1
        elif not 0 <= target_offset < LINES_PER_PAGE:
            reward = rewards.coverage_loss
            rewards_assigned["coverage_loss"] += 1
        else:
            prefetch_line = make_line(page, target_offset)
            new_flags = 0
            prefetches.append(prefetch_line)

        # (5) Insert; the eviction assigns R_IN if needed and learns.
        if agent.record(
            state, action, prefetch_line, reward, new_flags, bandwidth_high
        ):
            rewards_assigned["inaccurate"] += 1
        return prefetches

    def _encode_state(self, obs: Observation) -> StateValues:
        return tuple(encode(obs) for encode in self._encoders)

    # -- serialization -------------------------------------------------------

    def __getstate__(self):
        """Drop the compiled encoders (closures, unpicklable); everything
        else — agent, extractor, counters — pickles as-is.  Checkpointed
        replay (:mod:`repro.sim.engine`) depends on this round-trip."""
        state = self.__dict__.copy()
        del state["_encoders"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._encoders = [compile_encoder(spec) for spec in self.config.features]

    # -- callbacks -----------------------------------------------------------

    def on_prefetch_fill(self, line: int, cycle: int) -> None:
        self.agent.eq.mark_filled(line)

    def reset(self) -> None:
        self.agent = SarsaAgent(self.config)
        self.extractor.reset()
        self.action_counts = [0] * self.config.num_actions
        for key in self.rewards_assigned:
            self.rewards_assigned[key] = 0

    # -- introspection ---------------------------------------------------------

    def top_actions(self, count: int = 2) -> list[tuple[int, int]]:
        """Most-selected prefetch offsets as (offset, times) pairs."""
        ranked = sorted(
            range(self.config.num_actions),
            key=lambda a: -self.action_counts[a],
        )
        return [
            (self.config.actions[a], self.action_counts[a])
            for a in ranked[:count]
        ]
