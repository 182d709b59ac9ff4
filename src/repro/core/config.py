"""Pythia configuration: the design-time knobs and named presets.

Everything Table 2 fixes — features, action list, rewards,
hyperparameters — plus the structure geometry of Table 4.  All of it is
meant to be "configurable via simple configuration registers" in the
hardware; here the config object is exactly those registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.features import BASIC_FEATURES, FeatureSpec
from repro.core.rewards import (
    BASIC_REWARDS,
    BW_OBLIVIOUS_REWARDS,
    STRICT_REWARDS,
    RewardConfig,
)
from repro.core.tile_coding import DEFAULT_PLANE_SHIFTS

#: Table 2: the pruned 16-entry prefetch action list (offset 0 = no
#: prefetch).
BASIC_ACTIONS: tuple[int, ...] = (
    -6, -3, -1, 0, 1, 3, 4, 5, 10, 11, 12, 16, 22, 23, 30, 32,
)


@dataclass(frozen=True)
class PythiaConfig:
    """Complete description of one Pythia instance.

    Attributes mirror Table 2 (features, actions, rewards,
    hyperparameters) and Table 4 (structure geometry).
    """

    features: tuple[FeatureSpec, ...] = BASIC_FEATURES
    actions: tuple[int, ...] = BASIC_ACTIONS
    rewards: RewardConfig = field(default_factory=lambda: BASIC_REWARDS)
    #: Learning rate α.  The paper's Table 2 value (0.0065) is tuned for
    #: 500M-instruction ChampSim runs; this substrate's shorter traces
    #: need faster convergence, and the §4.3.3 grid search re-run here
    #: lands on 0.02 (see repro.tuning.grid_search / EXPERIMENTS.md).
    alpha: float = 0.02
    #: Discount factor γ (Table 2).
    gamma: float = 0.556
    #: Exploration rate ε (substrate-tuned; paper Table 2 uses 0.002).
    epsilon: float = 0.005
    #: Evaluation-queue capacity (Table 4).
    eq_size: int = 256
    #: Rows per plane (feature dimension, Table 4).
    plane_entries: int = 128
    #: Plane shift constants; their count sets planes per vault (Table 4).
    plane_shifts: tuple[int, ...] = DEFAULT_PLANE_SHIFTS
    #: RNG seed for ε-greedy exploration (hardware LFSR stand-in).
    seed: int = 1

    @property
    def num_actions(self) -> int:
        """Size of the action list."""
        return len(self.actions)

    @property
    def num_planes(self) -> int:
        """Planes per vault."""
        return len(self.plane_shifts)

    @property
    def initial_q(self) -> float:
        """Optimistic initial Q-value (Algorithm 1, line 2).

        The paper initializes QVStore to "the highest possible Q-value,
        1/(1-γ)" — with the maximum reward folded in, that is
        R_AT/(1-γ).  Optimistic initialization makes untried actions
        look attractive, so the greedy policy explores the whole action
        list before settling — essential at this substrate's short run
        lengths where ε alone explores far too little.
        """
        return self.rewards.accurate_timely / (1.0 - self.gamma)

    def with_rewards(self, rewards: RewardConfig) -> "PythiaConfig":
        """Copy with a different reward scheme (online customization)."""
        return replace(self, rewards=rewards)

    def with_features(self, features: tuple[FeatureSpec, ...]) -> "PythiaConfig":
        """Copy with a different state-vector (online customization)."""
        return replace(self, features=features)

    @classmethod
    def named(cls, name: str) -> "PythiaConfig":
        """Named presets: ``basic``, ``strict``, ``bw_oblivious``."""
        if name == "basic":
            return cls()
        if name == "strict":
            return cls(rewards=STRICT_REWARDS)
        if name == "bw_oblivious":
            return cls(rewards=BW_OBLIVIOUS_REWARDS)
        raise KeyError(f"unknown Pythia configuration {name!r}")
