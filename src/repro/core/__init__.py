"""Pythia: the paper's primary contribution.

The RL formulation (§3), the table-based hierarchical QVStore with tile
coding (§4.2.1), the evaluation queue (§4.2.3), the SARSA agent, and the
prefetcher tying them together (Algorithm 1).
"""

from repro.core.agent import SarsaAgent
from repro.core.config import BASIC_ACTIONS, PythiaConfig
from repro.core.eq import EvaluationQueue
from repro.core.features import (
    BASIC_FEATURES,
    ControlFlow,
    DataFlow,
    FeatureExtractor,
    FeatureSpec,
    Observation,
    all_feature_specs,
    encode_feature,
)
from repro.core.pipeline import PIPELINE_STAGES, SearchTiming, prediction_latency, search_timing
from repro.core.pythia import Pythia
from repro.core.qvstore import NumpyQVStore, QVStore, Vault
from repro.core.rewards import (
    BASIC_REWARDS,
    BW_OBLIVIOUS_REWARDS,
    STRICT_REWARDS,
    RewardConfig,
)

__all__ = [
    "SarsaAgent",
    "BASIC_ACTIONS",
    "PythiaConfig",
    "EvaluationQueue",
    "BASIC_FEATURES",
    "ControlFlow",
    "DataFlow",
    "FeatureExtractor",
    "FeatureSpec",
    "Observation",
    "all_feature_specs",
    "encode_feature",
    "PIPELINE_STAGES",
    "SearchTiming",
    "prediction_latency",
    "search_timing",
    "Pythia",
    "NumpyQVStore",
    "QVStore",
    "Vault",
    "BASIC_REWARDS",
    "BW_OBLIVIOUS_REWARDS",
    "STRICT_REWARDS",
    "RewardConfig",
]
