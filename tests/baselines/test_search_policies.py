"""Tests for the search-policy baselines: random, task-EFT, Placeto, RNN."""

import numpy as np
import pytest

from repro.baselines import (
    GiPHSearchPolicy,
    PlacetoAgent,
    PlacetoTrainer,
    RandomPlacementPolicy,
    RandomTaskEftPolicy,
    RnnPlacer,
    TaskEftAgent,
    TaskEftTrainer,
    build_task_view,
    operator_embeddings,
    placeto_node_features,
    trace_from_values,
)
from repro.core import GiPHAgent
from repro.sim import MakespanObjective

OBJ = MakespanObjective()


def rng(seed=0):
    return np.random.default_rng(seed)


class TestTraceFromValues:
    def test_best_over_time(self):
        t = trace_from_values([(0,), (1,), (0,)], [5.0, 3.0, 4.0], 1)
        assert t.best_value == 3.0
        assert t.best_over_time == (5.0, 3.0, 3.0)
        assert t.best_placement == (1,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trace_from_values([], [], 1)


class TestRandomPolicies:
    def test_random_placement_trace_shape(self, diamond_problem):
        trace = RandomPlacementPolicy().search(diamond_problem, OBJ, [0, 0, 0, 2], 6, rng())
        assert trace.num_steps == 6
        diamond_problem.validate_placement(trace.best_placement)

    def test_random_task_eft_improves_over_start(self, diamond_problem):
        # EFT relocation starting from the all-slowest placement should
        # find something strictly better within a few steps.
        start = [0, 0, 0, 2]
        trace = RandomTaskEftPolicy().search(diamond_problem, OBJ, start, 8, rng(1))
        assert trace.best_value <= trace.values[0]

    def test_random_task_eft_counts_relocations(self, diamond_problem):
        trace = RandomTaskEftPolicy().search(diamond_problem, OBJ, [0, 0, 0, 2], 8, rng(2))
        assert sum(trace.relocation_counts) <= 8


class TestTaskEft:
    def test_task_view_structure(self, diamond_problem):
        view = build_task_view(diamond_problem, [0, 0, 0, 2])
        assert view.num_nodes == 4
        assert view.is_pivot.all()
        assert view.num_edges == diamond_problem.graph.num_edges

    def test_agent_search_runs(self, diamond_problem):
        agent = TaskEftAgent(rng(3))
        trace = agent.search(diamond_problem, OBJ, [0, 0, 0, 2], 6, rng(4))
        assert trace.num_steps == 6
        diamond_problem.validate_placement(trace.best_placement)

    def test_select_task_masks_last(self, diamond_problem):
        agent = TaskEftAgent(rng(5))
        for _ in range(10):
            task, _ = agent.select_task(diamond_problem, [0, 0, 0, 2], last_task=1)
            assert task != 1

    def test_trainer_updates_params(self, diamond_problem):
        # Several episodes so at least one starts from a non-EFT-stable
        # placement (a stable start gives all-zero rewards and no update).
        agent = TaskEftAgent(rng(6))
        trainer = TaskEftTrainer(agent, OBJ)
        before = [p.data.copy() for p in agent.parameters()]
        rewards = trainer.train([diamond_problem], rng(0), episodes=5)
        after = list(agent.parameters())
        assert any(r != 0.0 for r in rewards)
        assert any(not np.allclose(b, a.data) for b, a in zip(before, after))


class TestPlaceto:
    def test_features_shape_and_indicators(self, diamond_problem):
        placed = np.array([True, False, False, False])
        feats = placeto_node_features(diamond_problem, [0, 0, 0, 2], 1, placed)
        assert feats.shape == (4, 5)

    def test_head_fixed_to_device_count(self, diamond_problem):
        agent = PlacetoAgent(rng(8), num_devices=3)
        lp = agent.device_log_probs(diamond_problem, [0, 0, 0, 2], 0, np.zeros(4, bool))
        assert lp.shape == (3,)

    def test_larger_network_rejected(self, diamond_problem):
        agent = PlacetoAgent(rng(9), num_devices=2)
        with pytest.raises(ValueError, match="retraining"):
            agent.device_log_probs(diamond_problem, [0, 0, 0, 2], 0, np.zeros(4, bool))

    def test_shrunken_network_masks_surplus_head(self, diamond_problem):
        # Head sized for 5 devices, network has 3: surplus outputs masked
        # (the Fig. 6 adaptivity setting where devices leave the cluster).
        agent = PlacetoAgent(rng(9), num_devices=5)
        lp = agent.device_log_probs(diamond_problem, [0, 0, 0, 2], 0, np.zeros(4, bool))
        assert np.exp(lp.data[:3]).sum() == pytest.approx(1.0)
        assert (lp.data[3:] < -100).all()
        for _ in range(10):
            device, _ = agent.choose_device(diamond_problem, [0, 0, 0, 2], 0, np.zeros(4, bool))
            assert device < 3

    def test_constraint_mask(self, diamond_problem):
        agent = PlacetoAgent(rng(10), num_devices=3)
        for _ in range(10):
            device, _ = agent.choose_device(
                diamond_problem, [0, 0, 0, 2], 3, np.zeros(4, bool)
            )
            assert device == 2  # task 3 only feasible on device 2

    def test_search_visits_each_node_once_per_pass(self, diamond_problem):
        agent = PlacetoAgent(rng(11), num_devices=3)
        trace = agent.search(diamond_problem, OBJ, [0, 0, 0, 2], 8, rng(12))
        # 8 steps = two full traversals of the 4-node graph.
        assert trace.num_steps == 8

    def test_trainer_runs(self, diamond_problem):
        agent = PlacetoAgent(rng(13), num_devices=3)
        trainer = PlacetoTrainer(agent, OBJ)
        rewards = trainer.train([diamond_problem], rng(14), episodes=2)
        assert len(rewards) == 2


class TestRnnPlacer:
    def test_operator_embedding_dims(self, diamond_problem):
        feats = operator_embeddings(diamond_problem)
        g = diamond_problem.graph
        n_types = max(g.requirements) + 1
        max_out = max(len(g.children[i]) for i in range(4))
        assert feats.shape == (4, n_types + 1 + max_out + 4)

    def test_sampled_placement_feasible(self, diamond_problem):
        placer = RnnPlacer(diamond_problem, rng(15))
        placements, log_probs = placer.sample_placement(4)
        assert len(placements) == 4 and log_probs.shape == (4,)
        for placement, log_prob in zip(placements, log_probs.data):
            diamond_problem.validate_placement(placement)
            assert np.isfinite(log_prob) and log_prob <= 0.0

    def test_fit_improves_or_holds(self, diamond_problem):
        placer = RnnPlacer(diamond_problem, rng(16))
        result = placer.fit(OBJ, samples_per_update=2, max_updates=5, patience=2)
        assert result.best_value <= result.values_per_update[0] + 1e-9
        diamond_problem.validate_placement(result.best_placement)

    def test_place_greedy_no_graph(self, diamond_problem):
        placer = RnnPlacer(diamond_problem, rng(17))
        placement = placer.place()
        diamond_problem.validate_placement(placement)


class TestGiPHSearchPolicyAdapter:
    def test_adapter_runs(self, diamond_problem):
        agent = GiPHAgent(rng(18), embedding="giph")
        policy = GiPHSearchPolicy(agent)
        trace = policy.search(diamond_problem, OBJ, [0, 0, 0, 2], 4, rng(19))
        assert trace.num_steps == 4
        assert policy.name == "giph"
