"""The RNN placer's batched decode: K rows at once == K single decodes.

``RnnPlacer.sample_placement(k)`` runs the encoder once and steps all
``k`` samples through the decoder together, with uniforms drawn as one
``(k, T)`` block.  These tests pin that the batch changes nothing but
speed: placements and log-probs equal ``k`` successive single-row
decodes bit for bit, the inverse-CDF picks equal ``Generator.choice``,
and the vectorized REINFORCE loss has the per-sample loss's gradients.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rnn_placer import RnnPlacer, choose_devices
from repro.core import PlacementProblem
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.nn import Tensor
from repro.sim import MakespanObjective
from repro.telemetry import collector, reset, set_enabled

problems = st.builds(
    lambda seed, n, m, constraint, support: (
        seed,
        PlacementProblem(
            generate_task_graph(
                TaskGraphParams(num_tasks=n, constraint_prob=constraint),
                np.random.default_rng(seed),
            ),
            generate_device_network(
                DeviceNetworkParams(num_devices=m, support_prob=support),
                np.random.default_rng(seed + 1),
            ),
        ),
    ),
    seed=st.integers(0, 2**16),
    n=st.integers(2, 12),
    m=st.integers(2, 7),
    constraint=st.sampled_from([0.0, 0.3, 0.7]),
    support=st.sampled_from([0.3, 0.6, 1.0]),
)


def placer(problem: PlacementProblem, seed: int) -> RnnPlacer:
    return RnnPlacer(problem, np.random.default_rng(seed))


class TestBatchEqualsSingles:
    @settings(max_examples=25, deadline=None)
    @given(case=problems, k=st.integers(2, 5))
    def test_k_batch_equals_k_single_decodes(self, case, k):
        seed, problem = case
        batch, batch_lp = placer(problem, seed).sample_placement(k)
        single = placer(problem, seed)
        rows = [single.sample_placement(1) for _ in range(k)]
        assert batch == [placements[0] for placements, _ in rows]
        singles_lp = np.concatenate([lp.data for _, lp in rows])
        assert np.array_equal(batch_lp.data, singles_lp)
        for placement in batch:
            problem.validate_placement(placement)

    @settings(max_examples=10, deadline=None)
    @given(case=problems)
    def test_greedy_rows_equal_place_and_draw_nothing(self, case):
        seed, problem = case
        p = placer(problem, seed)
        state = p.rng.bit_generator.state
        batch, _ = p.sample_placement(3, greedy=True)
        assert batch == [p.place()] * 3
        assert p.rng.bit_generator.state == state

    def test_one_decode_per_update(self, diamond_problem, monkeypatch):
        p = placer(diamond_problem, 3)
        calls = []
        original = p.sample_placement
        monkeypatch.setattr(p, "sample_placement", lambda k: calls.append(k) or original(k))
        result = p.fit(MakespanObjective(), samples_per_update=4, max_updates=5, patience=2)
        assert calls == [4] * result.updates


class TestChooseDevices:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        k=st.integers(1, 6),
        m=st.integers(1, 12),
        masked=st.floats(0.0, 0.8),
    )
    def test_equals_generator_choice(self, seed, k, m, masked):
        draw = np.random.default_rng(seed)
        logits = draw.normal(size=(k, m)) * 3.0
        logits[draw.random((k, m)) < masked] = -1e9
        logits[np.arange(k), draw.integers(0, m, size=k)] = 0.0  # >= 1 feasible per row
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)

        reference = np.random.default_rng(seed + 7)
        expected = [int(reference.choice(m, p=row)) for row in probs]
        uniforms = np.random.default_rng(seed + 7).random(k)
        assert choose_devices(probs, uniforms).tolist() == expected

    def test_uniform_on_a_cdf_step_goes_right(self):
        probs = np.array([[0.25, 0.25, 0.5], [0.5, 0.0, 0.5], [0.25, 0.25, 0.5]])
        uniforms = np.array([0.25, 0.5, 0.0])
        expected = [np.cumsum(row).searchsorted(u, side="right") for row, u in zip(probs, uniforms)]
        assert choose_devices(probs, uniforms).tolist() == expected == [1, 2, 0]

    @pytest.mark.parametrize(
        "row",
        [[0.5, np.nan, 0.5], [0.5, np.inf, 0.5], [1.2, -0.2, 0.0], [0.5, 0.2, 0.2]],
        ids=["nan", "inf", "negative", "not-normalized"],
    )
    def test_invalid_row_raises_like_choice(self, row):
        probs = np.array([[0.2, 0.3, 0.5], row])
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, p=probs[1])
        with pytest.raises(ValueError):
            choose_devices(probs, np.array([0.1, 0.9]))


class TestBatchedLoss:
    @settings(max_examples=10, deadline=None)
    @given(case=problems, adv_seed=st.integers(0, 2**16))
    def test_grads_match_per_sample_loss(self, case, adv_seed):
        """``(log_probs * adv).sum()`` over one batch vs the per-sample
        ``sum(lp * adv)`` over separate decodes (separate encoder passes)."""
        seed, problem = case
        k = 4
        advantages = np.random.default_rng(adv_seed).normal(size=k)

        batched = placer(problem, seed)
        _, log_probs = batched.sample_placement(k)
        (log_probs * Tensor(advantages)).sum().backward()

        looped = placer(problem, seed)
        rows = [looped.sample_placement(1)[1] for _ in range(k)]
        sum(lp[0] * float(a) for lp, a in zip(rows, advantages)).backward()

        for got, want in zip(batched.optimizer.params, looped.optimizer.params):
            np.testing.assert_allclose(got.grad, want.grad, rtol=1e-12, atol=1e-14)


class TestFitTelemetry:
    def test_fit_is_spanned(self, diamond_problem):
        previous = set_enabled(True)
        reset()
        try:
            placer(diamond_problem, 5).fit(MakespanObjective(), max_updates=2, patience=1)
            stats = collector().stats
        finally:
            set_enabled(previous)
            reset()
        assert stats["baselines.rnn_placer.fit"].calls == 1
