"""LSTM / BiLSTM / attention tests.

The cell and the attention also get row-invariance pins, like
``F.linear`` in ``tests/nn/test_segment_ops.py``: the RNN placer decodes
its K samples as K rows of one batch and relies on each row being
bit-identical to decoding it alone.
"""

import numpy as np

from repro.nn import Adam, BiLSTM, LSTM, LSTMCell, AdditiveAttention, Tensor


def rng():
    return np.random.default_rng(3)


class TestLSTMCell:
    def test_output_shapes(self):
        cell = LSTMCell(4, 6, rng())
        h, c = cell(Tensor(np.ones(4)), cell.initial_state())
        assert h.shape == (6,) and c.shape == (6,)

    def test_batched(self):
        cell = LSTMCell(4, 6, rng())
        h, c = cell(Tensor(np.ones((3, 4))), cell.initial_state(batch=3))
        assert h.shape == (3, 6)

    def test_forget_bias_initialized(self):
        cell = LSTMCell(2, 3, rng())
        np.testing.assert_allclose(cell.bias.data[3:6], 1.0)

    def test_row_invariance_bitwise(self):
        r = np.random.default_rng(8)
        for trial in range(10):
            n, k, hidden = int(r.integers(1, 9)), int(r.integers(1, 30)), int(r.integers(1, 20))
            cell = LSTMCell(k, hidden, r)
            x, h0, c0 = r.normal(size=(n, k)), r.normal(size=(n, hidden)), r.normal(size=(n, hidden))
            h, c = cell(Tensor(x), (Tensor(h0), Tensor(c0)))
            i = int(r.integers(0, n))
            h_row, c_row = cell(Tensor(x[i]), (Tensor(h0[i]), Tensor(c0[i])))
            assert np.array_equal(h.data[i], h_row.data)
            assert np.array_equal(c.data[i], c_row.data)
            lo, hi = sorted(r.integers(0, n + 1, size=2))
            h_part, _ = cell(Tensor(x[lo:hi]), (Tensor(h0[lo:hi]), Tensor(c0[lo:hi])))
            assert np.array_equal(h.data[lo:hi], h_part.data)

    def test_gradients_reach_input_weights(self):
        cell = LSTMCell(2, 3, rng())
        h, _ = cell(Tensor(np.ones(2)), cell.initial_state())
        h.sum().backward()
        assert cell.w_ih.grad is not None and np.abs(cell.w_ih.grad).sum() > 0


class TestLSTM:
    def test_sequence_shapes(self):
        lstm = LSTM(3, 5, rng())
        out, (h, c) = lstm(Tensor(np.ones((7, 3))))
        assert out.shape == (7, 5) and h.shape == (5,)

    def test_state_threads_through_time(self):
        # Outputs must differ across steps for constant input (state evolves).
        lstm = LSTM(2, 4, rng())
        out, _ = lstm(Tensor(np.ones((3, 2))))
        assert not np.allclose(out.data[0], out.data[2])

    def test_can_learn_sign_of_first_element(self):
        r = np.random.default_rng(1)
        lstm = LSTM(1, 8, r)
        from repro.nn import Linear

        head = Linear(8, 1, r)
        params = list(lstm.parameters()) + list(head.parameters())
        opt = Adam(params, lr=0.02)
        losses = []
        for step in range(120):
            x = r.choice([-1.0, 1.0]) * np.ones((4, 1))
            target = 1.0 if x[0, 0] > 0 else 0.0
            opt.zero_grad()
            out, _ = lstm(Tensor(x))
            logit = head(out[-1])
            prob = logit.sigmoid()
            loss = -(
                Tensor([target]) * (prob + 1e-9).log()
                + Tensor([1 - target]) * (1 - prob + 1e-9).log()
            ).sum()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-20:]) < np.mean(losses[:20])


class TestBiLSTM:
    def test_concat_dims(self):
        bi = BiLSTM(3, 5, rng())
        out = bi(Tensor(np.ones((6, 3))))
        assert out.shape == (6, 10)

    def test_backward_direction_sees_future(self):
        # Make the last input special; the backward pass should expose it at t=0.
        bi = BiLSTM(1, 4, rng())
        x1 = np.zeros((5, 1))
        x2 = np.zeros((5, 1))
        x2[-1] = 5.0
        o1, o2 = bi(Tensor(x1)).data, bi(Tensor(x2)).data
        # forward half at t=0 identical, backward half differs
        np.testing.assert_allclose(o1[0, :4], o2[0, :4])
        assert not np.allclose(o1[0, 4:], o2[0, 4:])


class TestAttention:
    def test_context_shape(self):
        attn = AdditiveAttention(4, 6, 5, rng())
        ctx = attn(Tensor(np.ones(4)), Tensor(np.ones((7, 6))))
        assert ctx.shape == (6,)

    def test_attends_to_matching_key(self):
        # Query aligned with one memory row should weight it most after training.
        r = np.random.default_rng(5)
        attn = AdditiveAttention(2, 2, 8, r)
        memory = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        opt = Adam(attn.parameters(), lr=0.05)
        for _ in range(100):
            opt.zero_grad()
            ctx = attn(Tensor(np.array([1.0, 0.0])), memory)
            loss = ((ctx - Tensor(np.array([1.0, 0.0]))) ** 2).sum()
            loss.backward()
            opt.step()
        assert loss.item() < 0.05

    def test_batched_queries(self):
        attn = AdditiveAttention(4, 6, 5, rng())
        ctx = attn(Tensor(np.ones((3, 4))), Tensor(np.ones((7, 6))))
        assert ctx.shape == (3, 6)

    def test_row_invariance_bitwise(self):
        r = np.random.default_rng(9)
        for trial in range(10):
            n, steps = int(r.integers(1, 9)), int(r.integers(1, 25))
            q, mem, size = (int(d) for d in r.integers(1, 20, size=3))
            attn = AdditiveAttention(q, mem, size, r)
            queries, memory = Tensor(r.normal(size=(n, q))), Tensor(r.normal(size=(steps, mem)))
            projected = attn.memory_proj(memory)
            batch = attn(queries, memory, projected).data
            i = int(r.integers(0, n))
            assert np.array_equal(batch[i], attn(queries[i], memory).data)
            lo, hi = sorted(r.integers(0, n + 1, size=2))
            assert np.array_equal(batch[lo:hi], attn(queries[lo:hi], memory).data)

    def test_batched_grads_match_single_rows(self):
        r = np.random.default_rng(10)
        attn = AdditiveAttention(3, 4, 5, r)
        queries, memory = r.normal(size=(4, 3)), r.normal(size=(6, 4))
        mem_batch = Tensor(memory.copy(), requires_grad=True)
        (attn(Tensor(queries), mem_batch) ** 2).sum().backward()
        v_batch = attn.v.grad.copy()
        attn.zero_grad()
        mem_rows = Tensor(memory.copy(), requires_grad=True)
        sum((attn(Tensor(row), mem_rows) ** 2).sum() for row in queries).backward()
        np.testing.assert_allclose(mem_batch.grad, mem_rows.grad, rtol=1e-12)
        np.testing.assert_allclose(v_batch, attn.v.grad, rtol=1e-12)
