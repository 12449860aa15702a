"""Recurrent layers for the HDP-style RNN placer baseline.

The paper's RNN baseline (Mirhoseini et al., 2018) is a seq2seq model:
a bi-LSTM encoder over operator embeddings and a unidirectional LSTM
decoder with additive attention that emits one device per operator.

The cell and the attention accept a batch of rows (a leading ``K`` axis)
and use the batch-invariant kernels of :mod:`repro.nn.functional`
(``linear``/``einsum``, not ``@``): row ``i`` of a batched step is
bit-identical to the same step run on that row alone, which lets the
placer decode its ``K`` samples together.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .layers import Linear
from .module import Module, Parameter
from .tensor import Tensor, concat, stack

__all__ = ["LSTMCell", "LSTM", "BiLSTM", "AdditiveAttention"]


class LSTMCell(Module):
    """Standard LSTM cell with forget-gate bias of 1."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates packed as [i, f, g, o] along the output axis.
        self.w_ih = Parameter(init.glorot_uniform(rng, input_size, 4 * hidden_size))
        self.w_hh = Parameter(
            np.concatenate(
                [init.orthogonal(rng, hidden_size, hidden_size) for _ in range(4)], axis=1
            )
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        gates = F.linear(x, self.w_ih) + F.linear(h_prev, self.w_hh) + self.bias
        H = self.hidden_size
        i = gates[..., 0:H].sigmoid()
        f = gates[..., H : 2 * H].sigmoid()
        g = gates[..., 2 * H : 3 * H].tanh()
        o = gates[..., 3 * H : 4 * H].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c

    def initial_state(self, batch: int | None = None) -> tuple[Tensor, Tensor]:
        shape = (self.hidden_size,) if batch is None else (batch, self.hidden_size)
        return Tensor(np.zeros(shape)), Tensor(np.zeros(shape))


class LSTM(Module):
    """Unidirectional LSTM over a sequence of vectors (T, input_size)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        self.cell = LSTMCell(input_size, hidden_size, rng)

    def forward(
        self, xs: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Return (T, hidden) outputs and the final (h, c) state."""
        if state is None:
            state = self.cell.initial_state()
        outputs = []
        for t in range(xs.shape[0]):
            h, c = self.cell(xs[t], state)
            state = (h, c)
            outputs.append(h)
        return stack(outputs, axis=0), state


class BiLSTM(Module):
    """Bidirectional LSTM; outputs are fwd/bwd concatenations (T, 2*hidden)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        self.fwd = LSTM(input_size, hidden_size, rng)
        self.bwd = LSTM(input_size, hidden_size, rng)

    def forward(self, xs: Tensor) -> Tensor:
        out_f, _ = self.fwd(xs)
        rev = xs[np.arange(xs.shape[0] - 1, -1, -1)]
        out_b_rev, _ = self.bwd(rev)
        out_b = out_b_rev[np.arange(xs.shape[0] - 1, -1, -1)]
        return concat([out_f, out_b], axis=-1)


class AdditiveAttention(Module):
    """Bahdanau-style additive attention over encoder memory."""

    def __init__(self, query_size: int, memory_size: int, attn_size: int, rng: np.random.Generator) -> None:
        self.query_proj = Linear(query_size, attn_size, rng, bias=False)
        self.memory_proj = Linear(memory_size, attn_size, rng, bias=False)
        self.v = Parameter(init.glorot_uniform(rng, attn_size, 1).ravel())

    def forward(self, query: Tensor, memory: Tensor, projected: Tensor | None = None) -> Tensor:
        """Context for ``query`` (q,) or a batch of queries (K, q) over ``memory`` (T, mem).

        ``projected`` is ``memory_proj(memory)``; a decoder attending to
        one memory at every step passes it to project the memory once.
        """
        if projected is None:
            projected = self.memory_proj(memory)
        q = F.linear(query, self.query_proj.weight)  # (A,) | (K, A)
        if q.ndim == 2:
            q = q.reshape(q.shape[0], 1, q.shape[1])  # broadcast over T
        energy = (projected + q).tanh()  # (T, A) | (K, T, A)
        scores = F.einsum("ta,a->t" if energy.ndim == 2 else "kta,a->kt", energy, self.v)
        weights = F.softmax(scores, axis=-1)  # (T,) | (K, T)
        return F.linear(weights, memory)  # (mem,) | (K, mem)
