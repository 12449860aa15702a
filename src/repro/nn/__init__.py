"""NumPy neural-network substrate (PyTorch/DGL substitute).

Public surface:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autodiff array.
* :class:`~repro.nn.module.Module` / :class:`~repro.nn.module.Parameter`.
* Layers: :class:`Linear`, :class:`MLP`, :class:`Sequential`,
  :class:`LSTMCell`, :class:`LSTM`, :class:`BiLSTM`, :class:`AdditiveAttention`.
* Optimizers: :class:`SGD`, :class:`Adam`.
* ``functional`` ops incl. graph segment aggregation (sum/mean/max),
  gather/scatter (``gather_rows``, ``scatter_rows``, ``index_add``), the
  batch-invariant ``linear`` and ``einsum`` kernels, and masked softmax.
"""

from . import functional, init
from .layers import MLP, Activation, Linear, Sequential
from .module import Module, Parameter
from .optim import SGD, Adam, Optimizer
from .rnn import LSTM, AdditiveAttention, BiLSTM, LSTMCell
from .tensor import Tensor, as_tensor, concat, no_grad, stack

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "no_grad",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Sequential",
    "Activation",
    "LSTMCell",
    "LSTM",
    "BiLSTM",
    "AdditiveAttention",
    "Optimizer",
    "SGD",
    "Adam",
    "functional",
    "init",
]
