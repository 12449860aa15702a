"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the substrate that replaces PyTorch in this reproduction:
a small, well-tested autograd engine sufficient for the GNNs, MLPs and
LSTMs used by GiPH and its baselines.

Design notes
------------
* A :class:`Tensor` wraps an ``np.ndarray`` and records the operation that
  produced it (parents + a backward closure).  Calling :meth:`Tensor.backward`
  runs a topological sweep accumulating gradients into ``.grad``.
* Broadcasting is supported for elementwise ops; gradients are un-broadcast
  by summing over the broadcast axes (see :func:`_unbroadcast`).
* Only float64 is used.  The workloads here are small (embedding dims of
  5-40), so clarity wins over micro-optimization, per the project style
  guide.  Hot paths (message passing) batch nodes into level-wise matrices
  so the heavy lifting stays inside NumPy.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")
    __array_priority__ = 100  # so np scalars defer to our __r*__ methods

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        _op: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self._op = _op

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_tag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- graph plumbing -----------------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        needs = False
        if _GRAD_ENABLED:
            for p in parents:
                if p.requires_grad:
                    needs = True
                    break
        return Tensor(data, requires_grad=needs, _parents=parents, _backward=backward, _op=op)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape == self.data.shape:
                # First touch: copy instead of zeros + add (saves a full
                # memory pass per graph node; 0 + g == g bitwise for
                # every finite g).
                self.grad = grad.copy()
                return
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar outputs (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        self._accumulate(grad)
        for node in reversed(_topo_order(self)):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- elementwise arithmetic ----------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward, "pow")

    # -- comparisons (no grad; used for masking) ------------------------------

    def __gt__(self, other) -> np.ndarray:
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other) -> np.ndarray:
        return self.data < (other.data if isinstance(other, Tensor) else other)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = np.prod([self.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = self.data == out
            # Split gradient between ties, matching subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts)

        return Tensor._make(out_data, (self,), backward, "max")

    # -- shape ops -------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return Tensor._make(out_data, (self,), backward, "reshape")

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return Tensor._make(out_data, (self,), backward, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                # Scatter straight into the grad buffer — no dense
                # temporary per gather (the GNN backward runs thousands
                # of these).
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                np.add.at(self.grad, idx, grad)

        return Tensor._make(out_data, (self,), backward, "getitem")

    def gather(self, indices) -> "Tensor":
        """Select rows by an integer index array (differentiable gather).

        Duplicate indices are fine: their gradients accumulate into the
        shared source row (``np.add.at`` in the backward).  This is the
        gather half of the segment-op family in
        :mod:`repro.nn.functional`; it lives on the tensor because the
        GNN hot path gathers from intermediate results, not leaves.
        """
        return self[np.asarray(indices, dtype=np.int64)]

    # -- linear algebra ---------------------------------------------------------

    def matmul(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim > 2 or b.ndim > 2:
                _batched_matmul_backward(self, other, grad)
                return
            # Four cases by operand dimensionality (1D vectors vs 2D matrices).
            if self.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    self._accumulate(grad * b)
                elif b.ndim == 1:  # (m,n) @ (n,) -> (m,)
                    self._accumulate(np.outer(grad, b))
                else:  # (n,)|(m,n) @ (n,p): grad @ b.T works for both
                    self._accumulate(grad @ b.T)
            if other.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    other._accumulate(grad * a)
                elif a.ndim == 1:  # (n,) @ (n,p) -> (p,)
                    other._accumulate(np.outer(a, grad))
                else:  # (m,n) @ (n,)|(n,p): a.T @ grad works for both
                    other._accumulate(a.T @ grad)

        return Tensor._make(out_data, (self, other), backward, "matmul")

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    # -- nonlinearities -----------------------------------------------------------

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return Tensor._make(out_data, (self,), backward, "relu")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward, "sigmoid")

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -700.0, 700.0))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward, "log")


def _batched_matmul_backward(a: Tensor, b: Tensor, grad: np.ndarray) -> None:
    """Gradients of ``a @ b`` when either operand has batch axes (ndim > 2).

    Vector operands are promoted to matrices the way ``np.matmul`` does
    (a leading / trailing unit axis), and each gradient is summed over
    the batch axes its operand was broadcast along.
    """
    ad = a.data[None, :] if a.ndim == 1 else a.data
    bd = b.data[:, None] if b.ndim == 1 else b.data
    if a.ndim == 1:
        grad = np.expand_dims(grad, -2)
    if b.ndim == 1:
        grad = np.expand_dims(grad, -1)
    if a.requires_grad:
        a._accumulate(_unbroadcast(grad @ np.swapaxes(bd, -1, -2), ad.shape).reshape(a.shape))
    if b.requires_grad:
        b._accumulate(_unbroadcast(np.swapaxes(ad, -1, -2) @ grad, bd.shape).reshape(b.shape))


def _topo_order(root: Tensor) -> list[Tensor]:
    """Post-order of the grad-requiring subgraph reachable from ``root``.

    Depth-first, descending into a node's parents last-to-first; each
    node is pushed once, with an iterator over its remaining parents.
    Gradient accumulation order follows this order, so it must not
    change (``tests/nn/test_tensor.py`` pins it against the reference
    two-push traversal).  Tensors hash by identity (no ``__eq__``), so
    the visited set holds the nodes themselves.
    """
    topo: list[Tensor] = []
    visited = {root}
    stack = [(root, reversed(root._parents))]
    while stack:
        node, parents = stack[-1]
        for parent in parents:
            if parent.requires_grad and parent not in visited:
                visited.add(parent)
                if parent._parents:
                    stack.append((parent, reversed(parent._parents)))
                    break
                topo.append(parent)
        else:
            stack.pop()
            topo.append(node)
    return topo


def as_tensor(value) -> Tensor:
    """Coerce scalars/arrays to a (non-grad) :class:`Tensor`."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    ts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, ts, backward, "concat")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    ts = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(ts):
            if t.requires_grad:
                t._accumulate(np.take(grad, i, axis=axis))

    return Tensor._make(out_data, ts, backward, "stack")
