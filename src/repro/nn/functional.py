"""Stateless neural-network operations.

Includes the graph-specific primitives (segment aggregation, masked
softmax) that DGL provided in the paper's artifact.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "relu",
    "tanh",
    "sigmoid",
    "softmax",
    "log_softmax",
    "masked_log_softmax",
    "linear",
    "einsum",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "gather_rows",
    "scatter_rows",
    "index_add",
]


def relu(x: Tensor) -> Tensor:
    return as_tensor(x).relu()


def tanh(x: Tensor) -> Tensor:
    return as_tensor(x).tanh()


def sigmoid(x: Tensor) -> Tensor:
    return as_tensor(x).sigmoid()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def masked_log_softmax(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Log-softmax over the entries of ``scores`` where ``mask`` is True.

    Masked-out entries get log-probability -inf (represented as a very
    large negative constant so gradients stay finite).  This is the
    "optional mask layer" of the GiPH policy network (paper §4.2.3).
    """
    scores = as_tensor(scores)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores.shape:
        raise ValueError(f"mask shape {mask.shape} != scores shape {scores.shape}")
    if not mask.any():
        raise ValueError("masked_log_softmax: no feasible action (mask all False)")
    neg = Tensor(np.where(mask, 0.0, -1e9))
    return log_softmax(scores + neg, axis=-1)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight (+ bias)`` with a batch-invariant kernel.

    ``np.matmul`` dispatches to different BLAS kernels depending on the
    row count, so ``(A @ W)[i]`` and ``A[i] @ W`` can differ in the last
    ulps.  This kernel instead uses ``np.einsum``, whose reduction over
    the input dimension runs in a fixed sequential order per output
    element, making each output row a function of its own input row
    alone — invariant to how rows are batched or partitioned across
    calls (pinned by ``tests/nn/test_segment_ops.py``).  The vectorized
    GNN sweep in :mod:`repro.core.gnn` relies on this to stay
    bit-identical to its per-task loop reference.  Use
    :class:`repro.nn.Linear` where partition invariance is not needed.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if x.ndim not in (1, 2):
        raise ValueError(f"linear expects a 1-D or 2-D input, got ndim={x.ndim}")
    xd, wd = x.data, weight.data
    if wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
        raise ValueError(f"linear shape mismatch: x {xd.shape} vs weight {wd.shape}")
    out_data = np.einsum("...k,kj->...j", xd, wd)
    bias_t = as_tensor(bias) if bias is not None else None
    parents: tuple[Tensor, ...] = (x, weight)
    if bias_t is not None:
        out_data = out_data + bias_t.data
        parents = (x, weight, bias_t)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ wd.T)
        if weight.requires_grad:
            weight._accumulate(np.outer(xd, grad) if xd.ndim == 1 else xd.T @ grad)
        if bias_t is not None and bias_t.requires_grad:
            bias_t._accumulate(grad if grad.ndim == 1 else grad.sum(axis=0))

    return Tensor._make(out_data, parents, backward, "linear")


def einsum(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand ``np.einsum`` with explicit output (``"ij,j->i"``).

    The batch-invariant kernel of :func:`linear` for contractions it
    cannot express, such as the recurrent placer's batched attention
    scores ``"kta,a->kt"``.  Every index of an operand must appear once
    in it and also in the output or in the other operand, so each
    gradient is itself one einsum of the incoming gradient with the
    other operand.
    """
    a, b = as_tensor(a), as_tensor(b)
    inputs, _, out = subscripts.partition("->")
    sa, _, sb = inputs.partition(",")
    if not out or not sb or "." in subscripts:
        raise ValueError(f"einsum expects 'ab,bc->ac'-style subscripts, got {subscripts!r}")
    if len(set(sa)) < len(sa) or len(set(sb)) < len(sb):
        raise ValueError(f"einsum: an index repeats within one operand in {subscripts!r}")
    if not set(sa) <= set(out + sb) or not set(sb) <= set(out + sa):
        raise ValueError(f"einsum: an index summed within one operand in {subscripts!r}")
    out_data = np.einsum(subscripts, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.einsum(f"{out},{sb}->{sa}", grad, b.data))
        if b.requires_grad:
            b._accumulate(np.einsum(f"{out},{sa}->{sb}", grad, a.data))

    return Tensor._make(out_data, (a, b), backward, "einsum")


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets.

    The scatter-add primitive behind GNN message aggregation: row ``i`` of
    ``values`` is added to output row ``segment_ids[i]``.
    """
    values = as_tensor(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.ndim != 1 or len(segment_ids) != values.shape[0]:
        raise ValueError("segment_ids must be 1-D and match values' first axis")
    out_shape = (num_segments,) + values.shape[1:]
    out_data = np.zeros(out_shape, dtype=np.float64)
    np.add.at(out_data, segment_ids, values.data)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[segment_ids])

    return Tensor._make(out_data, (values,), backward, "segment_sum")


def segment_mean(
    values: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    counts: np.ndarray | None = None,
) -> Tensor:
    """Mean-aggregate rows of ``values`` per segment (empty segments -> 0).

    The paper's experiments aggregate messages by mean (§5, experiment
    details), while Eq. 1 writes a sum; both are exposed.  ``counts``
    optionally supplies the precomputed (empty-clamped-to-1) segment
    sizes — callers with static segment layouts (the GNN level plans)
    pass it to skip the per-call ``bincount``; it must equal
    ``maximum(bincount(segment_ids, minlength=num_segments), 1)``.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if counts is None:
        counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
        counts = np.maximum(counts, 1.0)  # avoid div-by-zero for empty segments
    summed = segment_sum(values, segment_ids, num_segments)
    return summed / Tensor(counts.reshape((-1,) + (1,) * (summed.ndim - 1)))


def segment_max(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Max-aggregate rows of ``values`` per segment (empty segments -> 0).

    Ties split the incoming gradient evenly among the maximizers — the
    same subgradient convention as :meth:`repro.nn.Tensor.max`.
    """
    values = as_tensor(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.ndim != 1 or len(segment_ids) != values.shape[0]:
        raise ValueError("segment_ids must be 1-D and match values' first axis")
    out_shape = (num_segments,) + values.shape[1:]
    out_data = np.full(out_shape, -np.inf, dtype=np.float64)
    np.maximum.at(out_data, segment_ids, values.data)
    empty = np.bincount(segment_ids, minlength=num_segments) == 0
    if empty.any():
        out_data[empty] = 0.0

    def backward(grad: np.ndarray) -> None:
        if not values.requires_grad:
            return
        winners = (values.data == out_data[segment_ids]).astype(np.float64)
        counts = np.zeros(out_shape, dtype=np.float64)
        np.add.at(counts, segment_ids, winners)
        np.maximum(counts, 1.0, out=counts)
        values._accumulate(winners * (grad / counts)[segment_ids])

    return Tensor._make(out_data, (values,), backward, "segment_max")


def gather_rows(values: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows ``indices`` from ``values`` (differentiable gather)."""
    return as_tensor(values)[np.asarray(indices, dtype=np.int64)]


def scatter_rows(
    base: Tensor, indices: np.ndarray, rows: Tensor, assume_unique: bool = False
) -> Tensor:
    """Out-of-place row scatter: ``out = base; out[indices] = rows``.

    ``indices`` must be unique — with duplicates the forward would be
    write-order dependent and the gradient ill-defined.  The vectorized
    GNN finalizes one frontier level of node embeddings per call with
    this, instead of mutating a running Python list of row tensors.
    ``assume_unique`` skips the uniqueness check for callers whose
    indices come from a static, already-validated plan.
    """
    base = as_tensor(base)
    rows = as_tensor(rows)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1 or len(indices) != rows.shape[0]:
        raise ValueError("indices must be 1-D and match rows' first axis")
    if not assume_unique and len(np.unique(indices)) != len(indices):
        raise ValueError("scatter_rows indices must be unique")
    out_data = base.data.copy()
    out_data[indices] = rows.data

    def backward(grad: np.ndarray) -> None:
        if rows.requires_grad:
            rows._accumulate(grad[indices])
        if base.requires_grad:
            masked = grad.copy()
            masked[indices] = 0.0
            base._accumulate(masked)

    return Tensor._make(out_data, (base, rows), backward, "scatter_rows")


def index_add(base: Tensor, indices: np.ndarray, values: Tensor) -> Tensor:
    """Out-of-place scatter-add: ``out = base; out[indices] += values``.

    Duplicate indices accumulate (``np.add.at`` semantics) — the
    ``index_add_``-style scatter of the segment-op family.
    """
    base = as_tensor(base)
    values = as_tensor(values)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1 or len(indices) != values.shape[0]:
        raise ValueError("indices must be 1-D and match values' first axis")
    out_data = base.data.copy()
    np.add.at(out_data, indices, values.data)

    def backward(grad: np.ndarray) -> None:
        if base.requires_grad:
            base._accumulate(grad)
        if values.requires_grad:
            values._accumulate(grad[indices])

    return Tensor._make(out_data, (base, values), backward, "index_add")
