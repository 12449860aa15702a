"""Gradchecks and invariance pins for the segment-op family.

These ops are the substrate of the vectorized GNN hot path: the
frontier-batched message passing in ``repro.core.gnn`` is only
bit-identical to its per-task loop reference because

* ``F.linear`` is batch-invariant (each output row depends on its own
  input row alone, reduced in a fixed sequential order), and
* the scatter/gather/segment ops preserve ``np.add.at``-style
  elementwise accumulation order.

Every new op gets a central-difference gradient check; the linear
kernel additionally gets its row/partition invariance pinned, since the
whole bit-identity guarantee of ``tests/core/test_gnn_vectorized.py``
rests on it.
"""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_grad(build, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd gradient against finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    expected = numeric_grad(lambda arr: build(Tensor(arr)).item(), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol)


SEGMENTS = np.array([0, 2, 1, 0, 2, 2, 1], dtype=np.int64)


class TestLinear:
    @pytest.mark.parametrize("bias", [False, True])
    def test_forward_matches_matmul(self, bias):
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=(6, 4)), rng.normal(size=(4, 3))
        b = rng.normal(size=3) if bias else None
        out = F.linear(Tensor(x), Tensor(w), Tensor(b) if bias else None)
        expected = x @ w + (b if bias else 0.0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_grad_2d_with_bias(self):
        rng = np.random.default_rng(1)
        w, b = rng.normal(size=(4, 3)), rng.normal(size=3)
        check_grad(
            lambda t: (F.linear(t, Tensor(w), Tensor(b)) ** 2).sum(),
            rng.normal(size=(5, 4)),
        )

    def test_grad_1d_input(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 3))
        check_grad(lambda t: (F.linear(t, Tensor(w)) ** 2).sum(), rng.normal(size=4))

    def test_weight_and_bias_grads(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4))
        w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=3)
        wt = Tensor(w0.copy(), requires_grad=True)
        bt = Tensor(b0.copy(), requires_grad=True)
        (F.linear(Tensor(x), wt, bt) ** 2).sum().backward()
        nw = numeric_grad(lambda arr: float(((x @ arr + b0) ** 2).sum()), w0.copy())
        nb = numeric_grad(lambda arr: float(((x @ w0 + arr) ** 2).sum()), b0.copy())
        np.testing.assert_allclose(wt.grad, nw, atol=1e-4)
        np.testing.assert_allclose(bt.grad, nb, atol=1e-4)

    def test_row_partition_invariance_bitwise(self):
        """The property the GNN bit-identity guarantee rests on.

        Any row of a batched ``F.linear`` must be byte-identical to
        applying the kernel to that row alone or to any sub-batch
        containing it (``np.matmul`` does NOT satisfy this — its BLAS
        kernel choice depends on the batch shape).
        """
        rng = np.random.default_rng(4)
        for trial in range(20):
            n, k, m = rng.integers(1, 40), rng.integers(1, 30), rng.integers(1, 12)
            x, w = rng.normal(size=(n, k)), rng.normal(size=(k, m))
            b = rng.normal(size=m)
            full = F.linear(Tensor(x), Tensor(w), Tensor(b)).data
            lo, hi = sorted(rng.integers(0, n + 1, size=2))
            part = F.linear(Tensor(x[lo:hi]), Tensor(w), Tensor(b)).data
            assert np.array_equal(full[lo:hi], part)
            i = int(rng.integers(0, n))
            row = F.linear(Tensor(x[i]), Tensor(w), Tensor(b)).data
            assert np.array_equal(full[i], row)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            F.linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 2))))
        with pytest.raises(ValueError):
            F.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestEinsum:
    @pytest.mark.parametrize(
        "subscripts,ashape,bshape",
        [("kta,a->kt", (2, 3, 4), (4,)), ("ta,a->t", (3, 4), (4,)), ("kt,tm->km", (2, 3), (3, 5))],
    )
    def test_grads(self, subscripts, ashape, bshape):
        rng = np.random.default_rng(11)
        a0, b0 = rng.normal(size=ashape), rng.normal(size=bshape)
        check_grad(lambda t: (F.einsum(subscripts, t, Tensor(b0)) ** 2).sum(), a0)
        check_grad(lambda t: (F.einsum(subscripts, Tensor(a0), t) ** 2).sum(), b0)

    def test_forward_matches_numpy(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=4)
        assert np.array_equal(F.einsum("kta,a->kt", Tensor(a), Tensor(b)).data, np.einsum("kta,a->kt", a, b))

    def test_row_invariance_bitwise(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            k, t, a = (int(d) for d in rng.integers(1, 30, size=3))
            energy, v = rng.normal(size=(k, t, a)), rng.normal(size=a)
            full = F.einsum("kta,a->kt", Tensor(energy), Tensor(v)).data
            i = int(rng.integers(0, k))
            assert np.array_equal(full[i], F.einsum("ta,a->t", Tensor(energy[i]), Tensor(v)).data)

    @pytest.mark.parametrize(
        "subscripts,bshape",
        [("ij,j", (2,)), ("...j,j->...", (2,)), ("ij,jk->i", (2, 2)), ("ii,i->i", (2,))],
    )
    def test_rejects_unsupported_subscripts(self, subscripts, bshape):
        with pytest.raises(ValueError, match="einsum"):
            F.einsum(subscripts, Tensor(np.ones((2, 2))), Tensor(np.ones(bshape)))


class TestSegmentSum:
    def test_forward(self):
        vals = np.arange(14, dtype=np.float64).reshape(7, 2)
        out = F.segment_sum(Tensor(vals), SEGMENTS, 4)
        expected = np.zeros((4, 2))
        for i, s in enumerate(SEGMENTS):
            expected[s] += vals[i]
        np.testing.assert_array_equal(out.data, expected)

    def test_grad(self):
        rng = np.random.default_rng(5)
        check_grad(
            lambda t: (F.segment_sum(t, SEGMENTS, 3) ** 2).sum(),
            rng.normal(size=(7, 2)),
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            F.segment_sum(Tensor(np.zeros((3, 2))), np.array([0, 1]), 2)


class TestSegmentMean:
    def test_empty_segment_is_zero(self):
        out = F.segment_mean(Tensor(np.ones((2, 3))), np.array([0, 2]), 4)
        np.testing.assert_array_equal(out.data[1], np.zeros(3))
        np.testing.assert_array_equal(out.data[3], np.zeros(3))

    def test_grad(self):
        rng = np.random.default_rng(6)
        check_grad(
            lambda t: (F.segment_mean(t, SEGMENTS, 4) ** 2).sum(),
            rng.normal(size=(7, 3)),
        )

    def test_precomputed_counts_bitwise(self):
        """The counts fast path must not change a single bit."""
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(7, 3))
        counts = np.maximum(np.bincount(SEGMENTS, minlength=4), 1).astype(np.float64)
        a = F.segment_mean(Tensor(vals), SEGMENTS, 4)
        b = F.segment_mean(Tensor(vals), SEGMENTS, 4, counts=counts)
        assert np.array_equal(a.data, b.data)


class TestSegmentMax:
    def test_forward_and_empty(self):
        vals = np.array([[1.0], [5.0], [3.0], [2.0], [0.0], [4.0], [9.0]])
        out = F.segment_max(Tensor(vals), SEGMENTS, 4)
        np.testing.assert_array_equal(out.data.ravel(), [2.0, 9.0, 5.0, 0.0])

    def test_grad(self):
        rng = np.random.default_rng(8)
        check_grad(
            lambda t: (F.segment_max(t, SEGMENTS, 3) ** 2).sum(),
            rng.normal(size=(7, 2)),
        )

    def test_grad_splits_ties(self):
        vals = Tensor(np.array([[2.0], [2.0], [1.0]]), requires_grad=True)
        F.segment_max(vals, np.array([0, 0, 0]), 1).sum().backward()
        np.testing.assert_allclose(vals.grad.ravel(), [0.5, 0.5, 0.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            F.segment_max(Tensor(np.zeros((3, 2))), np.array([[0], [1], [0]]), 2)


class TestGatherScatter:
    def test_gather_grad_accumulates_duplicates(self):
        rng = np.random.default_rng(9)
        idx = np.array([0, 2, 2, 1, 0])
        check_grad(
            lambda t: (F.gather_rows(t, idx) ** 3).sum(), rng.normal(size=(3, 2))
        )

    def test_scatter_rows_forward(self):
        base = Tensor(np.zeros((4, 2)))
        rows = Tensor(np.ones((2, 2)))
        out = F.scatter_rows(base, np.array([3, 1]), rows)
        np.testing.assert_array_equal(out.data[[3, 1]], np.ones((2, 2)))
        np.testing.assert_array_equal(out.data[[0, 2]], np.zeros((2, 2)))

    def test_scatter_rows_grads(self):
        rng = np.random.default_rng(10)
        idx = np.array([3, 1])
        rows0 = rng.normal(size=(2, 2))
        check_grad(
            lambda t: (F.scatter_rows(t, idx, Tensor(rows0)) ** 2).sum(),
            rng.normal(size=(4, 2)),
        )
        base0 = rng.normal(size=(4, 2))
        check_grad(
            lambda t: (F.scatter_rows(Tensor(base0), idx, t) ** 2).sum(),
            rng.normal(size=(2, 2)),
        )

    def test_scatter_rows_rejects_duplicates(self):
        with pytest.raises(ValueError):
            F.scatter_rows(Tensor(np.zeros((3, 1))), np.array([1, 1]), Tensor(np.ones((2, 1))))

    def test_scatter_rows_assume_unique_skips_check_only(self):
        base, rows = np.zeros((4, 2)), np.ones((2, 2))
        idx = np.array([0, 3])
        a = F.scatter_rows(Tensor(base), idx, Tensor(rows))
        b = F.scatter_rows(Tensor(base), idx, Tensor(rows), assume_unique=True)
        assert np.array_equal(a.data, b.data)

    def test_index_add_accumulates(self):
        out = F.index_add(
            Tensor(np.zeros((3, 1))),
            np.array([1, 1, 0]),
            Tensor(np.array([[1.0], [2.0], [5.0]])),
        )
        np.testing.assert_array_equal(out.data.ravel(), [5.0, 3.0, 0.0])

    def test_index_add_grads(self):
        rng = np.random.default_rng(11)
        idx = np.array([1, 1, 0])
        vals0 = rng.normal(size=(3, 2))
        check_grad(
            lambda t: (F.index_add(t, idx, Tensor(vals0)) ** 2).sum(),
            rng.normal(size=(3, 2)),
        )
        base0 = rng.normal(size=(3, 2))
        check_grad(
            lambda t: (F.index_add(Tensor(base0), idx, t) ** 2).sum(),
            rng.normal(size=(3, 2)),
        )

    def test_index_validation(self):
        with pytest.raises(ValueError):
            F.index_add(Tensor(np.zeros((3, 1))), np.array([0]), Tensor(np.zeros((2, 1))))
        with pytest.raises(ValueError):
            F.scatter_rows(Tensor(np.zeros((3, 1))), np.array([0]), Tensor(np.zeros((2, 1))))
