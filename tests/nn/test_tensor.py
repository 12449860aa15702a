"""Autograd engine tests, including finite-difference gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concat, no_grad, stack
from repro.nn import functional as F
from repro.nn.tensor import _topo_order


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


class TestElementwise:
    def test_add_broadcast_grad(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_mul_grad(self):
        check_grad(lambda t: (t * t * 2.0).sum(), np.random.default_rng(1).normal(size=(3, 3)))

    def test_div_grad(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 2.0, size=(4,))
        check_grad(lambda t: (1.0 / t).sum(), x)

    def test_pow_grad(self):
        x = np.random.default_rng(3).uniform(0.5, 2.0, size=(5,))
        check_grad(lambda t: (t**3).sum(), x)

    def test_sub_and_neg(self):
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        (a - b).backward()
        assert a.grad[0] == 1.0 and b.grad[0] == -1.0

    def test_rsub_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        out = (4.0 - a) + (8.0 / a)
        out.backward()
        np.testing.assert_allclose(a.grad, [-1.0 - 2.0])


class TestMatmul:
    @pytest.mark.parametrize(
        "ashape,bshape",
        [((3, 4), (4, 2)), ((4,), (4, 2)), ((3, 4), (4,)), ((4,), (4,))],
    )
    def test_matmul_grad_shapes(self, ashape, bshape):
        rng = np.random.default_rng(4)
        a0, b0 = rng.normal(size=ashape), rng.normal(size=bshape)

        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        (a @ b).sum().backward()

        na = numeric_grad(lambda arr: float((arr @ b0).sum()), a0.copy())
        nb = numeric_grad(lambda arr: float((a0 @ arr).sum()), b0.copy())
        np.testing.assert_allclose(a.grad, na, atol=1e-5)
        np.testing.assert_allclose(b.grad, nb, atol=1e-5)


    @pytest.mark.parametrize(
        "ashape,bshape",
        [
            ((2, 3, 4), (4,)),
            ((2, 3, 4), (4, 5)),
            ((4,), (2, 4, 5)),
            ((3, 4), (2, 4, 5)),
            ((2, 3, 4), (2, 4, 5)),
            ((2, 1, 3, 4), (5, 4, 2)),
        ],
    )
    def test_batched_matmul_grad(self, ashape, bshape):
        """Batch axes broadcast in the forward; the backward sums them out."""
        rng = np.random.default_rng(5)
        a0, b0 = rng.normal(size=ashape), rng.normal(size=bshape)
        weights = rng.normal(size=(a0 @ b0).shape)

        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        ((a @ b) * weights).sum().backward()

        na = numeric_grad(lambda arr: float(((arr @ b0) * weights).sum()), a0.copy())
        nb = numeric_grad(lambda arr: float(((a0 @ arr) * weights).sum()), b0.copy())
        np.testing.assert_allclose(a.grad, na, atol=1e-5)
        np.testing.assert_allclose(b.grad, nb, atol=1e-5)


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        x = np.random.default_rng(5).normal(size=(2, 3, 4))
        check_grad(lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum(), x)

    def test_mean_grad(self):
        x = np.random.default_rng(6).normal(size=(3, 5))
        check_grad(lambda t: t.mean(), x)

    def test_max_grad_splits_ties(self):
        x = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.0])

    def test_max_axis(self):
        x = np.random.default_rng(7).normal(size=(4, 3))
        check_grad(lambda t: t.max(axis=0).sum(), x)

    def test_reshape_transpose(self):
        x = np.random.default_rng(8).normal(size=(2, 6))
        check_grad(lambda t: (t.reshape(3, 4).T ** 2).sum(), x)

    def test_getitem_grad(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        x[1].sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 0, 0], [1, 1, 1]])

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["relu", "tanh", "sigmoid", "exp"])
    def test_unary_grads(self, op):
        x = np.random.default_rng(9).normal(size=(4, 3)) + 0.1  # avoid relu kink
        check_grad(lambda t: getattr(t, op)().sum(), x)

    def test_log_grad(self):
        x = np.random.default_rng(10).uniform(0.5, 3.0, size=(4,))
        check_grad(lambda t: t.log().sum(), x)


class TestCombinators:
    def test_concat_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        (out * np.arange(10.0).reshape(2, 5)).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [5, 6]])
        np.testing.assert_allclose(b.grad, [[2, 3, 4], [7, 8, 9]])

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = stack([a, b], axis=0)
        out[1].sum().backward()
        np.testing.assert_allclose(a.grad, np.zeros(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_shared_node_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        (y + y).backward()
        np.testing.assert_allclose(x.grad, [6.0])


def _two_push_order(root: Tensor) -> list[Tensor]:
    """The reference traversal: push ``(node, processed)`` twice per node."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    pending: list[tuple[Tensor, bool]] = [(root, False)]
    while pending:
        node, processed = pending.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        pending.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                pending.append((parent, False))
    return topo


def _random_graph(seed: int, leaves: int, ops: int) -> Tensor:
    """A random DAG over (3,) tensors with shared nodes, duplicate
    parents and non-grad leaves mixed in."""
    draw = np.random.default_rng(seed)
    nodes = [
        Tensor(draw.normal(size=3), requires_grad=bool(i == 0 or draw.random() < 0.7))
        for i in range(leaves)
    ]
    for _ in range(ops):
        pick = [nodes[int(i)] for i in draw.integers(0, len(nodes), size=3)]
        kind = int(draw.integers(0, 5))
        if kind == 0:
            out = pick[0] + pick[1]
        elif kind == 1:
            out = pick[0] * pick[1]
        elif kind == 2:
            out = pick[0].tanh()
        elif kind == 3:
            out = stack([pick[0], pick[1], pick[0], pick[2]]).sum(axis=0)
        else:
            out = concat([pick[2], pick[1]])[1:4]
        nodes.append(out)
    return sum(nodes[leaves:], nodes[0]).sum()


class TestBackwardOrder:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), leaves=st.integers(1, 6), ops=st.integers(0, 40))
    def test_order_matches_two_push_reference(self, seed, leaves, ops):
        root = _random_graph(seed, leaves, ops)
        assert [id(n) for n in _topo_order(root)] == [id(n) for n in _two_push_order(root)]

    def test_leaf_root(self):
        x = Tensor(np.ones(2), requires_grad=True)
        assert _topo_order(x) == [x]
        x.backward(np.full(2, 3.0))
        np.testing.assert_allclose(x.grad, [3.0, 3.0])


class TestMode:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_backward_on_nongrad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        assert not x.detach().requires_grad


class TestFunctional:
    def test_softmax_sums_to_one(self):
        x = Tensor(np.random.default_rng(11).normal(size=(5,)))
        np.testing.assert_allclose(F.softmax(x).data.sum(), 1.0)

    def test_log_softmax_matches_softmax(self):
        x = Tensor(np.random.default_rng(12).normal(size=(7,)))
        np.testing.assert_allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-12)

    def test_log_softmax_grad(self):
        x = np.random.default_rng(13).normal(size=(6,))
        check_grad(lambda t: F.log_softmax(t)[2], x)

    def test_masked_log_softmax_excludes(self):
        scores = Tensor(np.zeros(4))
        mask = np.array([True, False, True, False])
        lp = F.masked_log_softmax(scores, mask).data
        np.testing.assert_allclose(np.exp(lp[mask]), [0.5, 0.5])
        assert (lp[~mask] < -100).all()

    def test_masked_log_softmax_all_false_raises(self):
        with pytest.raises(ValueError):
            F.masked_log_softmax(Tensor(np.zeros(3)), np.zeros(3, dtype=bool))

    def test_masked_log_softmax_shape_mismatch(self):
        with pytest.raises(ValueError):
            F.masked_log_softmax(Tensor(np.zeros(3)), np.ones(4, dtype=bool))

    def test_segment_sum_values(self):
        vals = Tensor(np.arange(8, dtype=float).reshape(4, 2))
        out = F.segment_sum(vals, np.array([0, 1, 0, 2]), 3)
        np.testing.assert_allclose(out.data, [[4, 6], [2, 3], [6, 7]])

    def test_segment_sum_grad(self):
        x = np.random.default_rng(14).normal(size=(5, 2))
        ids = np.array([0, 0, 1, 2, 1])
        check_grad(lambda t: (F.segment_sum(t, ids, 3) ** 2).sum(), x)

    def test_segment_mean_empty_segment_is_zero(self):
        vals = Tensor(np.ones((2, 3)))
        out = F.segment_mean(vals, np.array([0, 0]), 2)
        np.testing.assert_allclose(out.data[1], 0.0)
        np.testing.assert_allclose(out.data[0], 1.0)

    def test_segment_sum_bad_ids(self):
        with pytest.raises(ValueError):
            F.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 1]), 2)

    def test_gather_rows_grad(self):
        x = np.random.default_rng(15).normal(size=(4, 3))
        check_grad(lambda t: F.gather_rows(t, np.array([1, 1, 3])).sum(), x)
