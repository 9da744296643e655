import math
import os
import tracemalloc

import numpy as np
import pytest

from spvs import progressive, tensorkit as tk
from spvs.errors import (
    ContractError,
    DimensionError,
    DomainError,
    FormatError,
    NumericsError,
)
from spvs.tensorkit import Tensor

from conftest import check_gradients


def _rand(rng, shape, grad=True):
    return Tensor(rng.normals(shape), requires_grad=grad)


class TestMatmul:
    def test_identity(self, rng):
        a = _rand(rng, (3, 4), grad=False)
        out = tk.matmul(Tensor(np.eye(3)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_matches_triple_loop(self, rng):
        a = _rand(rng, (3, 4))
        b = _rand(rng, (4, 2))
        out = tk.matmul(a, b)
        expect = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expect[i, j] += a.data[i, k] * b.data[k, j]
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_zeros_annihilate(self, rng):
        b = _rand(rng, (2, 5), grad=False)
        out = tk.matmul(Tensor(np.zeros((2, 2))), b)
        assert not out.data.any()

    def test_shape_mismatch_names_both_shapes(self, rng):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
            tk.matmul(_rand(rng, (3, 4)), _rand(rng, (3, 2)))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert tk.sigmoid(Tensor(0.0)).item() == 0.5

    def test_add_identity(self, rng):
        x = _rand(rng, (4, 3))
        np.testing.assert_array_equal(tk.add(x, 0.0).data, x.data)

    def test_row_broadcast_matches_loop(self, rng):
        x = _rand(rng, (5, 3))
        v = _rand(rng, (5,))
        out = tk.scale_rows(x, v)
        expect = np.stack([x.data[t] * v.data[t] for t in range(5)])
        np.testing.assert_array_equal(out.data, expect)

    def test_incompatible_broadcast_raises(self, rng):
        with pytest.raises(DimensionError):
            tk.add(_rand(rng, (3, 2)), _rand(rng, (4, 2)))

    def test_log_domain(self):
        with pytest.raises(DomainError):
            tk.log(Tensor([-1.0]))

    def test_nonfinite_detected(self):
        with pytest.raises(NumericsError):
            tk.exp(Tensor([1000.0]))

    @pytest.mark.parametrize("make,op", [
        (lambda: tk.exp(Tensor([1000.0])), "exp"),
        (lambda: tk.mul(Tensor([1e200]), Tensor([1e200])), "mul"),
        (lambda: tk.gelu(Tensor([0.0, np.nan])), "gelu"),
        (lambda: tk.linear(Tensor([[1e308, 1e308]]), Tensor([[1.0], [1.0]]), Tensor([0.0])),
         "linear"),
    ])
    def test_nonfinite_error_names_the_op(self, make, op):
        with np.errstate(all="ignore"), pytest.raises(
            NumericsError, match=rf"^{op}: operation produced non-finite values$"
        ):
            make()


class TestReductions:
    def test_softmax_symmetry(self):
        out = tk.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_l2_normalize_345(self):
        out = tk.l2_normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_l2_normalize_zero_row_passthrough(self):
        with pytest.warns(UserWarning, match="all-zero"):
            out = tk.l2_normalize_rows(Tensor([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data[0], [0.0, 0.0])

    def test_mean(self):
        assert tk.tmean(Tensor([1.0, 2.0, 3.0])).item() == 2.0

    def test_softmax_rows_sum_to_one(self, rng):
        out = tk.softmax_rows(_rand(rng, (6, 9), grad=False))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(6), atol=1e-9)

    def test_layer_norm_standardizes(self, rng):
        x = _rand(rng, (5, 16), grad=False)
        out = tk.layer_norm_rows(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.abs(out.data.mean(axis=1)).max() <= 1e-9
        assert np.abs(out.data.var(axis=1) - 1.0).max() <= 1e-4


class TestBackward:
    def test_sum_gives_ones(self, rng):
        w = _rand(rng, (3, 2))
        tk.backward(tk.tsum(w))
        np.testing.assert_array_equal(w.grad, np.ones((3, 2)))

    def test_nonscalar_loss_rejected(self, rng):
        with pytest.raises(ContractError):
            tk.backward(_rand(rng, (2,)))

    def test_detached_tensor_gets_no_gradient(self, rng):
        w = _rand(rng, (3, 2))
        d = Tensor(w.data.copy())
        tk.backward(tk.tsum(tk.mul(d, d)))
        assert w.grad is None and d.grad is None

    @pytest.mark.parametrize("op", [
        lambda x: tk.tsum(tk.sigmoid(x)),
        lambda x: tk.tsum(tk.relu(tk.add(x, 0.1))),
        lambda x: tk.tsum(tk.exp(tk.scale(x, 0.5))),
        lambda x: tk.tsum(tk.gelu(x)),
        lambda x: tk.tsum(tk.log(tk.add(tk.mul(x, x), 1.0))),
        lambda x: tk.tsum(tk.sqrt(tk.add(tk.mul(x, x), 0.5))),
        lambda x: tk.tsum(tk.softmax_rows(tk.mul(x, x))),
        lambda x: tk.tsum(tk.l2_normalize_rows(tk.add(x, 2.0))),
        lambda x: tk.tmean(tk.matmul(x, tk.transpose(x))),
        lambda x: tk.tsum(tk.row_norms(tk.add(x, 1.5))),
        lambda x: tk.tsum(tk.concat([tk.narrow(x, 0, 2), tk.narrow(x, 1, 2)])),
        lambda x: tk.tsum(tk.clip(x, -0.5, 0.5)),
    ])
    def test_op_gradients_match_finite_differences(self, rng, op):
        x = _rand(rng, (3, 4))
        check_gradients(lambda: op(x), [x], rng, n_points=10)

    def test_layer_norm_gradients(self, rng):
        x = _rand(rng, (3, 6))
        g = Tensor(rng.uniforms((6,), 0.5, 1.5), requires_grad=True)
        b = _rand(rng, (6,))
        check_gradients(
            lambda: tk.tsum(tk.mul(tk.layer_norm_rows(x, g, b), Tensor(rng_weights))),
            [x, g, b],
            rng,
            n_points=15,
        )

    def test_composed_graph_gradients(self, rng):
        a = _rand(rng, (4, 3))
        b = _rand(rng, (3, 2))

        def loss():
            h = tk.sigmoid(tk.matmul(a, b))
            return tk.tmean(tk.mul(h, h))

        check_gradients(loss, [a, b], rng, n_points=20)


def _reference_backward(loss):
    """The sweep without release: every node keeps its gradient, parents and
    closure.  Oracle for the gradients tk.backward computes."""
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    return topo


def _mixed_graph(x, w, b, g, v):
    """Shared subexpressions, broadcasting, batch axes and most op kinds."""
    h = tk.linear(x, w, b)  # (2, 5, 6)
    a = tk.attention(h, h, tk.gelu(h), 2)
    n = tk.layer_norm_rows(tk.add(a, h), g, b)
    m = tk.matmul(tk.relu(n), tk.reshape(v, (6, 3)))
    s = tk.sigmoid(tk.tsum(tk.mul(m, m), axis=-1))  # (2, 5)
    r = tk.scale_rows(tk.reshape(tk.narrow(n, 1, 1, axis=0), (5, 6)), tk.reshape(
        tk.narrow(s, 0, 1), (5,)))
    c = tk.concat([tk.l2_normalize_rows(r), tk.transpose(tk.softmax_rows(tk.transpose(r)))])
    return tk.add(tk.tsum(tk.sqrt(tk.add(tk.mul(c, c), 0.5))), tk.tsum(tk.log(tk.add(s, 1.0))))


class TestGraphRelease:
    """backward frees each interior node once its closure has run."""

    @staticmethod
    def _leaves(rng):
        return [
            _rand(rng, (2, 5, 4)),
            _rand(rng, (4, 6)),
            _rand(rng, (6,)),
            Tensor(rng.uniforms((6,), 0.5, 1.5), requires_grad=True),
            _rand(rng, (18,)),
        ]

    @staticmethod
    def _grads(leaves, sweep, build):
        for p in leaves:
            p.grad = None
        visited = sweep(build(*leaves))
        return len(visited), [None if p.grad is None else p.grad.tobytes() for p in leaves]

    def test_leaf_gradients_bitwise_equal_to_reference(self, rng):
        leaves = self._leaves(rng)
        n_ref, ref = self._grads(leaves, _reference_backward, _mixed_graph)
        n_new, new = self._grads(leaves, tk.backward, _mixed_graph)
        assert n_new == n_ref
        assert None not in ref and new == ref

    def test_summarizer_step_gradients_bitwise_equal_to_reference(self, tiny_weights, rng):
        # a batch of two videos, as progressive.train_on builds it
        videos = [Tensor(rng.normals((T, 8))) for T in (12, 9)]
        gts = [rng.uniforms((T,)) for T in (12, 9)]
        params = list(tiny_weights.trainable().values())

        def build(*_):
            losses = []
            for video, gt in zip(videos, gts):
                _, s_star = progressive.forward_stages(tiny_weights, video, 3)
                losses.append(tk.reshape(progressive.vs_loss(s_star, gt), (1,)))
            return tk.scale(tk.tsum(tk.concat(losses, axis=0)), 1.0 / len(losses))

        n_ref, ref = self._grads(params, _reference_backward, build)
        n_new, new = self._grads(params, tk.backward, build)
        assert n_new == n_ref
        assert sum(g is not None for g in ref) > 20 and new == ref

    def test_interior_nodes_are_released(self, rng):
        leaves = self._leaves(rng)
        loss = _mixed_graph(*leaves)
        visited = tk.backward(loss)
        interior = [t for t in visited if t not in leaves]
        assert interior and loss in interior
        for t in interior:
            assert t.grad is None and t._parents == () and t._backward is tk._released
            assert t.data is not None
        assert all(p.grad is not None for p in leaves)
        assert float(loss.data) == float(_mixed_graph(*leaves).data)

    def test_second_backward_through_a_spent_graph_raises(self, rng):
        x = _rand(rng, (3, 4))
        h = tk.gelu(x)
        tk.backward(tk.tsum(h))
        with pytest.raises(ContractError, match="already backpropagated"):
            tk.backward(tk.tsum(tk.mul(h, h)))
        loss = tk.tsum(tk.gelu(x))
        tk.backward(loss)
        with pytest.raises(ContractError):
            tk.backward(loss)

    @staticmethod
    def _growth(sweep):
        """Peak traced memory during the sweep, in (256, 256) float64 arrays,
        over a chain of 50 gelu(scale(.)) nodes."""
        x = Tensor(np.linspace(-2.0, 2.0, 256 * 256).reshape(256, 256), requires_grad=True)
        h = x
        for _ in range(50):
            h = tk.gelu(tk.scale(h, 0.9))
        loss = tk.tsum(h)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sweep(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / x.data.nbytes

    def test_memory_during_backward_does_not_grow_with_depth(self):
        assert self._growth(_reference_backward) >= 90  # every interior gradient kept
        assert self._growth(tk.backward) <= 4


class TestLinear:
    """tk.linear is add(matmul(a, w), b) as one node, bit for bit."""

    @staticmethod
    def _run(fn, a, w, b):
        for t in (a, w, b):
            t.grad = None
        W = np.linspace(0.3, 1.7, a.data.size // a.data.shape[-1] * w.data.shape[1])
        out = fn(a, w, b)
        tk.backward(tk.tsum(tk.mul(out, Tensor(W.reshape(out.shape)))))
        return out.data.tobytes(), [None if t.grad is None else t.grad.tobytes()
                                    for t in (a, w, b)]

    @pytest.mark.parametrize("shape", [(5, 4), (3, 5, 4)])
    @pytest.mark.parametrize("frozen", [(), ("a",), ("w",), ("b",), ("a", "b")])
    def test_bitwise_equal_to_add_of_matmul(self, rng, shape, frozen):
        a = _rand(rng, shape, grad="a" not in frozen)
        w = _rand(rng, (4, 3), grad="w" not in frozen)
        b = _rand(rng, (3,), grad="b" not in frozen)
        fused = self._run(tk.linear, a, w, b)
        assert fused == self._run(lambda a, w, b: tk.add(tk.matmul(a, w), b), a, w, b)
        assert [g is None for g in fused[1]] == [n in frozen for n in "awb"]

    def test_one_node(self, rng):
        a, w, b = _rand(rng, (5, 4)), _rand(rng, (4, 3)), _rand(rng, (3,))
        out = tk.linear(a, w, b)
        assert out._parents == (a, w, b)
        assert len(tk.backward(tk.tsum(out))) == 5

    def test_shape_errors(self, rng):
        a, w = _rand(rng, (5, 4)), _rand(rng, (4, 3))
        with pytest.raises(DimensionError, match="bias"):
            tk.linear(a, w, _rand(rng, (4,)))
        with pytest.raises(DimensionError, match="bias"):
            tk.linear(a, w, _rand(rng, (1, 3)))
        with pytest.raises(DimensionError, match=r"\(5, 4\).*\(3, 3\)"):
            tk.linear(a, _rand(rng, (3, 3)), _rand(rng, (3,)))
        with pytest.raises(DimensionError):
            tk.linear(_rand(rng, (4,)), w, _rand(rng, (3,)))


class TestBatchAxes:
    """Row-wise ops take leading batch axes; parameter gradients sum over them."""

    def test_matmul_batch_equals_per_matrix(self, rng):
        a = _rand(rng, (2, 3, 4))
        b = _rand(rng, (4, 5))
        out = tk.matmul(a, b)
        assert out.shape == (2, 3, 5)
        for i in range(2):
            np.testing.assert_allclose(out.data[i], a.data[i] @ b.data, atol=1e-12)
        with pytest.raises(DimensionError):
            tk.matmul(a, _rand(rng, (2, 4, 5)))

    def test_matmul_batch_gradients(self, rng):
        a = _rand(rng, (2, 3, 4))
        b = _rand(rng, (4, 2))
        W = np.linspace(0.3, 1.7, 12).reshape(2, 3, 2)
        check_gradients(lambda: tk.tsum(tk.mul(tk.matmul(a, b), Tensor(W))), [a, b], rng,
                        n_points=15)

    def test_layer_norm_batch_equals_per_matrix(self, rng):
        x = _rand(rng, (2, 3, 6))
        g = Tensor(rng.uniforms((6,), 0.5, 1.5))
        b = _rand(rng, (6,), grad=False)
        out = tk.layer_norm_rows(x, g, b).data
        for i in range(2):
            np.testing.assert_array_equal(out[i], tk.layer_norm_rows(Tensor(x.data[i]), g, b).data)

    def test_layer_norm_batch_gradients(self, rng):
        x = _rand(rng, (2, 3, 6))
        g = Tensor(rng.uniforms((6,), 0.5, 1.5), requires_grad=True)
        b = _rand(rng, (6,))
        W = np.linspace(0.3, 1.7, 36).reshape(2, 3, 6)
        check_gradients(
            lambda: tk.tsum(tk.mul(tk.layer_norm_rows(x, g, b), Tensor(W))), [x, g, b], rng,
            n_points=15,
        )

    def test_gather_rows_any_id_shape(self, rng):
        table = _rand(rng, (5, 3))
        ids = np.array([[0, 4], [4, 2]])
        out = tk.gather_rows(table, ids)
        np.testing.assert_array_equal(out.data, table.data[ids])
        W = np.linspace(0.3, 1.7, 12).reshape(2, 2, 3)
        check_gradients(lambda: tk.tsum(tk.mul(tk.gather_rows(table, ids), Tensor(W))),
                        [table], rng, n_points=10)

    def test_tsum_over_axes(self, rng):
        x = _rand(rng, (2, 3, 4))
        np.testing.assert_allclose(tk.tsum(x, axis=(-2, -1)).data, x.data.sum(axis=(1, 2)))
        W = np.array([0.5, 1.5])
        check_gradients(lambda: tk.tsum(tk.mul(tk.tsum(tk.mul(x, x), axis=(-2, -1)), Tensor(W))),
                        [x], rng, n_points=10)


def _attention_reference(q, k, v, heads, key_bias=None):
    """Per-head attention on (T, d) arrays, written out head by head."""
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        s = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
        if key_bias is not None:
            s = s + key_bias[None, :]
        e = np.exp(s - s.max(axis=1, keepdims=True))
        outs.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
    return np.concatenate(outs, axis=1)


class TestAttention:
    def test_matches_per_head_reference(self, rng):
        q, k, v = (_rand(rng, (6, 8)) for _ in range(3))
        out = tk.attention(q, k, v, 4)
        np.testing.assert_allclose(
            out.data, _attention_reference(q.data, k.data, v.data, 4), atol=1e-12
        )

    def test_key_bias_masks_keys(self, rng):
        q, k, v = (_rand(rng, (5, 4)) for _ in range(3))
        bias = np.array([0.0, 0.0, 0.0, -1e30, -1e30])
        out = tk.attention(q, k, v, 2, key_bias=bias)
        kept = tk.attention(q, Tensor(k.data[:3]), Tensor(v.data[:3]), 2)
        np.testing.assert_allclose(out.data, kept.data, atol=1e-12)

    def test_batch_equals_per_sequence(self, rng):
        q, k, v = (_rand(rng, (3, 5, 8)) for _ in range(3))
        bias = np.where(np.arange(5)[None, :] < np.array([5, 3, 4])[:, None], 0.0, -1e30)
        out = tk.attention(q, k, v, 2, key_bias=bias)
        for i in range(3):
            one = tk.attention(Tensor(q.data[i]), Tensor(k.data[i]), Tensor(v.data[i]), 2,
                               key_bias=bias[i])
            np.testing.assert_allclose(out.data[i], one.data, atol=1e-12)

    def test_graph_free_result_is_bitwise_the_trainable_one(self, rng):
        q, k, v = (_rand(rng, (2, 7, 8)) for _ in range(3))
        with_grad = tk.attention(q, k, v, 4)
        free = tk.attention(*(Tensor(x.data) for x in (q, k, v)), 4)
        assert with_grad.requires_grad and not free.requires_grad and free._backward is None
        assert free.data.tobytes() == with_grad.data.tobytes()

    @pytest.mark.parametrize("shape,bias", [
        ((4, 6), None),
        ((4, 6), np.array([0.0, -1e30, 0.0, 0.0])),
        ((2, 4, 6), np.array([[0.0, 0.0, 0.0, -1e30], [0.0, -1e30, 0.0, 0.0]])),
    ])
    def test_gradients_match_finite_differences(self, rng, shape, bias):
        q, k, v = (_rand(rng, shape) for _ in range(3))
        W = np.linspace(0.3, 1.7, int(np.prod(shape))).reshape(shape)
        check_gradients(
            lambda: tk.tsum(tk.mul(tk.attention(q, k, v, 2, key_bias=bias), Tensor(W))),
            [q, k, v], rng, n_points=20,
        )

    def test_shape_errors(self, rng):
        x = _rand(rng, (4, 6))
        with pytest.raises(DimensionError):
            tk.attention(x, x, x, 4)  # 6 columns do not split into 4 heads
        with pytest.raises(DimensionError):
            tk.attention(x, _rand(rng, (4, 4)), _rand(rng, (4, 4)), 2)
        with pytest.raises(DimensionError):
            tk.attention(x, x, x, 2, key_bias=np.zeros(3))


rng_weights = np.linspace(0.3, 1.7, 18).reshape(3, 6)


class TestAdam:
    def test_zero_gradient_leaves_parameter(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = tk.Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_magnitude(self):
        # hand evaluation at t=1: m_hat = g, v_hat = g^2, delta = lr*g/(|g|+eps)
        p = Tensor([0.0], requires_grad=True)
        opt = tk.Adam({"p": p}, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        expect = -0.1 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(p.data, [expect], rtol=1e-12)

    def test_same_stream_bitwise_identical(self):
        def run():
            r = tk.Rng(5)
            p = Tensor(r.normals((4, 4)), requires_grad=True)
            opt = tk.Adam({"p": p}, lr=0.01)
            for _ in range(10):
                loss = tk.tmean(tk.mul(p, p))
                opt.zero_grad()
                tk.backward(loss)
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())


def _ref_normals(rng, shape, mu=0.0, sigma=1.0):
    """Scalar reference for Rng.normals: one Rng.normal call per element."""
    n = int(np.prod(shape))
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i] = rng.normal(mu, sigma)
    return out.reshape(shape)


def _ref_uniforms(rng, shape, lo=0.0, hi=1.0):
    """Scalar reference for Rng.uniforms: one Rng.uniform call per element."""
    n = int(np.prod(shape))
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i] = rng.uniform(lo, hi)
    return out.reshape(shape)


def _same_stream(fast, ref):
    return fast._s == ref._s and fast._spare == ref._spare


# Sizes around the scalar/lane switch and across lane shapes: 0, 1, the
# threshold +-1, exact powers of four and one past them, and a large draw.
_DRAW_SIZES = (0, 1, tk._LANE_MIN_DRAWS - 1, tk._LANE_MIN_DRAWS, tk._LANE_MIN_DRAWS + 1,
               512, 4096, 4097, 20000)


class TestRngArrayDraws:
    """uniforms and normals are bitwise the per-element loops, state included."""

    @pytest.mark.parametrize("n", _DRAW_SIZES)
    def test_uniforms_match_scalar_loop(self, n):
        fast, ref = tk.Rng(11), tk.Rng(11)
        a = fast.uniforms((n,), -0.25, 0.75)
        b = _ref_uniforms(ref, (n,), -0.25, 0.75)
        assert a.tobytes() == b.tobytes()
        assert _same_stream(fast, ref)
        assert fast.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("n", _DRAW_SIZES)
    @pytest.mark.parametrize("odd", [False, True])
    def test_normals_match_scalar_loop(self, n, odd):
        n += odd
        fast, ref = tk.Rng(12), tk.Rng(12)
        a = fast.normals((n,), 0.5, 2.0)
        b = _ref_normals(ref, (n,), 0.5, 2.0)
        assert a.tobytes() == b.tobytes()
        assert _same_stream(fast, ref)
        assert fast.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("n", [1, 2, tk._LANE_MIN_DRAWS + 1, 4096, 4097])
    def test_spare_carried_across_calls(self, n):
        fast, ref = tk.Rng(13), tk.Rng(13)
        for shape in [(3,), (n,), (n, 2), (1,), (n + 1,)]:
            a = fast.normals(shape)
            b = _ref_normals(ref, shape)
            assert a.shape == b.shape == shape
            assert a.tobytes() == b.tobytes()
            assert _same_stream(fast, ref)

    def test_interleaved_with_scalar_draws(self):
        fast, ref = tk.Rng(14), tk.Rng(14)
        for n in (5, 300, 1, 2000, 129):
            assert fast.normals((n,)).tobytes() == _ref_normals(ref, (n,)).tobytes()
            assert fast.uniform() == ref.uniform()
            assert fast.normal() == ref.normal()
            assert fast.next_u64() == ref.next_u64()
            assert fast.uniforms((n, 3)).tobytes() == _ref_uniforms(ref, (n, 3)).tobytes()
            assert fast.randint(7) == ref.randint(7)
            assert _same_stream(fast, ref)

    def test_shapes(self):
        r = tk.Rng(15)
        assert r.uniforms(()).shape == ()
        assert r.normals(4).shape == (4,)
        assert r.uniforms((2, 0, 3)).shape == (2, 0, 3)

    @pytest.mark.parametrize("shape", [(-3, 4), (-1,), (-2, -2), -5])
    def test_negative_extent_rejected(self, shape):
        r = tk.Rng(16)
        with pytest.raises(ContractError, match="negative"):
            r.normals(shape)
        with pytest.raises(ContractError, match="negative"):
            r.uniforms(shape)

    def test_pinned_values(self):
        # Rng(7)'s stream; changing these changes every corpus and checkpoint
        r = tk.Rng(7)
        assert [r.next_u64() for _ in range(4)] == [
            12923355070828475994, 5142052590334782674,
            15488392906492639638, 18098058644649177664,
        ]
        assert tk.Rng(7).uniforms((3,)).tolist() == [
            0.7005764821796896, 0.2787512294737843, 0.8396274618764198,
        ]

    def _with_reference_draws(self, monkeypatch, fn):
        monkeypatch.setattr(tk.Rng, "normals", _ref_normals)
        monkeypatch.setattr(tk.Rng, "uniforms", _ref_uniforms)
        try:
            return fn()
        finally:
            monkeypatch.undo()

    def test_gen_synthetic_identical_to_reference(self, monkeypatch):
        from spvs import dataprep

        def corpus():
            recs = dataprep.gen_synthetic(n_videos=3, n_frames=60, d_f=16, seed=5)
            return [(r.features.tobytes(), np.asarray(r.annotations).tobytes(),
                     r.planted_scores.tobytes(), r.text) for r in recs]

        assert corpus() == self._with_reference_draws(monkeypatch, corpus)

    def test_initialize_identical_to_reference(self, monkeypatch):
        from spvs import encoders

        def weights():
            w = encoders.ModelWeights.initialize(encoders.EncoderConfig(), 3, tk.Rng(21))
            return {name: t.data.tobytes() for name, t in w.params.items()}

        assert weights() == self._with_reference_draws(monkeypatch, weights)


class TestRng:
    def test_seed_reproducible(self):
        a = tk.Rng(42).normals((10,))
        b = tk.Rng(42).normals((10,))
        np.testing.assert_array_equal(a, b)

    def test_known_substreams_differ(self):
        r = tk.Rng(1)
        s1 = r.substream("a").next_u64()
        s2 = r.substream("b").next_u64()
        assert s1 != s2

    def test_substream_independent_of_parent_consumption(self):
        r1 = tk.Rng(3)
        r1.next_u64()
        r2 = tk.Rng(3)
        assert r1.substream("x").next_u64() == r2.substream("x").next_u64()

    def test_uniform_range(self):
        r = tk.Rng(9)
        vals = [r.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.4 < sum(vals) / len(vals) < 0.6

    def test_shuffle_permutes(self):
        r = tk.Rng(4)
        out = r.shuffle(list(range(20)))
        assert sorted(out) == list(range(20))
        assert out != list(range(20))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, rng):
        tensors = {
            "a.weight": rng.normals((3, 4)),
            "b": rng.normals((7,)),
            "scalar": np.float64(2.5),
        }
        p1 = os.fspath(tmp_path / "w1.ck")
        p2 = os.fspath(tmp_path / "w2.ck")
        tk.save_checkpoint(p1, tensors)
        loaded = tk.load_checkpoint(p1)
        tk.save_checkpoint(p2, loaded)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        for name in tensors:
            np.testing.assert_array_equal(
                loaded[name], np.asarray(tensors[name], dtype=np.float32).astype(np.float64)
            )

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ck"
        p.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(FormatError, match="magic"):
            tk.load_checkpoint(os.fspath(p))

    def test_bad_version_rejected(self, tmp_path, rng):
        p = os.fspath(tmp_path / "v.ck")
        tk.save_checkpoint(p, {"x": rng.normals((2,))})
        blob = bytearray(open(p, "rb").read())
        blob[4] = 99
        open(p, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            tk.load_checkpoint(p)

    def test_truncated_rejected(self, tmp_path, rng):
        p = os.fspath(tmp_path / "t.ck")
        tk.save_checkpoint(p, {"x": rng.normals((4, 4))})
        blob = open(p, "rb").read()
        open(p, "wb").write(blob[:-8])
        with pytest.raises(FormatError):
            tk.load_checkpoint(p)
