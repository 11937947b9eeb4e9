import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from captionkit import autodiff as ad
from conftest import assert_grads_close, finite_difference


def t(data, grad=True):
    return ad.Tensor(data, requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = ad.matmul(t(np.eye(2)), t(x))
        assert np.array_equal(out.data, x)

    def test_hand_product(self):
        out = ad.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(4, 2)))
        ad.backward(ad.sum_all(ad.matmul(a, b)))
        fd = finite_difference(lambda: (a.data @ b.data).sum(), [a.data, b.data])
        assert_grads_close(a.grad, fd[0], rtol=1e-6)
        assert_grads_close(b.grad, fd[1], rtol=1e-6)


class TestCausalConv1d:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        kernel = np.zeros((3, 3, 3))
        kernel[-1] = np.eye(3)
        out = ad.causal_conv1d(t(x), t(kernel), t(np.zeros(3)))
        assert np.array_equal(out.data, x)

    def test_hand_convolution(self):
        x = t([[1.0], [2.0], [3.0], [4.0]])
        kernel = t(np.ones((3, 1, 1)))
        out = ad.causal_conv1d(x, kernel, t(np.zeros(1)))
        assert np.array_equal(out.data.ravel(), [1.0, 3.0, 6.0, 9.0])

    def test_causality_bit_exact(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 2))
        kernel = t(rng.normal(size=(3, 2, 4)))
        bias = t(rng.normal(size=4))
        base = ad.causal_conv1d(t(x), kernel, bias).data
        for cut in range(6):
            perturbed = x.copy()
            perturbed[cut + 1:] = rng.normal(size=perturbed[cut + 1:].shape)
            out = ad.causal_conv1d(t(perturbed), kernel, bias).data
            assert np.array_equal(out[: cut + 1], base[: cut + 1])

    def test_channel_mismatch(self):
        with pytest.raises(ad.ShapeError, match="channel"):
            ad.causal_conv1d(t(np.zeros((4, 3))), t(np.zeros((2, 2, 5))), t(np.zeros(5)))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = t(rng.normal(size=(5, 2)))
        kernel = t(rng.normal(size=(2, 2, 3)))
        bias = t(rng.normal(size=3))
        w = rng.normal(size=(5, 3))  # fixed weighting so the loss is non-trivial
        loss = ad.sum_all(ad.mul(ad.causal_conv1d(x, kernel, bias), t(w, grad=False)))
        ad.backward(loss)

        def ref():
            K = kernel.data.shape[0]
            xp = np.vstack([np.zeros((K - 1, 2)), x.data])
            out = np.tile(bias.data, (5, 1))
            for k in range(K):
                out += xp[k:k + 5] @ kernel.data[k]
            return (out * w).sum()

        fd = finite_difference(ref, [x.data, kernel.data, bias.data])
        assert_grads_close(x.grad, fd[0], rtol=1e-5)
        assert_grads_close(kernel.grad, fd[1], rtol=1e-5)
        assert_grads_close(bias.grad, fd[2], rtol=1e-5)


class TestGlu:
    def test_zero_gate_halves(self):
        a = np.array([[2.0, -4.0], [6.0, 1.0]])
        x = np.concatenate([a, np.zeros_like(a)], axis=1)
        assert np.array_equal(ad.glu(t(x)).data, a / 2.0)

    def test_saturated_gate_passes_value(self):
        a = np.array([[2.0, -4.0]])
        x = np.concatenate([a, np.full_like(a, 50.0)], axis=1)
        assert np.allclose(ad.glu(t(x)).data, a, atol=1e-9)

    def test_closed_form(self):
        out = ad.glu(t([[2.0, math.log(3.0)]]))
        assert out.data.item() == pytest.approx(1.5, abs=1e-12)

    def test_odd_channels_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.glu(t(np.zeros((2, 3))))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_composed_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 8))
        val, gate = x[:, :4], x[:, 4:]
        expected = val / (1.0 + np.exp(-gate)) * 1.0
        assert np.allclose(ad.glu(t(x)).data, val * (1 / (1 + np.exp(-gate))), atol=1e-12)
        assert np.allclose(ad.glu(t(x)).data, expected, atol=1e-12)


class TestSoftmax:
    def test_equal_logits(self):
        out = ad.softmax(t(np.zeros((2, 5))))
        assert np.allclose(out.data, 0.2, atol=1e-15)

    def test_closed_form(self):
        out = ad.softmax(t([[0.0, math.log(3.0)]]))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, seed, shift):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=5.0, size=(4, 6))
        y = ad.softmax(t(x)).data
        assert np.all(y >= 0.0) and np.all(y <= 1.0)
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
        shifted = ad.softmax(t(x + shift)).data
        assert np.allclose(shifted, y, atol=1e-12)


class TestElementwiseSuite:
    def test_relu(self):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        assert np.array_equal(ad.relu(t(x)).data, [0.0, 0.0, 0.0, 0.5, 3.0])

    def test_dropout_p_zero_identity(self):
        x = t(np.arange(12.0).reshape(3, 4))
        assert ad.dropout(x, 0.0, 7, train_mode=True) is x

    def test_dropout_eval_identity(self):
        x = t(np.arange(12.0).reshape(3, 4))
        assert ad.dropout(x, 0.5, 7, train_mode=False) is x

    def test_dropout_seed_reproducible(self):
        x = t(np.ones((20, 20)))
        a = ad.dropout(x, 0.4, 123, train_mode=True).data
        b = ad.dropout(x, 0.4, 123, train_mode=True).data
        assert np.array_equal(a, b)

    def test_dropout_mask_mean_within_3_sigma(self):
        p = 0.3
        n = 100_000
        x = t(np.ones(n))
        out = ad.dropout(x, p, 99, train_mode=True).data
        survivors = np.count_nonzero(out) / n
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(survivors - (1.0 - p)) <= 3.0 * sigma

    def test_dropout_gradient_is_mask(self):
        x = t(np.ones((4, 4)))
        out = ad.dropout(x, 0.5, 5, train_mode=True)
        ad.backward(ad.sum_all(out))
        assert np.array_equal(x.grad, out.data)  # survivors carry 1/(1-p)

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            ad.dropout(t(np.ones(3)), 1.0, 0, train_mode=True)

    def test_lookup_matches_one_hot_matmul(self):
        rng = np.random.default_rng(4)
        table = rng.normal(size=(7, 3))
        ids = np.array([4, 0, 6, 4])
        one_hot = np.zeros((4, 7))
        one_hot[np.arange(4), ids] = 1.0
        out = ad.embedding_lookup(t(table), ids)
        assert np.array_equal(out.data, one_hot @ table)

    def test_lookup_gradient_accumulates_repeats(self):
        table = t(np.zeros((3, 2)))
        out = ad.embedding_lookup(table, [1, 1, 2])
        ad.backward(ad.sum_all(out))
        assert np.array_equal(table.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])

    def test_lookup_rejects_out_of_range(self):
        with pytest.raises(ad.OutOfVocabularyError, match="id 5"):
            ad.embedding_lookup(t(np.zeros((5, 2))), [0, 5])


class TestWeightNorm:
    def test_fixed_point(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(3, 4))
        g = np.sqrt((v * v).sum(axis=0))
        w = ad.weight_norm(t(v), t(g))
        assert np.allclose(w.data, v, atol=1e-12)

    def test_direction_scale_invariance(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(2, 3, 4))
        g = rng.uniform(0.5, 2.0, size=4)
        w1 = ad.weight_norm(t(v), t(g)).data
        w2 = ad.weight_norm(t(2.0 * v), t(g)).data
        assert np.allclose(w1, w2, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        v = t(rng.normal(size=(3, 4)))
        g = t(rng.uniform(0.5, 2.0, size=4))
        weights = rng.normal(size=(3, 4))
        loss = ad.sum_all(ad.mul(ad.weight_norm(v, g), t(weights, grad=False)))
        ad.backward(loss)

        def ref():
            n = np.sqrt((v.data * v.data).sum(axis=0))
            return (v.data * (g.data / n) * weights).sum()

        fd = finite_difference(ref, [v.data, g.data])
        assert_grads_close(v.grad, fd[0], rtol=1e-6)
        assert_grads_close(g.grad, fd[1], rtol=1e-6)

    def test_zero_norm_rejected(self):
        v = np.ones((3, 2))
        v[:, 1] = 0.0
        with pytest.raises(ad.DegenerateDirectionError):
            ad.weight_norm(t(v), t(np.ones(2)))


class TestBackward:
    def test_sum_gives_ones(self):
        x = t(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_composite_chain_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = t(rng.normal(size=(4, 2)))
        kernel = t(rng.normal(size=(2, 2, 6)))
        bias = t(rng.normal(size=6))
        w = rng.normal(size=(4, 3))
        probe = t(w, grad=False)

        def graph():
            return ad.sum_all(
                ad.mul(ad.softmax(ad.glu(ad.causal_conv1d(x, kernel, bias))), probe)
            )

        ad.backward(graph())

        def ref():
            K = kernel.data.shape[0]
            xp = np.vstack([np.zeros((K - 1, 2)), x.data])
            pre = np.tile(bias.data, (4, 1))
            for k in range(K):
                pre += xp[k:k + 4] @ kernel.data[k]
            val, gate = pre[:, :3], pre[:, 3:]
            h = val / (1.0 + np.exp(-gate))
            e = np.exp(h - h.max(axis=-1, keepdims=True))
            return (e / e.sum(axis=-1, keepdims=True) * w).sum()

        fd = finite_difference(ref, [x.data, kernel.data, bias.data])
        assert_grads_close(x.grad, fd[0], rtol=1e-5)
        assert_grads_close(kernel.grad, fd[1], rtol=1e-5)
        assert_grads_close(bias.grad, fd[2], rtol=1e-5)

    def test_repeated_backward_doubles_exactly(self):
        rng = np.random.default_rng(9)
        x = t(rng.normal(size=(3, 3)))
        y = t(rng.normal(size=(3, 3)))
        loss = ad.sum_all(ad.mul(ad.matmul(x, y), ad.matmul(x, y)))
        ad.backward(loss)
        once = x.grad.copy(), y.grad.copy()
        ad.backward(loss)
        assert np.array_equal(x.grad, 2.0 * once[0])
        assert np.array_equal(y.grad, 2.0 * once[1])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ad.RankError):
            ad.backward(t(np.zeros((2, 2))))

    def test_shared_operand_sums_contributions(self):
        x = t(np.array([[2.0]]))
        loss = ad.sum_all(ad.add(ad.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
        ad.backward(loss)
        assert np.array_equal(x.grad, [[5.0]])

    def test_op_results_store_no_gradient(self):
        x = t(np.array([[2.0, -1.0]]))
        hidden = ad.relu(x)
        ad.backward(ad.sum_all(ad.mul(hidden, hidden)))
        assert hidden.grad is None
        assert np.array_equal(x.grad, [[4.0, 0.0]])

    def test_zero_gradients_helper(self):
        x = t(np.ones(3))
        ad.backward(ad.sum_all(x))
        ad.zero_gradients({"x": x})
        assert x.grad is None


def test_replay_is_bit_identical():
    rng_data = np.random.default_rng(10).normal(size=(5, 4))

    def run():
        x = t(rng_data.copy())
        kernel = t(np.random.default_rng(11).normal(size=(2, 4, 8)))
        out = ad.glu(ad.causal_conv1d(ad.dropout(x, 0.25, 42, True), kernel, t(np.zeros(8))))
        loss = ad.sum_all(out)
        ad.backward(loss)
        return out.data.copy(), x.grad.copy(), kernel.grad.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


@given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_causal_conv_future_independence_property(seed, cut, K):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 2))
    kernel = t(rng.normal(size=(K, 2, 3)))
    bias = t(rng.normal(size=3))
    base = ad.causal_conv1d(t(x), kernel, bias).data
    mutated = x.copy()
    mutated[cut + 1:] += rng.normal(size=mutated[cut + 1:].shape) + 1.0
    out = ad.causal_conv1d(t(mutated), kernel, bias).data
    assert np.array_equal(out[: cut + 1], base[: cut + 1])
