import math
import warnings

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
        grads = ad.backward(ad.sum_all(ad.matmul(a, b)))
        fd = finite_difference(lambda: (a.data @ b.data).sum(), [a.data, b.data])
        assert_grads_close(grads[a], fd[0], rtol=1e-6)
        assert_grads_close(grads[b], fd[1], rtol=1e-6)


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
        grads = ad.backward(loss)

        def ref():
            K = kernel.data.shape[0]
            xp = np.vstack([np.zeros((K - 1, 2)), x.data])
            out = np.tile(bias.data, (5, 1))
            for k in range(K):
                out += xp[k:k + 5] @ kernel.data[k]
            return (out * w).sum()

        fd = finite_difference(ref, [x.data, kernel.data, bias.data])
        assert_grads_close(grads[x], fd[0], rtol=1e-5)
        assert_grads_close(grads[kernel], fd[1], rtol=1e-5)
        assert_grads_close(grads[bias], fd[2], rtol=1e-5)


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


def _sigmoid_op(a):
    # The sigmoid and tanh ops the LSTM cell was once composed of.
    y = ad._sigmoid(a.data)

    def bw(g, emit):
        emit(a, g * y * (1.0 - y))

    return ad._node(y, (a,), bw)


def _tanh_op(a):
    y = np.tanh(a.data)

    def bw(g, emit):
        emit(a, g * (1.0 - y * y))

    return ad._node(y, (a,), bw)


def composed_cell(z, cell):
    """The LSTM cell written out in elementwise ops: the reference that
    ``ad.lstm_cell`` must equal bit for bit."""
    h = cell.data.shape[-1] // 2
    memory = ad.slice_cols(cell, 0, h)
    gate_in = _sigmoid_op(ad.slice_cols(z, 0, h))
    gate_forget = _sigmoid_op(ad.slice_cols(z, h, 2 * h))
    gate_out = _sigmoid_op(ad.slice_cols(z, 2 * h, 3 * h))
    candidate = _tanh_op(ad.slice_cols(z, 3 * h, 4 * h))
    new_memory = ad.add(ad.mul(gate_forget, memory), ad.mul(gate_in, candidate))
    hidden = ad.mul(gate_out, _tanh_op(new_memory))
    return ad.concat((new_memory, hidden), axis=-1)


class TestLstmCell:
    @pytest.mark.parametrize("lead, hdim", [((32, 1), 64), ((1,), 64), ((3,), 2), ((2, 1), 1)])
    @pytest.mark.parametrize("memory_tracked", [True, False])
    def test_equals_the_composed_cell(self, lead, hdim, memory_tracked):
        rng = np.random.default_rng(hdim)
        z0 = rng.normal(scale=2.0, size=lead + (4 * hdim,))
        m0 = rng.normal(size=lead + (hdim,))
        upstream = t(rng.normal(size=lead + (2 * hdim,)), grad=False)
        c0 = np.concatenate([m0, rng.normal(size=lead + (hdim,))], axis=-1)
        results = []
        for cell in (ad.lstm_cell, composed_cell):
            z, memory = t(z0.copy()), t(c0.copy(), grad=memory_tracked)
            out = cell(z, memory)
            grads = ad.backward(ad.sum_all(ad.mul(out, upstream)))
            results.append((out.data, grads[z], grads.get(memory)))
        fused, composed = results
        assert np.array_equal(fused[0], composed[0])
        assert np.array_equal(fused[1], composed[1])
        if memory_tracked:
            assert np.array_equal(fused[2], composed[2])
        else:
            assert fused[2] is None and composed[2] is None

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 3
        z = t(rng.normal(size=(2, 1, 4 * h)))
        memory = t(np.concatenate([rng.normal(size=(2, 1, h)), np.zeros((2, 1, h))], axis=-1))
        w = rng.normal(size=(2, 1, 2 * h))
        grads = ad.backward(ad.sum_all(ad.mul(ad.lstm_cell(z, memory), t(w, grad=False))))

        def ref():
            gates = 1.0 / (1.0 + np.exp(-z.data[..., :3 * h]))
            i, f, o = gates[..., :h], gates[..., h:2 * h], gates[..., 2 * h:]
            m = f * memory.data[..., :h] + i * np.tanh(z.data[..., 3 * h:])
            return (np.concatenate([m, o * np.tanh(m)], axis=-1) * w).sum()

        fd = finite_difference(ref, [z.data, memory.data])
        assert_grads_close(grads[z], fd[0], rtol=1e-6)
        assert_grads_close(grads[memory], fd[1], rtol=1e-6)

    def test_the_previous_cell_gets_a_memory_gradient_and_a_zero_hidden_one(self):
        # Finite differences over the whole previous [memory | hidden] cell,
        # whose hidden half is not zero but no output reads.
        rng = np.random.default_rng(6)
        h = 3
        z = t(rng.normal(size=(2, 1, 4 * h)))
        cell = t(rng.normal(size=(2, 1, 2 * h)))
        w = t(rng.normal(size=(2, 1, 2 * h)), grad=False)
        grads = ad.backward(ad.sum_all(ad.mul(ad.lstm_cell(z, cell), w)))
        fd = finite_difference(lambda: (ad.lstm_cell(z, cell).data * w.data).sum(), [cell.data])
        assert_grads_close(grads[cell], fd[0], rtol=1e-6)
        assert np.all(fd[0][..., h:] == 0.0)
        assert np.all(grads[cell][..., h:] == 0.0)
        assert np.all(grads[cell][..., :h] != 0.0)


def _sigmoid_by_glu(x):
    """sigmoid(x) read from glu, as 1 * sigmoid(gate)."""
    x = np.asarray(x, dtype=np.float64)[None]
    return ad.glu(t(np.concatenate([np.ones_like(x), x], axis=-1))).data[0]


def _sigmoid_by_lstm_cell(x):
    """sigmoid(x) read from lstm_cell as the forget gate times a memory of 1,
    with a zero candidate."""
    x = np.asarray(x, dtype=np.float64)[None]
    zero = np.zeros_like(x)
    cell = ad.lstm_cell(t(np.concatenate([zero, x, zero, zero], axis=-1)),
                        t(np.concatenate([np.ones_like(x), zero], axis=-1)))
    return cell.data[0, :x.shape[-1]]


@pytest.mark.parametrize("sigmoid", [_sigmoid_by_glu, _sigmoid_by_lstm_cell], ids=["glu", "lstm_cell"])
class TestSigmoid:
    def test_saturates_to_exact_zero_and_one_without_overflow(self, sigmoid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigmoid([1000.0, -1000.0, 0.0]).tolist() == [1.0, 0.0, 0.5]

    def test_symmetric_within_one_unit_in_the_last_place_of_one(self, sigmoid):
        # 1 / (1 + e) and e / (1 + e) are each rounded twice; over this grid the
        # largest gap measured is 1.66e-16, so the bound is eps = 2.2e-16.
        x = np.concatenate([np.linspace(-40.0, 40.0, 20001),
                            np.random.default_rng(0).normal(scale=5.0, size=5000)])
        gap = np.abs(sigmoid(-x) - (1.0 - sigmoid(x)))
        assert gap.max() <= np.finfo(np.float64).eps

    def test_nan_propagates(self, sigmoid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid([np.nan, 2.0])
        assert np.isnan(out[0]) and out[1] == 1.0 / (1.0 + math.exp(-2.0))


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


def _weighted_loss(out, weights):
    return ad.sum_all(ad.mul(out, t(weights, grad=False)))


class TestMatmulBias:
    """``matmul``'s bias operand against ``x @ w + b`` in numpy: the forward
    and every gradient ``==``, and finite differences for each operand."""

    @pytest.mark.parametrize("lead, per_example", [((), False), ((2,), False), ((2,), True)],
                             ids=["2-d", "shared", "per-example"])
    def test_equals_the_product_plus_the_bias(self, lead, per_example):
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=lead + (3, 4)))
        w = t(rng.normal(size=(lead if per_example else ()) + (4, 5)))
        b = t(rng.normal(size=5))
        upstream = rng.normal(size=lead + (3, 5))
        out = ad.matmul(x, w, b)
        grads = ad.backward(_weighted_loss(out, upstream))
        assert np.array_equal(out.data, x.data @ w.data + b.data)
        assert np.array_equal(grads[x], upstream @ w.data.swapaxes(-1, -2))
        assert np.array_equal(grads[w], x.data.swapaxes(1, 2) @ upstream if per_example
                              else x.data.reshape(-1, 4).T @ upstream.reshape(-1, 5))
        assert np.array_equal(grads[b], upstream.sum(axis=tuple(range(len(lead) + 1))))

    @pytest.mark.parametrize("per_example", [False, True], ids=["shared", "per-example"])
    def test_gradients_match_finite_differences(self, per_example):
        rng = np.random.default_rng(6)
        x = t(rng.normal(size=(2, 3, 4)))
        w = t(rng.normal(size=((2,) if per_example else ()) + (4, 5)))
        b = t(rng.normal(size=5))
        upstream = rng.normal(size=(2, 3, 5))
        grads = ad.backward(_weighted_loss(ad.matmul(x, w, b), upstream))
        fd = finite_difference(lambda: ((x.data @ w.data + b.data) * upstream).sum(),
                               [x.data, w.data, b.data])
        for p, numeric in zip((x, w, b), fd):
            assert_grads_close(grads[p], numeric, rtol=1e-6)

    def test_the_probe_view_gives_each_example_its_weight_gradient(self):
        # As the probe tracks output_w: per-example copies of w, a shared untracked bias.
        rng = np.random.default_rng(7)
        params = {"w": t(rng.normal(size=(4, 5))), "b": t(rng.normal(size=5))}
        view = ad.view(params, tracked=("w",), batch=2)
        x = rng.normal(size=(2, 3, 4))
        upstream = rng.normal(size=(2, 3, 5))
        grads = ad.backward(_weighted_loss(ad.matmul(t(x, grad=False), view["w"], view["b"]),
                                           upstream))
        assert list(grads) == [view["w"]]
        for e in range(2):
            own = ad.backward(_weighted_loss(ad.matmul(t(x[e:e + 1], grad=False), params["w"],
                                                       params["b"]), upstream[e:e + 1]))
            assert np.array_equal(grads[view["w"]][e], own[params["w"]])


def composed_attention(x, wd, grid, upstream):
    """The forward and gradients of the ops that ``attention`` replaces, in
    numpy: ``matmul`` by ``w``, ``matmul`` by the transposed grid,
    ``softmax``, ``matmul`` by the grid and ``add`` of ``d``, each backward as
    its op's, with ``d``'s two contributions summed in the order ``backward``
    receives them. Returns (d + context, weights, d gradient, w gradient)."""
    cells = grid.swapaxes(-1, -2)
    scores = (x @ wd) @ cells
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    out = x + weights @ grid
    g_weights = upstream @ grid.swapaxes(-1, -2)
    g_scores = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
    g_dw = g_scores @ cells.swapaxes(-1, -2)
    h = wd.shape[0]
    return out, weights, upstream + g_dw @ wd.T, x.reshape(-1, h).T @ g_dw.reshape(-1, h)


class TestAttention:
    SHAPES = {"2-d": ((), 3, 4, 5), "batched": ((2,), 3, 4, 5)}

    @staticmethod
    def _inputs(lead, rows, width, cells, seed):
        rng = np.random.default_rng(seed)
        return (t(rng.normal(size=lead + (rows, width))), t(rng.normal(size=(width, width))),
                t(rng.normal(size=lead + (cells, width)), grad=False),
                rng.normal(size=lead + (rows, width)))

    @pytest.mark.parametrize("shape", SHAPES, ids=list(SHAPES))
    def test_equals_the_composed_numpy_ops(self, shape):
        d, w, spatial, upstream = self._inputs(*self.SHAPES[shape], seed=8)
        out, weights = ad.attention(d, w, spatial)
        grads = ad.backward(_weighted_loss(out, upstream))
        expected = composed_attention(d.data, w.data, spatial.data, upstream)
        for got, want in zip((out.data, weights, grads[d], grads[w]), expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", SHAPES, ids=list(SHAPES))
    def test_equals_the_composed_autodiff_ops(self, shape):
        d, w, spatial, upstream = self._inputs(*self.SHAPES[shape], seed=9)
        out, weights = ad.attention(d, w, spatial)
        grads = ad.backward(_weighted_loss(out, upstream))
        scores = ad.matmul(ad.matmul(d, w), t(spatial.data.swapaxes(-1, -2), grad=False))
        amap = ad.softmax(scores)
        composed = ad.add(d, ad.matmul(amap, spatial))
        composed_grads = ad.backward(_weighted_loss(composed, upstream))
        assert np.array_equal(out.data, composed.data)
        assert np.array_equal(weights, amap.data)
        assert np.array_equal(grads[d], composed_grads[d])
        assert np.array_equal(grads[w], composed_grads[w])

    @pytest.mark.parametrize("shape", SHAPES, ids=list(SHAPES))
    def test_gradients_match_finite_differences(self, shape):
        d, w, spatial, upstream = self._inputs(*self.SHAPES[shape], seed=10)
        grads = ad.backward(_weighted_loss(ad.attention(d, w, spatial)[0], upstream))

        def loss():
            return (ad.attention(t(d.data, grad=False), t(w.data, grad=False), spatial)[0].data
                    * upstream).sum()

        fd = finite_difference(loss, [d.data, w.data])
        assert_grads_close(grads[d], fd[0], rtol=1e-6)
        assert_grads_close(grads[w], fd[1], rtol=1e-6)

    def test_a_batch_equals_each_example_alone(self):
        d, w, spatial, upstream = self._inputs((3,), 4, 4, 6, seed=11)
        out, weights = ad.attention(d, w, spatial)
        for e in range(3):
            own, own_weights = ad.attention(t(d.data[e]), w, t(spatial.data[e], grad=False))
            assert np.array_equal(out.data[e], own.data)
            assert np.array_equal(weights[e], own_weights)


class TestElementwiseSuite:
    def test_dropout_p_zero_identity(self):
        x = t(np.arange(12.0).reshape(3, 4))
        assert ad.dropout(x, 0.0, 7) is x
        assert ad.dropout(x, 0.0, 7, positions=5) is x

    def test_dropout_eval_identity(self):
        x = t(np.arange(12.0).reshape(3, 4))
        assert ad.dropout(x, 0.5, None) is x
        assert ad.dropout(x, 0.5, None, positions=5) is x

    def test_dropout_seed_reproducible(self):
        x = t(np.ones((1, 20, 20)))
        a = ad.dropout(x, 0.4, [123]).data
        b = ad.dropout(x, 0.4, [123]).data
        assert np.array_equal(a, b)

    def test_dropout_mask_mean_within_3_sigma(self):
        p = 0.3
        n = 100_000
        x = t(np.ones((1, n)))
        out = ad.dropout(x, p, [99]).data
        survivors = np.count_nonzero(out) / n
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(survivors - (1.0 - p)) <= 3.0 * sigma

    def test_dropout_gradient_is_mask(self):
        x = t(np.ones((1, 4, 4)))
        out = ad.dropout(x, 0.5, [5])
        grads = ad.backward(ad.sum_all(out))
        assert np.array_equal(grads[x], out.data)  # survivors carry 1/(1-p)

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            ad.dropout(t(np.ones(3)), 1.0, 0)

    def test_dropout_per_position_keeps_the_mask_of_a_full_draw(self):
        # With positions P, any row count r gets the first r rows of the
        # mask a draw of P rows would give, and the stream moves on by P
        # rows; at r >= P the argument changes nothing.
        x = np.random.default_rng(3).normal(size=(6, 5))
        full = ad.dropout(t(x[None]), 0.4, [21]).data[0]
        for positions in (1, 4, 6):
            assert np.array_equal(ad.dropout(t(x[None]), 0.4, [21], positions).data[0], full)
        for rows in range(1, 7):
            rng = np.random.default_rng(21)
            cut = ad.dropout(t(x[None, :rows]), 0.4, [rng], positions=6).data[0]
            assert np.array_equal(cut, full[:rows]), rows
            reference = np.random.default_rng(21)
            reference.random((6, 5))
            assert rng.random() == reference.random(), rows

    def test_dropout_per_position_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = t(rng.normal(size=(2, 3, 4)))
        w = rng.normal(size=(2, 3, 4))

        def masked(data):
            return ad.dropout(data, 0.3, [5, 6], positions=7)

        grads = ad.backward(ad.sum_all(ad.mul(masked(x), t(w, grad=False))))
        fd = finite_difference(lambda: (masked(t(x.data, grad=False)).data * w).sum(), [x.data])
        assert_grads_close(grads[x], fd[0], rtol=1e-6)

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
        grads = ad.backward(ad.sum_all(out))
        assert np.array_equal(grads[table], [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])

    @pytest.mark.parametrize("per_example", [False, True])
    def test_lookup_sends_each_distinct_row_once_summed_in_arrival_order(self, per_example):
        # 40 reads of 5 rows: a sum whose bits depend on its order. A -0.0
        # upstream row read once must come out +0.0, as a scatter into zeros gives.
        rng = np.random.default_rng(15)
        table = t(rng.normal(size=(2, 6, 3) if per_example else (6, 3)))
        ids = rng.integers(0, 5, size=(2, 20))
        ids[1, -1] = 5
        out = ad.embedding_lookup(table, ids if per_example else ids.ravel())
        g = rng.normal(size=out.shape) * 1e3 ** rng.integers(-2, 3, size=out.shape)
        g.reshape(-1, 3)[-1] = -0.0
        sent = []
        out._bw(g, lambda target, contrib: sent.append(contrib))
        (rows,) = sent
        assert np.unique(rows.rows).size == rows.rows.size
        flat_ids = (ids + 6 * np.arange(2)[:, None] if per_example else ids).ravel()
        scatter = np.zeros(table.shape)
        np.add.at(scatter.reshape(-1, 3), flat_ids, g.reshape(-1, 3))
        dense = np.zeros(table.shape)
        dense.reshape(-1, 3)[rows.rows] = rows.grad
        assert dense.tobytes() == scatter.tobytes()
        assert ad.backward(ad.sum_all(ad.mul(out, t(g, grad=False))))[table].tobytes() \
            == scatter.tobytes()

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
        grads = ad.backward(loss)

        def ref():
            n = np.sqrt((v.data * v.data).sum(axis=0))
            return (v.data * (g.data / n) * weights).sum()

        fd = finite_difference(ref, [v.data, g.data])
        assert_grads_close(grads[v], fd[0], rtol=1e-6)
        assert_grads_close(grads[g], fd[1], rtol=1e-6)

    def test_zero_norm_rejected(self):
        v = np.ones((3, 2))
        v[:, 1] = 0.0
        with pytest.raises(ad.DegenerateDirectionError):
            ad.weight_norm(t(v), t(np.ones(2)))


class TestView:
    @staticmethod
    def _params():
        rng = np.random.default_rng(0)
        return {"table": t(rng.normal(size=(5, 3))), "w": t(rng.normal(size=(3, 2))),
                "b": t(rng.normal(size=2))}

    def test_shares_the_arrays_and_records_no_backward(self):
        params = self._params()
        view = ad.view(params)
        assert list(view) == list(params)
        for name, p in params.items():
            assert view[name] is not p and view[name].data is p.data, name
            assert not view[name].requires_grad, name
        out = ad.matmul(view["table"], view["w"], view["b"])
        assert not out.requires_grad and out._bw is None
        params["w"].data[0, 0] += 1.0
        assert view["w"].data[0, 0] == params["w"].data[0, 0]

    def test_tracked_copy_holds_each_examples_gradient(self):
        params = self._params()
        view = ad.view(params, tracked=("table",), batch=2)
        copy = view["table"]
        assert copy.requires_grad and copy.data.shape == (2, 5, 3)
        assert np.shares_memory(copy.data, params["table"].data)
        assert not view["w"].requires_grad and not view["b"].requires_grad

        def loss(table, ids):
            return ad.sum_all(ad.matmul(ad.embedding_lookup(table, ids), view["w"]))

        ids = np.array([[0, 4, 4], [2, 1, 0]])
        grads = ad.backward(loss(copy, ids))
        for b in range(2):
            alone = t(params["table"].data.copy())
            assert np.array_equal(grads[copy][b], ad.backward(loss(alone, ids[b]))[alone]), b
        assert list(grads) == [copy]


class TestBackward:
    def test_sum_gives_ones(self):
        x = t(np.arange(6.0).reshape(2, 3))
        grads = ad.backward(ad.sum_all(x))
        assert np.array_equal(grads[x], np.ones((2, 3)))

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

        grads = ad.backward(graph())

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
        assert_grads_close(grads[x], fd[0], rtol=1e-5)
        assert_grads_close(grads[kernel], fd[1], rtol=1e-5)
        assert_grads_close(grads[bias], fd[2], rtol=1e-5)

    def test_repeated_backward_returns_equal_gradients(self):
        rng = np.random.default_rng(9)
        x = t(rng.normal(size=(3, 3)))
        y = t(rng.normal(size=(3, 3)))
        loss = ad.sum_all(ad.mul(ad.matmul(x, y), ad.matmul(x, y)))
        once = ad.backward(loss)
        again = ad.backward(loss)
        assert np.array_equal(again[x], once[x])
        assert np.array_equal(again[y], once[y])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ad.RankError):
            ad.backward(t(np.zeros((2, 2))))

    def test_shared_operand_sums_contributions(self):
        x = t(np.array([[2.0]]))
        loss = ad.sum_all(ad.add(ad.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
        grads = ad.backward(loss)
        assert np.array_equal(grads[x], [[5.0]])

    def test_op_results_store_no_gradient(self):
        x = t(np.array([[2.0, -1.0]]))
        hidden = ad.clamp_min(x, 0.0)
        grads = ad.backward(ad.sum_all(ad.mul(hidden, hidden)))
        assert set(grads) == {x}
        assert np.array_equal(grads[x], [[4.0, 0.0]])

    def test_keys_are_the_tracked_leaves_the_loss_reaches(self):
        x, y, unreached = t(np.ones((1, 2))), t(np.full((1, 2), 3.0)), t(np.ones((1, 2)))
        constant = t(np.full((1, 2), 2.0), grad=False)
        product = ad.mul(ad.add(x, constant), y)
        grads = ad.backward(ad.sum_all(product))
        assert set(grads) == {x, y}
        assert unreached not in grads and constant not in grads and product not in grads
        assert np.array_equal(grads[x], [[3.0, 3.0]])
        assert np.array_equal(grads[y], [[3.0, 3.0]])
        assert ad.backward(ad.sum_all(constant)) == {}

    def test_a_scalar_reached_three_times_sums_every_contribution(self):
        x = t(np.array(2.0))
        s = ad.sum_all(t(np.array([2.0])))
        for leaf, node in ((x, x), (s._parents[0], s)):
            grads = ad.backward(ad.add(ad.add(node, node), node))
            assert np.array_equal(grads[leaf], np.full(leaf.shape, 3.0))

    def test_tensors_hold_no_gradient(self):
        assert not hasattr(ad.Tensor(np.ones(2), requires_grad=True), "grad")


def _copy(contrib):
    if isinstance(contrib, ad._Rows):
        return ad._Rows(contrib.rows.copy(), contrib.grad.copy())
    return np.array(contrib, dtype=np.float64)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _traced_backward(loss):
    """``ad.backward(loss)`` with a record of its work: a copy of every
    forward array, of the gradient each op's backward received, and of every
    contribution it emitted, in order, as (target, contribution, copy)."""
    nodes = ad._topo_order(loss)
    forward = [(n.data, n.data.copy()) for n in nodes]
    received, emitted = {}, []
    for node in nodes:
        if node._bw is not None:
            def bw(g, emit, node=node, inner=node._bw):
                received[node] = np.array(g)

                def record(target, contrib):
                    emitted.append((target, contrib, _copy(contrib)))
                    emit(target, contrib)

                inner(g, record)

            node._bw = bw
    grads = ad.backward(loss)
    assert _same_bits(received.pop(loss), np.ones(()))
    return grads, received, emitted, forward


def _sum_in_order(target, emitted):
    """The contributions to ``target`` as a dense sum in emission order: the
    first as emitted, each later one added as a fresh array, and a row
    contribution as the zeroed table with ``np.add.at`` that a lookup's
    backward used to emit."""
    total = None
    for to, _, contrib in emitted:
        if to is not target:
            continue
        if isinstance(contrib, ad._Rows):
            dense = np.zeros(target.shape)
            np.add.at(dense.reshape(-1, target.shape[-1]), contrib.rows, contrib.grad)
            contrib = dense
        total = contrib if total is None else total + contrib
    return total


def _assert_sums_in_order(leaves, grads, received, emitted, forward):
    """Every received and returned gradient has the bits of its dense sum in
    order; each returned one is a fresh array; nothing emitted or computed
    forward was written to."""
    for node, g in received.items():
        assert _same_bits(g, _sum_in_order(node, emitted)), node
    for leaf in leaves:
        assert _same_bits(grads[leaf], _sum_in_order(leaf, emitted)), leaf
        shared = [c for _, c, _ in emitted if not isinstance(c, ad._Rows)] + [d for d, _ in forward]
        assert not any(np.shares_memory(grads[leaf], a) for a in shared), leaf
    for data, copy in forward:
        assert _same_bits(data, copy)
    for _, contrib, copy in emitted:
        if isinstance(contrib, ad._Rows):
            assert _same_bits(contrib.rows, copy.rows) and _same_bits(contrib.grad, copy.grad)
        else:
            assert _same_bits(contrib, copy)


def _total(*terms):
    """sum_all of each term times a fixed random weight, added up."""
    rng = np.random.default_rng(len(terms))
    out = None
    for term in terms:
        s = ad.sum_all(ad.mul(term, ad.Tensor(rng.normal(size=term.shape))))
        out = s if out is None else ad.add(out, s)
    return out


class TestAccumulation:
    """``backward`` sums in place only in arrays it allocated, and table
    lookups contribute rows; either way each gradient is ``==`` to the
    plain dense sum of its contributions in the order they arrived."""

    def test_shared_upstream_arrays_sum_in_order_and_stay_unchanged(self):
        rng = np.random.default_rng(11)
        x, y, once = (t(rng.normal(size=(2, 3))) for _ in range(3))
        both = ad.add(x, y)  # one g to both operands
        twice = ad.add(x, x)  # one g to the same operand twice
        mixed = ad.add(ad.add(both, twice), once)  # operands that other ops reuse
        joined = ad.concat((both, twice, x, y), axis=1)  # views of one g
        loss = _total(mixed, joined, ad.mul(both, twice), ad.mul(y, y))
        grads, received, emitted, forward = _traced_backward(loss)
        counts = [sum(to is n for to, _, _ in emitted) for n in (x, y, both, twice, once)]
        assert min(counts[:4]) >= 3 and counts[4] == 1, counts
        _assert_sums_in_order((x, y, once), grads, received, emitted, forward)

    def test_rows_within_and_across_lookups_of_one_table(self):
        # The LSTM pattern: one lookup per step, with repeated ids in a step
        # and across steps, and rows that no step reads.
        rng = np.random.default_rng(12)
        table, w = t(rng.normal(size=(6, 3))), t(rng.normal(size=(3, 3)))
        ids = np.array([[1, 1, 0, 2], [2, 1, 1, 0], [1, 2, 2, 2]])  # [B, T]
        h = ad.Tensor(np.zeros((3, 1, 3)))
        for step in range(ids.shape[1]):
            emb = ad.embedding_lookup(table, ids[:, step:step + 1])
            h = ad.softmax(ad.add(emb, ad.matmul(h, w)))
        grads, received, emitted, forward = _traced_backward(_total(h))
        assert sum(to is table for to, _, _ in emitted) == ids.shape[1]
        _assert_sums_in_order((table, w), grads, received, emitted, forward)
        assert not np.any(grads[table][3:]) and not np.any(np.signbit(grads[table][3:]))

    def test_rows_of_per_example_tables(self):
        # The probe pattern: a tracked per-example copy [B, V, D] of a table.
        rng = np.random.default_rng(13)
        params = {"table": t(rng.normal(size=(5, 3))), "w": t(rng.normal(size=(3, 3)))}
        view = ad.view(params, tracked=("table",), batch=3)
        # [B, T, 4]: each step reads rows 0-2 four times per example, so rows repeat.
        ids = rng.integers(0, 3, size=(3, 5, 4))
        h = ad.Tensor(np.zeros((3, 4, 3)))
        for step in range(ids.shape[1]):
            emb = ad.embedding_lookup(view["table"], ids[:, step])
            h = ad.softmax(ad.add(emb, ad.matmul(h, view["w"])))
        grads, received, emitted, forward = _traced_backward(_total(h))
        assert sum(to is view["table"] for to, _, _ in emitted) == ids.shape[1]
        _assert_sums_in_order((view["table"],), grads, received, emitted, forward)

    @pytest.mark.parametrize("dense_first", [True, False])
    def test_rows_mixed_with_a_dense_use_keep_zero_signs(self, dense_first):
        rng = np.random.default_rng(14)
        table = t(rng.normal(size=(5, 2)))
        scale = rng.normal(size=(5, 2))
        scale[4] = -0.0  # row 4: a -0.0 in the dense contribution, read by no lookup
        dense = ad.sum_all(ad.mul(table, ad.Tensor(scale)))  # contributes scale itself
        looked = _total(*(ad.embedding_lookup(table, ids)
                          for ids in ([[0, 1, 1]], [[1, 2, 0]], [[3, 3, 0]])))
        # The second operand's backward runs first.
        loss = ad.add(looked, dense) if dense_first else ad.add(dense, looked)
        grads, received, emitted, forward = _traced_backward(loss)
        kinds = [isinstance(c, ad._Rows) for to, c, _ in emitted if to is table]
        assert kinds == ([False, True, True, True] if dense_first else [True, True, True, False])
        (dense_g,) = [c for to, c, _ in emitted if to is table and not isinstance(c, ad._Rows)]
        assert np.any(np.signbit(dense_g[4]) & (dense_g[4] == 0.0))
        _assert_sums_in_order((table,), grads, received, emitted, forward)
        assert not np.any(np.signbit(grads[table][4]))  # -0.0 + 0.0, as in a dense sum


def test_replay_is_bit_identical():
    rng_data = np.random.default_rng(10).normal(size=(5, 4))

    def run():
        x = t(rng_data.copy()[None])
        kernel = t(np.random.default_rng(11).normal(size=(2, 4, 8)))
        out = ad.glu(ad.causal_conv1d(ad.dropout(x, 0.25, [42]), kernel, t(np.zeros(8))))
        loss = ad.sum_all(out)
        grads = ad.backward(loss)
        return out.data.copy(), grads[x], grads[kernel]

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


@pytest.mark.parametrize("call, fragment", [
    (lambda: ad.add(t(np.zeros((2, 3))), t(np.zeros(2))), "add: incompatible shapes"),
    (lambda: ad.mul(t(np.zeros(3)), t(np.zeros(2))), "mul: incompatible shapes"),
    (lambda: ad.matmul(t(np.zeros((2, 3))), t(np.zeros((3, 4))), t(np.zeros(3))),
     "matmul: bias shape (3,), expected (4,)"),
    (lambda: ad.attention(t(np.zeros((2, 3, 4))), t(np.zeros((4, 4))), t(np.zeros((5, 4)))),
     "attention: rows (2, 3, 4), weight (4, 4) and grids (5, 4)"),
    (lambda: ad.attention(t(np.zeros((3, 4))), t(np.zeros((4, 5))), t(np.zeros((6, 5)))),
     "attention: rows (3, 4), weight (4, 5) and grids (6, 5)"),
    (lambda: ad.causal_conv1d(t(np.zeros(4)), t(np.zeros((2, 1, 3))), t(np.zeros(3))),
     "causal_conv1d: expected [T,Cin] or [B,T,Cin] and [K,Cin,Cout]"),
    (lambda: ad.causal_conv1d(t(np.zeros((4, 1))), t(np.zeros((2, 1, 3))), t(np.zeros(2))),
     "causal_conv1d: bias shape (2,), expected (3,)"),
    (lambda: ad.weight_norm(t(np.ones((2, 3))), t(np.ones(2))),
     "weight_norm: g shape (2,), expected (3,)"),
    (lambda: ad.dropout(t(np.ones((2, 3))), 0.5, [0]),
     "dropout: 1 generators for a batch of 2"),
    (lambda: ad.dropout(t(np.ones((1, 3))), 0.5, 7),
     "dropout: rng must be a list of one seed or Generator per example, got int"),
    (lambda: ad.embedding_lookup(t(np.zeros((2, 4, 3))), np.zeros((3, 1), dtype=int)),
     "embedding_lookup: ids (3, 1) for a table (2, 4, 3)"),
    (lambda: ad.lstm_cell(t(np.zeros((1, 8))), t(np.zeros((1, 3)))),
     "lstm_cell: gates (1, 8) for a cell (1, 3)"),
    (lambda: ad.tile_rows(t(np.zeros((1, 4))), 3), "tile_rows: expected [B, 1, D], got (1, 4)"),
    (lambda: ad.pick(t(np.zeros((1, 3, 5))), [0, 1]), "pick: expected ids [B, T'], got (2,)"),
])
def test_shape_rejections_raise_shape_error(call, fragment):
    with pytest.raises(ad.ShapeError) as caught:
        call()
    assert fragment in str(caught.value)
