"""The minibatch tensor path: ops with a leading batch axis, batched model
forwards against per-example forwards, the batch NLL, and the trainer's one
graph per minibatch against the per-example reference loop."""

import inspect
import sys
from functools import reduce

import numpy as np
import pytest

from captionkit import autodiff as ad
from captionkit import convmodel as cm
from captionkit import lstmmodel as lm
from captionkit import training as tr
from captionkit.analysis import LossStats, grad_norm_probe, nll_loss, teacher_forced_ids
from captionkit.data import ImageFeatures, TokenSeq, synth_corpus
from conftest import assert_grads_close, finite_difference


def t(data, grad=True):
    return ad.Tensor(data, requires_grad=grad)


def weighted_fd_check(op, arrays, rtol=1e-5):
    """FD-check every input of op(*tensors) under a fixed random weighting."""
    tensors = [t(a) for a in arrays]
    out = op(*tensors)
    w = np.random.default_rng(99).normal(size=out.data.shape)
    grads = ad.backward(ad.sum_all(ad.mul(out, t(w, grad=False))))
    fd = finite_difference(lambda: (op(*[t(x.data, grad=False) for x in tensors]).data * w).sum(),
                           [x.data for x in tensors])
    for x, numeric in zip(tensors, fd):
        assert_grads_close(grads[x], numeric, rtol=rtol)


class TestBatchedOps:
    rng = np.random.default_rng(0)

    def test_matmul_shared_right_operand(self):
        weighted_fd_check(ad.matmul, [self.rng.normal(size=(2, 3, 4)), self.rng.normal(size=(4, 5))])

    def test_matmul_batched(self):
        weighted_fd_check(ad.matmul, [self.rng.normal(size=(2, 3, 4)),
                                      self.rng.normal(size=(2, 4, 5))])

    def test_matmul_batch_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
            ad.matmul(t(np.zeros((2, 3, 4))), t(np.zeros((3, 4, 5))))

    def test_add_bias_over_batch(self):
        weighted_fd_check(ad.matmul, [self.rng.normal(size=(2, 3, 4)), self.rng.normal(size=(4, 5)),
                                      self.rng.normal(size=5)])

    @pytest.mark.parametrize("K", [1, 3])
    def test_causal_conv1d(self, K):
        weighted_fd_check(ad.causal_conv1d, [self.rng.normal(size=(3, 4, 2)),
                                             self.rng.normal(size=(K, 2, 3)),
                                             self.rng.normal(size=3)])

    def test_causal_conv1d_batch_equals_examples(self):
        x = self.rng.normal(size=(3, 5, 2))
        kernel = t(self.rng.normal(size=(3, 2, 4)))
        bias = t(self.rng.normal(size=4))
        batched = ad.causal_conv1d(t(x, grad=False), kernel, bias).data
        for b in range(3):
            single = ad.causal_conv1d(t(x[b], grad=False), kernel, bias).data
            assert np.allclose(batched[b], single, rtol=0, atol=1e-14)

    def test_tile_rows(self):
        rows = self.rng.normal(size=(2, 1, 4))
        assert np.array_equal(ad.tile_rows(t(rows), 3).data, np.repeat(rows, 3, axis=1))
        weighted_fd_check(lambda x: ad.tile_rows(x, 3), [rows])

    def test_pick(self):
        ids = np.array([[0, 4, 2], [1, 1, 3]])
        probs = self.rng.uniform(0.1, 1.0, size=(2, 4, 5))
        weighted_fd_check(lambda p: ad.pick(p, ids), [probs])
        assert np.array_equal(ad.pick(t(probs), ids).data,
                              [[probs[b, i, ids[b, i]] for i in range(3)] for b in range(2)])

    def test_matmul_stacked_one_row_products(self):
        # [B, 1, C] @ [C, D]: the one-row products of the LSTM and the image
        # embedding, forward and the stacked a-gradient.
        weighted_fd_check(ad.matmul, [self.rng.normal(size=(3, 1, 4)), self.rng.normal(size=(4, 5))])

    def test_slice_cols_last_axis(self):
        x = self.rng.normal(size=(2, 1, 6))
        assert np.array_equal(ad.slice_cols(t(x), 2, 5).data, x[..., 2:5])
        weighted_fd_check(lambda a: ad.slice_cols(a, 2, 5), [x])

    @pytest.mark.parametrize("K", [1, 3])
    def test_causal_conv1d_batch_equals_examples_exactly(self, K):
        x = self.rng.normal(size=(4, 5, 3))
        kernel = t(self.rng.normal(size=(K, 3, 4)))
        bias = t(self.rng.normal(size=4))
        xb = t(x)
        out = ad.causal_conv1d(xb, kernel, bias)
        g = self.rng.normal(size=out.data.shape)
        grads = ad.backward(ad.sum_all(ad.mul(out, t(g, grad=False))))
        for b in range(4):
            xs = t(x[b])
            single = ad.causal_conv1d(xs, kernel, bias)
            single_grads = ad.backward(ad.sum_all(ad.mul(single, t(g[b], grad=False))))
            assert np.array_equal(out.data[b], single.data)
            assert np.array_equal(grads[xb][b], single_grads[xs])

    @pytest.mark.parametrize("ids", [[[4, 0, 4, 6], [1, 1, 1, 2], [6, 5, 6, 0]],
                                     [[3], [3], [0]]])
    def test_embedding_lookup_per_example_table_equals_examples_exactly(self, ids):
        # [B, T] and [B, 1] ids, with repeats within and across examples.
        ids = np.array(ids)
        tables = self.rng.normal(size=(3, 7, 2))
        table = t(tables)
        out = ad.embedding_lookup(table, ids)
        g = self.rng.normal(size=out.data.shape)
        grads = ad.backward(ad.sum_all(ad.mul(out, t(g, grad=False))))
        for b in range(3):
            single_table = t(tables[b])
            single = ad.embedding_lookup(single_table, ids[b])
            single_grads = ad.backward(ad.sum_all(ad.mul(single, t(g[b], grad=False))))
            assert np.array_equal(out.data[b], single.data)
            assert np.array_equal(grads[table][b], single_grads[single_table])

    def test_embedding_lookup_per_example_table(self):
        ids = np.array([[2, 0, 2], [1, 3, 3]])
        weighted_fd_check(lambda table: ad.embedding_lookup(table, ids),
                          [self.rng.normal(size=(2, 4, 3))])

    def test_embedding_lookup_per_example_table_bounds_ids_by_vocab(self):
        # Two examples of a 5-row table: id 4 is in range, id 5 is not.
        table = t(np.zeros((2, 5, 3)))
        assert ad.embedding_lookup(table, [[4], [0]]).data.shape == (2, 1, 3)
        with pytest.raises(ad.OutOfVocabularyError, match="id 5 outside table of size 5"):
            ad.embedding_lookup(table, [[0], [5]])

    def test_dropout_masks_follow_each_example_stream(self):
        x = self.rng.normal(size=(3, 4, 5))
        batched = ad.dropout(t(x), 0.3, [11, 12, 13]).data
        for b, seed in enumerate((11, 12, 13)):
            assert np.array_equal(batched[b], ad.dropout(t(x[b][None]), 0.3, [seed]).data[0])


def cnn_model(vocab_size):
    config = cm.ModelConfig(
        vocab_size=vocab_size, embed_dim=6, hidden_dim=8, num_layers=3,
        kernel_widths=(2, 3, 3), bottleneck_dim=5, max_steps=6, feature_dim=96,
        dropout_p=0.2, weight_norm=True, residual=True, attention=True,
        grid_size=4, spatial_channels=8,
    )
    return cm.init_params(config, seed=3)


def lstm_model(vocab_size):
    return lm.init_params(lm.LstmConfig(vocab_size=vocab_size, embed_dim=6, hidden_dim=7,
                                        max_steps=6, feature_dim=96), seed=3)


def model_and_examples(kind, n=5):
    records, vocab = synth_corpus(n, seed=4, spatial_channels=8)
    # Mixed caption lengths, so padding differs across the batch.
    for k, rec in enumerate(records):
        rec.caption = rec.caption[: 2 + k % 5]
    examples = tr.prepare_examples(records, vocab, 6)
    model = (cnn_model if kind == "cnn" else lstm_model)(vocab.size)
    rng = np.random.default_rng(7)
    for p in model.params.values():
        p.data += rng.normal(scale=0.3, size=p.data.shape)
    return model, examples


def batch_inputs(examples):
    return np.stack([ex.seq.input_ids for ex in examples]), [ex.features for ex in examples]


def test_every_op_builds_tracked_nodes_in_an_update_or_the_probe(monkeypatch):
    # An op whose backward no update and no probe runs is a path no caller
    # reaches. Every function in autodiff.__all__ but four helpers is an op.
    node, used = ad._node, set()

    def recording_node(data, parents, bw):
        out = node(data, parents, bw)
        if out.requires_grad:
            used.add(sys._getframe(1).f_code.co_name)
        return out

    monkeypatch.setattr(ad, "_node", recording_node)
    for kind in ("cnn", "lstm"):
        model, examples = model_and_examples(kind)
        seqs = [ex.seq for ex in examples]
        probs, _ = model.forward(teacher_forced_ids(seqs), [ex.features for ex in examples],
                                 seed=list(range(len(examples))))
        ad.backward(nll_loss(probs, seqs))
        grad_norm_probe(model, examples)
    helpers = {"backward", "view"}
    ops = {name for name in ad.__all__ if inspect.isfunction(getattr(ad, name))} - helpers
    assert sorted(ops - used) == []


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_batch_matches_per_example_forwards(kind):
    model, examples = model_and_examples(kind)
    assert len({ex.seq.valid_len for ex in examples}) > 1
    seeds = [101, 7, 55, 3, 89]
    params = model.parameters()

    probs, _ = model.forward(*batch_inputs(examples), seed=seeds)
    batch_loss = nll_loss(probs, [ex.seq for ex in examples])
    batched_grads = ad.backward(batch_loss)

    rows = []
    losses = []
    for ex, seed in zip(examples, seeds):
        single, _ = model.forward(ex.seq.input_ids[None], [ex.features], seed=[seed])
        rows.append(single.data[0])
        losses.append(nll_loss(single, [ex.seq]))
    grads = ad.backward(ad.mul(reduce(ad.add, losses), ad.Tensor(1.0 / len(losses))))

    assert probs.data.shape == (5,) + rows[0].shape
    assert np.allclose(probs.data, np.stack(rows), rtol=0, atol=1e-12)
    assert abs(batch_loss.data - np.mean([loss.data for loss in losses])) <= 1e-12
    for name, p in params.items():
        assert np.allclose(batched_grads[p], grads[p], rtol=1e-10, atol=1e-13), name


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_one_dimensional_ids_equal_a_batch_of_one(kind):
    # forward_probs takes one image's [T] ids: row 0 of a batch of one.
    model, examples = model_and_examples(kind)
    ex = examples[2]
    single = model.forward_probs(ex.seq.input_ids, ex.features)
    batch, _ = model.forward(ex.seq.input_ids[None], [ex.features])
    assert np.array_equal(batch.data[0], single)


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_forward_rejects_one_dimensional_ids(kind):
    model, examples = model_and_examples(kind)
    ex = examples[2]
    with pytest.raises(ad.ShapeError, match=r"stacked as \[B, T\]"):
        model.forward(ex.seq.input_ids, [ex.features])
    with pytest.raises(ad.ShapeError, match="a list of ImageFeatures"):
        model.forward(ex.seq.input_ids[None], ex.features)


def test_batch_needs_one_dropout_seed_per_example():
    model, examples = model_and_examples("cnn")
    with pytest.raises(ValueError, match="seed per example"):
        model.forward(*batch_inputs(examples), seed=0)
    with pytest.raises(ad.ShapeError):
        model.forward(batch_inputs(examples)[0], [ex.features for ex in examples[:2]])


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_mixed_global_feature_sizes_raise_shape_error(kind):
    if kind == "cnn":
        model = cm.init_params(cm.ModelConfig(vocab_size=7, embed_dim=4, hidden_dim=4,
                                              num_layers=1, kernel_widths=(2,), feature_dim=6), 0)
    else:
        model = lm.init_params(lm.LstmConfig(vocab_size=7, embed_dim=4, hidden_dim=4,
                                             feature_dim=6), 0)
    feats = [ImageFeatures(np.ones(6)), ImageFeatures(np.ones(7))]
    with pytest.raises(ad.ShapeError, match="global feature dim 7 != configured 6"):
        model.forward([[0, 1], [0, 2]], feats)


def test_clamped_count_is_the_per_example_sum():
    seqs = [TokenSeq.from_token_ids([3], 3), TokenSeq.from_token_ids([3, 4, 2], 3)]
    probs = np.zeros((2, 4, 5))
    probs[:, :, 0] = 1.0  # every target probability is zero, padding included
    probs[1, 1, 4] = 0.5
    per_example = LossStats()
    for b, seq in enumerate(seqs):
        nll_loss(t(probs[b][None]), [seq], stats=per_example)
    batched = LossStats()
    nll_loss(t(probs), seqs, stats=batched)
    assert per_example.clamped == 2 + 3
    assert batched.clamped == per_example.clamped


def reference_epoch(model, examples, config):
    """The per-example update loop: a forward per example, a mean of losses."""
    params = model.parameters()
    optimizer = tr.RmsProp(params, config.rms_alpha, config.rms_epsilon)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    order = rng.permutation(len(examples))
    for lo in range(0, len(order), config.batch_size):
        losses = []
        for idx in order[lo:lo + config.batch_size]:
            ex = examples[idx]
            probs, _ = model.forward(ex.seq.input_ids[None], [ex.features],
                                     seed=[int(rng.integers(2**31))])
            losses.append(nll_loss(probs, [ex.seq]))
        grads = ad.backward(ad.mul(reduce(ad.add, losses), ad.Tensor(1.0 / len(losses))))
        optimizer.step(tr.lr_for_epoch(config, 0), grads)


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_train_epoch_with_ragged_last_batch_matches_per_example_loop(kind):
    model, examples = model_and_examples(kind, n=10)
    reference, _ = model_and_examples(kind, n=10)
    config = tr.TrainConfig(learning_rate=1e-2, epochs=1, batch_size=4, seed=6, probe_size=2)
    tr.train(model, examples, examples[:2], config)  # batches of 4, 4 and a ragged 2
    reference_epoch(reference, examples, config)
    for name, p in model.params.items():
        assert np.allclose(p.data, reference.params[name].data, rtol=1e-9, atol=1e-12), name


def test_lstm_batch_step_gradient():
    model, examples = model_and_examples("lstm", n=3)
    feats = [ex.features for ex in examples]
    ids = np.array([2, 5, 3])
    targets = np.array([4, 1, 6])
    weights = np.array([0.5, -1.0, 2.0])

    def loss_value():
        _, probs = model.step(model.init_state(feats), ids)
        return float((np.log(probs.data[np.arange(3), 0, targets]) * weights).sum())

    state = model.init_state(feats)
    assert state[1].data.shape == (3, 1, 7)
    new_state, probs = model.step(state, ids)
    assert new_state[1].data.shape == (3, 1, 7)
    assert probs.data.shape == (3, 1, model.config.vocab_size)
    picked = ad.pick(probs, targets[:, None])
    grads = ad.backward(ad.sum_all(ad.mul(ad.log(picked), t(weights[:, None], grad=False))))
    for name, tensor in model.params.items():
        fd = finite_difference(loss_value, [tensor.data])[0]
        assert_grads_close(grads[tensor], fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("size", [1, 2, 5])
def test_batch_probabilities_equal_per_example_forwards_exactly(kind, training, size):
    model, examples = model_and_examples(kind)
    examples = examples[:size]
    seeds = [101, 7, 55, 3, 89][:size]
    batched, _ = model.forward(*batch_inputs(examples), seed=seeds if training else None)
    for b, (ex, seed) in enumerate(zip(examples, seeds)):
        single, _ = model.forward(ex.seq.input_ids[None], [ex.features],
                                  seed=[seed] if training else None)
        assert np.array_equal(batched.data[b], single.data[0]), b


# The products the models issue at the bench shapes (width 64, vocabulary
# 28, 96-wide global features, a 4x4 grid): (rows C, columns D) of each
# right operand, forward and as the transposed operand of a backward.
BENCH_PRODUCTS = [(96, 64), (128, 128), (64, 128), (64, 64), (64, 16), (16, 64),
                  (64, 28), (128, 256), (28, 64), (256, 128), (128, 64)]


@pytest.mark.parametrize("B", [32, 64])
@pytest.mark.parametrize("T", [1, 9])
@pytest.mark.parametrize("C,D", BENCH_PRODUCTS)
def test_stacked_matmul_is_batch_invariant_at_bench_shapes(B, T, C, D):
    """The numpy/BLAS property the batched ops rely on: a stacked product
    equals each example's own product bit for bit, for a plain and for a
    transposed right operand."""
    rng = np.random.default_rng(C * D + T)
    x = rng.normal(size=(B, T, C))
    w = rng.normal(size=(C, D))
    w_t = rng.normal(size=(D, C)).T
    for right in (w, w_t):
        stacked = np.matmul(x, right)
        bad = [b for b in range(B) if not np.array_equal(stacked[b], x[b] @ right)]
        assert not bad, f"np.matmul of {(B, T, C)} @ {(C, D)} differs from x[b] @ w at b={bad}"


@pytest.mark.parametrize("batch", [False, True])
def test_cnn_train_forward_of_a_prefix_gives_the_rows_of_the_full_forward(batch):
    """Causality in train mode: the dropout masks are drawn per position, so
    a forward of the first T' positions gives the first T' rows of the
    full-length forward with the same seeds, dropout included."""
    model, examples = model_and_examples("cnn")
    ids, feats = batch_inputs(examples)
    seeds = [101, 7, 55, 3, 89]
    if not batch:
        ids, feats, seeds = ids[:1], feats[:1], seeds[:1]
    full, _ = model.forward(ids, feats, seed=seeds)
    assert not np.array_equal(full.data, model.forward(ids, feats)[0].data)
    for rows in range(1, model.config.max_steps + 2):
        cut, _ = model.forward(ids[..., :rows], feats, seed=seeds)
        expected = full.data[..., :rows, :]
        if rows == 1:
            # One-row products round differently; criterion 3's tolerance.
            assert np.allclose(cut.data, expected, atol=1e-9)
        else:
            assert np.array_equal(cut.data, expected), rows


# The products above that the cnn issues with one row per position.
CNN_PRODUCTS = [(128, 128), (64, 128), (64, 64), (64, 16), (16, 64), (64, 28), (28, 64),
                (128, 64)]


@pytest.mark.parametrize("C,D", CNN_PRODUCTS)
def test_cnn_products_of_a_cut_batch_are_rows_of_the_full_ones_at_bench_shapes(C, D):
    """The numpy/BLAS property that makes a cnn minibatch cut to its longest
    caption (T' = 2..8 of the bench config's T = 9 positions) train exactly
    as the full length does: a product at T' rows gives the first T' rows
    of the product at T, for a plain and for a transposed right operand, and
    a weight gradient summed over the cut rows equals the one summed over
    all rows, whose gradient is zero past T'. At T = 16 this fails for
    128-wide transposed operands and for the 64- and 128-wide weight
    gradients."""
    rng = np.random.default_rng(C * D)
    B, T = 32, 9
    x = rng.normal(size=(B, T, C))
    g = rng.normal(size=(B, T, D))
    w = rng.normal(size=(C, D))
    w_t = rng.normal(size=(D, C)).T
    for right in (w, w_t):
        full = np.matmul(x, right)
        bad = [rows for rows in range(2, T)
               if not np.array_equal(np.matmul(x[:, :rows], right), full[:, :rows])]
        assert not bad, f"[{B}, T', {C}] @ {(C, D)} differs from the T = {T} rows at T' = {bad}"
    bad = []
    for rows in range(2, T):
        g_full = g.copy()
        g_full[:, rows:] = 0.0
        full = x.reshape(-1, C).T @ g_full.reshape(-1, D)
        if not np.array_equal(x[:, :rows].reshape(-1, C).T @ g[:, :rows].reshape(-1, D), full):
            bad.append(rows)
    assert not bad, f"the {(C, D)} weight gradient over T' rows differs at T' = {bad}"
