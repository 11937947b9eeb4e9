"""Features stay float32 from the file to the batch: ``read_features`` and
``synth_corpus`` give float32, ``ImageFeatures`` keeps it, and a model widens
a batch to float64 where it stacks it. float32 -> float64 is exact, so every
product sees the operands it would see with float64 features, and every
result is bit-identical to theirs."""

import numpy as np
import pytest

from captionkit import autodiff as ad
from captionkit import convmodel as cm
from captionkit import data, decoding
from captionkit import lstmmodel as lm
from captionkit.analysis import grad_norm_probe, nll_loss, teacher_forced_ids
from captionkit.training import Example, prepare_examples

WIDTH = 16
FEATURE_DIM = 24
GRID = 4


@pytest.fixture(scope="module")
def corpus():
    return data.synth_corpus(10, seed=3, feature_dim=FEATURE_DIM, grid_size=GRID,
                             spatial_channels=WIDTH)


def build(kind, vocab_size):
    """A model of ``kind`` whose every parameter has mass, so its outputs
    depend on the features."""
    if kind == "lstm":
        model = lm.init_params(lm.LstmConfig(vocab_size=vocab_size, embed_dim=WIDTH,
                                             hidden_dim=WIDTH, max_steps=8,
                                             feature_dim=FEATURE_DIM), seed=1)
    else:
        model = cm.init_params(cm.ModelConfig(
            vocab_size=vocab_size, embed_dim=WIDTH, hidden_dim=WIDTH, num_layers=2,
            kernel_widths=(2, 3), bottleneck_dim=WIDTH, max_steps=8, feature_dim=FEATURE_DIM,
            dropout_p=0.1, weight_norm=True, residual=True, attention=True, grid_size=GRID,
            spatial_channels=WIDTH), seed=1)
    rng = np.random.default_rng(2)
    for t in model.params.values():
        t.data[:] = rng.normal(scale=0.5, size=t.data.shape)
    return model


def outputs(model, examples):
    """Forward probabilities with dropout seeds, the parameter gradients of
    their loss, the probe's record and the greedy and beam-3 captions."""
    seqs = [ex.seq for ex in examples]
    features = [ex.features for ex in examples]
    probs, _ = model.forward(teacher_forced_ids(seqs), features, seed=list(range(len(seqs))))
    grads = ad.backward(nll_loss(probs, seqs))
    return {
        "probs": probs.data,
        "grads": [grads[t] for t in model.params.values()],
        "probe": grad_norm_probe(model, examples, batch_size=3),
        "greedy": [decoding.greedy_decode(model, f).target_ids.tolist() for f in features],
        "beam3": [(seq.target_ids.tolist(), logprob) for f in features
                  for seq, logprob in decoding.beam_search(model, f, beam_size=3)],
    }


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_float32_features_give_the_float64_results_bit_for_bit(corpus, kind):
    records, vocab = corpus
    model = build(kind, vocab.size)
    narrow = prepare_examples(records, vocab, 8)
    wide = [Example(ex.image_id, ex.seq,
                    data.ImageFeatures(ex.features.global_vec.astype(np.float64),
                                       ex.features.spatial.astype(np.float64)))
            for ex in narrow]
    assert narrow[0].features.spatial.dtype == np.float32
    assert wide[0].features.spatial.dtype == np.float64
    got, want = outputs(model, narrow), outputs(model, wide)
    assert np.array_equal(got["probs"], want["probs"])
    assert len(got["grads"]) == len(want["grads"])
    assert all(np.array_equal(g, w) for g, w in zip(got["grads"], want["grads"]))
    assert got["probe"] == want["probe"]
    assert got["greedy"] == want["greedy"]
    assert got["beam3"] == want["beam3"]


def test_synth_corpus_and_read_features_give_float32(corpus, tmp_path):
    records, _ = corpus
    path = tmp_path / "f.ccf"
    data.write_features({r.image_id: r.features for r in records}, path)
    for features in [r.features for r in records] + list(data.read_features(path).values()):
        assert features.global_vec.dtype == np.float32
        assert features.spatial.dtype == np.float32


def test_image_features_keeps_a_float32_array_as_given():
    global_vec, spatial = np.ones(3, np.float32), np.ones((2, 2, 3), np.float32)
    features = data.ImageFeatures(global_vec, spatial)
    assert features.global_vec is global_vec
    assert features.spatial is spatial


@pytest.mark.parametrize("dtype", [np.float16, np.int64, ">f4", np.float64])
def test_image_features_widens_any_other_dtype_to_float64(dtype):
    global_vec = np.arange(3).astype(dtype)
    spatial = np.arange(12).reshape(2, 2, 3).astype(dtype)
    features = data.ImageFeatures(global_vec, spatial)
    assert features.global_vec.dtype == np.float64
    assert features.spatial.dtype == np.float64
    assert features.global_vec.tolist() == [0.0, 1.0, 2.0]
    assert np.array_equal(features.spatial, spatial)


def test_batches_are_stacked_as_float64(corpus):
    records, vocab = corpus
    features = [r.features for r in records[:3]]
    rows = data.global_rows(features, FEATURE_DIM)
    assert rows.dtype == np.float64
    assert np.array_equal(rows[:, 0], [f.global_vec for f in features])
    spatial = build("cnn", vocab.size)._spatial(features).data
    assert spatial.dtype == np.float64
    assert np.array_equal(spatial, [f.spatial_flat() for f in features])
