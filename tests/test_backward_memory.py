"""A backward holds one dense gradient per table: the lookups of every step
contribute rows, and repeated contributions are summed in place. An LSTM
update pass and a probe chunk at 4,000 words peak at the gradients they
return, plus one output-layer weight gradient in flight, plus 2 MiB, at 3
steps as at 15. Peaks are tracemalloc's, over the backward alone; the
forward graph is the caller's."""

import numpy as np
import pytest

from captionkit import autodiff as ad
from captionkit import lstmmodel as lm
from captionkit.analysis import nll_loss, teacher_forced_ids
from captionkit.data import ImageFeatures, TokenSeq
from conftest import traced_peak

MIB = 2**20
VOCAB, WIDTH, BATCH = 4000, 128, 2


@pytest.fixture(scope="module")
def model():
    model = lm.init_params(lm.LstmConfig(vocab_size=VOCAB, embed_dim=WIDTH, hidden_dim=WIDTH,
                                         max_steps=15, feature_dim=8), seed=0)
    rng = np.random.default_rng(0)
    for p in model.params.values():  # output_w starts at zero; give every path a gradient
        p.data[...] = rng.normal(scale=0.1, size=p.shape)
    return model


def batch(steps):
    """BATCH random captions of ``steps`` - 1 words and their images."""
    rng = np.random.default_rng(steps)
    seqs = [TokenSeq.from_token_ids(rng.integers(3, VOCAB, size=steps - 1), steps - 1)
            for _ in range(BATCH)]
    feats = [ImageFeatures(rng.normal(size=8), rng.normal(size=(1, 1, 8))) for _ in range(BATCH)]
    return seqs, feats


@pytest.mark.parametrize("steps", [3, 15])
def test_an_update_pass_holds_one_dense_gradient_per_table(model, steps):
    seqs, feats = batch(steps)
    probs, _ = model.forward(teacher_forced_ids(seqs), feats)
    grads, peak = traced_peak(lambda: ad.backward(nll_loss(probs, seqs)))
    assert set(grads) == set(model.params.values())
    in_flight = model.params["output_w"].data.nbytes  # one step's product, then added in place
    assert peak <= sum(g.nbytes for g in grads.values()) + in_flight + 2 * MIB


@pytest.mark.parametrize("steps", [3, 15])
def test_a_probe_chunk_holds_one_dense_gradient_per_tracked_table(model, steps):
    # The probe's view: per-example [B, ...] copies of the two tracked tables.
    seqs, feats = batch(steps)
    tracked = ("word_embedding", "output_w")
    view = lm.LstmModel(model.config, ad.view(model.params, tracked, BATCH))
    probs, _ = view.forward(teacher_forced_ids(seqs), feats)
    grads, peak = traced_peak(lambda: ad.backward(nll_loss(probs, seqs, batch_mean=False)))
    assert set(grads) == {view.params[name] for name in tracked}
    in_flight = BATCH * model.params["output_w"].data.nbytes
    assert peak <= sum(g.nbytes for g in grads.values()) + in_flight + 2 * MIB
