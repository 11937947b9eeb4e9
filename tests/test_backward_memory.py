"""What a training graph holds. A backward holds one dense gradient per
table: the lookups of every step contribute rows, and repeated contributions
are summed in place. An LSTM update pass and a probe chunk at 4,000 words
peak at the gradients they return, plus one output-layer weight gradient in
flight, plus 2 MiB, at 3 steps as at 15. Peaks are tracemalloc's, over the
backward alone; the forward graph is the caller's. A forward graph keeps
only what its backward reads: a bench-shape ``cnn`` update graph holds
about 4.0 MiB, where the composed attention, the separate bias sums, float
dropout masks and kept conv pads held 5.9. ``tools/memory.py`` measures the
same passes at any vocabulary and width."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from captionkit import autodiff as ad
from captionkit import convmodel as cm
from captionkit import lstmmodel as lm
from captionkit.analysis import nll_loss, teacher_forced_ids
from captionkit.data import ImageFeatures, TokenSeq, synth_corpus
from captionkit.training import prepare_examples
from conftest import traced_peak

ROOT = Path(__file__).resolve().parents[1]

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


def test_a_bench_shape_cnn_update_graph_holds_only_what_backward_reads():
    # The bench's cnn: 64 wide, 28 words, 3 layers, attention, weight norm,
    # residual and dropout 0.1, on a 32-example minibatch of its corpus.
    records, vocab = synth_corpus(32, seed=0)
    examples = prepare_examples(records, vocab, 8)
    feats = [ex.features for ex in examples]
    model = cm.init_params(cm.ModelConfig(
        vocab_size=vocab.size, embed_dim=64, hidden_dim=64, num_layers=3, kernel_widths=(2, 3, 3),
        bottleneck_dim=64, max_steps=8, feature_dim=feats[0].global_vec.shape[0], dropout_p=0.1,
        weight_norm=True, residual=True, attention=True, grid_size=feats[0].spatial.shape[0],
        spatial_channels=feats[0].spatial.shape[2]), seed=0)
    seqs = [ex.seq for ex in examples]
    assert vocab.size == 28

    def graph():
        probs, _ = model.forward(teacher_forced_ids(seqs), feats, seed=list(range(32)))
        return nll_loss(probs, seqs), tracemalloc.get_traced_memory()[0]

    (loss, held), _ = traced_peak(graph)
    assert loss.requires_grad
    assert held <= 4.6 * MIB  # 4.0 MiB; 5.9 with the composed attention and bias sums


def test_the_memory_tool_reports_both_kinds_at_tiny_sizes():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "memory.py"), "--tiny"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    rows = {line.split()[0]: line.split() for line in run.stdout.splitlines()[1:]}
    assert set(rows) == {"cnn", "lstm"}
    for kind, (_, update, update_mib, probe, probe_mib) in rows.items():
        assert (update, probe) == ("update", "probe"), kind
        assert 0.0 < float(update_mib) < 4.0 and 0.0 < float(probe_mib) < 4.0, kind
