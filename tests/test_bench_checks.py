"""The benchmark's checks call the program's one-image entries by name:
``forward_probs`` with one image's [T] ids, ``load_checkpoint`` and the
decoders' outputs. A change to those breaks ``bench/run.py``. This loads
``bench/checks.py`` as it is and runs its checks on a tiny trained model of
each kind."""

import importlib.util
from pathlib import Path

import pytest

from captionkit import convmodel as cm
from captionkit import decoding, training
from captionkit import lstmmodel as lm
from captionkit.data import synth_corpus

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_checks_pass_on_a_tiny_trained_model(checks, kind, tmp_path):
    records, vocab = synth_corpus(12, seed=3, grid_size=2, spatial_channels=8)
    if kind == "lstm":
        model = lm.init_params(lm.LstmConfig(vocab.size, embed_dim=6, hidden_dim=8,
                                             max_steps=8, feature_dim=96), seed=2)
    else:
        model = cm.init_params(cm.ModelConfig(
            vocab_size=vocab.size, embed_dim=6, hidden_dim=8, num_layers=2,
            kernel_widths=(2, 3), bottleneck_dim=5, max_steps=8, feature_dim=96,
            weight_norm=True, attention=True, grid_size=2, spatial_channels=8), seed=2)
    examples = training.prepare_examples(records, vocab, 8)
    probe = examples[:6]
    result = training.train(model, examples[:8], examples[8:], training.TrainConfig(
        learning_rate=1e-2, epochs=2, batch_size=4, probe_size=len(probe)),
        out_dir=str(tmp_path), vocab=vocab)
    reported = [r.loss for r in result.history if r.split == "train"][-1]

    checks.check_reported_probe(model, probe, reported)
    with pytest.raises(checks.CheckFailed):
        checks.check_reported_probe(model, probe, reported + 1e-6)
    checks.check_checkpoint_roundtrip(result.last_path, model, probe)
    for ex in examples[8:]:
        for width in (1, 3):
            beams = decoding.beam_search(model, ex.features, beam_size=width)
            checks.check_beams(model, ex.features, beams, width, model.config.max_steps)
