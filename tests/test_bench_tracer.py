"""The benchmark's tracer patches captionkit names by looking them up by name,
so a renamed or deleted function breaks ``bench/run.py --trace 1``. This
loads ``bench/tracing.py`` as it is, installs and uninstalls a Tracer, and
checks that every patched name was found and is restored afterwards."""

import importlib.util
from pathlib import Path

import pytest

from captionkit import analysis, autodiff, cli, training
from captionkit import convmodel as cm
from captionkit import lstmmodel as lm
from captionkit.convmodel import CaptionModel
from captionkit.data import synth_corpus
from captionkit.lstmmodel import LstmModel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = {
    "autodiff": autodiff, "training": training, "analysis": analysis, "cli": cli,
    "Tensor": autodiff.Tensor, "RmsProp": training.RmsProp,
    "CaptionModel": CaptionModel, "LstmModel": LstmModel,
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return {owner: dict(vars(obj)) for owner, obj in OWNERS.items()}


def changed(before, after):
    return {f"{owner}.{name}" for owner in before
            for name in before[owner].keys() | after[owner].keys()
            if before[owner].get(name) is not after[owner].get(name)}


def test_tracer_install_finds_every_name_and_uninstall_restores_it(tracing):
    before = snapshot()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = changed(before, snapshot())
    finally:
        tracer.uninstall()
    expected = {f"autodiff.{op}" for op in tracing.TRACED_OPS}
    expected |= {f"analysis.{name}" for name in tracing.PROBE_FUNCTIONS}
    expected |= {"autodiff._node", "autodiff.backward", "Tensor.__init__", "RmsProp.step",
                 "CaptionModel.forward", "LstmModel.forward", "LstmModel.step",
                 "cli.synth_corpus", "training.save_checkpoint"}
    assert patched == expected
    assert changed(before, snapshot()) == set()


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_traced_train_counts_one_probe_forward_per_probe_chunk(tracing, kind):
    """The bench's probe metrics count the forwards the probe makes, which
    run on a view of the model, not on the model itself."""
    records, vocab = synth_corpus(8, seed=3, grid_size=2, spatial_channels=8)
    if kind == "lstm":
        model = lm.init_params(lm.LstmConfig(vocab.size, embed_dim=6, hidden_dim=8,
                                             max_steps=8, feature_dim=96), seed=2)
    else:
        model = cm.init_params(cm.ModelConfig(
            vocab_size=vocab.size, embed_dim=6, hidden_dim=8, num_layers=2,
            kernel_widths=(2, 3), bottleneck_dim=5, max_steps=8, feature_dim=96,
            weight_norm=True, attention=True, grid_size=2, spatial_channels=8), seed=2)
    examples = training.prepare_examples(records, vocab, 8)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.phase = "train"
        training.train(model, examples[:5], examples[5:], training.TrainConfig(
            epochs=1, batch_size=2, probe_size=5))
    finally:
        tracer.phase = None
        tracer.uninstall()
    # Two probes: the 5 train examples in chunks of 2 make 3 chunks, and
    # the 3 val examples make 2.
    assert tracer.get("train", "analysis.probe.calls") == 2
    assert tracer.get("train", "analysis.probe_forward.calls") == 3 + 2
