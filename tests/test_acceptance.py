"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest -s tests/test_acceptance.py`` to see them).

The convergence thresholds in criteria 5/6 were frozen after a calibration
run of the pinned seeds: the attention model crosses 0.95 teacher-forced
accuracy and 0.9 held-out BLEU-4 near epoch 10, so the budget here is 30
epochs, well inside the 200-epoch / 10-minute envelope.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from captionkit import analysis, cli, decoding
from captionkit import autodiff as ad
from captionkit import convmodel as cm
from captionkit import lstmmodel as lm
from captionkit import training as tr
from captionkit.checkpoint import load_checkpoint, save_checkpoint
from captionkit.data import (
    ImageFeatures,
    build_vocab,
    decode,
    read_features,
    synth_corpus,
    write_features,
)
from conftest import assert_grads_close, finite_difference
from test_decoding import exhaustive_best


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _randomize(model, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    for t in model.parameters().values():
        t.data[:] = rng.normal(scale=scale, size=t.data.shape)
    return model


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness():
    start = time.time()
    ids = np.array([0, 3, 5, 1, 4])      # start-prefixed view, N=4
    targets = np.array([3, 5, 1, 4, 2])
    feats = ImageFeatures(
        np.random.default_rng(0).normal(size=5),
        np.random.default_rng(1).normal(size=(2, 2, 8)),
    )

    def check(model, tag):
        probs, _ = model.forward(ids[None], [feats])
        loss = ad.mul(ad.sum_all(ad.log(ad.pick(probs, targets[None]))),
                      ad.Tensor(-1.0 / len(targets)))
        grads = ad.backward(loss)

        def ref():
            p = model.forward_probs(ids, feats)
            sel = p[np.arange(len(targets)), targets]
            return -np.log(sel).sum() / len(targets)

        for name, tensor in model.parameters().items():
            fd = finite_difference(ref, [tensor.data])[0]
            assert_grads_close(grads[tensor], fd, rtol=1e-4, atol=1e-8)

    cnn_flags = [
        {},
        {"attention": True},
        {"weight_norm": True},
        {"residual": True},
        {"attention": True, "weight_norm": True, "residual": True},
    ]
    for i, flags in enumerate(cnn_flags):
        cfg = cm.ModelConfig(
            vocab_size=7, embed_dim=8, hidden_dim=8, num_layers=2,
            kernel_widths=(2, 3), bottleneck_dim=6, max_steps=4,
            feature_dim=5, dropout_p=0.0, grid_size=2, spatial_channels=8,
            **flags,
        )
        check(_randomize(cm.init_params(cfg, 0), 10 + i), f"cnn[{flags}]")

    lstm_cfg = lm.LstmConfig(vocab_size=7, embed_dim=8, hidden_dim=8,
                             max_steps=4, feature_dim=5)
    check(_randomize(lm.init_params(lstm_cfg, 0), 20), "lstm")

    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _report(1, "gradient correctness")


# ---------------------------------------------------------------------------
# 2. causality


def test_criterion_2_causality():
    start = time.time()
    cfg = cm.ModelConfig(
        vocab_size=9, embed_dim=6, hidden_dim=8, num_layers=3,
        kernel_widths=(2, 3, 3), bottleneck_dim=5, max_steps=8,
        feature_dim=6, dropout_p=0.0, attention=True, residual=True,
        grid_size=2, spatial_channels=8,
    )
    model = _randomize(cm.init_params(cfg, 0), 30)
    rng = np.random.default_rng(31)
    feats = ImageFeatures(rng.normal(size=6), rng.normal(size=(2, 2, 8)))
    ids = rng.integers(0, 9, size=9)
    base = model.forward_probs(ids, feats)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            for _ in range(5):
                mutated = ids.copy()
                mutated[j] = rng.integers(0, 9)
                out = model.forward_probs(mutated, feats)
                assert np.array_equal(out[i], base[i]), (i, j)
    elapsed = time.time() - start
    assert elapsed < 1.0, f"causality sweep took {elapsed:.2f}s"
    _report(2, "causality")


# ---------------------------------------------------------------------------
# 3. parallel / incremental equivalence


def test_criterion_3_parallel_incremental_equivalence():
    cfg = cm.ModelConfig(
        vocab_size=9, embed_dim=6, hidden_dim=8, num_layers=3,
        kernel_widths=(2, 3, 3), bottleneck_dim=5, max_steps=8,
        feature_dim=6, dropout_p=0.0, attention=True, residual=True,
        weight_norm=True, grid_size=2, spatial_channels=8,
    )
    model = _randomize(cm.init_params(cfg, 0), 40)
    rng = np.random.default_rng(41)
    feats = ImageFeatures(rng.normal(size=6), rng.normal(size=(2, 2, 8)))
    ids = rng.integers(0, 9, size=9)
    full = model.forward_probs(ids, feats)
    for t in range(1, len(ids) + 1):
        incremental = model.forward_probs(ids[:t], feats)
        assert np.allclose(incremental[t - 1], full[t - 1], atol=1e-9)
    _report(3, "parallel/incremental equivalence")


# ---------------------------------------------------------------------------
# 4. beam-search optimality oracle


@pytest.mark.filterwarnings("ignore:beam size")
def test_criterion_4_beam_search_oracle():
    for seed in range(20):
        cfg = cm.ModelConfig(
            vocab_size=6, embed_dim=4, hidden_dim=5, num_layers=2,
            kernel_widths=(2, 2), bottleneck_dim=3, max_steps=4,
            feature_dim=5, dropout_p=0.0,
        )
        model = _randomize(cm.init_params(cfg, seed), seed + 1000, scale=0.7)
        feats = ImageFeatures(np.random.default_rng(seed + 2000).normal(size=5))

        best_logprob, best_tokens = exhaustive_best(model, feats, 4)
        top_seq, top_logprob = decoding.beam_search(model, feats, beam_size=6**4)[0]
        assert top_logprob == best_logprob
        assert tuple(top_seq.target_ids[: len(best_tokens)]) == best_tokens

        greedy = decoding.greedy_decode(model, feats)
        beam1 = decoding.beam_search(model, feats, beam_size=1)[0][0]
        assert np.array_equal(greedy.target_ids, beam1.target_ids)

        scores = [decoding.beam_search(model, feats, beam_size=k)[0][1] for k in (1, 2, 3, 4)]
        for small, large in zip(scores, scores[1:]):
            assert large >= small, f"seed {seed}: top-1 score decreased with wider beam"
    _report(4, "beam-search optimality oracle")


# ---------------------------------------------------------------------------
# 5 & 6 share one converged training run


@pytest.fixture(scope="module")
def converged_run():
    start = time.time()
    records, _ = synth_corpus(500, seed=7)
    train_recs, val_recs = records[:400], records[400:]
    vocab = build_vocab(r.caption for r in train_recs)
    cfg = cm.ModelConfig(
        vocab_size=vocab.size, embed_dim=64, hidden_dim=64, num_layers=3,
        kernel_widths=(2, 3, 3), bottleneck_dim=64, max_steps=8, feature_dim=96,
        dropout_p=0.1, weight_norm=True, residual=True, attention=True,
        grid_size=4, spatial_channels=64,
    )
    model = cm.init_params(cfg, seed=1)
    train_examples = tr.prepare_examples(train_recs, vocab, 8)
    val_examples = tr.prepare_examples(val_recs, vocab, 8)
    config = tr.TrainConfig(learning_rate=1e-3, decay_factor=0.1, decay_period=15,
                            epochs=30, batch_size=32, seed=0, probe_size=64)
    tr.train(model, train_examples, val_examples, config)
    return {
        "model": model,
        "vocab": vocab,
        "train_examples": train_examples,
        "val_examples": val_examples,
        "val_records": val_recs,
        "elapsed": time.time() - start,
    }


def test_criterion_5_synthetic_convergence(converged_run):
    run = converged_run
    assert run["elapsed"] <= 600.0, f"training took {run['elapsed']:.0f}s"
    accuracy = analysis.word_accuracy(run["model"], run["train_examples"])
    assert accuracy >= 0.95, f"teacher-forced word accuracy {accuracy:.4f}"
    candidates = []
    references = []
    for ex, rec in zip(run["val_examples"], run["val_records"]):
        seq = decoding.greedy_decode(run["model"], ex.features)
        candidates.append(decode(seq.target_ids, run["vocab"]))
        references.append([rec.caption])
    scores = analysis.bleu(candidates, references)
    assert scores[3] >= 0.9, f"held-out greedy BLEU-4 {scores[3]:.4f}"
    print(f"  criterion 5 detail: accuracy={accuracy:.4f} BLEU-4={scores[3]:.4f} "
          f"time={run['elapsed']:.0f}s")
    _report(5, "synthetic convergence")


def test_criterion_6_attention_sanity(converged_run):
    run = converged_run
    grid = run["model"].config.grid_size
    block_fraction = None
    mass = 0.0
    count = 0
    for ex, rec in zip(run["val_examples"], run["val_records"]):
        _, maps = run["model"].forward(ex.seq.input_ids[None], [ex.features])
        cells = [r * grid + c for r, c in rec.meta["block"]]
        block_fraction = len(cells) / grid**2
        # target row 2 emits the object token under the template grammar
        assert run["vocab"].decode_id(int(ex.seq.target_ids[2])) == rec.meta["object"]
        for amap in maps:
            mass += float(amap[0, 2, cells].sum())
            count += 1
    mean_mass = mass / count
    assert mean_mass >= 2.0 * block_fraction, (
        f"attention mass {mean_mass:.3f} vs uniform baseline {block_fraction:.3f}"
    )
    print(f"  criterion 6 detail: mean in-block mass {mean_mass:.3f}, "
          f"baseline {block_fraction:.3f}")
    _report(6, "attention sanity")


# ---------------------------------------------------------------------------
# 7. metric oracles


def test_criterion_7_metric_oracles():
    ref = "the quick brown fox".split()
    for score in analysis.bleu([ref], [[ref]]):
        assert abs(score - 1.0) <= 1e-9
    clip = analysis.bleu([["the"] * 4], [[["the", "cat", "sat"]]])
    assert abs(clip[0] - 0.25) <= 1e-9
    brevity = analysis.bleu([["the", "cat"]], [[["the", "cat", "sat"]]])
    assert abs(brevity[0] - math.exp(-0.5)) <= 1e-9

    vocab = 8
    uniform = np.full((1, vocab), 1.0 / vocab)
    assert abs(float(analysis._row_entropies(uniform)[0]) - math.log(vocab)) <= 1e-12
    one_hot = np.zeros((1, vocab))
    one_hot[0, 3] = 1.0
    assert float(analysis._row_entropies(one_hot)[0]) == 0.0
    half = np.zeros((1, vocab))
    half[0, :2] = 0.5
    assert abs(float(analysis._row_entropies(half)[0]) - math.log(2.0)) <= 1e-12
    _report(7, "metric oracles")


# ---------------------------------------------------------------------------
# 8. analysis pipeline (paired CNN/LSTM run via the CLI)


def test_criterion_8_analysis_pipeline(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--scenes", "120", "--seed", "7",
                     "--out", str(data_dir)]) == 0
    base_cfg = (
        "embed_dim = 32\nhidden_dim = 32\nnum_layers = 2\nkernel_widths = 2,3\n"
        "bottleneck_dim = 16\nmax_steps = 8\ndropout_p = 0.0\n"
        "learning_rate = 1e-3\nepochs = 4\nbatch_size = 16\nseed = 0\nprobe_size = 24\n"
    )
    cnn_cfg = tmp_path / "cnn.cfg"
    cnn_cfg.write_text(base_cfg)
    lstm_cfg = tmp_path / "lstm.cfg"
    lstm_cfg.write_text(
        "embed_dim = 32\nhidden_dim = 32\nmax_steps = 8\n"
        "learning_rate = 1e-3\nepochs = 4\nbatch_size = 16\nseed = 0\nprobe_size = 24\n"
    )
    cnn_out, lstm_out = tmp_path / "cnn_run", tmp_path / "lstm_run"
    assert cli.main(["train", "--model", "cnn", "--data", str(data_dir),
                     "--config", str(cnn_cfg), "--out", str(cnn_out)]) == 0
    assert cli.main(["train", "--model", "lstm", "--data", str(data_dir),
                     "--config", str(lstm_cfg), "--out", str(lstm_out)]) == 0
    anl = tmp_path / "analysis"
    assert cli.main(["analyze",
                     "--ckpt", str(cnn_out / "checkpoints" / "best.ckpt"),
                     "--ckpt2", str(lstm_out / "checkpoints" / "best.ckpt"),
                     "--data", str(data_dir), "--out", str(anl),
                     "--limit", "16", "--beam", "10", "--positions", "13"]) == 0
    capsys.readouterr()

    vocab_size = len((data_dir / "vocab.txt").read_text().splitlines())
    log_v = math.log(vocab_size)
    for kind in ("cnn", "lstm"):
        metrics = (anl / f"analysis_{kind}.csv").read_text().strip().splitlines()
        assert metrics[0] == analysis.METRICS_CSV_HEADER
        for row in metrics[1:]:
            _, split, loss, acc, ent, g_in, g_out = row.split(",")
            assert split in ("train", "val")
            assert float(loss) >= 0.0
            assert 0.0 <= float(acc) <= 1.0
            assert -1e-12 <= float(ent) <= log_v + 1e-9
            assert float(g_in) >= 0.0 and float(g_out) >= 0.0
        diversity = (anl / f"diversity_{kind}.csv").read_text().strip().splitlines()
        assert diversity[0] == "position,unique_count"
        rows = [line.split(",") for line in diversity[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, 14))
        assert all(0 <= int(r[1]) <= vocab_size for r in rows)

    # trainer metric tables (Fig 5/8 analogues) exist for both runs
    for out in (cnn_out, lstm_out):
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == analysis.METRICS_CSV_HEADER
        assert len(lines) == 1 + 2 * 4

    notes = (anl / "notes.txt").read_text()
    assert "entropy:" in notes
    print("  criterion 8 directional observations (logged, not asserted):")
    for line in notes.strip().splitlines():
        print(f"    {line}")
    _report(8, "analysis pipeline")


# ---------------------------------------------------------------------------
# 9. determinism & persistence


def test_criterion_9_determinism_and_persistence(tmp_path):
    records, vocab = synth_corpus(24, seed=3)
    cfg = cm.ModelConfig(
        vocab_size=vocab.size, embed_dim=16, hidden_dim=16, num_layers=2,
        kernel_widths=(2, 3), bottleneck_dim=8, max_steps=8, feature_dim=96,
        dropout_p=0.2,
    )
    examples = tr.prepare_examples(records, vocab, 8)
    curves = []
    for _ in range(2):
        model = cm.init_params(cfg, seed=2)
        result = tr.train(model, examples[:18], examples[18:],
                          tr.TrainConfig(learning_rate=1e-3, epochs=3, batch_size=6,
                                         seed=5, probe_size=12))
        curves.append([(r.split, r.loss, r.accuracy, r.entropy) for r in result.history])
    assert curves[0] == curves[1]

    model = cm.init_params(cfg, seed=2)
    _randomize(model, 50)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, seed=2, epoch=4, vocab=vocab)
    loaded = load_checkpoint(path)
    ex = examples[0]
    before = model.forward_probs(ex.seq.input_ids, ex.features)
    after = loaded.model.forward_probs(ex.seq.input_ids, ex.features)
    assert np.array_equal(before, after)

    feats = {r.image_id: r.features for r in records[:6]}
    f1, f2 = tmp_path / "a.ccf", tmp_path / "b.ccf"
    write_features(feats, f1)
    write_features(read_features(f1), f2)
    assert f1.read_bytes() == f2.read_bytes()
    _report(9, "determinism & persistence")
