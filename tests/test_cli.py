import dataclasses
import json
import math
import os
import shutil
import struct

import numpy as np
import pytest

from captionkit import analysis, cli, decoding, training
from captionkit import convmodel as cm
from captionkit import lstmmodel as lm
from captionkit.checkpoint import load_checkpoint, save_checkpoint
from captionkit.data import (
    ImageFeatures,
    Vocabulary,
    read_caption_file,
    read_features,
    write_features,
)

TINY_CNN_CFG = """
embed_dim = 8
hidden_dim = 8
num_layers = 2
kernel_widths = 2,2
bottleneck_dim = 4
max_steps = 8
dropout_p = 0.0
learning_rate = 1e-3
epochs = 2
batch_size = 8
seed = 3
probe_size = 6
"""


def run(argv):
    return cli.main([str(a) for a in argv])


def make_data(tmp_path, scenes=16, seed=7):
    data_dir = tmp_path / "data"
    assert run(["synth", "--scenes", scenes, "--seed", seed, "--out", data_dir]) == 0
    return data_dir


def write_cfg(tmp_path, text=TINY_CNN_CFG, name="model.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSynth:
    def test_same_invocation_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(["synth", "--scenes", 20, "--seed", 7, "--out", a])
        run(["synth", "--scenes", 20, "--seed", 7, "--out", b])
        for name in ("vocab.txt", "train.tsv", "val.tsv", "features.ccf",
                     "scenes.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_feature_file_round_trips(self, tmp_path):
        data_dir = make_data(tmp_path)
        features = read_features(data_dir / "features.ccf")
        assert len(features) == 16
        for feat in features.values():
            assert feat.spatial.shape == (4, 4, 64)

    def test_manifest_records_scene_count_and_outputs(self, tmp_path):
        data_dir = make_data(tmp_path, scenes=12)
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["scenes"] == 12
        assert manifest["status"] == "complete"
        assert set(manifest["outputs"]) == {
            "vocab.txt", "train.tsv", "val.tsv", "features.ccf", "scenes.json"
        }

    def test_train_and_synth_manifests_record_int_seeds(self, tmp_path):
        data_dir = make_data(tmp_path, seed=5)
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, TINY_CNN_CFG.replace("epochs = 2", "epochs = 1"))
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", cfg, "--out", out]) == 0
        synth = json.loads((data_dir / "manifest.json").read_text())
        train = json.loads((out / "manifest.json").read_text())
        assert (synth["seed"], train["seed"]) == (5, 3)
        assert type(synth["seed"]) is int and type(train["seed"]) is int

    def test_split_sizes(self, tmp_path):
        data_dir = make_data(tmp_path, scenes=20)
        assert len(read_caption_file(data_dir / "train.tsv")) == 16
        assert len(read_caption_file(data_dir / "val.tsv")) == 4


class TestTrain:
    def test_plain_cnn_and_ablation_flags(self, tmp_path):
        data_dir = make_data(tmp_path)
        cfg = write_cfg(
            tmp_path,
            TINY_CNN_CFG + "weight_norm = true\nresidual = true\n",
        )
        out = tmp_path / "run"
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", cfg, "--out", out]) == 0
        metrics = (out / "metrics.csv").read_text().strip().splitlines()
        assert metrics[0] == "epoch,split,loss,accuracy,entropy,grad_norm_in,grad_norm_out"
        assert len(metrics) == 1 + 2 * 2
        loaded = load_checkpoint(out / "checkpoints" / "best.ckpt")
        assert loaded.kind == "cnn"
        assert loaded.model.config.weight_norm and loaded.model.config.residual

    def test_cnn_attn_forces_attention(self, tmp_path):
        data_dir = make_data(tmp_path)
        cfg = write_cfg(tmp_path, TINY_CNN_CFG.replace("hidden_dim = 8", "hidden_dim = 64"))
        out = tmp_path / "run"
        assert run(["train", "--model", "cnn-attn", "--data", data_dir,
                    "--config", cfg, "--out", out]) == 0
        assert load_checkpoint(out / "checkpoints" / "best.ckpt").model.config.attention

    def test_lstm_shares_pipeline(self, tmp_path):
        data_dir = make_data(tmp_path)
        cfg = write_cfg(tmp_path, "embed_dim = 8\nhidden_dim = 8\nmax_steps = 8\n"
                                  "learning_rate = 1e-3\nepochs = 1\nprobe_size = 6\n")
        out = tmp_path / "run"
        assert run(["train", "--model", "lstm", "--data", data_dir,
                    "--config", cfg, "--out", out]) == 0
        assert load_checkpoint(out / "checkpoints" / "best.ckpt").kind == "lstm"

    def test_resume_continues_staircase(self, tmp_path, capsys):
        data_dir = make_data(tmp_path)
        cfg = write_cfg(
            tmp_path,
            TINY_CNN_CFG.replace("epochs = 2", "epochs = 15")
                        .replace("learning_rate = 1e-3", "learning_rate = 5e-5"),
        )
        out = tmp_path / "run"
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", cfg, "--out", out]) == 0
        first = capsys.readouterr().err
        assert "lr 5e-05" in first and "lr 5e-06" not in first
        resume_cfg = write_cfg(
            tmp_path,
            TINY_CNN_CFG.replace("epochs = 2", "epochs = 1")
                        .replace("learning_rate = 1e-3", "learning_rate = 5e-5"),
            name="resume.cfg",
        )
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", resume_cfg, "--out", out,
                    "--resume", out / "checkpoints" / "last.ckpt"]) == 0
        resumed = capsys.readouterr().err
        assert "epoch   15 lr 5e-06" in resumed

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        data_dir = make_data(tmp_path)
        cfg = write_cfg(tmp_path, TINY_CNN_CFG + "mystery_knob = 4\n")
        out = tmp_path / "run"
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", cfg, "--out", out]) == 1
        assert "mystery_knob" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    @pytest.mark.parametrize("value", ["mean", "sum"])
    def test_a_loss_reduction_key_is_unknown(self, tmp_path, capsys, value):
        # The objective is the per-token mean NLL; no key chooses another.
        data_dir = make_data(tmp_path)
        cfg = write_cfg(tmp_path, TINY_CNN_CFG + f"loss_reduction = {value}\n")
        out = tmp_path / "run"
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", cfg, "--out", out]) == 1
        assert "unknown config keys: loss_reduction" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_a_run_without_a_val_epoch_writes_strict_json(self, tmp_path):
        data_dir = make_data(tmp_path, scenes=1)
        assert read_caption_file(data_dir / "val.tsv") == []
        out = tmp_path / "run"
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", write_cfg(tmp_path), "--out", out]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
        assert (manifest["best_epoch"], manifest["best_val_loss"]) == (-1, None)

    def test_empty_caption_fails(self, tmp_path, capsys):
        data_dir = make_data(tmp_path)
        with open(data_dir / "val.tsv", "a", encoding="utf-8") as fh:
            fh.write("scene00000\t\n")
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", write_cfg(tmp_path), "--out", tmp_path / "run"]) == 1
        assert "record scene00000 has an empty caption" in capsys.readouterr().err

    def test_empty_feature_file_fails(self, tmp_path, capsys):
        data_dir = make_data(tmp_path)
        (data_dir / "features.ccf").write_bytes(b"CCF1" + struct.pack("<IIII", 0, 96, 4, 64))
        (data_dir / "train.tsv").write_text("")
        (data_dir / "val.tsv").write_text("")
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", write_cfg(tmp_path), "--out", tmp_path / "run"]) == 1
        err = capsys.readouterr().err
        assert "CliError" in err and "holds no images" in err

    def test_resume_config_mismatch_fails(self, tmp_path, capsys):
        data_dir = make_data(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", write_cfg(tmp_path), "--out", out]) == 0
        other_cfg = write_cfg(tmp_path, TINY_CNN_CFG.replace("embed_dim = 8", "embed_dim = 16"),
                              name="other.cfg")
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", other_cfg, "--out", tmp_path / "run2",
                    "--resume", out / "checkpoints" / "last.ckpt"]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_resume_with_another_vocabulary_fails(self, tmp_path, capsys):
        # Seeds 1 and 2 give vocabularies of one size in different orders.
        first, second = tmp_path / "first", tmp_path / "second"
        for seed, data_dir in ((1, first), (2, second)):
            assert run(["synth", "--scenes", 40, "--seed", seed, "--out", data_dir]) == 0
        vocabs = [Vocabulary.from_file(d / "vocab.txt") for d in (first, second)]
        assert vocabs[0].size == vocabs[1].size and vocabs[0] != vocabs[1]
        cfg = write_cfg(tmp_path, "embed_dim = 8\nhidden_dim = 8\nmax_steps = 8\n"
                                  "learning_rate = 1e-3\nepochs = 1\nprobe_size = 6\n")
        out = tmp_path / "run"
        assert run(["train", "--model", "lstm", "--data", first,
                    "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        assert run(["train", "--model", "lstm", "--data", second, "--config", cfg,
                    "--out", tmp_path / "run2",
                    "--resume", out / "checkpoints" / "last.ckpt"]) == 1
        err = capsys.readouterr().err
        assert "CliError" in err and "vocabulary that differs from" in err
        assert str(second / "vocab.txt") in err
        assert not (tmp_path / "run2" / "checkpoints").exists()

    @pytest.mark.parametrize("key", ["learning_rate", "rms_epsilon"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_fails_before_any_data_file(self, tmp_path, capsys, key, value):
        data_dir = make_data(tmp_path)
        cfg = write_cfg(tmp_path, "embed_dim = 8\nhidden_dim = 8\nmax_steps = 8\n"
                                  f"epochs = 1\nprobe_size = 6\n{key} = {value}\n")
        out = tmp_path / "run"
        assert run(["train", "--model", "lstm", "--data", data_dir,
                    "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and key in err and "> 0 and finite" in err
        assert sorted(os.listdir(out)) == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    @pytest.mark.parametrize("key, fragment", [
        ("seed", "ValueError: seed must be >= 0, got -1"),
        ("init_seed", "CliError: config key init_seed must be >= 0, got -1"),
    ], ids=["seed", "init_seed"])
    def test_a_negative_seed_names_its_key(self, tmp_path, capsys, key, fragment):
        data_dir = make_data(tmp_path)
        out = tmp_path / "run"
        # Without the recipe's own seed line: a key given twice is refused.
        cfg = write_cfg(tmp_path, TINY_CNN_CFG.replace("seed = 3\n", "") + f"{key} = -1\n")
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", cfg, "--out", out]) == 1
        assert fragment in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    def test_a_config_that_is_not_utf8_is_a_format_error(self, tmp_path, capsys):
        data_dir = make_data(tmp_path)
        cfg = tmp_path / "model.cfg"
        cfg.write_bytes(b"embed_dim = 8\n# caf\xe9\n")
        out = tmp_path / "run"
        assert run(["train", "--model", "cnn", "--data", data_dir,
                    "--config", cfg, "--out", out]) == 1
        assert f"FormatError: {cfg}: invalid UTF-8 at byte offset 19" in capsys.readouterr().err
        assert not out.exists()


# Every model field a config file can set, each to a value other than its
# default; hidden_dim 64 matches the synthetic spatial channels, as
# attention requires.
NON_DEFAULT_MODEL_VALUES = {
    "cnn": (cm.ModelConfig, {
        "embed_dim": ("6", 6), "hidden_dim": ("64", 64), "num_layers": ("2", 2),
        "kernel_widths": ("3, 2", (3, 2)), "bottleneck_dim": ("5", 5),
        "max_steps": ("9", 9), "dropout_p": ("0.25", 0.25), "weight_norm": ("yes", True),
        "residual": ("on", True), "attention": ("true", True),
    }),
    "lstm": (lm.LstmConfig, {
        "embed_dim": ("6", 6), "hidden_dim": ("7", 7), "max_steps": ("9", 9),
    }),
}

NON_DEFAULT_TRAIN_VALUES = {
    "learning_rate": ("2e-3", 2e-3), "decay_factor": ("0.5", 0.5),
    "decay_period": ("4", 4), "epochs": ("3", 3), "batch_size": ("5", 5),
    "rms_alpha": ("0.9", 0.9), "rms_epsilon": ("1e-6", 1e-6), "seed": ("11", 11),
    "eval_cadence": ("2", 2), "probe_size": ("7", 7),
}


def _settable(cls):
    return {f.name: f for f in dataclasses.fields(cls) if f.name not in cli.DATA_FIELDS}


class TestConfigSchema:
    @pytest.mark.parametrize("kind", sorted(NON_DEFAULT_MODEL_VALUES))
    def test_every_model_field_reaches_the_checkpoint(self, tmp_path, kind):
        cls, values = NON_DEFAULT_MODEL_VALUES[kind]
        fields = _settable(cls)
        assert set(values) == set(fields)
        for name, (_, value) in values.items():
            assert value != fields[name].default, name
        data_dir = make_data(tmp_path)
        text = "".join(f"{name} = {raw}\n" for name, (raw, _) in values.items())
        cfg = write_cfg(tmp_path, text + "epochs = 1\nprobe_size = 2\n")
        out = tmp_path / "run"
        assert run(["train", "--model", kind, "--data", data_dir,
                    "--config", cfg, "--out", out]) == 0
        stored = load_checkpoint(out / "checkpoints" / "best.ckpt").model.config
        assert type(stored) is cls
        for name, (_, value) in values.items():
            assert getattr(stored, name) == value, name

    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_no_config_file_stores_the_dataclass_defaults(self, tmp_path, kind, monkeypatch):
        """Without a config file the model is the dataclass default (plus the
        data dimensions) and the trainer gets the default TrainConfig; the
        run itself is cut to one epoch to keep the 512-wide model quick."""
        seen = []
        real_train = training.train

        def one_epoch(model, train_examples, val_examples, config, **kwargs):
            seen.append(config)
            short = dataclasses.replace(config, epochs=1, probe_size=2)
            return real_train(model, train_examples, val_examples, short, **kwargs)

        monkeypatch.setattr(training, "train", one_epoch)
        data_dir = make_data(tmp_path, scenes=4)
        out = tmp_path / "run"
        assert run(["train", "--model", kind, "--data", data_dir, "--out", out]) == 0
        assert seen == [training.TrainConfig()]
        loaded = load_checkpoint(out / "checkpoints" / "best.ckpt")
        vocab = Vocabulary.from_file(data_dir / "vocab.txt")
        if kind == "lstm":
            expected = lm.LstmConfig(vocab_size=vocab.size, feature_dim=96)
        else:
            expected = cm.ModelConfig(vocab_size=vocab.size, feature_dim=96,
                                      grid_size=4, spatial_channels=64)
        assert loaded.model.config == expected

    def test_every_train_field_goes_through_the_helper(self):
        fields = _settable(training.TrainConfig)
        assert set(NON_DEFAULT_TRAIN_VALUES) == set(fields)
        values = {name: raw for name, (raw, _) in NON_DEFAULT_TRAIN_VALUES.items()}
        converted = cli.config_fields(training.TrainConfig, values)
        assert values == {}
        config = training.TrainConfig(**converted)
        for name, (_, value) in NON_DEFAULT_TRAIN_VALUES.items():
            assert value != fields[name].default, name
            assert getattr(config, name) == value, name
            assert type(getattr(config, name)).__name__ == fields[name].type, name

    def test_every_field_type_has_a_converter(self):
        for cls in (training.TrainConfig, cm.ModelConfig, lm.LstmConfig):
            for f in dataclasses.fields(cls):
                assert f.type in cli.CONVERTERS, (cls.__name__, f.name, f.type)

    def test_bad_value_names_the_key(self):
        with pytest.raises(cli.CliError, match="config key batch_size"):
            cli.config_fields(training.TrainConfig, {"batch_size": "many"})
        with pytest.raises(cli.CliError, match="config key residual: not a boolean"):
            cli.config_fields(cm.ModelConfig, {"residual": "maybe"})

    @pytest.mark.parametrize("kind, key", [("lstm", "kernel_widths"), ("lstm", "residual"),
                                           ("cnn", "vocab_size"), ("lstm", "feature_dim"),
                                           ("cnn-attn", "spatial_channels")])
    def test_key_outside_the_schema_is_unknown(self, tmp_path, capsys, kind, key):
        data_dir = make_data(tmp_path)
        cfg = write_cfg(tmp_path, f"embed_dim = 8\nhidden_dim = 64\nmax_steps = 8\n{key} = 2\n")
        out = tmp_path / "run"
        assert run(["train", "--model", kind, "--data", data_dir,
                    "--config", cfg, "--out", out]) == 1
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()


class TestManifestFailure:
    def test_keyboard_interrupt_propagates_and_marks_the_run_failed(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(training, "train", interrupted)
        data_dir = make_data(tmp_path)
        out = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run(["train", "--model", "cnn", "--data", data_dir,
                 "--config", write_cfg(tmp_path), "--out", out])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == "KeyboardInterrupt: "
        assert manifest["outputs"] == {}

    def test_error_inside_a_subcommand_marks_the_run_failed(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "synth_corpus", broken)
        out = tmp_path / "data"
        assert run(["synth", "--scenes", 4, "--seed", 1, "--out", out]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == "OSError: disk full"


class TestCaptionEvalAnalyze:
    @pytest.fixture()
    def trained(self, tmp_path):
        data_dir = make_data(tmp_path)
        out = tmp_path / "run"
        run(["train", "--model", "cnn", "--data", data_dir,
             "--config", write_cfg(tmp_path), "--out", out])
        return data_dir, out / "checkpoints" / "best.ckpt"

    def test_caption_beam_one_equals_greedy(self, tmp_path, trained):
        data_dir, ckpt = trained
        out_file = tmp_path / "caps.txt"
        assert run(["caption", "--ckpt", ckpt, "--features", data_dir / "features.ccf",
                    "--beam", 1, "--out", out_file]) == 0
        loaded = load_checkpoint(ckpt)
        features = read_features(data_dir / "features.ccf")
        lines = out_file.read_text().splitlines()
        assert len(lines) == len(features)
        for line in lines:
            image_id, rank, _, caption = line.split("\t")
            greedy = decoding.greedy_decode(loaded.model, features[image_id])
            from captionkit.data import decode

            assert rank == "1"
            assert caption == " ".join(decode(greedy.target_ids, loaded.vocab))

    def test_caption_beam_three_ranks_descending(self, tmp_path, trained):
        data_dir, ckpt = trained
        out_file = tmp_path / "caps3.txt"
        assert run(["caption", "--ckpt", ckpt, "--features", data_dir / "features.ccf",
                    "--beam", 3, "--out", out_file]) == 0
        by_image = {}
        for line in out_file.read_text().splitlines():
            image_id, rank, logprob, _ = line.split("\t")
            by_image.setdefault(image_id, []).append((int(rank), float(logprob)))
        for rows in by_image.values():
            assert [r for r, _ in rows] == list(range(1, len(rows) + 1))
            scores = [s for _, s in rows]
            assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_caption_prints_every_generated_token(self, tmp_path, kind):
        # A fresh model ties every token, so beam 3 ranks the captions of
        # the ids (), (<S>,) and (<S>, <S>): three different captions.
        data_dir = make_data(tmp_path, scenes=4)
        vocab = Vocabulary.from_file(data_dir / "vocab.txt")
        if kind == "lstm":
            model = lm.init_params(lm.LstmConfig(vocab_size=vocab.size, embed_dim=4,
                                                 hidden_dim=4, max_steps=8, feature_dim=96), 0)
        else:
            model = cm.init_params(cm.ModelConfig(
                vocab_size=vocab.size, embed_dim=4, hidden_dim=4, num_layers=2,
                kernel_widths=(2, 2), bottleneck_dim=4, max_steps=8, feature_dim=96), 0)
        ckpt = tmp_path / "fresh.ckpt"
        save_checkpoint(ckpt, model, seed=0, epoch=0, vocab=vocab)
        out_file = tmp_path / "caps.txt"
        assert run(["caption", "--ckpt", ckpt, "--features", data_dir / "features.ccf",
                    "--beam", 3, "--out", out_file]) == 0
        by_image = {}
        for line in out_file.read_text().splitlines():
            image_id, _, _, caption = line.split("\t")
            by_image.setdefault(image_id, []).append(caption)
        assert len(by_image) == len(read_features(data_dir / "features.ccf"))
        for captions in by_image.values():
            assert captions == ["", "<S>", "<S> <S>"]

    def test_eval_writes_bleu_and_reference_pair(self, tmp_path, trained):
        data_dir, ckpt = trained
        out = tmp_path / "eval"
        assert run(["eval", "--ckpt", ckpt, "--data", data_dir, "--out", out]) == 0
        lines = (out / "bleu.csv").read_text().strip().splitlines()
        assert lines[0] == "n,score"
        assert len(lines) == 5
        assert (out / "candidates.txt").exists()
        refs = read_caption_file(out / "references.txt")
        assert [c for _, c in refs] == [c for _, c in read_caption_file(data_dir / "val.tsv")]

    @pytest.fixture()
    def val_image_twice(self, trained, monkeypatch):
        """The trained run's data with the first val image listed again,
        under the second one's caption, and every beam search recorded."""
        data_dir, _ = trained
        val = read_caption_file(data_dir / "val.tsv")
        with open(data_dir / "val.tsv", "a", encoding="utf-8") as fh:
            fh.write(f"{val[0][0]}\t{' '.join(val[1][1])}\n")
        searched = []
        beam_search = decoding.beam_search

        def recorded(model, features, **kwargs):
            searched.append(features)
            return beam_search(model, features, **kwargs)

        monkeypatch.setattr(decoding, "beam_search", recorded)
        return val, searched

    def test_eval_decodes_an_image_once_against_all_its_captions(self, tmp_path, trained,
                                                                 val_image_twice):
        data_dir, ckpt = trained
        val, searched = val_image_twice
        out = tmp_path / "eval"
        assert run(["eval", "--ckpt", ckpt, "--data", data_dir, "--out", out]) == 0
        assert len(searched) == len(val)
        candidates = read_caption_file(out / "candidates.txt")
        assert [image_id for image_id, _ in candidates] == [image_id for image_id, _ in val]
        assert read_caption_file(out / "references.txt") == val + [(val[0][0], val[1][1])]
        references = [[caption] for _, caption in val]
        references[0].append(val[1][1])
        scores = analysis.bleu([tokens for _, tokens in candidates], references)
        assert (out / "bleu.csv").read_text().splitlines()[1:] == [
            f"{n},{score:.10g}" for n, score in enumerate(scores, 1)]

    def test_analyze_decodes_each_val_image_once(self, tmp_path, trained, val_image_twice):
        data_dir, ckpt = trained
        val, searched = val_image_twice
        out = tmp_path / "anl"
        assert run(["analyze", "--ckpt", ckpt, "--data", data_dir, "--out", out,
                    "--beam", 2]) == 0
        assert len(searched) == len(val)

    def test_analyze_untrained_model_reports_log_vocab_entropy(self, tmp_path):
        data_dir = make_data(tmp_path)
        vocab = Vocabulary.from_file(data_dir / "vocab.txt")
        cfg = cm.ModelConfig(
            vocab_size=vocab.size, embed_dim=8, hidden_dim=8, num_layers=2,
            kernel_widths=(2, 2), bottleneck_dim=4, max_steps=8,
            feature_dim=96, dropout_p=0.0,
        )
        ckpt = tmp_path / "fresh.ckpt"
        save_checkpoint(ckpt, cm.init_params(cfg, 0), seed=0, epoch=0, vocab=vocab)
        out = tmp_path / "anl"
        assert run(["analyze", "--ckpt", ckpt, "--data", data_dir,
                    "--out", out, "--limit", 4, "--beam", 2]) == 0
        rows = (out / "analysis_cnn.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            entropy = float(row.split(",")[4])
            assert entropy == pytest.approx(math.log(vocab.size), abs=1e-6)
        diversity = (out / "diversity_cnn.csv").read_text().strip().splitlines()
        assert diversity[0] == "position,unique_count"
        assert len(diversity) == 14

    @pytest.mark.parametrize("max_steps", [0, -2])
    def test_caption_rejects_max_steps_below_one(self, tmp_path, capsys, max_steps):
        data_dir = make_data(tmp_path, scenes=4)
        vocab = Vocabulary.from_file(data_dir / "vocab.txt")
        cfg = lm.LstmConfig(vocab_size=vocab.size, embed_dim=4, hidden_dim=4, max_steps=8,
                            feature_dim=96)
        ckpt = tmp_path / "fresh.ckpt"
        save_checkpoint(ckpt, lm.init_params(cfg, 0), seed=0, epoch=0, vocab=vocab)
        out_file = tmp_path / "caps" / "caps.txt"
        assert run(["caption", "--ckpt", ckpt, "--features", data_dir / "features.ccf",
                    "--max-steps", max_steps, "--out", out_file]) == 1
        assert f"max_steps must be >= 1, got {max_steps}" in capsys.readouterr().err
        manifest = json.loads((out_file.parent / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert not out_file.exists()

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_eval_of_an_empty_split_names_its_file(self, tmp_path, trained, capsys, split):
        data_dir, ckpt = trained
        (data_dir / f"{split}.tsv").write_text("")
        out = tmp_path / "ev"
        assert run(["eval", "--ckpt", ckpt, "--data", data_dir, "--split", split,
                    "--out", out]) == 1
        assert f"CliError: {data_dir / f'{split}.tsv'} holds no captions" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_analyze_of_an_empty_split_names_its_file(self, tmp_path, trained, capsys, split):
        data_dir, ckpt = trained
        (data_dir / f"{split}.tsv").write_text("")
        out = tmp_path / "anl"
        assert run(["analyze", "--ckpt", ckpt, "--data", data_dir, "--out", out,
                    "--limit", 2, "--beam", 2]) == 1
        assert f"CliError: {data_dir / f'{split}.tsv'} holds no captions" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    def test_analyze_two_checkpoints_need_distinct_kinds(self, tmp_path, trained, capsys):
        data_dir, ckpt = trained
        assert run(["analyze", "--ckpt", ckpt, "--ckpt2", ckpt,
                    "--data", data_dir, "--out", tmp_path / "anl2",
                    "--limit", 2, "--beam", 2]) == 1
        assert "one cnn and one lstm" in capsys.readouterr().err

    def test_analyze_side_by_side(self, tmp_path, trained):
        data_dir, ckpt = trained
        lstm_cfg = write_cfg(tmp_path, "embed_dim = 8\nhidden_dim = 8\nmax_steps = 8\n"
                                       "learning_rate = 1e-3\nepochs = 1\nprobe_size = 4\n",
                             name="lstm.cfg")
        lstm_out = tmp_path / "lstm_run"
        run(["train", "--model", "lstm", "--data", data_dir,
             "--config", lstm_cfg, "--out", lstm_out])
        out = tmp_path / "anl3"
        assert run(["analyze", "--ckpt", ckpt,
                    "--ckpt2", lstm_out / "checkpoints" / "best.ckpt",
                    "--data", data_dir, "--out", out, "--limit", 3, "--beam", 2]) == 0
        comparison = (out / "comparison.csv").read_text().strip().splitlines()
        assert comparison[0] == "metric,split,cnn,lstm"
        assert (out / "notes.txt").read_text().startswith("entropy:")


class TestOutRootEnv:
    def test_env_var_supplies_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "root"))
        assert run(["synth", "--scenes", 4, "--seed", 1]) == 0
        assert (tmp_path / "root" / "synth" / "features.ccf").exists()

    def test_missing_out_and_env_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(cli.OUT_ROOT_ENV, raising=False)
        assert run(["synth", "--scenes", 4, "--seed", 1]) == 1
        assert cli.OUT_ROOT_ENV in capsys.readouterr().err


TINY_LSTM_CFG = "embed_dim = 8\nhidden_dim = 8\nmax_steps = 8\nepochs = 1\nprobe_size = 4\n"


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One small run of every subcommand, each into its own directory under
    the returned root: synth into ``data``, then train_cnn, train_lstm,
    caption, eval and analyze (the two checkpoints side by side)."""
    root = tmp_path_factory.mktemp("chain")
    data_dir = make_data(root)
    cnn_ckpt = root / "train_cnn" / "checkpoints" / "best.ckpt"
    lstm_ckpt = root / "train_lstm" / "checkpoints" / "best.ckpt"
    for argv in (
        ["train", "--model", "cnn", "--data", data_dir, "--config", write_cfg(root),
         "--out", root / "train_cnn"],
        ["train", "--model", "lstm", "--data", data_dir,
         "--config", write_cfg(root, TINY_LSTM_CFG, name="lstm.cfg"),
         "--out", root / "train_lstm"],
        ["caption", "--ckpt", cnn_ckpt, "--features", data_dir / "features.ccf", "--beam", 2,
         "--out", root / "caption" / "caps.txt"],
        ["eval", "--ckpt", lstm_ckpt, "--data", data_dir, "--beam", 2, "--out", root / "eval"],
        ["analyze", "--ckpt", cnn_ckpt, "--ckpt2", lstm_ckpt, "--data", data_dir,
         "--limit", 3, "--beam", 2, "--out", root / "analyze"],
    ):
        assert run(argv) == 0, argv
    return root


class TestOutputContract:
    @pytest.mark.parametrize("step", ["data", "train_cnn", "train_lstm", "caption", "eval",
                                      "analyze"])
    def test_manifest_lists_every_file_its_subcommand_writes(self, chain, step):
        out = chain / step
        written = {
            os.path.relpath(os.path.join(folder, name), out)
            for folder, _, names in os.walk(out) for name in names
        }
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert set(manifest["outputs"]) == written - {"manifest.json"}

    def test_analyze_reads_captions_with_the_checkpoints_vocabulary(self, chain, tmp_path):
        """A data directory whose vocabulary lists the same tokens in another
        order gives byte-identical tables: the probe captions are encoded
        with the vocabulary the checkpoint was trained with."""
        data_dir = tmp_path / "reordered"
        shutil.copytree(chain / "data", data_dir)
        tokens = Vocabulary.from_file(data_dir / "vocab.txt").id_to_token
        Vocabulary(tokens[:3] + tokens[3:][::-1]).to_file(data_dir / "vocab.txt")
        original = (chain / "data" / "vocab.txt").read_bytes()
        assert (data_dir / "vocab.txt").read_bytes() != original
        out = tmp_path / "analyze"
        assert run(["analyze", "--ckpt", chain / "train_cnn" / "checkpoints" / "best.ckpt",
                    "--ckpt2", chain / "train_lstm" / "checkpoints" / "best.ckpt",
                    "--data", data_dir, "--limit", 3, "--beam", 2, "--out", out]) == 0
        for name in ("analysis_cnn.csv", "analysis_lstm.csv",
                     "diversity_cnn.csv", "diversity_lstm.csv"):
            assert (out / name).read_bytes() == (chain / "analyze" / name).read_bytes(), name


class TestOutputLocations:
    def test_caption_into_a_synth_directory_is_refused(self, chain, tmp_path, capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(chain / "data", data_dir)
        before = {p.name: p.read_bytes() for p in data_dir.iterdir()}
        assert run(["caption", "--ckpt", chain / "train_cnn" / "checkpoints" / "best.ckpt",
                    "--features", data_dir / "features.ccf", "--out", data_dir / "caps.txt"]) == 1
        err = capsys.readouterr().err
        assert "CliError: " in err and "holds the output of 'synth'" in err
        assert {p.name: p.read_bytes() for p in data_dir.iterdir()} == before

    @pytest.mark.parametrize("contents", [b"[1, 2]\n", b"not json\n", b"\xff\xfe{}"],
                             ids=["list", "not-json", "not-utf8"])
    def test_a_manifest_that_is_not_a_json_object_is_refused(self, chain, tmp_path, capsys,
                                                             contents):
        out = tmp_path / "m"
        out.mkdir()
        (out / "manifest.json").write_bytes(contents)
        assert run(["caption", "--ckpt", chain / "train_lstm" / "checkpoints" / "best.ckpt",
                    "--features", chain / "data" / "features.ccf", "--out", out / "caps.txt"]) == 1
        err = capsys.readouterr().err
        assert (f"CliError: {out} holds a manifest.json that is not a JSON object; "
                "use another --out") in err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_bytes() == contents

    def test_a_rerun_of_the_same_subcommand_overwrites_its_outputs(self, chain, tmp_path):
        out = tmp_path / "eval"
        argv = ["eval", "--ckpt", chain / "train_lstm" / "checkpoints" / "best.ckpt",
                "--data", chain / "data", "--beam", 2, "--out", out]
        assert run(argv) == 0
        (out / "bleu.csv").write_text("stale\n")
        assert run(argv) == 0
        for name in ("manifest.json", "bleu.csv", "candidates.txt", "references.txt"):
            assert (out / name).read_bytes() == (chain / "eval" / name).read_bytes(), name

    def test_only_train_reads_the_vocabulary_file(self, chain, tmp_path, capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(chain / "data", data_dir)
        os.remove(data_dir / "vocab.txt")
        cnn, lstm = (chain / f"train_{kind}" / "checkpoints" / "best.ckpt"
                     for kind in ("cnn", "lstm"))
        assert run(["eval", "--ckpt", lstm, "--data", data_dir, "--beam", 2,
                    "--out", tmp_path / "eval"]) == 0
        assert run(["analyze", "--ckpt", cnn, "--ckpt2", lstm, "--data", data_dir,
                    "--limit", 3, "--beam", 2, "--out", tmp_path / "analyze"]) == 0
        for step, name in (("eval", "bleu.csv"), ("eval", "candidates.txt"),
                           ("analyze", "analysis_cnn.csv"), ("analyze", "analysis_lstm.csv"),
                           ("analyze", "comparison.csv")):
            assert (tmp_path / step / name).read_bytes() == (chain / step / name).read_bytes()
        assert run(["train", "--model", "lstm", "--data", data_dir,
                    "--config", write_cfg(tmp_path, TINY_LSTM_CFG), "--out", tmp_path / "train"]) == 1
        err = capsys.readouterr().err
        assert "CliError: " in err and f"data directory {data_dir} is missing vocab.txt" in err


def _config_line_without_equals(tmp_path, data_dir):
    cfg = write_cfg(tmp_path, "embed_dim 8\n")
    return ["train", "--model", "cnn", "--data", data_dir, "--config", cfg]


def _config_key_given_twice(tmp_path, data_dir):
    cfg = write_cfg(tmp_path, "embed_dim = 8\n# width\nembed_dim = 16\n")
    return ["train", "--model", "cnn", "--data", data_dir, "--config", cfg]


def _attention_without_grids(tmp_path, data_dir):
    features = read_features(data_dir / "features.ccf")
    global_only = {image_id: ImageFeatures(feat.global_vec) for image_id, feat in features.items()}
    write_features(global_only, data_dir / "features.ccf")
    return ["train", "--model", "cnn-attn", "--data", data_dir, "--config", write_cfg(tmp_path)]


def _data_file_missing(tmp_path, data_dir):
    os.remove(data_dir / "val.tsv")
    return ["train", "--model", "cnn", "--data", data_dir, "--config", write_cfg(tmp_path)]


def _ids_without_features(tmp_path, data_dir):
    with open(data_dir / "train.tsv", "a", encoding="utf-8") as fh:
        fh.write("ghost\ta red ball on the table\n")
    return ["train", "--model", "cnn", "--data", data_dir, "--config", write_cfg(tmp_path)]


def _no_training_scenes(tmp_path, data_dir):
    return ["synth", "--scenes", 2, "--seed", 1, "--val-fraction", 1.0]


def _checkpoint_without_vocabulary(tmp_path, data_dir):
    cfg = lm.LstmConfig(vocab_size=9, embed_dim=4, hidden_dim=4, max_steps=4, feature_dim=96)
    ckpt = tmp_path / "no_vocab.ckpt"
    save_checkpoint(ckpt, lm.init_params(cfg, 0), seed=0, epoch=0)
    return ["caption", "--ckpt", ckpt, "--features", data_dir / "features.ccf",
            "--out", tmp_path / "out" / "caps.txt"]


@pytest.mark.parametrize("make_argv, fragment", [
    (_config_line_without_equals, "model.cfg:1: expected 'key = value'"),
    (_config_key_given_twice, "model.cfg:3: key embed_dim given twice"),
    (_attention_without_grids, "attention requested but the feature file has no spatial grids"),
    (_data_file_missing, "is missing val.tsv"),
    (_ids_without_features, "train.tsv references ids without features: ['ghost']"),
    (_no_training_scenes, "no training scenes left after the validation split"),
    (_checkpoint_without_vocabulary, "carries no vocabulary"),
])
def test_rejections_raise_cli_error(tmp_path, capsys, make_argv, fragment):
    data_dir = make_data(tmp_path, scenes=4)
    argv = make_argv(tmp_path, data_dir)
    if "--out" not in argv:
        argv += ["--out", tmp_path / "out"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "CliError: " in err and fragment in err


@pytest.mark.parametrize("argv, fragment", [
    (["synth", "--val-fraction", 1.5], "CliError: --val-fraction must be in [0, 1), got 1.5"),
    (["synth", "--val-fraction", -0.5], "CliError: --val-fraction must be in [0, 1), got -0.5"),
    (["synth", "--val-fraction", 1.0], "CliError: no training scenes left"),
    (["synth", "--feature-dim", 0], "ValueError: feature_dim must be >= 1, got 0"),
    (["synth", "--channels", 0], "ValueError: spatial_channels must be >= 1, got 0"),
    (["synth", "--grid", 1], "ValueError: grid_size must be >= 2, got 1"),
    (["analyze", "--limit", -1], "CliError: --limit must be >= 1, got -1"),
    (["analyze", "--limit", 0], "CliError: --limit must be >= 1, got 0"),
    (["analyze", "--positions", -3], "CliError: --positions must be >= 1, got -3"),
], ids=lambda value: "_".join(map(str, value)) if isinstance(value, list) else "")
def test_out_of_range_values_exit_1_and_write_no_data_file(tmp_path, capsys, argv, fragment):
    if argv[0] == "synth":
        argv = argv + ["--scenes", 10, "--seed", 1]
    else:
        data_dir = make_data(tmp_path, scenes=4)
        vocab = Vocabulary.from_file(data_dir / "vocab.txt")
        cfg = lm.LstmConfig(vocab_size=vocab.size, embed_dim=4, hidden_dim=4, max_steps=4,
                            feature_dim=96)
        ckpt = tmp_path / "fresh.ckpt"
        save_checkpoint(ckpt, lm.init_params(cfg, 0), seed=0, epoch=0, vocab=vocab)
        argv = argv + ["--ckpt", ckpt, "--data", data_dir]
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 1
    assert fragment in capsys.readouterr().err
    assert os.listdir(out) == ["manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_validation_split_keeps_at_least_one_scene(tmp_path):
    data_dir = tmp_path / "data"
    assert run(["synth", "--scenes", 3, "--seed", 1, "--val-fraction", 0.1,
                "--out", data_dir]) == 0
    assert len(read_caption_file(data_dir / "val.tsv")) == 1
    assert len(read_caption_file(data_dir / "train.tsv")) == 2
