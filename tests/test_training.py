import math
import weakref

import numpy as np
import pytest

from captionkit import convmodel as cm
from captionkit import lstmmodel as lm
from captionkit import training as tr
from captionkit.autodiff import Tensor
from captionkit.checkpoint import CheckpointMismatchError, load_checkpoint, save_checkpoint
from captionkit.data import UNK_ID, TokenSeq, synth_corpus


def synth_setup(n=12, seed=0, **model_overrides):
    records, vocab = synth_corpus(n, seed=seed)
    cfg = dict(
        vocab_size=vocab.size,
        embed_dim=8,
        hidden_dim=8,
        num_layers=2,
        kernel_widths=(2, 2),
        bottleneck_dim=4,
        max_steps=8,
        feature_dim=96,
        dropout_p=0.0,
    )
    cfg.update(model_overrides)
    model = cm.init_params(cm.ModelConfig(**cfg), seed=1)
    examples = tr.prepare_examples(records, vocab, 8)
    return model, examples, vocab


class TestSchedule:
    def test_staircase_matches_default_schedule(self):
        cfg = tr.TrainConfig()  # lr 5e-5, decay 0.1 every 15
        assert tr.lr_for_epoch(cfg, 0) == pytest.approx(5e-5)
        assert tr.lr_for_epoch(cfg, 14) == pytest.approx(5e-5)
        assert tr.lr_for_epoch(cfg, 15) == pytest.approx(5e-6)
        assert tr.lr_for_epoch(cfg, 29) == pytest.approx(5e-6)
        assert tr.lr_for_epoch(cfg, 30) == pytest.approx(5e-7)

    def test_staircase_is_floor_of_period(self):
        cfg = tr.TrainConfig(learning_rate=1.0, decay_factor=0.5, decay_period=4)
        for epoch in range(20):
            assert tr.lr_for_epoch(cfg, epoch) == pytest.approx(0.5 ** (epoch // 4))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            tr.TrainConfig(decay_factor=1.5)


class TestNllLoss:
    def _seq(self, ids, n):
        return TokenSeq.from_token_ids(ids, n)

    def test_perfect_one_hot_gives_zero(self):
        seq = self._seq([3, 4], 2)  # targets 3, 4, <E>
        probs = np.zeros((3, 6))
        probs[np.arange(3), seq.target_ids] = 1.0
        loss = tr.nll_loss(Tensor(probs[None]), [seq])
        assert loss.data == 0.0

    def test_uniform_gives_log_vocab(self):
        seq = self._seq([3], 2)
        probs = np.full((3, 5), 0.2)
        loss = tr.nll_loss(Tensor(probs[None]), [seq])
        assert loss.data == pytest.approx(math.log(5.0), abs=1e-12)

    def test_closed_form_two_rows(self):
        seq = TokenSeq(
            input_ids=np.array([0, 2]), target_ids=np.array([2, 3]), valid_len=2
        )
        probs = np.array([[0.0, 0.0, 0.75, 0.25], [0.0, 0.0, 0.25, 0.75]])
        loss = tr.nll_loss(Tensor(probs[None]), [seq])
        assert loss.data == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_zero_probability_clamped_and_counted(self):
        seq = self._seq([3], 1)
        probs = np.zeros((2, 5))
        probs[:, 0] = 1.0  # all mass somewhere else
        stats = tr.LossStats()
        loss = tr.nll_loss(Tensor(probs[None]), [seq], stats=stats)
        assert stats.clamped == 2
        assert loss.data == pytest.approx(-math.log(1e-12), abs=1e-9)


class TestRmsProp:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        opt = tr.RmsProp({"p": p})
        before = p.data.copy()
        opt.step(0.1, {p: np.zeros(3)})
        assert np.array_equal(p.data, before)

    def test_hand_computed_single_step(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = tr.RmsProp({"p": p}, alpha=0.99, epsilon=1e-8)
        opt.step(5e-5, {p: np.array([1.0])})
        assert opt.accum["p"][0] == pytest.approx(0.01, abs=1e-15)
        assert p.data[0] == pytest.approx(-5e-5 / (0.1 + 1e-8), rel=1e-12)

    def test_steps_equal_the_formula_written_out(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        opt = tr.RmsProp({"p": p}, alpha=0.9, epsilon=1e-6)
        theta, v = p.data.copy(), np.zeros_like(p.data)
        for lr in (0.3, 0.01, 2.0):
            g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-4, 4, size=p.shape)
            opt.step(lr, {p: g})
            v = 0.9 * v + (1.0 - 0.9) * g * g
            theta = theta - lr * g / (np.sqrt(v) + 1e-6)
            assert np.array_equal(opt.accum["p"], v) and np.array_equal(p.data, theta)

    def test_non_finite_gradient_aborts_with_name(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = tr.RmsProp({"spiky": p})
        with pytest.raises(tr.NonFiniteGradientError, match="spiky"):
            opt.step(1e-3, {p: np.array([np.nan])})

    def test_none_gradient_is_skipped(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = tr.RmsProp({"p": p})
        opt.step(0.1, {})
        assert p.data[0] == 1.0

    def test_non_finite_gradient_aborts_before_any_update(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        opt = tr.RmsProp({"a": a, "b": b})
        with pytest.raises(tr.NonFiniteGradientError, match="'b'"):
            opt.step(1e-3, {a: np.array([1.0]), b: np.array([np.nan])})
        assert a.data[0] == 1.0
        assert opt.accum["a"][0] == 0.0
        assert opt.steps == 0


class TestTrainLoop:
    def test_same_seed_bit_identical_curves(self):
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4, seed=9, probe_size=12)
        runs = []
        for _ in range(2):
            model, examples, _ = synth_setup()
            result = tr.train(model, examples[:8], examples[8:], cfg)
            runs.append([r.loss for r in result.history])
        assert runs[0] == runs[1]

    def test_different_seed_differs(self):
        cfg_a = tr.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=1)
        cfg_b = tr.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=2)
        model_a, examples, _ = synth_setup(dropout_p=0.2)
        res_a = tr.train(model_a, examples[:8], examples[8:], cfg_a)
        model_b, examples_b, _ = synth_setup(dropout_p=0.2)
        res_b = tr.train(model_b, examples_b[:8], examples_b[8:], cfg_b)
        assert [r.loss for r in res_a.history] != [r.loss for r in res_b.history]

    def test_initial_loss_is_log_vocab(self):
        model, examples, vocab = synth_setup()
        from captionkit import analysis

        assert analysis.mean_nll(model, examples) == pytest.approx(
            math.log(vocab.size), abs=1e-9
        )

    def test_overfit_loss_decreases_monotonically(self):
        model, examples, _ = synth_setup(n=10)
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=22, batch_size=32, seed=0,
                             probe_size=10)
        result = tr.train(model, examples, [], cfg)
        losses = [r.loss for r in result.history if r.split == "train"]
        assert len(losses) == 22
        for epoch in range(2, 20):
            assert losses[epoch + 1] < losses[epoch], f"loss rose at epoch {epoch + 1}"

    def test_empty_corpus_rejected(self):
        model, examples, _ = synth_setup()
        from captionkit.data import EmptyCorpusError

        with pytest.raises(EmptyCorpusError):
            tr.train(model, [], examples, tr.TrainConfig())

    def test_best_checkpoint_and_metrics_written(self, tmp_path):
        model, examples, vocab = synth_setup()
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=3, seed=4, probe_size=8)
        result = tr.train(model, examples[:8], examples[8:], cfg,
                          out_dir=str(tmp_path), vocab=vocab)
        assert (tmp_path / "metrics.csv").exists()
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,split,loss,accuracy,entropy,grad_norm_in,grad_norm_out"
        assert len(lines) == 1 + 2 * 3  # train + val rows per epoch
        assert result.best_path is not None
        loaded = load_checkpoint(result.best_path)
        assert loaded.epoch == result.best_epoch
        assert loaded.vocab == vocab

    @pytest.mark.parametrize("written", [True, False], ids=["after", "before"])
    def test_a_run_killed_at_last_ckpt_resumes_with_one_row_per_epoch(
            self, tmp_path, monkeypatch, written):
        # Epoch 1 is killed right after its last.ckpt is written, or right
        # before it (after its metrics.csv rows); the run resumes from
        # last.ckpt and ends at epoch 2. The file is written by
        # save_checkpoint, or copied from best.ckpt by write_bytes on an
        # improving epoch; either write of it is interrupted.
        model, examples, vocab = synth_setup()
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=3, seed=4, probe_size=4)
        last_writes = []

        def killing(write):
            def wrapper(path, *args, **kwargs):
                if str(path).endswith("last.ckpt"):
                    last_writes.append(path)
                    if len(last_writes) == 2:  # epoch 1's
                        if written:
                            write(path, *args, **kwargs)
                        raise KeyboardInterrupt
                return write(path, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(tr, "save_checkpoint", killing(tr.save_checkpoint))
        monkeypatch.setattr(tr, "write_bytes", killing(tr.write_bytes))
        with pytest.raises(KeyboardInterrupt):
            tr.train(model, examples[:8], examples[8:], cfg, out_dir=str(tmp_path), vocab=vocab)
        monkeypatch.undo()
        loaded = load_checkpoint(tmp_path / "checkpoints" / "last.ckpt")
        start = loaded.epoch + 1
        assert start == (2 if written else 1)
        tr.train(loaded.model, examples[:8], examples[8:],
                 tr.TrainConfig(learning_rate=1e-3, epochs=3 - start, seed=4, probe_size=4),
                 out_dir=str(tmp_path), vocab=vocab, start_epoch=start)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == tr.analysis.METRICS_CSV_HEADER
        keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert keys == [(str(e), split) for e in range(3) for split in ("train", "val")]

    def test_each_epoch_serializes_the_model_once(self, tmp_path, monkeypatch):
        # One save_checkpoint per epoch; after an improving epoch last.ckpt
        # holds the bytes of best.ckpt. The log line ends each epoch.
        model, examples, vocab = synth_setup()
        ckpts = tmp_path / "checkpoints"
        saves, improving = [], []
        save = tr.save_checkpoint

        def counting_save(path, model, **fields):
            saves.append(fields["epoch"])
            save(path, model, **fields)

        def after_epoch(line):
            epoch = int(line.split()[1])
            if load_checkpoint(ckpts / "best.ckpt").epoch == epoch:
                improving.append(epoch)
                assert (ckpts / "best.ckpt").read_bytes() == (ckpts / "last.ckpt").read_bytes()

        monkeypatch.setattr(tr, "save_checkpoint", counting_save)
        result = tr.train(model, examples[:8], examples[8:],
                          tr.TrainConfig(learning_rate=1e-3, epochs=3, seed=4, probe_size=4),
                          out_dir=str(tmp_path), vocab=vocab, log=after_epoch)
        assert saves == [0, 1, 2]
        assert improving[0] == 0 and improving[-1] == result.best_epoch
        assert load_checkpoint(ckpts / "last.ckpt").epoch == 2

    def test_a_resumed_run_keeps_a_better_best_checkpoint(self, tmp_path):
        # Two good epochs, then a resumed epoch at a rate that makes the
        # model worse: best.ckpt and the best epoch and loss stay the first
        # run's.
        records, vocab = synth_corpus(24, seed=0)
        examples = tr.prepare_examples(records, vocab, 8)
        model = lm.init_params(lm.LstmConfig(vocab_size=vocab.size, embed_dim=8, hidden_dim=8,
                                             max_steps=8, feature_dim=96), 1)
        first = tr.train(model, examples[:16], examples[16:],
                         tr.TrainConfig(learning_rate=1e-2, epochs=2, seed=4),
                         out_dir=str(tmp_path), vocab=vocab)
        best = tmp_path / "checkpoints" / "best.ckpt"
        kept = best.read_bytes()
        loaded = load_checkpoint(tmp_path / "checkpoints" / "last.ckpt")
        resumed = tr.train(loaded.model, examples[:16], examples[16:],
                           tr.TrainConfig(learning_rate=3.0, epochs=1, seed=4),
                           out_dir=str(tmp_path), vocab=vocab, start_epoch=2)
        assert resumed.history[-1].loss > first.best_val_loss
        assert best.read_bytes() == kept
        assert (resumed.best_epoch, resumed.best_path) == (first.best_epoch, first.best_path)
        assert resumed.best_val_loss == first.best_val_loss

    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_no_update_graph_outlives_its_step(self, tmp_path, monkeypatch, kind):
        # The probabilities of every earlier update forward are freed at each
        # later forward, probe and checkpoint write. No gc.collect: a graph
        # that only the cycle collector could free fails too.
        model, examples, vocab = synth_setup(attention=True, hidden_dim=64, spatial_channels=64,
                                             grid_size=4, weight_norm=True, residual=True,
                                             dropout_p=0.2)
        if kind == "lstm":
            model = lm.init_params(lm.LstmConfig(vocab.size, embed_dim=8, hidden_dim=8,
                                                 max_steps=8, feature_dim=96), seed=2)
        freed_at = []  # per checkpoint: (where, every earlier forward's probs freed)
        forwarded = []

        def check(where):
            freed_at.append((where, all(ref() is None for ref in forwarded)))

        def forward(*args, **kwargs):
            check("forward")
            out = type(model).forward(model, *args, **kwargs)
            forwarded.append(weakref.ref(out[0].data))
            return out

        def probe(*args, **kwargs):
            check("probe")
            return probe_fn(*args, **kwargs)

        def save(*args, **kwargs):
            check("save")
            save_fn(*args, **kwargs)

        probe_fn, save_fn = tr.analysis.grad_norm_probe, tr.save_checkpoint
        model.forward = forward
        monkeypatch.setattr(tr.analysis, "grad_norm_probe", probe)
        monkeypatch.setattr(tr, "save_checkpoint", save)
        tr.train(model, examples[:8], examples[8:],
                 tr.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=3, probe_size=4),
                 out_dir=str(tmp_path), vocab=vocab)
        assert len(forwarded) == 2 * 3
        assert [where for where, _ in freed_at].count("probe") == 2 * 2
        assert [where for where, _ in freed_at].count("save") >= 2
        assert all(freed for _, freed in freed_at), freed_at

    def test_resume_frees_the_loaded_best_model(self, tmp_path, monkeypatch):
        model, examples, vocab = synth_setup()
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=1, seed=4, probe_size=4)
        tr.train(model, examples[:8], examples[8:], cfg, out_dir=str(tmp_path), vocab=vocab)
        resumed = load_checkpoint(tmp_path / "checkpoints" / "last.ckpt").model
        loaded = []

        def loading(*args, **kwargs):
            ckpt = load_checkpoint(*args, **kwargs)
            loaded.extend(weakref.ref(t.data) for t in ckpt.model.params.values())
            return ckpt

        freed = []

        def forward(*args, **kwargs):
            if not freed:
                freed.append([ref() is None for ref in loaded])
            return type(resumed).forward(resumed, *args, **kwargs)

        resumed.forward = forward
        monkeypatch.setattr(tr, "load_checkpoint", loading)
        result = tr.train(resumed, examples[:8], examples[8:], cfg, out_dir=str(tmp_path),
                          vocab=vocab, start_epoch=1)
        assert result.best_val_loss < float("inf")
        assert loaded and freed == [[True] * len(loaded)]

    def test_resume_continues_staircase(self):
        model, examples, _ = synth_setup()
        cfg = tr.TrainConfig(epochs=1, seed=0, probe_size=4)  # default lr 5e-5, decay 0.1/15
        seen = []
        tr.train(model, examples[:8], examples[8:], cfg, start_epoch=15,
                 log=lambda line: seen.append(line))
        assert "lr 5e-06" in seen[0]

    def test_resumed_run_evaluates_the_epochs_of_an_uninterrupted_one(self):
        model, examples, _ = synth_setup()

        def evaluated(epochs, start_epoch=0):
            cfg = tr.TrainConfig(epochs=epochs, eval_cadence=2, probe_size=4)
            result = tr.train(model, examples[:8], examples[8:], cfg, start_epoch=start_epoch)
            return [r.epoch for r in result.history if r.split == "val"]

        assert evaluated(4) == [1, 3]
        assert evaluated(1) == [0]  # the last epoch is always evaluated
        assert evaluated(3, start_epoch=1) == [1, 3]

    def test_non_finite_probe_is_flagged(self):
        # The <UNK> embedding row is NaN and only the validation captions
        # contain an unknown word: training stays finite, the val probe not.
        model, examples, _ = synth_setup()
        model.params["word_embedding"].data[UNK_ID] = np.nan
        val = [tr.Example(ex.image_id, TokenSeq.from_token_ids([UNK_ID, 4], 8), ex.features)
               for ex in examples[8:]]
        seen = []
        result = tr.train(model, examples[:8], val, tr.TrainConfig(epochs=1, probe_size=4),
                          log=seen.append)
        train_record, val_record = result.history
        assert train_record.finite
        assert not val_record.finite
        assert seen[0].endswith("NON-FINITE probe gradient (val)")
        header = tr.analysis.METRICS_CSV_HEADER
        assert val_record.csv_row().count(",") == header.count(",")


class TestCheckpointRoundTrip:
    def test_cnn_forward_bit_identical(self, tmp_path):
        model, examples, vocab = synth_setup(attention=True, hidden_dim=64, spatial_channels=64,
                                             grid_size=4, weight_norm=True, residual=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, seed=3, epoch=7, vocab=vocab)
        loaded = load_checkpoint(path)
        assert loaded.kind == "cnn"
        assert loaded.seed == 3 and loaded.epoch == 7
        ex = examples[0]
        a = model.forward_probs(ex.seq.input_ids, ex.features)
        b = loaded.model.forward_probs(ex.seq.input_ids, ex.features)
        assert np.array_equal(a, b)

    def test_loaded_arrays_are_bit_identical_writable_copies(self, tmp_path):
        model, _, vocab = synth_setup(weight_norm=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, seed=3, epoch=7, vocab=vocab)
        loaded = load_checkpoint(path).model
        for name, t in model.parameters().items():
            arr = loaded.params[name].data
            assert arr.dtype == np.float64 and arr.flags.writeable, name
            assert arr.tobytes() == t.data.tobytes(), name
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, loaded, seed=3, epoch=7, vocab=vocab)
        assert again.read_bytes() == path.read_bytes()

    def test_lstm_kind_tag(self, tmp_path):
        model = lm.init_params(lm.LstmConfig(vocab_size=9, embed_dim=4, hidden_dim=5,
                                             max_steps=4, feature_dim=6), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, seed=0, epoch=0)
        assert load_checkpoint(path).kind == "lstm"

    def test_config_mismatch_rejected(self, tmp_path):
        model, _, _ = synth_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, seed=0, epoch=0)
        other = cm.ModelConfig(vocab_size=model.config.vocab_size, embed_dim=16,
                               hidden_dim=8, num_layers=2, kernel_widths=(2, 2),
                               bottleneck_dim=4, max_steps=8, feature_dim=96)
        with pytest.raises(CheckpointMismatchError, match="embed_dim"):
            load_checkpoint(path, expect_config=other)

    def test_config_of_the_other_kind_rejected(self, tmp_path):
        model, _, _ = synth_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, seed=0, epoch=0)
        other = lm.LstmConfig(vocab_size=model.config.vocab_size, embed_dim=8,
                              hidden_dim=8, max_steps=8, feature_dim=96)
        with pytest.raises(CheckpointMismatchError,
                           match="on attention, bottleneck_dim, dropout_p, grid_size, "
                                 "kernel_widths, num_layers, residual, spatial_channels, "
                                 "weight_norm$"):
            load_checkpoint(path, expect_config=other)

    def test_matching_config_accepted(self, tmp_path):
        model, _, _ = synth_setup()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, seed=0, epoch=0)
        assert load_checkpoint(path, expect_config=model.config).kind == "cnn"


@pytest.mark.parametrize("field, value, fragment", [
    ("decay_period", 0, "decay_period, epochs and batch_size must be >= 1"),
    ("epochs", 0, "decay_period, epochs and batch_size must be >= 1"),
    ("batch_size", 0, "decay_period, epochs and batch_size must be >= 1"),
    ("rms_alpha", 1.0, "rms_alpha must be in (0, 1) and rms_epsilon > 0"),
    ("rms_epsilon", 0.0, "rms_alpha must be in (0, 1) and rms_epsilon > 0"),
    ("eval_cadence", 0, "eval_cadence and probe_size must be >= 1"),
    ("probe_size", 0, "eval_cadence and probe_size must be >= 1"),
])
def test_config_range_checks_raise_value_error(field, value, fragment):
    with pytest.raises(ValueError) as caught:
        tr.TrainConfig(**{field: value})
    assert fragment in str(caught.value)
