import math

import numpy as np
import pytest

from captionkit import analysis
from captionkit import autodiff as ad
from captionkit import convmodel as cm
from captionkit import lstmmodel as lm
from captionkit.data import END_ID, ImageFeatures, TokenSeq, build_vocab, encode, synth_corpus
from captionkit.training import Example, TrainConfig, prepare_examples, train


class TestBleu:
    def test_identity_is_exactly_one(self):
        ref = "the quick brown fox jumps over the lazy dog".split()
        scores = analysis.bleu([ref], [[ref]])
        for s in scores:
            assert s == 1.0

    def test_clipping_case(self):
        # candidate "the the the the" vs reference "the cat sat":
        # clipped unigram matches = 1 (ref has one "the"), total = 4,
        # candidate longer than reference -> no brevity penalty.
        scores = analysis.bleu([["the"] * 4], [[["the", "cat", "sat"]]])
        assert scores[0] == pytest.approx(0.25, abs=1e-9)

    def test_brevity_penalty_case(self):
        # candidate "the cat" vs reference "the cat sat": p1 = p2 = 1,
        # BP = exp(1 - 3/2).
        scores = analysis.bleu([["the", "cat"]], [[["the", "cat", "sat"]]])
        assert scores[0] == pytest.approx(math.exp(1.0 - 1.5), abs=1e-9)
        assert scores[1] == pytest.approx(math.exp(1.0 - 1.5), abs=1e-9)

    def test_zero_fourgram_overlap_is_tiny(self):
        cand = "a b c d e".split()
        ref = "a x c y e".split()
        scores = analysis.bleu([cand], [[ref]])
        assert scores[3] <= 1e-2

    def test_multiple_references_clip_to_max(self):
        cand = ["the", "the"]
        refs = [["the", "cat"], ["the", "the", "sat"]]
        scores = analysis.bleu([cand], [refs])
        assert scores[0] == pytest.approx(1.0, abs=1e-9)  # second ref allows both

    def test_corpus_reorder_invariance(self):
        cands = [["a", "b"], ["c", "d", "e"], ["f"]]
        refs = [[["a", "x"]], [["c", "d", "y"]], [["f", "g"]]]
        forward = analysis.bleu(cands, refs)
        backward = analysis.bleu(cands[::-1], refs[::-1])
        assert forward == backward

    def test_bleu_n_non_increasing_on_typical_corpus(self):
        cands = [["a", "b", "c", "d"], ["a", "c", "c", "d"]]
        refs = [[["a", "b", "c", "d"]], [["a", "b", "c", "d"]]]
        scores = analysis.bleu(cands, refs)
        for small, large in zip(scores[1:], scores):
            assert small <= large + 1e-12

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            analysis.bleu([], [])

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError):
            analysis.bleu([["a"]], [])


class _FixedModel:
    """Stub exposing forward_probs with preset rows, for metric closed forms."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def forward_probs(self, ids, features):
        return self.rows[: len(ids)]


def _example(target_ids, n):
    seq = TokenSeq.from_token_ids(target_ids, n)
    return Example("img", seq, ImageFeatures(np.zeros(3)))


class TestEntropyProfile:
    def test_uniform_model_gives_log_vocab(self):
        rows = np.full((4, 8), 1.0 / 8.0)
        value = analysis.entropy_profile(_FixedModel(rows), [_example([3, 4], 3)])
        assert value == pytest.approx(math.log(8.0), abs=1e-12)

    def test_one_hot_rows_give_zero(self):
        rows = np.zeros((4, 8))
        rows[:, 2] = 1.0
        value = analysis.entropy_profile(_FixedModel(rows), [_example([3, 4], 3)])
        assert value == 0.0

    def test_half_half_gives_log_two(self):
        rows = np.zeros((2, 6))
        rows[:, 0] = 0.5
        rows[:, 1] = 0.5
        value = analysis.entropy_profile(_FixedModel(rows), [_example([3], 1)])
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_invariant_to_padding_length(self):
        rows = np.full((10, 8), 1.0 / 8.0)
        short = analysis.entropy_profile(_FixedModel(rows), [_example([3, 4], 3)])
        long = analysis.entropy_profile(_FixedModel(rows), [_example([3, 4], 9)])
        assert short == long


class TestWordAccuracy:
    def test_perfect_model(self):
        rows = np.zeros((3, 6))
        targets = [3, 4, END_ID]
        rows[np.arange(3), targets] = 1.0
        value = analysis.word_accuracy(_FixedModel(rows), [_example([3, 4], 2)])
        assert value == 1.0

    def test_uniform_model_near_chance(self):
        vocab = 6
        rows = np.full((40, vocab), 1.0 / vocab)
        rng = np.random.default_rng(0)
        hits = 0
        total = 0
        examples = []
        for _ in range(200):
            tokens = [int(t) for t in rng.integers(0, vocab, size=3)]
            examples.append(_example(tokens, 3))
        value = analysis.word_accuracy(_FixedModel(rows), examples)
        # uniform rows argmax to id 0 (lowest-id ties), so expected hit rate
        # is the target marginal of id 0: 3/4 positions random + <E> slot never 0.
        n = 200 * 4
        p = (3.0 / 4.0) * (1.0 / vocab)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(value - p) <= 3 * sigma

    def test_tie_break_matches_greedy_rule(self):
        # tied mass on ids 2 and 3: argmax must resolve to the lower id (2),
        # so a target of 2 scores the caption position and 3 does not; the
        # trailing <E> position misses either way.
        row = np.zeros((1, 4))
        row[0, 2] = 0.5
        row[0, 3] = 0.5
        model = _FixedModel(np.vstack([row, row]))
        hit = analysis.word_accuracy(model, [_example([2], 1)])
        miss = analysis.word_accuracy(model, [_example([3], 1)])
        assert (hit, miss) == (0.5, 0.0)


class TestGradNormProbe:
    def _model_examples(self):
        cfg = cm.ModelConfig(
            vocab_size=7, embed_dim=4, hidden_dim=5, num_layers=2,
            kernel_widths=(2, 2), bottleneck_dim=3, max_steps=4,
            feature_dim=6, dropout_p=0.0,
        )
        model = cm.init_params(cfg, seed=0)
        rng = np.random.default_rng(1)
        for t in model.params.values():
            t.data[:] = rng.normal(scale=0.5, size=t.data.shape)
        vocab = build_vocab([["w1", "w2", "w3", "w4"]])
        records = []
        feats = ImageFeatures(rng.normal(size=6))
        ex = Example("a", encode(["w1", "w3"], vocab, 4), feats)
        return model, [ex]

    def test_saturated_correct_model_has_zero_norms(self):
        model, examples = self._model_examples()
        ex = examples[0]
        target = int(ex.seq.target_ids[0])
        same_target = TokenSeq.from_token_ids([target] * 4, 4)
        # Saturate the classifier bias so every row is exactly one-hot on the
        # single repeated target; exp(-800) underflows to zero, so the loss
        # and both probe gradients are exactly zero.
        model.params["output_w"].data[:] = 0.0
        model.params["output_b"].data[:] = 0.0
        model.params["output_b"].data[target] = 800.0
        probe = analysis.grad_norm_probe(
            model, [Example("a", same_target, ex.features)]
        )
        assert probe.grad_norm_in == 0.0
        assert probe.grad_norm_out == 0.0
        assert probe.finite

    def test_norms_match_manual_gradient(self):
        from captionkit import autodiff as ad

        model, examples = self._model_examples()
        ex = examples[0]
        probe = analysis.grad_norm_probe(model, examples)
        ad.zero_gradients(model.params)
        probs, _ = model.forward(ex.seq.input_ids, ex.features)
        rows = ex.seq.valid_len
        sel = ad.pick(probs, ex.seq.target_ids[:rows])
        loss = ad.scale(ad.sum_all(ad.log(sel)), -1.0 / rows)
        ad.backward(loss)
        assert probe.grad_norm_in == pytest.approx(
            float(np.linalg.norm(model.word_embedding.grad)), rel=1e-12
        )
        assert probe.grad_norm_out == pytest.approx(
            float(np.linalg.norm(model.output_projection.grad)), rel=1e-12
        )

    def test_norm_matches_finite_difference_directional_estimate(self):
        from conftest import assert_grads_close, finite_difference

        model, examples = self._model_examples()
        ex = examples[0]
        analysis.grad_norm_probe(model, examples)  # smoke: probe runs
        from captionkit import autodiff as ad

        ad.zero_gradients(model.params)
        probs, _ = model.forward(ex.seq.input_ids, ex.features)
        rows = ex.seq.valid_len
        loss = ad.scale(
            ad.sum_all(ad.log(ad.pick(probs, ex.seq.target_ids[:rows]))), -1.0 / rows
        )
        ad.backward(loss)

        def ref():
            p = model.forward_probs(ex.seq.input_ids, ex.features)
            sel = p[np.arange(rows), ex.seq.target_ids[:rows]]
            return -np.log(sel).sum() / rows

        for name in ("word_embedding", "output_w"):
            tensor = model.params[name]
            fd = finite_difference(ref, [tensor.data])[0]
            assert_grads_close(tensor.grad, fd, rtol=1e-4, atol=1e-8)


def _probe_setup(kind):
    records, vocab = synth_corpus(6, seed=3, grid_size=2, spatial_channels=8)
    if kind == "lstm":
        model = lm.init_params(lm.LstmConfig(vocab.size, embed_dim=6, hidden_dim=8,
                                             max_steps=8, feature_dim=96), seed=2)
    else:
        model = cm.init_params(cm.ModelConfig(
            vocab_size=vocab.size, embed_dim=6, hidden_dim=8, num_layers=3,
            kernel_widths=(2, 3, 3), bottleneck_dim=5, max_steps=8, feature_dim=96,
            dropout_p=0.2, weight_norm=True, residual=True, attention=True,
            grid_size=2, spatial_channels=8,
        ), seed=2)
    rng = np.random.default_rng(4)
    for t in model.params.values():
        t.data += rng.normal(scale=0.3, size=t.data.shape)
    return model, prepare_examples(records, vocab, 8)


class TestMeasurementPass:
    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_matches_forward_only_metrics_and_explicit_backward(self, kind):
        model, examples = _probe_setup(kind)
        probe = analysis.grad_norm_probe(model, examples)
        assert probe.loss == analysis.mean_nll(model, examples)
        assert probe.accuracy == analysis.word_accuracy(model, examples)
        assert probe.entropy == analysis.entropy_profile(model, examples)

        norm_in = 0.0
        norm_out = 0.0
        for ex in examples:
            ad.zero_gradients(model.params)
            probs, _ = model.forward(ex.seq.input_ids, ex.features)
            rows = ex.seq.valid_len
            sel = ad.clamp_min(ad.pick(probs, ex.seq.target_ids[:rows]), 1e-12)
            ad.backward(ad.scale(ad.sum_all(ad.log(sel)), -1.0 / rows))
            norm_in += float(np.linalg.norm(model.word_embedding.grad))
            norm_out += float(np.linalg.norm(model.output_projection.grad))
        assert probe.grad_norm_in == norm_in / len(examples)
        assert probe.grad_norm_out == norm_out / len(examples)
        assert probe.finite

    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_one_forward_and_one_backward_per_probe_example(self, kind, monkeypatch):
        model, examples = _probe_setup(kind)
        calls = {"forward": 0, "backward": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(model, "forward", counting("forward", model.forward))
        monkeypatch.setattr(ad, "backward", counting("backward", ad.backward))
        train(model, examples[:4], examples[4:], TrainConfig(epochs=1, batch_size=2, probe_size=3))
        # Updates: one forward and one backward per minibatch of 2. Probes:
        # one per chunk of at most batch_size examples, so the 3 train probe
        # examples make two chunks and the 2 val examples one.
        assert calls == {"forward": 2 + 2 + 1, "backward": 2 + 2 + 1}

    @staticmethod
    def _model_snapshot(model):
        # Mark each parameter's gradient and untrack one parameter, so that
        # a probe that touched either would show.
        model.params["image_b"].requires_grad = False
        for p in model.params.values():
            p.grad = np.full(p.data.shape, 7.0)
        return model.params, [(name, p, p.data, p.data.copy(), p.requires_grad, p.grad)
                              for name, p in model.params.items()]

    @staticmethod
    def _assert_unchanged(model, snapshot):
        params, entries = snapshot
        assert model.params is params
        assert [name for name, *_ in entries] == list(params)
        for name, p, data, values, requires_grad, grad in entries:
            assert params[name] is p and p.data is data, name
            assert np.array_equal(p.data, values), name
            assert p.requires_grad == requires_grad and p.grad is grad, name

    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_probe_leaves_the_model_as_it_found_it(self, kind):
        model, examples = _probe_setup(kind)
        snapshot = self._model_snapshot(model)
        analysis.grad_norm_probe(model, examples, batch_size=4)
        self._assert_unchanged(model, snapshot)

    def test_probe_leaves_the_model_as_it_found_it_when_a_forward_raises(self):
        model, examples = _probe_setup("cnn")
        # The second chunk has no spatial grids, which the attention model needs.
        examples = examples[:3] + [
            Example(ex.image_id, ex.seq, ImageFeatures(ex.features.global_vec))
            for ex in examples[3:]]
        snapshot = self._model_snapshot(model)
        with pytest.raises(cm.MissingFeatureError):
            analysis.grad_norm_probe(model, examples, batch_size=3)
        self._assert_unchanged(model, snapshot)

    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_batched_totals_equal_a_per_example_loop(self, kind):
        model, examples = _probe_setup(kind)
        nll = hits = entropy = rows = 0.0
        for ex in examples:
            n = ex.seq.valid_len
            probs = model.forward_probs(ex.seq.input_ids, ex.features)[:n]
            targets = ex.seq.target_ids[:n]
            nll += -np.log(np.maximum(probs[np.arange(n), targets], 1e-12)).mean()
            hits += int((probs.argmax(axis=-1) == targets).sum())
            logs = np.log(np.where(probs > 0, probs, 1.0))
            entropy += float(-np.where(probs > 0, probs * logs, 0.0).sum(axis=-1).sum())
            rows += n
        probe = analysis.grad_norm_probe(model, examples)
        assert (probe.loss, probe.accuracy, probe.entropy) == (
            nll / len(examples), hits / rows, entropy / rows)

    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_result_is_the_same_at_every_chunk_size(self, kind):
        model, examples = _probe_setup(kind)
        results = [analysis.grad_norm_probe(model, examples, size)
                   for size in (1, 2, 3, len(examples))]
        assert all(result == results[0] for result in results[1:])

    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_nan_reached_by_one_example_is_flagged(self, kind):
        model, examples = _probe_setup(kind)
        uses = [set(ex.seq.input_ids[: ex.seq.valid_len].tolist()) for ex in examples]
        token, owner = next((tok, i) for i, used in enumerate(uses) for tok in sorted(used)
                            if sum(tok in other for other in uses) == 1)
        model.word_embedding.data[token] = np.nan
        assert not analysis.grad_norm_probe(model, examples).finite
        others = examples[:owner] + examples[owner + 1:]
        assert analysis.grad_norm_probe(model, others).finite

    def test_record_carries_every_field(self):
        model, examples = _probe_setup("lstm")
        probe = analysis.grad_norm_probe(model, examples)
        record = probe.record(5, "val")
        assert (record.epoch, record.split) == (5, "val")
        assert (record.loss, record.accuracy, record.entropy) == (
            probe.loss, probe.accuracy, probe.entropy)
        assert (record.grad_norm_in, record.grad_norm_out, record.finite) == (
            probe.grad_norm_in, probe.grad_norm_out, True)


class TestUniqueWordsPerPosition:
    def test_identical_beams_count_one(self):
        seq = TokenSeq.from_token_ids([5, 6, 7], 5)
        counts = analysis.unique_words_per_position([[seq, seq], [seq]], positions=13)
        assert counts == [1, 1, 1] + [0] * 10

    def test_hand_counted_toy(self):
        a = TokenSeq.from_token_ids([3, 4], 4)
        b = TokenSeq.from_token_ids([3, 5, 6], 4)
        c = TokenSeq.from_token_ids([7], 4)
        counts = analysis.unique_words_per_position([[a, b], [c]], positions=13)
        assert counts[:4] == [2, 2, 1, 0]  # {3,7}, {4,5}, {6}, nothing

    def test_reports_thirteen_positions(self):
        counts = analysis.unique_words_per_position([], positions=13)
        assert len(counts) == 13


class TestAnalysisRecord:
    def test_csv_round_trip_shape(self):
        record = analysis.AnalysisRecord(3, "val", 1.25, 0.5, 2.0, 0.1, 0.2)
        row = record.csv_row()
        assert row.split(",")[:2] == ["3", "val"]
        assert len(row.split(",")) == len(analysis.METRICS_CSV_HEADER.split(","))
