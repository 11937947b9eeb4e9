from types import SimpleNamespace

import numpy as np
import pytest

from captionkit import autodiff as ad
from captionkit import convmodel as cm
from captionkit import decoding as dec
from captionkit import lstmmodel as lm
from captionkit.data import END_ID, START_ID, ImageFeatures, TokenSeq, Vocabulary, decode


def tiny_model(vocab_size=6, seed=0, **overrides):
    cfg = dict(
        vocab_size=vocab_size,
        embed_dim=4,
        hidden_dim=5,
        num_layers=2,
        kernel_widths=(2, 2),
        bottleneck_dim=3,
        max_steps=4,
        feature_dim=5,
        dropout_p=0.0,
    )
    cfg.update(overrides)
    model = cm.init_params(cm.ModelConfig(**cfg), seed=seed)
    rng = np.random.default_rng(seed + 100)
    for t in model.params.values():
        t.data[:] = rng.normal(scale=0.7, size=t.data.shape)
    return model, ImageFeatures(rng.normal(size=cfg["feature_dim"]))


def exhaustive_best(model, features, max_steps):
    """Score every terminating or length-capped sequence with the same
    per-prefix forwards beam search uses, and return the argmax."""
    vocab = model.config.vocab_size
    best = None

    def consider(logprob, tokens):
        nonlocal best
        if best is None or (logprob, [-t for t in tokens]) > (best[0], [-t for t in best[1]]):
            best = (logprob, tokens)

    def visit(prefix, logprob):
        probs = dec._next_distribution(model, prefix, features)
        logp = np.log(np.maximum(probs, 1e-300))
        consider(logprob + float(logp[END_ID]), tuple(prefix))
        for token_id in range(vocab):
            if token_id == END_ID:
                continue
            extended = logprob + float(logp[token_id])
            if len(prefix) + 1 == max_steps:
                consider(extended, tuple(prefix) + (token_id,))
            else:
                visit(list(prefix) + [token_id], extended)

    visit([], 0.0)
    return best


class TestGreedy:
    def test_forced_end_gives_empty_caption(self):
        model, feats = tiny_model()
        model.params["output_b"].data[:] = 0.0
        model.params["output_b"].data[END_ID] = 50.0
        seq = dec.greedy_decode(model, feats)
        assert seq.valid_len == 1
        assert list(seq.target_ids) == [END_ID] * 5

    def test_equals_beam_one_bit_exact(self):
        for seed in range(8):
            model, feats = tiny_model(seed=seed)
            greedy = dec.greedy_decode(model, feats)
            (beam_seq, _), = dec.beam_search(model, feats, beam_size=1)
            assert np.array_equal(greedy.target_ids, beam_seq.target_ids)

    def test_respects_max_steps(self):
        model, feats = tiny_model()
        model.params["output_b"].data[:] = 0.0
        model.params["output_b"].data[3] = 50.0  # never ends on its own
        seq = dec.greedy_decode(model, feats, max_steps=3)
        assert list(seq.target_ids[:3]) == [3, 3, 3]
        assert seq.valid_len == 4


    def test_eval_forwards_draw_no_generator(self, monkeypatch):
        model, feats = tiny_model(dropout_p=0.3)
        want = dec.greedy_decode(model, feats)

        def no_generator(rng):
            raise AssertionError("an evaluation forward built a generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        model.forward([[START_ID, 2, 3]], [feats])
        model.forward(np.array([[START_ID, 2], [START_ID, 4]]), [feats, feats])
        assert np.array_equal(dec.greedy_decode(model, feats).target_ids, want.target_ids)


def fresh_model(kind):
    """An untrained model with V = 7: its zero output layer makes every
    next-token distribution uniform, so every step is an exact tie."""
    if kind == "lstm":
        config = lm.LstmConfig(vocab_size=7, embed_dim=4, hidden_dim=5, max_steps=4,
                               feature_dim=5)
        return lm.init_params(config, seed=0)
    config = cm.ModelConfig(vocab_size=7, embed_dim=4, hidden_dim=5, num_layers=2,
                            kernel_widths=(2, 2), bottleneck_dim=3, max_steps=4,
                            feature_dim=5)
    return cm.init_params(config, seed=0)


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_exact_ties_end_the_caption_in_every_decoder(kind):
    model = fresh_model(kind)
    feats = ImageFeatures(np.linspace(-1.0, 1.0, 5))
    (beam1, logprob), = dec.beam_search(model, feats, beam_size=1)
    greedy = dec.greedy_decode(model, feats)
    sampled = dec.sample_decode(model, feats, temperature=1e-9, seed=3)
    for seq in (beam1, greedy, sampled):
        assert seq.valid_len == 1
        assert list(seq.target_ids) == [END_ID] * 5
    assert logprob == pytest.approx(np.log(1 / 7), abs=1e-12)


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
@pytest.mark.parametrize("beam_size", [2, 3])
def test_exact_ties_at_width_above_one_rank_end_then_lowest_id(kind, beam_size):
    # Every row is uniform over V = 7, so each extension costs ln(1/7): the
    # caption ended now ranks first, then the one continued with token 0.
    model = fresh_model(kind)
    feats = ImageFeatures(np.linspace(-1.0, 1.0, 5))
    ranked = dec.beam_search(model, feats, beam_size=beam_size)
    want = [(), (0,), (0, 0)][:beam_size]
    assert [tuple(seq.target_ids[:seq.valid_len - 1]) for seq, _ in ranked] == want
    for n, (seq, logprob) in enumerate(ranked, 1):
        assert seq.valid_len == n
        assert logprob == pytest.approx(n * np.log(1 / 7), abs=1e-12)


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_decoding_keeps_every_generated_token(kind):
    # A generated <S> is a token like any other: the three tied beams
    # decode to three different captions.
    vocab = Vocabulary(["<S>", "<E>", "<UNK>", "a", "b", "c", "d"])
    ranked = dec.beam_search(fresh_model(kind), ImageFeatures(np.linspace(-1.0, 1.0, 5)),
                             beam_size=3)
    assert [decode(seq.target_ids, vocab) for seq, _ in ranked] == [[], ["<S>"], ["<S>", "<S>"]]


class TieModel:
    """Hand-set next-token rows over V = 5 in which hypotheses of different
    scores tie exactly, since log(.5) + log(.3) == log(.3) + log(.5)."""

    config = SimpleNamespace(vocab_size=5, max_steps=3)
    rows = {
        (): {3: 0.5, 2: 0.3, 4: 0.1, END_ID: 0.05, 0: 0.05},
        (3,): {2: 0.6, 4: 0.3, END_ID: 0.05, 0: 0.025, 3: 0.025},
        (2,): {4: 0.5, END_ID: 0.5},
    }
    ending = {END_ID: 0.96, 0: 0.01, 2: 0.01, 3: 0.01, 4: 0.01}

    def start(self, features):
        return [()]  # the input ids of each live hypothesis

    def next_probs(self, state, rows, token_ids):
        state = [state[row] + (token_id,) for row, token_id in zip(rows, token_ids)]
        probs = np.zeros((len(state), 5))
        for row, ids in enumerate(state):
            for token_id, p in self.rows.get(ids[1:], self.ending).items():
                probs[row, token_id] = p
        return state, probs


def test_ties_across_hypotheses_rank_end_then_lower_ids():
    # The live prefixes after step 1 are (3,) and (2,), best first. At step 2
    # (3, 2) leads, and (2,) ended, (2, 4) and (3, 4) tie for the two slots
    # left: the ended one ranks first, then the lower token ids.
    ranked = dec.beam_search(TieModel(), None, beam_size=3)
    assert [tuple(seq.target_ids[:seq.valid_len - 1]) for seq, _ in ranked] == [(3, 2), (2,), (2, 4)]


@pytest.mark.parametrize("decoder", [dec.greedy_decode, dec.sample_decode, dec.beam_search])
def test_max_steps_below_one_rejected(decoder):
    model, feats = tiny_model()
    with pytest.raises(ValueError, match="max_steps must be >= 1, got 0"):
        decoder(model, feats, max_steps=0)


def stepping_model(kind):
    """Criterion 3's conv config (attention, weight norm, residual), or an
    LSTM of the same widths, with every parameter drawn at random."""
    if kind == "cnn":
        model = cm.init_params(cm.ModelConfig(
            vocab_size=9, embed_dim=6, hidden_dim=8, num_layers=3,
            kernel_widths=(2, 3, 3), bottleneck_dim=5, max_steps=8,
            feature_dim=6, dropout_p=0.0, attention=True, residual=True,
            weight_norm=True, grid_size=2, spatial_channels=8,
        ), 0)
    else:
        model = lm.init_params(lm.LstmConfig(vocab_size=9, embed_dim=6, hidden_dim=8,
                                             max_steps=8, feature_dim=6), 0)
    rng = np.random.default_rng(41)
    for t in model.params.values():
        t.data[:] = rng.normal(scale=0.5, size=t.data.shape)
    return model, ImageFeatures(rng.normal(size=6), rng.normal(size=(2, 2, 8)))


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
class TestStepping:
    """The decoders' step path equals the full-prefix forward with ==."""

    def test_each_step_is_the_forward_row(self, kind):
        # Step t is row t of the forward over the first t + 1 ids. The LSTM's
        # rows do not depend on later ids, so its full forward matches too; a
        # conv pass of one row rounds unlike a longer one (one-row products),
        # so there the full forward is only criterion 3's 1e-9 away.
        model, feats = stepping_model(kind)
        ids = np.random.default_rng(5).integers(0, 9, size=9)
        full = model.forward_probs(ids, feats)
        state = model.start(feats)
        for t, token_id in enumerate(ids):
            state, probs = model.next_probs(state, [0], [token_id])
            assert probs.shape == (1, 9)
            assert np.array_equal(probs[0], model.forward_probs(ids[:t + 1], feats)[t])
            if kind == "lstm":
                assert np.array_equal(probs[0], full[t])
            assert np.allclose(probs[0], full[t], rtol=0.0, atol=1e-9)

    def test_batched_step_equals_each_prefix_alone(self, kind):
        model, feats = stepping_model(kind)
        state, _ = model.next_probs(model.start(feats), [0], [START_ID])
        state, probs = model.next_probs(state, [0, 0, 0], [4, 2, 7])
        for prefix, row in zip([(4,), (2,), (7,)], probs):
            assert np.array_equal(row, dec._next_distribution(model, prefix, feats))
        # Rows reordered, one dropped and one kept twice.
        state, probs = model.next_probs(state, [2, 0, 0], [1, 5, 3])
        for prefix, row in zip([(7, 1), (4, 5), (4, 3)], probs):
            assert np.array_equal(row, dec._next_distribution(model, prefix, feats))

    def test_sampling_equals_a_full_prefix_loop(self, kind):
        model, feats = stepping_model(kind)
        limit = model.config.max_steps
        for temperature in (0.7, 1.0):
            for seed in range(20):
                rng = np.random.default_rng(seed)
                want: list[int] = []
                for _ in range(limit):
                    probs = dec._next_distribution(model, want, feats)
                    logits = np.log(np.maximum(probs, 1e-300)) / temperature
                    logits -= logits.max()
                    tempered = np.exp(logits)
                    tempered /= tempered.sum()
                    token_id = int(rng.choice(len(tempered), p=tempered))
                    if token_id == END_ID:
                        break
                    want.append(token_id)
                got = dec.sample_decode(model, feats, temperature=temperature, seed=seed)
                assert got.target_ids.tolist() == TokenSeq.from_token_ids(want, limit).target_ids.tolist()
                assert got.valid_len == len(want) + 1

    def test_the_decoding_view_is_the_model_untracked(self, kind):
        # The conv model is weight-normed: its view keeps that config and the
        # v/g parameters, and carries the resolved kernels in the state.
        model, feats = stepping_model(kind)
        state = model.start(feats)
        view = state[0]
        assert type(view) is type(model) and view.config == model.config
        assert list(view.params) == list(model.params)
        for name, t in view.params.items():
            assert t.data is model.params[name].data and not t.requires_grad, name
        if kind == "cnn":
            assert [k.data.tolist() for k in state[1]] == [
                k.data.tolist() for k in model._kernels()]

    def test_decoding_builds_no_graph_and_leaves_the_model_alone(self, kind, monkeypatch):
        model, feats = stepping_model(kind)
        config, params = model.config, dict(model.params)
        before = {name: t.data.copy() for name, t in params.items()}
        node, tracked = ad._node, []

        def recording_node(data, parents, bw):
            out = node(data, parents, bw)
            tracked.append(out._bw is not None)
            return out

        monkeypatch.setattr(ad, "_node", recording_node)
        dec.beam_search(model, feats, beam_size=3)
        dec.sample_decode(model, feats, seed=1)
        assert tracked and not any(tracked)
        assert model.config is config and model.config == config
        assert model.params.keys() == params.keys()
        for name, t in model.params.items():
            assert t is params[name]
            assert np.array_equal(t.data, before[name])


class TestOverfitOracle:
    def test_greedy_reproduces_overfit_corpus_exactly(self):
        # 10 scenes, attention model, constant lr 1e-3: the loss passes
        # through a transient spike near epoch 150, then settles around 1e-4
        # by epoch 300 with every training caption decoded exactly.
        from captionkit import training as tr
        from captionkit.data import build_vocab, synth_corpus

        records, _ = synth_corpus(10, seed=4, spatial_channels=16)
        vocab = build_vocab(r.caption for r in records)
        cfg = cm.ModelConfig(
            vocab_size=vocab.size, embed_dim=16, hidden_dim=16, num_layers=2,
            kernel_widths=(2, 3), bottleneck_dim=8, max_steps=8, feature_dim=96,
            dropout_p=0.0, attention=True, grid_size=4, spatial_channels=16,
        )
        model = cm.init_params(cfg, seed=1)
        examples = tr.prepare_examples(records, vocab, 8)
        tr.train(model, examples, [], tr.TrainConfig(
            learning_rate=1e-3, decay_period=1000, epochs=300, batch_size=2,
            seed=0, probe_size=10,
        ))
        for ex in examples:
            seq = dec.greedy_decode(model, ex.features)
            assert np.array_equal(seq.target_ids, ex.seq.target_ids)


class TestSample:
    def test_same_seed_identical(self):
        model, feats = tiny_model(seed=3)
        a = dec.sample_decode(model, feats, temperature=1.0, seed=11)
        b = dec.sample_decode(model, feats, temperature=1.0, seed=11)
        assert np.array_equal(a.target_ids, b.target_ids)

    def test_tiny_temperature_is_greedy(self):
        model, feats = tiny_model(seed=4)
        sampled = dec.sample_decode(model, feats, temperature=1e-9, seed=5)
        greedy = dec.greedy_decode(model, feats)
        assert np.array_equal(sampled.target_ids, greedy.target_ids)

    def test_non_positive_temperature_rejected(self):
        model, feats = tiny_model()
        with pytest.raises(ValueError):
            dec.sample_decode(model, feats, temperature=0.0)

    def test_nan_temperature_rejected_before_any_step(self, monkeypatch):
        model, feats = tiny_model()
        monkeypatch.setattr(type(model), "next_probs", lambda *a: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match="temperature must be > 0, got nan"):
            dec.sample_decode(model, feats, temperature=float("nan"))

    def test_first_token_frequencies_within_3_sigma(self):
        model, feats = tiny_model(vocab_size=3, seed=6)
        expected = model.forward_probs(np.array([START_ID]), feats)[0]
        n = 10_000
        counts = np.zeros(3)
        for i in range(n):
            seq = dec.sample_decode(model, feats, temperature=1.0, seed=i)
            counts[seq.target_ids[0]] += 1
        freqs = counts / n
        for token_id in range(3):
            sigma = np.sqrt(expected[token_id] * (1 - expected[token_id]) / n)
            assert abs(freqs[token_id] - expected[token_id]) <= 3 * sigma


class TestBeamSearch:
    @pytest.mark.filterwarnings("ignore:beam size")
    def test_matches_exhaustive_enumeration(self):
        for seed in range(3):
            model, feats = tiny_model(vocab_size=6, max_steps=3, seed=seed)
            best_logprob, best_tokens = exhaustive_best(model, feats, 3)
            results = dec.beam_search(model, feats, beam_size=6**3)
            top_seq, top_logprob = results[0]
            assert top_logprob == best_logprob
            assert tuple(top_seq.target_ids[: len(best_tokens)]) == best_tokens
            assert top_seq.valid_len == len(best_tokens) + 1

    def test_wide_beam_warns(self):
        model, feats = tiny_model()
        with pytest.warns(UserWarning, match="exceeds vocabulary"):
            dec.beam_search(model, feats, beam_size=100)

    def test_top1_logprob_non_decreasing_in_beam_size(self):
        for seed in range(6):
            model, feats = tiny_model(seed=seed)
            scores = [dec.beam_search(model, feats, beam_size=k)[0][1] for k in (1, 2, 3, 4)]
            for small, large in zip(scores, scores[1:]):
                assert large >= small

    def test_no_tokens_after_end(self):
        for seed in range(4):
            model, feats = tiny_model(seed=seed)
            for seq, _ in dec.beam_search(model, feats, beam_size=4):
                body = seq.target_ids[: seq.valid_len - 1]
                assert END_ID not in body
                assert np.all(seq.target_ids[seq.valid_len - 1:] == END_ID)

    def test_finished_scores_include_end_token(self):
        model, feats = tiny_model(seed=9)
        model.params["output_b"].data[:] = 0.0
        model.params["output_b"].data[END_ID] = 50.0
        (seq, logprob), *_ = dec.beam_search(model, feats, beam_size=2)
        probs = model.forward_probs(np.array([START_ID]), feats)
        assert seq.valid_len == 1
        assert logprob == pytest.approx(float(np.log(probs[0, END_ID])), abs=1e-12)

    def test_invalid_beam_size(self):
        model, feats = tiny_model()
        with pytest.raises(ValueError):
            dec.beam_search(model, feats, beam_size=0)

    def test_ranked_order_is_descending(self):
        model, feats = tiny_model(seed=12)
        results = dec.beam_search(model, feats, beam_size=5)
        scores = [lp for _, lp in results]
        assert scores == sorted(scores, reverse=True)


class TestHypothesis:
    def test_logprob_non_increasing_as_tokens_append(self):
        model, feats = tiny_model(seed=13)
        results = dec.beam_search(model, feats, beam_size=3)
        for seq, logprob in results:
            assert logprob <= 0.0
