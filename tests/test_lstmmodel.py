import numpy as np
import pytest

from captionkit import autodiff as ad
from captionkit import lstmmodel as lm
from captionkit.data import ImageFeatures
from conftest import assert_grads_close, finite_difference


def tiny_config(**overrides):
    base = dict(vocab_size=7, embed_dim=4, hidden_dim=5, max_steps=4, feature_dim=6)
    base.update(overrides)
    return lm.LstmConfig(**base)


def tiny_features(seed=0):
    return ImageFeatures(np.random.default_rng(seed).normal(size=6))


def randomized(model, seed):
    rng = np.random.default_rng(seed)
    for t in model.params.values():
        t.data[:] = rng.normal(scale=0.5, size=t.data.shape)
    return model


class TestStep:
    def test_zero_weights_zero_state_uniform(self):
        model = lm.init_params(tiny_config(), 0)
        for t in model.params.values():
            t.data[:] = 0.0
        state = model.init_state([ImageFeatures(np.zeros(6))])
        _, probs = model.step(state, 3)
        assert np.allclose(probs.data, 1.0 / 7.0, atol=1e-15)

    def test_step_is_deterministic(self):
        model = randomized(lm.init_params(tiny_config(), 0), 1)
        feats = [tiny_features(2)]
        s1, p1 = model.step(model.init_state(feats), 4)
        s2, p2 = model.step(model.init_state(feats), 4)
        assert np.array_equal(p1.data, p2.data)
        assert np.array_equal(s1[1].data, s2[1].data)
        assert np.array_equal(s1[0].data, s2[0].data)

    def test_single_step_nll_gradient(self):
        model = randomized(lm.init_params(tiny_config(), 0), 3)
        feats = [tiny_features(4)]
        target = 5

        def loss_value():
            _, probs = model.step(model.init_state(feats), 2)
            return -np.log(probs.data[0, 0, target])

        _, probs = model.step(model.init_state(feats), 2)
        loss = ad.mul(ad.sum_all(ad.log(ad.pick(probs, [[target]]))), ad.Tensor(-1.0))
        grads = ad.backward(ad.sum_all(loss))
        for name, tensor in model.params.items():
            fd = finite_difference(loss_value, [tensor.data])[0]
            assert_grads_close(grads[tensor], fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("batch", [None, 3])
    def test_a_step_builds_at_most_nine_op_results(self, batch, monkeypatch):
        model = randomized(lm.init_params(tiny_config(), 0), 1)
        if batch is None:
            features, tokens = [tiny_features(2)], 4
        else:
            features, tokens = [tiny_features(s) for s in range(batch)], [4, 0, 6]
        state = model.init_state(features)
        node, made = ad._node, []

        def counting_node(data, parents, bw):
            made.append(bw)
            return node(data, parents, bw)

        monkeypatch.setattr(ad, "_node", counting_node)
        for step in (1, 2):
            state, probs = model.step(state, tokens)
            assert len(made) <= 9 * step
        assert probs.requires_grad

    def test_out_of_vocab_rejected(self):
        model = lm.init_params(tiny_config(), 0)
        with pytest.raises(ad.OutOfVocabularyError):
            model.step(model.init_state([tiny_features()]), 7)


class TestForward:
    def test_matches_step_composition_bit_exact(self):
        model = randomized(lm.init_params(tiny_config(), 0), 5)
        feats = tiny_features(6)
        ids = [0, 3, 6, 2]
        full, _ = model.forward([ids], [feats])
        state = model.init_state([feats])
        for i, token_id in enumerate(ids):
            state, probs = model.step(state, token_id)
            assert np.array_equal(full.data[0, i], probs.data[0, 0])

    def test_default_length_unroll_has_16_rows(self):
        model = lm.init_params(tiny_config(max_steps=15), 0)
        ids = np.zeros(16, dtype=np.int64)
        probs, _ = model.forward(ids[None], [tiny_features()])
        assert probs.data[0].shape == (16, 7)

    def test_depends_on_earlier_tokens_invariant_to_later(self):
        model = randomized(lm.init_params(tiny_config(), 0), 7)
        feats = tiny_features(8)
        ids = np.array([0, 3, 6, 2, 5])
        base = model.forward_probs(ids, feats)
        later = ids.copy()
        later[3] = 4
        out = model.forward_probs(later, feats)
        assert np.array_equal(out[:3], base[:3])
        assert not np.array_equal(out[3:], base[3:])
        earlier = ids.copy()
        earlier[1] = 4
        out = model.forward_probs(earlier, feats)
        assert not np.array_equal(out[1], base[1])

    def test_image_enters_via_initial_state_only(self):
        model = randomized(lm.init_params(tiny_config(), 0), 9)
        f1, f2 = tiny_features(10), tiny_features(11)
        a = model.forward_probs([0, 1, 2], f1)
        b = model.forward_probs([0, 1, 2], f2)
        assert not np.array_equal(a, b)  # image does matter ...
        s1 = model.init_state([f1])
        s2 = (s1[0], s1[1])
        _, p1 = model.step(s1, 3)
        _, p2 = model.step(s2, 3)
        assert np.array_equal(p1.data, p2.data)  # ... but only through state

    def test_teacher_forced_gradient(self):
        model = randomized(lm.init_params(tiny_config(), 0), 12)
        feats = tiny_features(13)
        ids = np.array([0, 4, 1])
        targets = np.array([4, 1, 2])

        probs, _ = model.forward(ids[None], [feats])
        loss = ad.mul(ad.sum_all(ad.log(ad.pick(probs, targets[None]))), ad.Tensor(-1.0 / 3))
        grads = ad.backward(loss)

        def ref():
            return -np.log(model.forward_probs(ids, feats)[np.arange(3), targets]).sum() / 3

        for name, tensor in model.params.items():
            fd = finite_difference(ref, [tensor.data])[0]
            assert_grads_close(grads[tensor], fd, rtol=1e-4, atol=1e-8)

    def test_parameter_count_matches_instantiation(self):
        cfg = tiny_config()
        model = lm.init_params(cfg, 0)
        assert sum(t.data.size for t in model.params.values()) == lm.parameter_count(cfg)


@pytest.mark.parametrize("field", ["vocab_size", "embed_dim", "hidden_dim", "max_steps",
                                   "feature_dim"])
def test_config_rejects_dimensions_below_one(field):
    with pytest.raises(ValueError, match="all dimensions must be >= 1"):
        tiny_config(**{field: 0})
