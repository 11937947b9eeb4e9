import math

import numpy as np
import pytest

from captionkit import autodiff as ad
from captionkit import convmodel as cm
from captionkit.autodiff import Tensor
from captionkit.data import ImageFeatures, InvalidFeatureError
from conftest import assert_grads_close, finite_difference


def tiny_config(**overrides):
    base = dict(
        vocab_size=7,
        embed_dim=4,
        hidden_dim=5,
        num_layers=2,
        kernel_widths=(2, 3),
        bottleneck_dim=3,
        max_steps=4,
        feature_dim=6,
        dropout_p=0.0,
        grid_size=2,
        spatial_channels=5,
    )
    base.update(overrides)
    return cm.ModelConfig(**base)


def tiny_features(seed=0, grid=2, channels=5, feature_dim=6):
    rng = np.random.default_rng(seed)
    return ImageFeatures(
        rng.normal(size=feature_dim),
        rng.normal(size=(grid, grid, channels)),
    )


class TestModelConfig:
    def test_receptive_field(self):
        assert tiny_config().receptive_field == 3
        assert cm.ModelConfig(vocab_size=10).receptive_field == 5  # default (2,3,3)

    def test_kernel_count_must_match_layers(self):
        with pytest.raises(ValueError, match="kernel"):
            tiny_config(kernel_widths=(2,))

    def test_attention_needs_matching_channels(self):
        with pytest.raises(ValueError, match="spatial_channels"):
            tiny_config(attention=True, spatial_channels=3)

    def test_invalid_dropout(self):
        with pytest.raises(ValueError):
            tiny_config(dropout_p=1.0)


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = cm.init_params(tiny_config(attention=True, weight_norm=True), seed=5)
        b = cm.init_params(tiny_config(attention=True, weight_norm=True), seed=5)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_initial_forward_is_uniform(self):
        model = cm.init_params(tiny_config(), seed=1)
        probs, _ = model.forward([[0, 3, 4]], [tiny_features()])
        assert np.allclose(probs.data, 1.0 / 7.0, atol=1e-15)

    def test_weight_norm_init_matches_plain_init(self):
        plain = cm.init_params(tiny_config(), seed=3)
        normed = cm.init_params(tiny_config(weight_norm=True), seed=3)
        feats = tiny_features()
        a, _ = plain.forward([[0, 2, 5]], [feats])
        b, _ = normed.forward([[0, 2, 5]], [feats])
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_parameter_count_closed_form_full_scale(self):
        cfg = cm.ModelConfig(vocab_size=9221, attention=True, weight_norm=True)
        expected = (
            9221 * 512                      # word embedding
            + 4096 * 512 + 512              # image embedding
            + (2 * 1024 * 1024 + 1024 + 1024 + 512 * 512)   # layer 0 (v, g, bias, attn)
            + 2 * (3 * 512 * 1024 + 1024 + 1024 + 512 * 512)  # layers 1-2
            + 512 * 256 + 256               # bottleneck
            + 256 * 9221 + 9221             # output projection
        )
        assert cm.parameter_count(cfg) == expected

    def test_parameter_count_matches_instantiation(self):
        cfg = tiny_config(attention=True, weight_norm=True)
        model = cm.init_params(cfg, seed=0)
        total = sum(t.data.size for t in model.params.values())
        assert total == cm.parameter_count(cfg)


class TestEmbedImage:
    def test_zero_feature_gives_bias_only(self):
        model = cm.init_params(tiny_config(), seed=2)
        model.params["image_b"].data[:] = np.arange(4.0)
        out = model.embed_image([ImageFeatures(np.zeros(6))])
        assert np.array_equal(out.data[0], np.arange(4.0).reshape(1, 4))

    def test_default_config_embeds_to_512(self):
        cfg = cm.ModelConfig(vocab_size=50)
        model = cm.init_params(cfg, seed=0)
        out = model.embed_image([ImageFeatures(np.random.default_rng(0).normal(size=4096))])
        assert out.data[0].shape == (1, 512)

    def test_gradient_matches_finite_differences(self):
        model = cm.init_params(tiny_config(), seed=4)
        feats = tiny_features(1)
        w = model.params["image_w"]
        b = model.params["image_b"]
        probe = np.random.default_rng(2).normal(size=(1, 4))
        grads = ad.backward(ad.sum_all(ad.mul(model.embed_image([feats]), Tensor(probe[None]))))

        def ref():
            x = np.maximum(feats.global_vec, 0.0)
            return ((x @ w.data + b.data) * probe).sum()

        fd = finite_difference(ref, [w.data, b.data])
        assert_grads_close(grads[w], fd[0], rtol=1e-5)
        assert_grads_close(grads[b], fd[1], rtol=1e-5)

    def test_non_finite_feature_rejected(self):
        model = cm.init_params(tiny_config(), seed=0)
        bad = ImageFeatures(np.zeros(6))
        bad.global_vec[2] = np.inf
        with pytest.raises(InvalidFeatureError):
            model.embed_image([bad])


def randomized(model, seed):
    """Give every parameter (incl. the zero-initialized classifier) mass."""
    rng = np.random.default_rng(seed)
    for t in model.params.values():
        t.data[:] = rng.normal(scale=0.5, size=t.data.shape)
    return model


class TestForward:
    def test_causality_future_perturbation_bit_exact(self):
        cfg = tiny_config(attention=True, residual=True)
        model = randomized(cm.init_params(cfg, 0), 10)
        feats = tiny_features(3)
        rng = np.random.default_rng(11)
        ids = rng.integers(0, 7, size=5)
        base = model.forward_probs(ids, feats)
        for i in range(5):
            for j in range(i + 1, 5):
                for _ in range(5):
                    mutated = ids.copy()
                    mutated[j] = rng.integers(0, 7)
                    out = model.forward_probs(mutated, feats)
                    assert np.array_equal(out[: i + 1], base[: i + 1])

    def test_parallel_equals_incremental(self):
        cfg = tiny_config(attention=True, residual=True, weight_norm=True)
        model = randomized(cm.init_params(cfg, 0), 12)
        feats = tiny_features(4)
        ids = np.array([0, 4, 2, 6, 1])
        full = model.forward_probs(ids, feats)
        for t in range(1, 6):
            step = model.forward_probs(ids[:t], feats)
            assert np.allclose(step[t - 1], full[t - 1], atol=1e-9)

    def test_rows_are_distributions(self):
        model = randomized(cm.init_params(tiny_config(attention=True), 0), 13)
        probs = model.forward_probs([0, 1, 2], tiny_features(5))
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_attention_maps_sum_to_one(self):
        model = randomized(cm.init_params(tiny_config(attention=True), 0), 14)
        _, maps = model.forward([[0, 3]], [tiny_features(6)])
        assert len(maps) == 2
        for amap in maps:
            assert amap[0].shape == (2, 4)
            assert np.allclose(amap.sum(axis=-1), 1.0, atol=1e-9)

    def test_attention_off_ignores_spatial(self):
        model = randomized(cm.init_params(tiny_config(), 0), 15)
        feats = tiny_features(7)
        with_spatial = model.forward_probs([0, 2, 3], feats)
        without = model.forward_probs([0, 2, 3], ImageFeatures(feats.global_vec, None))
        assert np.array_equal(with_spatial, without)

    def test_attention_missing_spatial_rejected(self):
        model = cm.init_params(tiny_config(attention=True), 0)
        with pytest.raises(cm.MissingFeatureError):
            model.forward([[0, 1]], [ImageFeatures(np.zeros(6), None)])

    def test_out_of_vocab_id_rejected(self):
        model = cm.init_params(tiny_config(), 0)
        with pytest.raises(ad.OutOfVocabularyError):
            model.forward([[0, 7]], [tiny_features()])

    def test_dropout_seed_reproducible_and_train_only(self):
        cfg = tiny_config(dropout_p=0.4)
        model = randomized(cm.init_params(cfg, 0), 16)
        feats = tiny_features(8)
        a, _ = model.forward([[0, 1, 2]], [feats], seed=[9])
        b, _ = model.forward([[0, 1, 2]], [feats], seed=[9])
        c, _ = model.forward([[0, 1, 2]], [feats], seed=[10])
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        eval_a = model.forward_probs([0, 1, 2], feats)
        eval_b = model.forward_probs([0, 1, 2], feats)
        assert np.array_equal(eval_a, eval_b)

    def test_residual_identity_path(self):
        # With layer-2 kernels zeroed, value-half bias zero and gate-half bias
        # large positive (and zero spatial input so attention contributes
        # nothing), the second layer is an exact pass-through: a one-layer
        # model with identical shared weights produces bit-identical output.
        cfg1 = tiny_config(num_layers=1, kernel_widths=(2,), residual=True, attention=True)
        cfg2 = tiny_config(num_layers=2, kernel_widths=(2, 3), residual=True, attention=True)
        one = randomized(cm.init_params(cfg1, 0), 17)
        two = cm.init_params(cfg2, 0)
        for name, tensor in one.params.items():
            two.params[name].data[:] = tensor.data
        two.params["conv1_kernel"].data[:] = 0.0
        bias = two.params["conv1_bias"].data
        bias[:] = 0.0
        bias[cfg2.hidden_dim:] = 50.0
        two.params["attn1_w"].data[:] = 0.0
        feats = ImageFeatures(
            np.random.default_rng(18).normal(size=6), np.zeros((2, 2, 5))
        )
        a = one.forward_probs([0, 5, 2, 3], feats)
        b = two.forward_probs([0, 5, 2, 3], feats)
        assert np.array_equal(a, b)


def test_a_decoding_step_builds_at_most_31_op_results(monkeypatch):
    # The bench's conv structure: 3 layers, attention, weight norm, residual
    # and dropout, which a decoding step leaves out.
    cfg = tiny_config(num_layers=3, kernel_widths=(2, 3, 3), dropout_p=0.1, weight_norm=True,
                      residual=True, attention=True)
    model = randomized(cm.init_params(cfg, 0), 20)
    state, _ = model.next_probs(model.start(tiny_features(21)), [0], [0])
    node, made = ad._node, []

    def counting_node(data, parents, bw):
        made.append(bw)
        return node(data, parents, bw)

    monkeypatch.setattr(ad, "_node", counting_node)
    state, probs = model.next_probs(state, [0, 0], [3, 4])
    assert probs.shape == (2, 7)
    assert len(made) <= 31


class TestAttendOp:
    def test_identical_cells_give_uniform_weights(self):
        cell = np.array([1.0, -2.0, 0.5])
        spatial = Tensor(np.tile(cell, (9, 1)))
        d = Tensor(np.random.default_rng(0).normal(size=(1, 4)))
        w = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        context, amap = cm.attend(d, spatial, w)
        assert np.allclose(amap.data, 1.0 / 9.0, atol=1e-12)
        assert np.allclose(context.data, cell.reshape(1, 3), atol=1e-12)

    def test_two_location_closed_form(self):
        # scores come out as [0, ln 3] -> weights [0.25, 0.75]
        c1 = np.array([0.0, 1.0])
        c2 = np.array([math.log(3.0), 1.0])
        spatial = Tensor(np.stack([c1, c2]))
        d = Tensor([[1.0]])
        w = Tensor([[1.0, 0.0]])
        context, amap = cm.attend(d, spatial, w)
        assert np.allclose(amap.data, [[0.25, 0.75]], atol=1e-12)
        assert np.allclose(context.data, (0.25 * c1 + 0.75 * c2).reshape(1, 2), atol=1e-12)

    def test_seven_by_seven_grid_gives_49_weights(self):
        spatial = Tensor(np.random.default_rng(2).normal(size=(49, 6)))
        d = Tensor(np.random.default_rng(3).normal(size=(1, 5)))
        w = Tensor(np.random.default_rng(4).normal(size=(5, 6)))
        _, amap = cm.attend(d, spatial, w)
        assert amap.data.shape == (1, 49)
        assert np.allclose(amap.data.sum(), 1.0, atol=1e-9)


class TestEndToEndGradients:
    @pytest.mark.parametrize(
        "flags",
        [
            {},
            {"attention": True},
            {"weight_norm": True},
            {"residual": True},
            {"attention": True, "weight_norm": True, "residual": True},
        ],
        ids=["plain", "attn", "wnorm", "residual", "all"],
    )
    def test_nll_gradient_matches_finite_differences(self, flags):
        cfg = tiny_config(**flags)
        model = randomized(cm.init_params(cfg, 0), 20)
        feats = tiny_features(21)
        ids = np.array([0, 3, 5, 1])
        targets = np.array([3, 5, 1, 2])

        def loss_tensor():
            probs, _ = model.forward(ids[None], [feats])
            return ad.mul(ad.sum_all(ad.log(ad.pick(probs, targets[None]))),
                          ad.Tensor(-1.0 / len(targets)))

        loss = loss_tensor()
        grads = ad.backward(loss)

        def ref():
            sel = model.forward_probs(ids, feats)[np.arange(len(targets)), targets]
            return -np.log(sel).sum() / len(targets)

        for name, tensor in model.params.items():
            fd = finite_difference(ref, [tensor.data])[0]
            assert_grads_close(grads[tensor], fd, rtol=1e-4, atol=1e-8)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: tiny_config(embed_dim=0), ValueError, "all dimensions must be >= 1"),
    (lambda: tiny_config(max_steps=-1), ValueError, "all dimensions must be >= 1"),
    (lambda: tiny_config(kernel_widths=(2, 0)), ValueError, "kernel widths must be >= 1"),
    (lambda: tiny_config(num_layers=3, kernel_widths=(2.7, 3, 3)), ValueError,
     "kernel widths must be integers, got (2.7, 3, 3)"),
    (lambda: tiny_config(num_layers=3, kernel_widths="233"), ValueError,
     "kernel widths must be integers, got '233'"),
    (lambda: tiny_config(num_layers=3, kernel_widths=(True, 3, 3)), ValueError,
     "kernel widths must be integers, got (True, 3, 3)"),
    (lambda: tiny_config(attention=True, grid_size=0), ValueError,
     "attention requires positive spatial dimensions"),
    (lambda: cm.init_params(tiny_config(attention=True), 0)
     .forward([[0, 3]], [tiny_features(grid=3)]),
     ad.ShapeError, "spatial grid (3, 3, 5) does not match configured (2, 2, 5)"),
    (lambda: cm.init_params(tiny_config(attention=True, grid_size=3), 0)
     .forward([[0, 3], [0, 2]], [tiny_features(grid=3), tiny_features(grid=4)]),
     ad.ShapeError, "spatial grid (4, 4, 5) does not match configured (3, 3, 5)"),
])
def test_rejections_raise_the_declared_error(call, error, fragment):
    with pytest.raises(error) as caught:
        call()
    assert fragment in str(caught.value)
