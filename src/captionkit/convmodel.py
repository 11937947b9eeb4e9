"""Feed-forward captioning network: word + image embeddings feed a stack of
masked (causal) convolution layers with GLU activations, optional weight
normalization, residual connections and per-layer spatial attention, followed
by a bottleneck classifier over the vocabulary.

All positions of a training sequence are computed in one parallel pass; the
causal convolutions guarantee position i sees only tokens < i, so the same
forward serves step-by-step inference on growing prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from captionkit import autodiff as ad
from captionkit.autodiff import Tensor
from captionkit.data import ImageFeatures, global_rows, model_ids
from captionkit.data import InvalidFeatureError  # noqa: F401 -- part of this module's API


class MissingFeatureError(ValueError):
    """Attention is enabled but no spatial features were provided."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 512
    hidden_dim: int = 512
    num_layers: int = 3
    kernel_widths: tuple[int, ...] = (2, 3, 3)
    bottleneck_dim: int = 256
    max_steps: int = 15
    feature_dim: int = 4096
    dropout_p: float = 0.1
    weight_norm: bool = False
    residual: bool = False
    attention: bool = False
    grid_size: int = 7
    spatial_channels: int = 512

    def __post_init__(self):
        object.__setattr__(self, "kernel_widths", tuple(int(k) for k in self.kernel_widths))
        dims = (self.vocab_size, self.embed_dim, self.hidden_dim, self.num_layers,
                self.bottleneck_dim, self.max_steps, self.feature_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"all dimensions must be >= 1: {self}")
        if len(self.kernel_widths) != self.num_layers:
            raise ValueError(
                f"{self.num_layers} layers need {self.num_layers} kernel widths, "
                f"got {self.kernel_widths}"
            )
        if any(k < 1 for k in self.kernel_widths):
            raise ValueError(f"kernel widths must be >= 1, got {self.kernel_widths}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.attention:
            if self.grid_size < 1 or self.spatial_channels < 1:
                raise ValueError("attention requires positive spatial dimensions")
            if self.spatial_channels != self.hidden_dim:
                raise ValueError(
                    "attention adds the context vector to the post-GLU activation, "
                    f"so spatial_channels ({self.spatial_channels}) must equal "
                    f"hidden_dim ({self.hidden_dim})"
                )

    @property
    def receptive_field(self) -> int:
        """Number of past tokens that can influence a position."""
        return sum(k - 1 for k in self.kernel_widths)


def _layer_shapes(config: ModelConfig):
    """Yield (name, shape, init_scale) for every parameter, in creation order.

    init_scale is 1/sqrt(fan-in) for drawn weights, 0.0 for zero-initialized
    ones, and None for weight-norm magnitudes (derived from their direction).
    """
    v, d, h = config.vocab_size, config.embed_dim, config.hidden_dim
    yield "word_embedding", (v, d), 1.0 / np.sqrt(d)
    yield "image_w", (config.feature_dim, d), 1.0 / np.sqrt(config.feature_dim)
    yield "image_b", (d,), 0.0
    for layer, k in enumerate(config.kernel_widths):
        in_ch = 2 * d if layer == 0 else h
        scale = 1.0 / np.sqrt(k * in_ch)
        if config.weight_norm:
            yield f"conv{layer}_v", (k, in_ch, 2 * h), scale
            yield f"conv{layer}_g", (2 * h,), None
        else:
            yield f"conv{layer}_kernel", (k, in_ch, 2 * h), scale
        yield f"conv{layer}_bias", (2 * h,), 0.0
        if config.attention:
            yield f"attn{layer}_w", (h, config.spatial_channels), 1.0 / np.sqrt(h)
    yield "bottleneck_w", (h, config.bottleneck_dim), 1.0 / np.sqrt(h)
    yield "bottleneck_b", (config.bottleneck_dim,), 0.0
    yield "output_w", (config.bottleneck_dim, v), 0.0
    yield "output_b", (v,), 0.0


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in creation order."""
    return {name: shape for name, shape, _ in _layer_shapes(config)}


def parameter_count(config: ModelConfig) -> int:
    """Total scalar parameters implied by a configuration."""
    return sum(int(np.prod(shape)) for shape in parameter_shapes(config).values())


def init_params(config: ModelConfig, seed: int) -> "CaptionModel":
    """Fresh model: weights uniform(-s, s) with s = 1/sqrt(fan-in), biases and
    the output projection zero (so the first forward is exactly uniform),
    weight-norm magnitudes set to their direction norms (so the effective
    kernel equals the drawn direction)."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape, scale in _layer_shapes(config):
        if scale is None:
            v = params[name.replace("_g", "_v")].data
            data = np.sqrt((v.reshape(-1, v.shape[-1]) ** 2).sum(axis=0))
        elif scale == 0.0:
            data = np.zeros(shape)
        else:
            data = rng.uniform(-scale, scale, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return CaptionModel(config, params)


@dataclass
class DecoderState:
    """What one forward pass leaves behind: when attention is enabled, the
    [T, G*G] attention map of each layer, with a leading batch axis for a
    batch forward."""

    attention_maps: list[np.ndarray]


class CaptionModel:
    """Parameter collection plus the forward pass wiring them together."""

    kind = "cnn"

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    @property
    def word_embedding(self) -> Tensor:
        return self.params["word_embedding"]

    @property
    def output_projection(self) -> Tensor:
        return self.params["output_w"]

    def _conv_kernel(self, layer: int) -> Tensor:
        if self.config.weight_norm:
            return ad.weight_norm(self.params[f"conv{layer}_v"], self.params[f"conv{layer}_g"])
        return self.params[f"conv{layer}_kernel"]

    def embed_image(self, features, train_mode: bool = False, rng=0) -> Tensor:
        """dropout -> relu -> linear on the global feature vector: [1, D] for
        one ImageFeatures, [B, 1, D] for a list of B (``rng`` is then a list
        of B generators)."""
        x = Tensor(global_rows(features, self.config.feature_dim))
        x = ad.dropout(x, self.config.dropout_p, rng, train_mode)
        return ad.add(ad.matmul(ad.relu(x), self.params["image_w"]), self.params["image_b"])

    def forward(self, ids, features, train_mode: bool = False, seed=0):
        """Probabilities for every position of input-view id sequences.

        ``ids`` is the start-token-prefixed view: one sequence [T] with its
        ImageFeatures and an integer dropout ``seed``, or a batch [B, T] with
        a list of B ImageFeatures and a list of B seeds. Each example of a
        batch draws its dropout masks from its own seed, and every product is
        issued per example, so its rows are bit-identical to a forward of
        that example alone. No generator is built when dropout is off (in
        evaluation mode, or with ``dropout_p`` 0). Row i of an example's
        result is the distribution over the token at position i+1 given
        tokens <= i and the image. Returns (probs Tensor [T, vocab] or
        [B, T, vocab], DecoderState).
        """
        cfg = self.config
        ids = model_ids(ids, features)
        single = ids.ndim == 1
        if not train_mode or cfg.dropout_p == 0.0:
            rng = None  # dropout is the identity and draws nothing
        elif single:
            rng = ad.as_generator(seed)
        elif np.ndim(seed) != 1 or len(seed) != ids.shape[0]:
            raise ValueError(f"a batch of {ids.shape[0]} needs one dropout seed per example")
        else:
            rng = [ad.as_generator(s) for s in seed]
        steps = ids.shape[-1]

        spatial = None
        if cfg.attention:
            batch = [features] if single else features
            if any(f.spatial is None for f in batch):
                raise MissingFeatureError("attention model needs spatial features")
            grids = [f.spatial_flat() for f in batch]
            spatial = Tensor(grids[0] if single else np.stack(grids))
            if spatial.data.shape[-2:] != (cfg.grid_size**2, cfg.spatial_channels):
                raise ad.ShapeError(
                    f"spatial grid {batch[0].spatial.shape} does not match configured "
                    f"({cfg.grid_size}, {cfg.grid_size}, {cfg.spatial_channels})"
                )

        words = ad.embedding_lookup(self.params["word_embedding"], ids)
        image = self.embed_image(features, train_mode, rng)
        h = ad.concat((words, ad.tile_rows(image, steps)), axis=-1)

        attention_maps = []
        for layer in range(cfg.num_layers):
            x = ad.dropout(h, cfg.dropout_p, rng, train_mode)
            conv = ad.causal_conv1d(x, self._conv_kernel(layer), self.params[f"conv{layer}_bias"])
            d = ad.glu(conv)
            out = d
            if cfg.attention:
                context, amap = attend(d, spatial, self.params[f"attn{layer}_w"])
                attention_maps.append(amap.data)
                out = ad.add(out, context)
            if cfg.residual and layer > 0:
                out = ad.add(out, h)
            h = out

        bottleneck = ad.add(ad.matmul(h, self.params["bottleneck_w"]), self.params["bottleneck_b"])
        logits = ad.add(ad.matmul(bottleneck, self.params["output_w"]), self.params["output_b"])
        return ad.softmax(logits, axis=-1), DecoderState(attention_maps)

    def forward_probs(self, ids, features: ImageFeatures) -> np.ndarray:
        """Evaluation-mode probabilities as a plain array (decoders use this)."""
        probs, _ = self.forward(ids, features, train_mode=False)
        return probs.data


def attend(d: Tensor, spatial: Tensor, w: Tensor):
    """Attention for all rows of d at once: d [T, H] with spatial [G*G, C]
    (a single decoding step is d_j as a [1, H] row), or a batch d [B, T, H]
    with spatial [B, G*G, C].

    scores[j, i] = (w^T d_j) . c_i over the G*G locations i; rows are
    softmax-normalized and the context is the score-weighted sum of the
    spatial cells. Returns (context [T, C], attention weights [T, G*G]),
    with a leading batch axis for a batch; each row of weights sums to 1.
    """
    scores = ad.matmul(ad.matmul(d, w), ad.transpose(spatial))
    amap = ad.softmax(scores, axis=-1)
    return ad.matmul(amap, spatial), amap
