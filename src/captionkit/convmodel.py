"""Feed-forward captioning network: word + image embeddings feed a stack of
masked (causal) convolution layers with GLU activations, optional weight
normalization, residual connections and per-layer spatial attention, followed
by a bottleneck classifier over the vocabulary.

All positions of a training sequence are computed in one parallel pass; the
causal convolutions guarantee position i sees only tokens < i. Decoding runs
the same layer body on all live prefixes at once and keeps the last rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from captionkit import autodiff as ad
from captionkit.autodiff import Tensor
from captionkit.data import ImageFeatures, global_rows, model_ids


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
        if any(isinstance(k, bool) or not isinstance(k, (int, np.integer)) for k in self.kernel_widths):
            raise ValueError(f"kernel widths must be integers, got {self.kernel_widths!r}")
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


class CaptionModel:
    """Parameter collection plus the forward pass wiring them together."""

    kind = "cnn"

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def _kernels(self) -> list[Tensor]:
        """Every layer's conv kernel, weight-normed when configured."""
        p, layers = self.params, range(self.config.num_layers)
        if self.config.weight_norm:
            return [ad.weight_norm(p[f"conv{i}_v"], p[f"conv{i}_g"]) for i in layers]
        return [p[f"conv{i}_kernel"] for i in layers]

    def embed_image(self, features, rng=None) -> Tensor:
        """dropout -> relu -> linear on the global feature vectors of a list
        of B ImageFeatures: [B, 1, D]. ``rng`` is a list of B generators when
        dropout draws, else None."""
        x = Tensor(global_rows(features, self.config.feature_dim))
        x = Tensor(np.maximum(ad.dropout(x, self.config.dropout_p, rng).data, 0.0))
        return ad.add(ad.matmul(x, self.params["image_w"]), self.params["image_b"])

    def _spatial(self, features) -> Tensor | None:
        """The checked spatial grids [B, G*G, C] of a list of B ImageFeatures
        when attention is enabled."""
        cfg = self.config
        if not cfg.attention:
            return None
        grid = (cfg.grid_size, cfg.grid_size, cfg.spatial_channels)
        for f in features:
            if f.spatial is None:
                raise MissingFeatureError("attention model needs spatial features")
            if f.spatial.shape != grid:
                raise ad.ShapeError(f"spatial grid {f.spatial.shape} does not match "
                                    f"configured {grid}")
        return Tensor(np.stack([f.spatial_flat() for f in features], dtype=np.float64))

    def forward(self, ids, features, seed=None):
        """Probabilities for every position of a batch of input-view id
        sequences.

        ``ids`` is the start-token-prefixed view [B, T], with a list of B
        ImageFeatures. ``seed``, a list of B seeds, is the training switch:
        dropout draws exactly when it is given and ``dropout_p`` > 0, each
        example from its own seed; otherwise no generator is built. Every
        product is issued per example, so an example's rows are
        bit-identical to a forward of that example alone. Row i of an
        example's result is the distribution over the token at position i+1
        given tokens <= i and the image. Returns (probs Tensor [B, T, vocab],
        the [B, T, G*G] attention map of each layer, empty without attention).
        """
        cfg = self.config
        ids = model_ids(ids, features)
        if seed is None or cfg.dropout_p == 0.0:
            rng = None  # dropout is the identity and draws nothing
        elif np.ndim(seed) != 1 or len(seed) != ids.shape[0]:
            raise ValueError(f"a batch of {ids.shape[0]} needs one dropout seed per example")
        else:
            rng = [np.random.default_rng(s) for s in seed]
        spatial = self._spatial(features)
        return self._layers(ids, self._kernels(), self.embed_image(features, rng), spatial, rng)

    def _layers(self, ids, kernels: list[Tensor], image: Tensor, spatial: Tensor | None,
                rng=None):
        """The layer body of every pass, training and decoding alike: word and
        image embeddings, the conv layers over ``kernels`` and the classifier,
        for ids [B, T] with B image embeddings and grids. Returns (probs,
        attention maps)."""
        cfg = self.config
        words = ad.embedding_lookup(self.params["word_embedding"], ids)
        h = ad.concat((words, ad.tile_rows(image, ids.shape[1])), axis=-1)

        attention_maps = []
        for layer in range(cfg.num_layers):
            x = ad.dropout(h, cfg.dropout_p, rng, positions=cfg.max_steps + 1)
            conv = ad.causal_conv1d(x, kernels[layer], self.params[f"conv{layer}_bias"])
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
        return ad.softmax(logits), attention_maps

    def start(self, features: ImageFeatures):
        """Decoding state of the empty hypothesis: an untracked ``ad.view`` of
        the model, its kernels (weight-normed once per caption), the [B, T]
        ids so far, and the image inputs."""
        view = type(self)(self.config, ad.view(self.params))
        return (view, view._kernels(), np.zeros((1, 0), dtype=np.int64),
                view.embed_image([features]), view._spatial([features]))

    def next_probs(self, state, rows, token_ids):
        """Keep hypotheses ``rows`` of ``state``, append each its token id and
        run all prefixes in one pass. Returns (state, probs [len(rows), V])."""
        view, kernels, ids, image, spatial = state
        ids = np.concatenate([ids[rows], np.reshape(token_ids, (-1, 1))], axis=1)
        copies = [None if t is None else Tensor(np.repeat(t.data, len(ids), axis=0))
                  for t in (image, spatial)]
        probs, _ = view._layers(ids, kernels, *copies)
        return (view, kernels, ids, image, spatial), probs.data[:, -1]

    def forward_probs(self, ids, features: ImageFeatures) -> np.ndarray:
        """Probabilities without dropout [T, vocab] of one image's ids [T]:
        row 0 of a batch of one."""
        probs, _ = self.forward(np.asarray(ids)[None], [features])
        return probs.data[0]


def attend(d: Tensor, spatial: Tensor, w: Tensor):
    """Attention for all rows of a batch d [B, T, H] at once, over the spatial
    grids [B, G*G, C], a constant.

    scores[j, i] = (w^T d_j) . c_i over the G*G locations i; rows are
    softmax-normalized and the context is the score-weighted sum of the
    spatial cells. Returns (context [B, T, C], attention weights
    [B, T, G*G]); each row of weights sums to 1.
    """
    scores = ad.matmul(ad.matmul(d, w), Tensor(spatial.data.swapaxes(-1, -2)))
    amap = ad.softmax(scores)
    return ad.matmul(amap, spatial), amap
