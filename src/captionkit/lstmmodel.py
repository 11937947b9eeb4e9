"""Minimal LSTM captioner used as the sequential baseline.

Single standard cell (sigmoid input/forget/output gates, tanh candidate and
readout), image injected once as the initial hidden state, softmax classifier
on top. The forward pass is strictly sequential over positions; the parameter
and probe surfaces mirror the convolutional model so both feed the same
trainer and analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from captionkit import autodiff as ad
from captionkit.autodiff import Tensor
from captionkit.data import ImageFeatures, InvalidFeatureError


@dataclass(frozen=True)
class LstmConfig:
    vocab_size: int
    embed_dim: int = 512
    hidden_dim: int = 512
    max_steps: int = 15
    feature_dim: int = 4096

    def __post_init__(self):
        if any(d < 1 for d in (self.vocab_size, self.embed_dim, self.hidden_dim,
                               self.max_steps, self.feature_dim)):
            raise ValueError(f"all dimensions must be >= 1: {self}")


@dataclass
class LstmState:
    hidden: Tensor  # [1, H]
    memory: Tensor  # [1, H]


def _shapes(config: LstmConfig):
    v, d, h = config.vocab_size, config.embed_dim, config.hidden_dim
    yield "word_embedding", (v, d), 1.0 / np.sqrt(d)
    yield "image_w", (config.feature_dim, h), 1.0 / np.sqrt(config.feature_dim)
    yield "image_b", (h,), 0.0
    yield "gates_w", (d + h, 4 * h), 1.0 / np.sqrt(d + h)
    yield "gates_b", (4 * h,), 0.0
    yield "output_w", (h, v), 0.0
    yield "output_b", (v,), 0.0


def parameter_count(config: LstmConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in _shapes(config))


def init_params(config: LstmConfig, seed: int) -> "LstmModel":
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape, scale in _shapes(config):
        data = np.zeros(shape) if scale == 0.0 else rng.uniform(-scale, scale, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return LstmModel(config, params)


class LstmModel:
    kind = "lstm"

    def __init__(self, config: LstmConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def config_dict(self) -> dict:
        return asdict(self.config)

    @property
    def word_embedding(self) -> Tensor:
        return self.params["word_embedding"]

    @property
    def output_projection(self) -> Tensor:
        return self.params["output_w"]

    def init_state(self, features: ImageFeatures) -> LstmState:
        """h0 = linear(relu(global feature)), m0 = 0."""
        vec = features.global_vec
        if vec.shape[0] != self.config.feature_dim:
            raise ad.ShapeError(
                f"global feature dim {vec.shape[0]} != configured {self.config.feature_dim}"
            )
        if not np.all(np.isfinite(vec)):
            raise InvalidFeatureError("global feature contains non-finite values")
        x = ad.relu(Tensor(vec.reshape(1, -1)))
        h0 = ad.add(ad.matmul(x, self.params["image_w"]), self.params["image_b"])
        return LstmState(hidden=h0, memory=Tensor(np.zeros((1, self.config.hidden_dim))))

    def step(self, state: LstmState, token_id: int):
        """One cell update conditioned on (state, token); returns (state', probs)."""
        h = self.config.hidden_dim
        emb = ad.embedding_lookup(self.params["word_embedding"], [int(token_id)])
        z = ad.add(
            ad.matmul(ad.concat((emb, state.hidden), axis=1), self.params["gates_w"]),
            self.params["gates_b"],
        )
        gate_in = ad.sigmoid(ad.slice_cols(z, 0, h))
        gate_forget = ad.sigmoid(ad.slice_cols(z, h, 2 * h))
        gate_out = ad.sigmoid(ad.slice_cols(z, 2 * h, 3 * h))
        candidate = ad.tanh(ad.slice_cols(z, 3 * h, 4 * h))
        memory = ad.add(ad.mul(gate_forget, state.memory), ad.mul(gate_in, candidate))
        hidden = ad.mul(gate_out, ad.tanh(memory))
        logits = ad.add(ad.matmul(hidden, self.params["output_w"]), self.params["output_b"])
        return LstmState(hidden, memory), ad.softmax(logits, axis=-1)

    def forward(self, ids, features: ImageFeatures, train_mode: bool = False, seed: int = 0):
        """Sequential unroll over an input-view id sequence; [T, vocab] probs.

        train_mode/seed are accepted for interface parity with the
        convolutional model; the baseline uses no dropout.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size < 1:
            raise ad.ShapeError(f"ids must be a non-empty 1-d sequence, got shape {ids.shape}")
        state = self.init_state(features)
        rows = []
        for token_id in ids:
            state, probs = self.step(state, token_id)
            rows.append(probs)
        return ad.concat(rows, axis=0), state

    def forward_probs(self, ids, features: ImageFeatures) -> np.ndarray:
        probs, _ = self.forward(ids, features, train_mode=False)
        return probs.data
