"""Minimal LSTM captioner used as the sequential baseline.

Single standard cell (sigmoid input/forget/output gates, tanh candidate and
readout), image injected once as the initial hidden state, softmax classifier
on top. The forward pass is strictly sequential over positions; the parameter
and probe surfaces mirror the convolutional model so both feed the same
trainer and analyses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from captionkit import autodiff as ad
from captionkit.autodiff import Tensor
from captionkit.data import ImageFeatures, global_rows, model_ids


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
    """The cell state after a step: [1, H] for one example, [B, 1, H] for a
    batch."""

    hidden: Tensor
    memory: Tensor


def _shapes(config: LstmConfig):
    v, d, h = config.vocab_size, config.embed_dim, config.hidden_dim
    yield "word_embedding", (v, d), 1.0 / np.sqrt(d)
    yield "image_w", (config.feature_dim, h), 1.0 / np.sqrt(config.feature_dim)
    yield "image_b", (h,), 0.0
    yield "gates_w", (d + h, 4 * h), 1.0 / np.sqrt(d + h)
    yield "gates_b", (4 * h,), 0.0
    yield "output_w", (h, v), 0.0
    yield "output_b", (v,), 0.0


def parameter_shapes(config: LstmConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in creation order."""
    return {name: shape for name, shape, _ in _shapes(config)}


def parameter_count(config: LstmConfig) -> int:
    return sum(int(np.prod(shape)) for shape in parameter_shapes(config).values())


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

    @property
    def word_embedding(self) -> Tensor:
        return self.params["word_embedding"]

    @property
    def output_projection(self) -> Tensor:
        return self.params["output_w"]

    def init_state(self, features) -> LstmState:
        """h0 = linear(relu(global feature)), m0 = 0: [1, H] for one
        ImageFeatures, [B, 1, H] for a list of B."""
        x = ad.relu(Tensor(global_rows(features, self.config.feature_dim)))
        h0 = ad.add(ad.matmul(x, self.params["image_w"]), self.params["image_b"])
        return LstmState(hidden=h0, memory=Tensor(np.zeros(h0.data.shape)))

    def step(self, state: LstmState, token_ids):
        """One cell update conditioned on (state, tokens); returns (state',
        probs). ``token_ids`` is one id per example: a single id for a [1, H]
        state, B ids for a [B, 1, H] state. probs are [1, vocab] or
        [B, 1, vocab]. Every product of a batch step is a one-row product
        per example, as in a step of that example alone."""
        h = self.config.hidden_dim
        ids = np.reshape(token_ids, state.hidden.data.shape[:-1])
        emb = ad.embedding_lookup(self.params["word_embedding"], ids)
        z = ad.add(
            ad.matmul(ad.concat((emb, state.hidden), axis=-1), self.params["gates_w"]),
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

    def forward(self, ids, features, train_mode: bool = False, seed=0):
        """Sequential unroll over input-view ids: one sequence [T] with its
        ImageFeatures gives [T, vocab] probs; a batch [B, T] with a list of B
        ImageFeatures steps all B examples together and gives [B, T, vocab],
        each example's rows bit-identical to its own unroll. Returns (probs,
        the last state).

        train_mode/seed are accepted for interface parity with the
        convolutional model; the baseline uses no dropout.
        """
        ids = model_ids(ids, features)
        state = self.init_state(features)
        rows = []
        for t in range(ids.shape[-1]):
            state, probs = self.step(state, ids[..., t])
            rows.append(probs)
        return ad.concat(rows, axis=ids.ndim - 1), state

    def forward_probs(self, ids, features: ImageFeatures) -> np.ndarray:
        probs, _ = self.forward(ids, features, train_mode=False)
        return probs.data
