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

    def init_state(self, features):
        """(cell, hidden) of a list of B ImageFeatures: a zero cell [B, 1, 2H],
        whose hidden half no step reads, and h0 = linear(relu(global feature))."""
        x = Tensor(np.maximum(global_rows(features, self.config.feature_dim), 0.0))
        h0 = ad.add(ad.matmul(x, self.params["image_w"]), self.params["image_b"])
        return Tensor(np.zeros((len(features), 1, 2 * self.config.hidden_dim))), h0

    def step(self, state, token_ids):
        """One cell update conditioned on (state, tokens); returns (state',
        probs). The state is (cell ``[memory | hidden]`` [B, 1, 2H], hidden
        [B, 1, H]), ``token_ids`` holds one id per example, and probs are
        [B, 1, vocab]. Every product is a one-row product per example, as in
        a step of that example alone. The gates, memory and hidden state are
        one ``ad.lstm_cell`` node."""
        h = self.config.hidden_dim
        cell, hidden = state
        ids = np.reshape(token_ids, hidden.data.shape[:-1])
        emb = ad.embedding_lookup(self.params["word_embedding"], ids)
        z = ad.add(
            ad.matmul(ad.concat((emb, hidden), axis=-1), self.params["gates_w"]),
            self.params["gates_b"],
        )
        cell = ad.lstm_cell(z, cell)
        hidden = ad.slice_cols(cell, h, 2 * h)
        logits = ad.add(ad.matmul(hidden, self.params["output_w"]), self.params["output_b"])
        return (cell, hidden), ad.softmax(logits)

    def forward(self, ids, features, seed=None):
        """Sequential unroll over input-view ids [B, T] with a list of B
        ImageFeatures: all B examples step together and give [B, T, vocab]
        probs, each example's rows bit-identical to its own unroll. Returns
        (probs, the last state).

        ``seed`` is accepted and ignored, so the trainer calls both kinds
        alike; the baseline uses no dropout.
        """
        ids = model_ids(ids, features)
        state = self.init_state(features)
        rows = []
        for t in range(ids.shape[1]):
            state, probs = self.step(state, ids[:, t])
            rows.append(probs)
        return ad.concat(rows, axis=1), state

    def start(self, features: ImageFeatures):
        """Decoding state of the empty hypothesis: an untracked view of the
        model (``ad.view``, so no op records a backward) and its initial state."""
        view = type(self)(self.config, ad.view(self.params))
        return view, view.init_state([features])

    def next_probs(self, state, rows, token_ids):
        """Keep hypotheses ``rows`` of the (cell, hidden) state and step each
        with its token id. Returns (state, next-token probs [len(rows), V])."""
        view, cell_state = state
        cell_state, probs = view.step([Tensor(t.data[rows]) for t in cell_state], token_ids)
        return (view, cell_state), probs.data[:, -1]

    def forward_probs(self, ids, features: ImageFeatures) -> np.ndarray:
        """Probabilities without dropout [T, vocab] of one image's ids [T]:
        row 0 of a batch of one."""
        probs, _ = self.forward(np.asarray(ids)[None], [features])
        return probs.data[0]
