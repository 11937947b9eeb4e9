"""Sequential caption inference: greedy argmax, temperature sampling, and
beam search terminating on the end token or after max_steps tokens.

Each step recomputes the full forward over the start-token-prefixed prefix,
which is trivially consistent with the teacher-forced parallel pass (the
models are causal, so the last row is exactly the next-token distribution).
All decoders are pure functions of (model, features, arguments, seed).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from captionkit.data import END_ID, START_ID, TokenSeq


@dataclass(frozen=True)
class BeamHypothesis:
    """A partial decode: emitted tokens (end token excluded), the cumulative
    log-probability of every choice made (end token included when finished),
    and whether the hypothesis is frozen."""

    token_ids: tuple[int, ...]
    logprob: float
    finished: bool

    def extended(self, token_id: int, logp: float) -> "BeamHypothesis":
        if self.finished:
            raise ValueError("finished hypotheses are never extended")
        if token_id == END_ID:
            return BeamHypothesis(self.token_ids, self.logprob + logp, True)
        return BeamHypothesis(self.token_ids + (token_id,), self.logprob + logp, False)


def _next_distribution(model, prefix, features) -> np.ndarray:
    ids = np.fromiter((START_ID, *prefix), dtype=np.int64)
    return model.forward_probs(ids, features)[-1]


def _step_limit(model, max_steps: int | None) -> int:
    limit = model.config.max_steps if max_steps is None else max_steps
    if limit < 1:
        raise ValueError(f"max_steps must be >= 1, got {limit}")
    return limit


def greedy_decode(model, features, max_steps: int | None = None) -> TokenSeq:
    """Argmax decoding, scored as beam search of width 1 scores: the running
    log-probability plus log(max(p, 1e-300)). Ties break to the end token,
    then to the lowest token id, so the result is exactly beam 1's."""
    limit = _step_limit(model, max_steps)
    out: list[int] = []
    logprob = 0.0
    for _ in range(limit):
        probs = _next_distribution(model, out, features)
        scores = logprob + np.log(np.maximum(probs, 1e-300))
        token_id = int(scores.argmax())
        if token_id == END_ID or scores[END_ID] == scores[token_id]:
            break
        logprob = float(scores[token_id])
        out.append(token_id)
    return TokenSeq.from_token_ids(out, limit)


def sample_decode(model, features, max_steps: int | None = None,
                  temperature: float = 1.0, seed: int = 0) -> TokenSeq:
    """Categorical sampling from the tempered distribution at each step.

    Temperatures below 1e-6 switch to the greedy argmax (the limit mode).
    """
    if temperature <= 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    if temperature < 1e-6:
        return greedy_decode(model, features, max_steps)
    limit = _step_limit(model, max_steps)
    rng = np.random.default_rng(seed)
    out: list[int] = []
    for _ in range(limit):
        probs = _next_distribution(model, out, features)
        logits = np.log(np.maximum(probs, 1e-300)) / temperature
        logits -= logits.max()
        tempered = np.exp(logits)
        tempered /= tempered.sum()
        token_id = int(rng.choice(len(tempered), p=tempered))
        if token_id == END_ID:
            break
        out.append(token_id)
    return TokenSeq.from_token_ids(out, limit)


def beam_search(model, features, max_steps: int | None = None,
                beam_size: int = 1) -> list[tuple[TokenSeq, float]]:
    """Breadth-limited search over cumulative log-probability.

    Every live hypothesis expands over the whole vocabulary each step and the
    best ``beam_size`` extensions survive. A surviving extension that emitted
    the end token freezes, keeping its beam slot and its end-token
    log-probability, and competes in the final ranking against the
    hypotheses still alive at the length cap. Scores are raw sums of word
    log-probabilities (no length normalization). Returns up to ``beam_size``
    (TokenSeq, logprob) pairs, best first.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    vocab_size = model.config.vocab_size
    if beam_size > vocab_size:
        # The live frontier can only branch |vocab| ways per step, so very
        # wide beams fill up gradually; with beam_size >= vocab^steps the
        # search degenerates to exhaustive enumeration, which is exactly what
        # oracle tests want, so the width is honored rather than clamped.
        warnings.warn(
            f"beam size {beam_size} exceeds vocabulary size {vocab_size}",
            stacklevel=2,
        )
    limit = _step_limit(model, max_steps)
    live = [BeamHypothesis((), 0.0, False)]
    finished: list[BeamHypothesis] = []
    for _ in range(limit):
        candidates: list[BeamHypothesis] = []
        for hyp in live:
            probs = _next_distribution(model, hyp.token_ids, features)
            logp = np.log(np.maximum(probs, 1e-300))
            for token_id in range(vocab_size):
                candidates.append(hyp.extended(token_id, float(logp[token_id])))
        candidates.sort(key=lambda h: (-h.logprob, h.token_ids))
        kept = candidates[:beam_size]
        finished.extend(h for h in kept if h.finished)
        live = [h for h in kept if not h.finished]
        if not live:
            break
    pool = finished + live  # survivors hit the length cap without <E>
    pool.sort(key=lambda h: (-h.logprob, h.token_ids))
    return [(TokenSeq.from_token_ids(h.token_ids, limit), h.logprob) for h in pool[:beam_size]]
