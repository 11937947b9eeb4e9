"""Sequential caption inference: beam search terminating on the end token or
after max_steps tokens, greedy decoding as its width-1 case, and temperature
sampling.

All decoders run one stepping loop: ``model.start(features)`` gives the state
of the empty hypothesis, and each step feeds every live hypothesis its last
token in one ``model.next_probs`` call. Each row of a step equals
``_next_distribution``, the last row of that prefix's own forward.
All decoders are pure functions of (model, features, arguments, seed).
"""

from __future__ import annotations

import warnings

import numpy as np

from captionkit.data import END_ID, START_ID, TokenSeq


def _next_distribution(model, prefix, features) -> np.ndarray:
    ids = np.fromiter((START_ID, *prefix), dtype=np.int64)
    return model.forward_probs(ids, features)[-1]


def _step_limit(model, max_steps: int | None) -> int:
    limit = model.config.max_steps if max_steps is None else max_steps
    if limit < 1:
        raise ValueError(f"max_steps must be >= 1, got {limit}")
    return limit


def _search(model, features, limit: int, extend):
    """The stepping loop: ``extend(live, probs)`` picks a step's surviving
    (live row, token id, logprob) extensions, in row order. Returns the
    (token ids, logprob) pairs that ended, then those live at the cap."""
    state, live, finished = model.start(features), [((), 0.0)], []
    rows, tokens = [0], [START_ID]
    for _ in range(limit):
        state, probs = model.next_probs(state, rows, tokens)
        picks = extend(live, probs)
        finished += [(live[row][0], logprob) for row, token_id, logprob in picks
                     if token_id == END_ID]
        picks = [pick for pick in picks if pick[1] != END_ID]
        rows, tokens = [pick[0] for pick in picks], [pick[1] for pick in picks]
        live = [(live[row][0] + (token_id,), logprob) for row, token_id, logprob in picks]
        if not live:
            break
    return finished + live


def greedy_decode(model, features, max_steps: int | None = None) -> TokenSeq:
    """Argmax decoding: beam search of width 1, ties included."""
    return beam_search(model, features, max_steps, beam_size=1)[0][0]


def sample_decode(model, features, max_steps: int | None = None,
                  temperature: float = 1.0, seed: int = 0) -> TokenSeq:
    """Categorical sampling from the tempered distribution at each step.

    Temperatures below 1e-6 switch to the greedy argmax (the limit mode).
    """
    if not temperature > 0.0:  # NaN too
        raise ValueError(f"temperature must be > 0, got {temperature}")
    if temperature < 1e-6:
        return greedy_decode(model, features, max_steps)
    limit = _step_limit(model, max_steps)
    rng = np.random.default_rng(seed)

    def draw(live, probs):
        logits = np.log(np.maximum(probs[0], 1e-300)) / temperature
        logits -= logits.max()
        tempered = np.exp(logits)
        tempered /= tempered.sum()
        return [(0, int(rng.choice(len(tempered), p=tempered)), 0.0)]

    return TokenSeq.from_token_ids(_search(model, features, limit, draw)[0][0], limit)


def beam_search(model, features, max_steps: int | None = None,
                beam_size: int = 1) -> list[tuple[TokenSeq, float]]:
    """Breadth-limited search over cumulative log-probability.

    Every live hypothesis expands over the whole vocabulary each step and the
    best ``beam_size`` extensions survive. A surviving extension that emitted
    the end token freezes, keeping its beam slot and its end-token
    log-probability, and competes in the final ranking against the
    hypotheses still alive at the length cap. Scores are raw sums of word
    log-probabilities (no length normalization); equal scores rank the end
    token first, then the lower token ids. Returns up to ``beam_size``
    (TokenSeq, logprob) pairs, best first.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    vocab_size = model.config.vocab_size
    if beam_size > vocab_size:
        # Honored, not clamped: a wide beam fills up over several steps, and
        # beam_size >= vocab^steps is the exhaustive search oracle tests use.
        warnings.warn(f"beam size {beam_size} exceeds vocabulary size {vocab_size}",
                      stacklevel=2)
    limit = _step_limit(model, max_steps)
    # Rows list the end token first and survivors keep row order, so live
    # prefixes stay in lexicographic order and a stable sort of the scores
    # ranks candidates by (-logprob, token ids), as the final sort does.
    order = np.array([END_ID, *range(END_ID), *range(END_ID + 1, vocab_size)])

    def best(live, probs):
        scores = np.concatenate([logprob + np.log(np.maximum(row, 1e-300))[order]
                                 for row, (_, logprob) in zip(probs, live)])
        return [(index // vocab_size, int(order[index % vocab_size]), float(scores[index]))
                for index in sorted(np.argsort(-scores, kind="stable")[:beam_size].tolist())]

    pool = sorted(_search(model, features, limit, best), key=lambda h: (-h[1], h[0]))
    return [(TokenSeq.from_token_ids(ids, limit), logprob) for ids, logprob in pool[:beam_size]]
