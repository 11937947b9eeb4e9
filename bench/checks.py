"""Checks the benchmark makes on the program's outputs.

Each check recomputes what it compares against in plain numpy from the
models' evaluation-mode ``forward_probs`` rows, or takes it from a property
of the method (zero-initialised output layers give a uniform first
distribution, beam width 1 is greedy decoding, beams are distinct and
ranked). None of them compares against stored copies of earlier output.
Every check raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import math

import numpy as np

from captionkit.checkpoint import load_checkpoint
from captionkit.data import END_ID, START_ID

# The clamp the method applies before taking a log: the trainer's loss
# floor and the decoders' log floor.
LOSS_FLOOR = 1e-12
LOG_FLOOR = 1e-300


class CheckFailed(AssertionError):
    """An output of the program is not what the method says it must be."""


def probe_nll(model, examples) -> float:
    """Mean over examples of the per-token mean NLL of the unpadded targets."""
    total = 0.0
    for ex in examples:
        rows = ex.seq.valid_len
        probs = model.forward_probs(ex.seq.input_ids, ex.features)
        picked = probs[np.arange(rows), ex.seq.target_ids[:rows]]
        total += -np.log(np.maximum(picked, LOSS_FLOOR)).mean()
    return total / len(examples)


def check_fresh_probe(model, examples, vocab_size: int) -> None:
    """Both output layers start at zero, so every row is uniform: NLL = ln V."""
    loss = probe_nll(model, examples)
    if abs(loss - math.log(vocab_size)) > 1e-12:
        raise CheckFailed(f"fresh probe loss {loss!r} != ln({vocab_size})")


def check_reported_probe(model, examples, reported: float) -> None:
    loss = probe_nll(model, examples)
    if abs(loss - reported) > 1e-9:
        raise CheckFailed(f"trainer reported probe loss {reported!r}, recomputed {loss!r}")


def check_loss_fell(first: float, last: float, ratio: float = 0.9) -> None:
    if not last <= ratio * first:
        raise CheckFailed(f"last epoch loss {last!r} is not below {ratio} x first {first!r}")


def check_checkpoint_roundtrip(path, model, examples) -> None:
    """The saved model must give bit-identical probabilities after loading."""
    loaded = load_checkpoint(path).model
    for ex in examples:
        want = model.forward_probs(ex.seq.input_ids, ex.features)
        got = loaded.forward_probs(ex.seq.input_ids, ex.features)
        if not np.array_equal(want, got):
            raise CheckFailed(f"{path}: reloaded model differs on {ex.image_id}")


def caption_tokens(seq) -> tuple[int, ...]:
    """Emitted token ids of a decoded TokenSeq (end token excluded)."""
    return tuple(int(t) for t in seq.target_ids[: seq.valid_len - 1])


def sequence_logprob(model, features, tokens, finished: bool) -> float:
    """Sum of log-probabilities of ``tokens`` (and of the end token when
    ``finished``), read from the full-prefix forward rows."""
    ids = np.array((START_ID, *tokens), dtype=np.int64)
    logp = np.log(np.maximum(model.forward_probs(ids, features), LOG_FLOOR))
    total = float(sum(logp[i, t] for i, t in enumerate(tokens)))
    if finished:
        total += float(logp[len(tokens), END_ID])
    return total


def check_beams(model, features, beams, beam_size: int, limit: int) -> None:
    """Beams are distinct, ranked best first, and each log-probability is the
    sum the model's own distributions give for its tokens."""
    if not 1 <= len(beams) <= beam_size:
        raise CheckFailed(f"{len(beams)} beams returned for beam size {beam_size}")
    keys = []
    for seq, logprob in beams:
        tokens = caption_tokens(seq)
        if len(tokens) > limit or END_ID in tokens or START_ID in tokens:
            raise CheckFailed(f"malformed beam {tokens}")
        # A hypothesis shorter than the cap can only have stopped by
        # emitting the end token.
        want = sequence_logprob(model, features, tokens, finished=len(tokens) < limit)
        if abs(logprob - want) > 1e-9:
            raise CheckFailed(f"beam {tokens} log-probability {logprob!r}, recomputed {want!r}")
        keys.append((-logprob, tokens))
    if len({k[1] for k in keys}) != len(keys):
        raise CheckFailed(f"duplicate beams {[k[1] for k in keys]}")
    if keys != sorted(keys):
        raise CheckFailed(f"beams not ranked best first: {keys}")


def check_greedy_is_beam1(greedy_seq, beam1) -> None:
    if caption_tokens(greedy_seq) != caption_tokens(beam1[0][0]):
        raise CheckFailed(
            f"greedy {caption_tokens(greedy_seq)} != beam-1 {caption_tokens(beam1[0][0])}"
        )


def template_caption(meta: dict) -> list[str]:
    """The synthetic generator's caption grammar, restated from its scene
    description: 'a <color> <object> <relation> the <place>'."""
    return ["a", meta["color"], meta["object"], meta["relation"], "the", meta["place"]]


def check_template_share(what: str, matches: int, total: int, floor: float) -> None:
    if matches < floor * total:
        raise CheckFailed(f"greedy {what} equal to the template: {matches}/{total}, "
                          f"below the floor {floor}")
