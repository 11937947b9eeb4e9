"""Corpus BLEU, the clamped NLL training objective, and the diagnostic
measurements logged during and after training: teacher-forced loss, output
entropy, word accuracy, gradient norms at the embedding and classification
layers, and beam diversity per position.

The measurements are pure in (model snapshot, dataset): repeated calls
return identical values, and everything teacher-forced runs with dropout off.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from captionkit import autodiff as ad
from captionkit.autodiff import Tensor
from captionkit.data import END_ID, EmptyCorpusError

BLEU_EPSILON = 1e-9
PROB_FLOOR = 1e-12
# The trainer's default minibatch size, and the probe's default chunk: the
# probe's graphs then hold no more examples than an update's.
BATCH_SIZE = 32


@dataclass
class AnalysisRecord:
    """One epoch/split row of the metrics table."""

    epoch: int
    split: str
    loss: float
    accuracy: float
    entropy: float
    grad_norm_in: float
    grad_norm_out: float
    finite: bool = True  # probe gradients finite; not a metrics.csv column

    def csv_row(self) -> str:
        return (
            f"{self.epoch},{self.split},{self.loss:.10g},{self.accuracy:.10g},"
            f"{self.entropy:.10g},{self.grad_norm_in:.10g},{self.grad_norm_out:.10g}"
        )


METRICS_CSV_HEADER = "epoch,split,loss,accuracy,entropy,grad_norm_in,grad_norm_out"


# ---------------------------------------------------------------------------
# BLEU


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidates, references, max_n: int = 4):
    """Corpus-level BLEU-1..max_n with clipping and brevity penalty.

    ``candidates`` is a list of token lists; ``references`` a parallel list of
    lists of token lists (multiple references per image allowed). The
    effective reference length is the closest to the candidate's, ties going
    to the shorter one. An order with zero clipped matches contributes
    log(1e-9) instead of log(0), so zero-overlap corpora stay representable.
    """
    candidates = list(candidates)
    references = list(references)
    if not candidates:
        raise ValueError("empty candidate set")
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates vs {len(references)} reference groups")
    clipped = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        refs = list(refs)
        if not refs:
            raise ValueError("every candidate needs at least one reference")
        cand_len += len(cand)
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        for n in range(1, max_n + 1):
            counts = _ngram_counts(cand, n)
            if not counts:
                continue
            best = Counter()
            for ref in refs:
                for gram, c in _ngram_counts(ref, n).items():
                    if c > best[gram]:
                        best[gram] = c
            totals[n - 1] += sum(counts.values())
            clipped[n - 1] += sum(min(c, best[gram]) for gram, c in counts.items())
    if cand_len == 0:
        return tuple(0.0 for _ in range(max_n))
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    scores = []
    log_terms = []
    for n in range(1, max_n + 1):
        p = clipped[n - 1] / totals[n - 1] if totals[n - 1] else 0.0
        log_terms.append(math.log(p) if p > 0.0 else math.log(BLEU_EPSILON))
        scores.append(brevity * math.exp(sum(log_terms) / n))
    return tuple(scores)


# ---------------------------------------------------------------------------
# the training objective and the teacher-forced measurements


@dataclass
class LossStats:
    clamped: int = 0


def teacher_forced_ids(seqs) -> np.ndarray:
    """The [B, T'] input ids of B TokenSeqs, cut to T', their longest
    ``valid_len``: ``nll_loss`` reads no position past it. Both models are
    causal, so a forward of the cut ids gives the kept rows of a full-length
    forward; bit-identical for the LSTM, whose products are one row per step
    at any length, and for the conv model as far as BLAS gives a product's
    leading rows the same bits at any row count."""
    rows = max(seq.valid_len for seq in seqs)
    return np.stack([seq.input_ids[:rows] for seq in seqs])


def nll_loss(probs: Tensor, target, stats: LossStats | None = None,
             batch_mean: bool = True) -> Tensor:
    """Per-token mean negative log-likelihood of the unpadded target positions.

    ``probs`` is [B, T, V] with ``target`` a list of B TokenSeqs. An
    example's loss is the mean over its unpadded positions, and the loss is
    the mean over the examples of theirs, or their sum when ``batch_mean``
    is false (each example's gradients are then exactly those of its own
    loss). Probabilities below 1e-12 (in particular exact zeros) are clamped
    there, and each such event in an unpadded position bumps
    ``stats.clamped`` when a stats object is given.
    """
    seqs = list(target)
    if probs.data.ndim != 3 or probs.data.shape[0] != len(seqs):
        raise ad.ShapeError(f"probabilities {probs.data.shape} for {len(seqs)} target sequence(s)")
    lengths = np.array([seq.valid_len for seq in seqs])
    rows = int(lengths.max())
    if probs.data.shape[1] < rows:
        raise ad.ShapeError(f"{probs.data.shape[1]} probability rows for {rows} target positions")
    ids = np.stack([seq.target_ids[:rows] for seq in seqs])
    valid = np.arange(rows) < lengths[:, None]
    per_example = -1.0 / lengths
    if batch_mean:
        per_example = per_example * (1.0 / len(seqs))
    weights = np.where(valid, per_example[:, None], 0.0)
    sel = ad.pick(probs, ids)
    if stats is not None:
        stats.clamped += int(np.count_nonzero((sel.data < PROB_FLOOR) & valid))
    return ad.sum_all(ad.mul(ad.log(ad.clamp_min(sel, PROB_FLOOR)), Tensor(weights)))


@dataclass
class _Totals:
    """Running sums of the per-example loss, argmax hits and row entropies."""

    nll_sum: float = 0.0
    hits: int = 0
    entropy_sum: float = 0.0
    rows: int = 0
    examples: int = 0

    def add(self, probs: np.ndarray, seqs) -> None:
        """Add examples: probs [B, T, V] with their B TokenSeqs. The per-row
        terms are computed for all rows at once; each example's sums run
        over its own unpadded rows."""
        targets = np.stack([seq.target_ids[: probs.shape[-2]] for seq in seqs])
        sel = np.take_along_axis(probs, targets[..., None], axis=-1)[..., 0]
        nll = -np.log(np.maximum(sel, PROB_FLOOR))
        hits = probs.argmax(axis=-1) == targets
        entropies = _row_entropies(probs)
        for b, seq in enumerate(seqs):
            n = seq.valid_len
            self.nll_sum += nll[b, :n].mean()
            self.hits += int(hits[b, :n].sum())
            self.entropy_sum += float(entropies[b, :n].sum())
            self.rows += n
            self.examples += 1

    @property
    def loss(self) -> float:
        return self.nll_sum / self.examples

    @property
    def accuracy(self) -> float:
        return self.hits / self.rows

    @property
    def entropy(self) -> float:
        return self.entropy_sum / self.rows


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    contrib = np.where(rows > 0.0, rows * np.log(np.where(rows > 0.0, rows, 1.0)), 0.0)
    return -contrib.sum(axis=-1)


def _forward_totals(model, examples) -> _Totals:
    totals = _Totals()
    for ex in examples:
        totals.add(model.forward_probs(ex.seq.input_ids, ex.features)[None], [ex.seq])
    return totals


def mean_nll(model, examples) -> float:
    """Mean over examples of the per-token mean NLL (the training objective)."""
    return _forward_totals(model, examples).loss


def entropy_profile(model, examples) -> float:
    """Mean output entropy in nats over all unpadded positions."""
    return _forward_totals(model, examples).entropy


def word_accuracy(model, examples) -> float:
    """Fraction of unpadded positions where argmax(probs) is the target.

    Ties resolve to the lowest token id. Greedy decoding ranks the end
    token first among equal scores, so the two part on one tie only: start
    (id 0) against end (id 1) counts as id 0 here, and greedy emits the end.
    """
    return _forward_totals(model, examples).accuracy


def grad_norm_probe(model, examples, batch_size: int = BATCH_SIZE, *,
                    epoch: int = -1, split: str = "") -> AnalysisRecord:
    """The single measurement pass over the probe examples, as the
    AnalysisRecord it fills; ``epoch`` and ``split`` only label it.

    Each chunk of at most ``batch_size`` examples gets one teacher-forced
    batched forward with dropout off and one backward of the sum of its
    examples' ``nll_loss``, so each example's gradients are its own. Every
    chunk of a call runs the same positions, those up to the longest
    caption among all the probe examples (``teacher_forced_ids``).
    Loss, word accuracy and entropy come from that forward's probabilities
    and equal ``mean_nll``, ``word_accuracy`` and ``entropy_profile``.

    The gradient norms are the L2 norms at the word-embedding table and at
    the output projection (``"word_embedding"`` and ``"output_w"`` in both
    models), averaged over the examples. A chunk's forward runs on an
    ``ad.view`` of the model in which those two are tracked per-example
    copies ``[B, ...]`` and no other parameter records a backward. Example
    b reads only copy b, so row b of each gradient the backward returns is
    that example's own (per-example gradients as in Goodfellow, arXiv
    1510.01799), made by the same products and sums, over the same
    positions, as that example's own backward would be, so the result is
    bit-identical at any ``batch_size`` by construction. The probe holds one
    chunk at a time: a chunk's probabilities and gradients are dropped once
    its totals and norms are added, before the next chunk's pass. The
    caller's model and its parameters are never touched. A non-finite norm
    (a NaN or inf entry, or an overflow) sets ``finite`` to False rather
    than raise, so a diverging run still produces a flagged record. No
    examples raise ``EmptyCorpusError`` and a ``batch_size`` below 1 raises
    ``ValueError``, before any pass.
    """
    if not examples:
        raise EmptyCorpusError("no examples to probe")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    totals = _Totals()
    norm_in = 0.0
    norm_out = 0.0
    ids = teacher_forced_ids([ex.seq for ex in examples])
    for lo in range(0, len(examples), batch_size):
        chunk = examples[lo:lo + batch_size]
        probs, g_in, g_out = _probe_chunk(model, chunk, ids[lo:lo + batch_size])
        totals.add(probs, [ex.seq for ex in chunk])
        with np.errstate(over="ignore"):  # an overflowing norm is inf, flagged below
            for b in range(len(chunk)):
                norm_in += float(np.linalg.norm(g_in[b]))
                norm_out += float(np.linalg.norm(g_out[b]))
        del probs, g_in, g_out  # the chunk's arrays, before the next chunk's pass
    n = len(examples)
    return AnalysisRecord(epoch, split, totals.loss, totals.accuracy, totals.entropy, norm_in / n,
                          norm_out / n, math.isfinite(norm_in) and math.isfinite(norm_out))


def _probe_chunk(model, chunk, ids):
    """One batched forward and backward of a probe chunk with its input ids
    [B, T'], on a view of the model as ``grad_norm_probe`` describes.
    Returns its probabilities [B, T', V] and each example's gradients at the
    two tracked parameters, as [B, ...] arrays; the graph is freed on return."""
    tracked = ("word_embedding", "output_w")
    view = type(model)(model.config, ad.view(model.params, tracked, len(chunk)))
    probs, _ = view.forward(ids, [ex.features for ex in chunk])
    grads = ad.backward(nll_loss(probs, [ex.seq for ex in chunk], batch_mean=False))
    return probs.data, *(grads[view.params[name]] for name in tracked)


# ---------------------------------------------------------------------------
# beam diversity


def unique_words_per_position(beam_outputs, positions: int = 13) -> list[int]:
    """Distinct tokens emitted at each generation position 1..positions,
    counted across every retained beam of every image.

    ``beam_outputs`` is a list (per image) of lists of TokenSeq hypotheses.
    Padding and end tokens are not counted.
    """
    seen: list[set] = [set() for _ in range(positions)]
    for beams in beam_outputs:
        for seq in beams:
            for pos, token_id in enumerate(seq.target_ids[:positions]):
                if token_id == END_ID:
                    break
                seen[pos].add(int(token_id))
    return [len(s) for s in seen]
