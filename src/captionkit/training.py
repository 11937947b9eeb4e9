"""Teacher-forced negative-log-likelihood training with RMSProp for both
model kinds: staircase learning-rate schedule, deterministic shuffling and
dropout seeding derived from (seed, epoch), per-epoch diagnostics, and
best-by-validation checkpointing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from captionkit import analysis
from captionkit import autodiff as ad
from captionkit.analysis import LossStats, nll_loss, teacher_forced_ids
from captionkit.autodiff import Tensor
from captionkit.checkpoint import load_checkpoint, save_checkpoint
from captionkit.data import (EmptyCorpusError, ImageFeatures, TokenSeq, Vocabulary, encode,
                             read_lines, write_bytes, write_lines)


class NonFiniteGradientError(RuntimeError):
    """A parameter gradient went NaN/inf; the epoch must be aborted."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-5
    decay_factor: float = 0.1
    decay_period: int = 15
    epochs: int = 30
    batch_size: int = analysis.BATCH_SIZE
    rms_alpha: float = 0.99
    rms_epsilon: float = 1e-8
    seed: int = 0
    eval_cadence: int = 1
    probe_size: int = 64

    def __post_init__(self):
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if self.decay_period < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("decay_period, epochs and batch_size must be >= 1")
        if not (0.0 < self.rms_alpha < 1.0 and self.rms_epsilon > 0
                and math.isfinite(self.rms_epsilon)):
            raise ValueError("rms_alpha must be in (0, 1) and rms_epsilon > 0 and finite")
        if self.eval_cadence < 1 or self.probe_size < 1:
            raise ValueError("eval_cadence and probe_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def lr_for_epoch(config: TrainConfig, epoch: int) -> float:
    """Staircase schedule: the initial rate decayed once per completed period."""
    return config.learning_rate * config.decay_factor ** (epoch // config.decay_period)


class RmsProp:
    """v <- alpha*v + (1-alpha)*g^2 ; theta <- theta - lr*g/(sqrt(v)+eps)."""

    def __init__(self, params: dict[str, Tensor], alpha: float = 0.99, epsilon: float = 1e-8):
        self.params = params
        self.alpha = alpha
        self.epsilon = epsilon
        self.accum = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.steps = 0

    def step(self, lr: float, grads: dict[Tensor, np.ndarray]) -> None:
        """Update the parameters that ``grads`` holds, as ``ad.backward``
        returns it; a non-finite gradient anywhere aborts the update before
        any parameter, accumulator or the step count changes."""
        live = [(name, t, grads[t]) for name, t in self.params.items() if t in grads]
        for name, _, g in live:
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient in parameter {name!r}")
        for name, t, g in live:
            # The products and sums of the formula above, in its order, into
            # two scratch arrays per parameter.
            v = self.accum[name]
            v *= self.alpha
            step = np.multiply(1.0 - self.alpha, g)
            step *= g
            v += step
            denom = np.sqrt(v)
            denom += self.epsilon
            np.multiply(lr, g, out=step)
            step /= denom
            t.data -= step
        self.steps += 1


@dataclass
class Example:
    image_id: str
    seq: TokenSeq
    features: ImageFeatures


def prepare_examples(records, vocab: Vocabulary, max_steps: int) -> list[Example]:
    return [
        Example(rec.image_id, encode(rec.caption, vocab, max_steps), rec.features)
        for rec in records
    ]


@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    loss_stats: LossStats = field(default_factory=LossStats)
    best_path: str | None = None
    last_path: str | None = None


def train(
    model,
    train_examples: list[Example],
    val_examples: list[Example],
    config: TrainConfig,
    *,
    out_dir: str | None = None,
    vocab: Vocabulary | None = None,
    start_epoch: int = 0,
    log=None,
) -> TrainResult:
    """Run the teacher-forced training loop and return per-epoch records.

    Each minibatch is one batched forward and one backward of the batch's
    ``nll_loss``, the mean of its examples' losses. The forward runs only
    the positions up to the batch's longest caption, the rows that loss
    reads (``analysis.teacher_forced_ids``); both models are causal, so the
    kept rows are those of a full-length forward. Every example still gets
    its own dropout seed, drawn in shuffle order, and the convolutional
    model draws its masks per position, so an example's masks are the ones
    a full-length forward of that example alone would draw. The per-epoch
    probe (``analysis.grad_norm_probe``) runs in chunks of at most
    ``batch_size`` examples, so its graphs are no larger than an update's.
    Training holds one update graph at a time: nothing of a minibatch's
    forward, loss, backward or step stays referenced once the step returns,
    so the next forward, the probes and the checkpoint writes run without
    it. A resumed run keeps only the val loss of the ``best.ckpt`` it loads.

    Fully deterministic for a given seed: each epoch's shuffle and dropout
    noise derive from (seed, epoch), so a resumed run replays the same epoch
    stream an uninterrupted run would (RMSProp accumulators restart on
    resume). Per epoch this emits a train record and, every
    ``eval_cadence``-th epoch counted from epoch 0 and at the last epoch, a
    val record, both measured after the epoch's updates with dropout off, so
    a resumed run evaluates the epochs an uninterrupted one would; the
    best-validation-loss checkpoint is retained alongside the latest one. A
    resumed run keeps the ``best.ckpt`` of an earlier epoch, with that
    epoch's val loss, until one of its own epochs beats it.

    With ``out_dir``, each epoch rewrites ``metrics.csv`` before its
    checkpoints, and a resumed run keeps the file's rows of the epochs before
    ``start_epoch``. A run killed at any point and resumed from
    ``last.ckpt`` then has one row per epoch and split. Each epoch serializes
    the model once: an improving one into ``best.ckpt``, whose bytes then
    become ``last.ckpt``.
    """
    if not train_examples:
        raise EmptyCorpusError("cannot train on an empty corpus")
    optimizer = RmsProp(model.parameters(), config.rms_alpha, config.rms_epsilon)
    result = TrainResult()

    train_probe = train_examples[: config.probe_size]
    val_probe = val_examples[: config.probe_size]

    ckpt_dir = None
    metrics = [analysis.METRICS_CSV_HEADER]
    if out_dir is not None:
        ckpt_dir = os.path.join(out_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.csv")
        if start_epoch > 0 and os.path.exists(metrics_path):
            rows = read_lines(metrics_path).read().splitlines()[1:]
            metrics += [row for row in rows if int(row.split(",", 1)[0]) < start_epoch]
        best_path = os.path.join(ckpt_dir, "best.ckpt")
        if start_epoch > 0 and val_probe and os.path.exists(best_path):
            best = load_checkpoint(best_path, expect_config=model.config)
            if best.epoch < start_epoch:
                # The probe is a pure function of the parameters, which the
                # file round-trips bit-exactly: the earlier run's val loss.
                result.best_epoch, result.best_path = best.epoch, best_path
                result.best_val_loss = analysis.grad_norm_probe(
                    best.model, val_probe, config.batch_size).loss
            del best  # a second copy of every parameter; only its val loss is kept

    for epoch in range(start_epoch, start_epoch + config.epochs):
        lr = lr_for_epoch(config, epoch)
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, epoch)))
        order = rng.permutation(len(train_examples))
        for lo in range(0, len(order), config.batch_size):
            batch = [train_examples[idx] for idx in order[lo:lo + config.batch_size]]
            seeds = [int(rng.integers(2**31)) for _ in batch]
            seqs = [ex.seq for ex in batch]
            probs = model.forward(teacher_forced_ids(seqs), [ex.features for ex in batch],
                                  seed=seeds)[0]
            loss = nll_loss(probs, seqs, result.loss_stats)
            optimizer.step(lr, ad.backward(loss))
            del probs, loss  # the minibatch's graph, which nothing else holds

        records = [analysis.grad_norm_probe(model, train_probe, config.batch_size,
                                            epoch=epoch, split="train")]
        evaluate = val_examples and (
            (epoch + 1) % config.eval_cadence == 0
            or epoch == start_epoch + config.epochs - 1
        )
        if evaluate:
            records.append(analysis.grad_norm_probe(model, val_probe, config.batch_size,
                                                    epoch=epoch, split="val"))
        result.history.extend(records)
        improved = evaluate and records[-1].loss < result.best_val_loss
        if improved:
            result.best_val_loss = records[-1].loss
            result.best_epoch = epoch
        if ckpt_dir is not None:
            metrics += [record.csv_row() for record in records]
            write_lines(metrics_path, metrics)
            result.last_path = os.path.join(ckpt_dir, "last.ckpt")
            if improved:
                result.best_path = best_path
                save_checkpoint(best_path, model, seed=config.seed, epoch=epoch, vocab=vocab)
                with open(best_path, "rb") as fh:  # the same bytes, a chunk at a time
                    write_bytes(result.last_path, iter(lambda: fh.read(1 << 20), b""))
            else:
                save_checkpoint(result.last_path, model, seed=config.seed, epoch=epoch, vocab=vocab)
        if log is not None:
            head = records[0]
            tail = records[-1]
            non_finite = [r.split for r in records if not r.finite]
            log(
                f"epoch {epoch:4d} lr {lr:.3g} train_loss {head.loss:.4f}"
                + (f" val_loss {tail.loss:.4f} val_acc {tail.accuracy:.3f}" if len(records) > 1 else "")
                + (f" NON-FINITE probe gradient ({', '.join(non_finite)})" if non_finite else "")
            )
    return result

