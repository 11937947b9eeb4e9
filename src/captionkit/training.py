"""Teacher-forced negative-log-likelihood training with RMSProp for both
model kinds: staircase learning-rate schedule, deterministic shuffling and
dropout seeding derived from (seed, epoch), per-epoch diagnostics, and
best-by-validation checkpointing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from captionkit import analysis
from captionkit import autodiff as ad
from captionkit.analysis import LossStats, nll_loss
from captionkit.autodiff import Tensor
from captionkit.checkpoint import save_checkpoint
from captionkit.data import EmptyCorpusError, ImageFeatures, TokenSeq, Vocabulary, encode


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
    loss_reduction: str = "mean"
    probe_size: int = 64

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if self.decay_period < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("decay_period, epochs and batch_size must be >= 1")
        if not 0.0 < self.rms_alpha < 1.0 or self.rms_epsilon <= 0:
            raise ValueError("rms_alpha must be in (0, 1) and rms_epsilon > 0")
        if self.loss_reduction not in ("mean", "sum"):
            raise ValueError(f"loss_reduction must be 'mean' or 'sum', got {self.loss_reduction}")
        if self.eval_cadence < 1 or self.probe_size < 1:
            raise ValueError("eval_cadence and probe_size must be >= 1")


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

    def step(self, lr: float) -> None:
        """Apply one update; a non-finite gradient anywhere aborts it before
        any parameter, accumulator or the step count changes."""
        live = [(name, t, t.grad) for name, t in self.params.items() if t.grad is not None]
        for name, _, g in live:
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient in parameter {name!r}")
        for name, t, g in live:
            v = self.accum[name]
            v *= self.alpha
            v += (1.0 - self.alpha) * g * g
            t.data -= lr * g / (np.sqrt(v) + self.epsilon)
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
    ``nll_loss``, the mean of its examples' losses. Every example still gets
    its own dropout seed, drawn in shuffle order, so its masks are the ones a
    forward of that example alone would draw. The per-epoch probe
    (``analysis.grad_norm_probe``) runs in chunks of at most ``batch_size``
    examples, so its graphs are no larger than an update's.

    Fully deterministic for a given seed: each epoch's shuffle and dropout
    noise derive from (seed, epoch), so a resumed run replays the same epoch
    stream an uninterrupted run would (RMSProp accumulators restart on
    resume). Per epoch this emits a train record and, every
    ``eval_cadence``-th epoch counted from epoch 0 and at the last epoch, a
    val record, both measured after the epoch's updates with dropout off, so
    a resumed run evaluates the epochs an uninterrupted one would; the
    best-validation-loss checkpoint is retained alongside the latest one.
    """
    if not train_examples:
        raise EmptyCorpusError("cannot train on an empty corpus")
    params = model.parameters()
    optimizer = RmsProp(params, config.rms_alpha, config.rms_epsilon)
    result = TrainResult()

    metrics_path = None
    ckpt_dir = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ckpt_dir = os.path.join(out_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.csv")
        if start_epoch == 0 or not os.path.exists(metrics_path):
            with open(metrics_path, "w", encoding="utf-8") as fh:
                fh.write(analysis.METRICS_CSV_HEADER + "\n")

    train_probe = train_examples[: config.probe_size]
    val_probe = val_examples[: config.probe_size]

    for epoch in range(start_epoch, start_epoch + config.epochs):
        lr = lr_for_epoch(config, epoch)
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, epoch)))
        order = rng.permutation(len(train_examples))
        for lo in range(0, len(order), config.batch_size):
            batch = [train_examples[idx] for idx in order[lo:lo + config.batch_size]]
            seeds = [int(rng.integers(2**31)) for _ in batch]
            ad.zero_gradients(params)
            probs, _ = model.forward(
                np.stack([ex.seq.input_ids for ex in batch]), [ex.features for ex in batch],
                train_mode=True, seed=seeds,
            )
            ad.backward(nll_loss(probs, [ex.seq for ex in batch], config.loss_reduction,
                                 result.loss_stats))
            optimizer.step(lr)

        records = [analysis.grad_norm_probe(model, train_probe, config.batch_size)
                   .record(epoch, "train")]
        evaluate = val_examples and (
            (epoch + 1) % config.eval_cadence == 0
            or epoch == start_epoch + config.epochs - 1
        )
        if evaluate:
            val_record = analysis.grad_norm_probe(model, val_probe, config.batch_size).record(
                epoch, "val")
            records.append(val_record)
            if val_record.loss < result.best_val_loss:
                result.best_val_loss = val_record.loss
                result.best_epoch = epoch
                if ckpt_dir is not None:
                    result.best_path = os.path.join(ckpt_dir, "best.ckpt")
                    save_checkpoint(result.best_path, model, seed=config.seed,
                                    epoch=epoch, vocab=vocab)
        if ckpt_dir is not None:
            result.last_path = os.path.join(ckpt_dir, "last.ckpt")
            save_checkpoint(result.last_path, model, seed=config.seed, epoch=epoch, vocab=vocab)
        result.history.extend(records)
        if metrics_path is not None:
            with open(metrics_path, "a", encoding="utf-8") as fh:
                for record in records:
                    fh.write(record.csv_row() + "\n")
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

