"""Tracemalloc peaks of one training update pass and of one probe chunk, per
model kind.

    python3 tools/memory.py [--tiny] [--vocab V] [--width W] [<tree>/src]

For each kind, a ``cnn`` with attention, weight norm and residual (3 layers,
kernels 2, 3, 3, bottleneck W/2) and an ``lstm``, at V words and W wide
(default 9,000 × 512, the paper's sizes), the tool builds a model whose
``output_w`` is drawn non-zero, and 32 random 14-word captions (15 positions)
with features of the paper's shapes: 4,096 global values and a 7×7×W grid.
It prints two tracemalloc peaks in MiB:

* ``update``: one update pass, the batch's forward (with one dropout seed per
  example), its ``nll_loss`` and the backward;
* ``probe``: one ``grad_norm_probe`` chunk of the same 32 examples.

A peak counts what the pass allocates, not the model or the examples. It
imports captionkit from the given source directory, by default this
repository's, so two trees can be measured alike. One BLAS thread is pinned, as
in ``tools/digests.py``; the peaks are the same at two.

At the defaults a ``cnn`` probe chunk peaks near 1.8 GiB and an ``lstm`` one
near 3.5 GiB, and the run takes about half a minute. ``--tiny`` runs every
step at toy sizes in about a second.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import sys
import tracemalloc
from pathlib import Path

MIB = 2**20
ROOT = Path(__file__).resolve().parents[1]


@dataclasses.dataclass(frozen=True)
class Sizes:
    vocab: int
    width: int
    examples: int
    words: int  # per caption; the passes run words + 1 positions
    feature_dim: int
    grid: int


FULL = Sizes(vocab=9000, width=512, examples=32, words=14, feature_dim=4096, grid=7)
TINY = Sizes(vocab=40, width=8, examples=4, words=14, feature_dim=16, grid=2)


def traced_peak(call) -> float:
    """The peak in MiB of the memory that ``call()`` allocates."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def build(kind: str, sizes: Sizes):
    """A model of ``kind`` with every weight drawn, and its examples."""
    import numpy as np

    cm = importlib.import_module("captionkit.convmodel")
    lm = importlib.import_module("captionkit.lstmmodel")
    data = importlib.import_module("captionkit.data")
    training = importlib.import_module("captionkit.training")
    v, w, steps = sizes.vocab, sizes.width, sizes.words + 1
    if kind == "cnn":
        model = cm.init_params(cm.ModelConfig(
            vocab_size=v, embed_dim=w, hidden_dim=w, num_layers=3, kernel_widths=(2, 3, 3),
            bottleneck_dim=w // 2, max_steps=steps, feature_dim=sizes.feature_dim,
            weight_norm=True, residual=True, attention=True, grid_size=sizes.grid,
            spatial_channels=w), seed=0)
    else:
        model = lm.init_params(lm.LstmConfig(vocab_size=v, embed_dim=w, hidden_dim=w,
                                             max_steps=steps, feature_dim=sizes.feature_dim),
                               seed=0)
    rng = np.random.default_rng(1)
    out = model.params["output_w"].data
    out[...] = rng.uniform(-1.0, 1.0, size=out.shape) / np.sqrt(out.shape[0])
    examples = [training.Example(
        f"img{i}", data.TokenSeq.from_token_ids(rng.integers(3, v, size=sizes.words), steps),
        data.ImageFeatures(rng.normal(size=sizes.feature_dim).astype(np.float32),
                           rng.normal(size=(sizes.grid, sizes.grid, w)).astype(np.float32)))
        for i in range(sizes.examples)]
    return model, examples


def peaks(kind: str, sizes: Sizes) -> dict[str, float]:
    """The update-pass and probe-chunk peaks of one kind, in MiB."""
    ad = importlib.import_module("captionkit.autodiff")
    analysis = importlib.import_module("captionkit.analysis")
    model, examples = build(kind, sizes)
    seqs = [ex.seq for ex in examples]
    features = [ex.features for ex in examples]

    def update():
        probs, _ = model.forward(analysis.teacher_forced_ids(seqs), features,
                                 seed=list(range(len(examples))))
        ad.backward(analysis.nll_loss(probs, seqs))

    return {"update": traced_peak(update),
            "probe": traced_peak(lambda: analysis.grad_norm_probe(model, examples,
                                                                   len(examples)))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"),
                        help="a tree's src directory (default: this repository's)")
    parser.add_argument("--tiny", action="store_true", help="toy sizes, every step")
    parser.add_argument("--vocab", type=int, help="words in the vocabulary")
    parser.add_argument("--width", type=int, help="embedding and hidden width")
    args = parser.parse_args(argv)
    # One BLAS thread, set before captionkit imports numpy, as in tools/digests.py.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sizes = TINY if args.tiny else FULL
    sizes = dataclasses.replace(sizes, vocab=args.vocab or sizes.vocab,
                                width=args.width or sizes.width)
    if sizes.vocab < 4 or sizes.width < 2:
        parser.error("the vocabulary needs at least 4 words and the width at least 2")
    sys.path.insert(0, os.path.abspath(args.src))
    package = importlib.import_module("captionkit")
    print(f"captionkit from {os.path.dirname(package.__file__)}", file=sys.stderr)
    print(f"{sizes.vocab} words x {sizes.width} wide, {sizes.examples} examples, "
          f"{sizes.words + 1} positions: tracemalloc peaks in MiB")
    for kind in ("cnn", "lstm"):
        measured = peaks(kind, sizes)
        print(f"{kind:5s} update {measured['update']:10.2f}  probe {measured['probe']:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
