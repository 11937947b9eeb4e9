"""Named sha256 digests of captionkit's outputs, to check that a change
leaves them byte-identical.

    python3 tools/digests.py [--tiny] <tree>/src > a.json
    python3 tools/digests.py --compare a.json b.json

The first form imports captionkit from the given source directory and prints
a JSON object of digests, computed with one BLAS thread at fixed seeds:

* for each model kind (a ``cnn`` with attention, weight norm, residual and
  dropout, and an ``lstm``, both 64 wide) at ``max_steps`` 8 and 15: the
  ``metrics.csv``, ``best.ckpt`` and ``last.ckpt`` of a 3-epoch training
  run and its history; beams of widths 1 and 3 over 12 held-out images, as
  token ids and ``float.hex`` log-probabilities; ``sample_decode`` at seeds
  0-9 on the same images; and the six values of ``grad_norm_probe`` at
  chunk size 7, without its epoch and split labels;
* for each kind at ``max_steps`` 8, the same six probe values with one
  ``word_embedding`` row that the probe examples read set to NaN, so a
  flagged record is compared too;
* for each kind at ``max_steps`` 8, a resumed run: 2 epochs, then the
  model loaded from ``last.ckpt`` trained with ``start_epoch=2`` for 1 more
  epoch in the same directory; its ``metrics.csv``, ``best.ckpt`` and
  ``last.ckpt``;
* a feature file written from float64 features, one of whose grids is
  strided and one Fortran-ordered: the float32 cast that ``synth``, which
  writes float32, never reaches;
* every file of a CLI chain: ``synth``; ``train`` of ``cnn-attn``, plain
  ``cnn`` and ``lstm`` with a ``--resume``; ``caption`` and ``eval`` at beam 3
  of all three; ``analyze`` of the ``cnn-attn`` and ``lstm`` pair. The chain
  runs in a temporary directory, whose path is replaced by ``<root>``.

``--tiny`` runs the same steps, with the same digest names, on fewer scenes,
epochs and held-out images, in about a second; the tests run it twice under
different hash seeds to check that the outputs do not depend on the process.

Digests depend on the BLAS build, so two trees are compared on one machine
and no digest is kept as an expected value. The second form names every
digest that differs or that only one file has, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

WIDTH = 64
CLI_WIDTH = 16
# What grad_norm_probe measures, the fields its result has in every tree.
PROBE_VALUES = ("loss", "accuracy", "entropy", "grad_norm_in", "grad_norm_out", "finite")


@dataclasses.dataclass(frozen=True)
class Sizes:
    scenes: int  # of the library corpus; the first four fifths train
    epochs: int
    held_out: int  # images decoded per model
    cli_scenes: int
    cli_epochs: int


FULL = Sizes(scenes=100, epochs=3, held_out=12, cli_scenes=60, cli_epochs=2)
TINY = Sizes(scenes=20, epochs=1, held_out=2, cli_scenes=16, cli_epochs=1)


def cli_configs(epochs: int) -> dict[str, str]:
    """The CLI chain's configs; attention needs hidden_dim equal to the
    channels that ``synth --channels`` writes."""
    recipe = (f"embed_dim = {CLI_WIDTH}\nhidden_dim = {CLI_WIDTH}\nlearning_rate = 1e-3\n"
              f"epochs = {epochs}\nbatch_size = 16\nseed = 3\nprobe_size = 16\n")
    conv = f"bottleneck_dim = {CLI_WIDTH}\nnum_layers = 2\nkernel_widths = 2,3\ndropout_p = 0.1\n"
    return {"attn.cfg": recipe + conv + "weight_norm = true\nresidual = true\n",
            "cnn.cfg": recipe + conv,
            "lstm.cfg": recipe}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lines(lines) -> bytes:
    return "\n".join(lines).encode("utf-8")


def _hex_fields(record, names=None) -> str:
    """A dataclass's fields, or those of them in ``names``, with every float
    written exactly."""
    return json.dumps({k: v.hex() if isinstance(v, float) else v
                       for k, v in dataclasses.asdict(record).items()
                       if names is None or k in names}, sort_keys=True)


def _model(kind: str, vocab_size: int, features, max_steps: int):
    cm = importlib.import_module("captionkit.convmodel")
    lm = importlib.import_module("captionkit.lstmmodel")
    if kind == "lstm":
        return lm.init_params(lm.LstmConfig(vocab_size=vocab_size, embed_dim=WIDTH,
                                            hidden_dim=WIDTH, max_steps=max_steps,
                                            feature_dim=features.global_vec.shape[0]), 2)
    return cm.init_params(cm.ModelConfig(
        vocab_size=vocab_size, embed_dim=WIDTH, hidden_dim=WIDTH, num_layers=3,
        kernel_widths=(2, 3, 3), bottleneck_dim=WIDTH, max_steps=max_steps,
        feature_dim=features.global_vec.shape[0], dropout_p=0.1, weight_norm=True,
        residual=True, attention=True, grid_size=features.spatial.shape[0],
        spatial_channels=features.spatial.shape[2]), 2)


def library_digests(work: Path, sizes: Sizes) -> dict[str, str]:
    data = importlib.import_module("captionkit.data")
    training = importlib.import_module("captionkit.training")
    decoding = importlib.import_module("captionkit.decoding")
    analysis = importlib.import_module("captionkit.analysis")
    records, vocab = data.synth_corpus(sizes.scenes, seed=5, spatial_channels=WIDTH)
    cut = sizes.scenes * 4 // 5
    digests = {}
    for kind in ("cnn", "lstm"):
        for max_steps in (8, 15):
            name = f"{kind}/max_steps={max_steps}"
            examples = training.prepare_examples(records, vocab, max_steps)
            train, val = examples[:cut], examples[cut:]
            model = _model(kind, vocab.size, records[0].features, max_steps)
            run_dir = work / name
            result = training.train(
                model, train, val,
                training.TrainConfig(learning_rate=1e-3, epochs=sizes.epochs, seed=11,
                                     probe_size=64),
                out_dir=str(run_dir), vocab=vocab)
            for path in ("metrics.csv", "checkpoints/best.ckpt", "checkpoints/last.ckpt"):
                digests[f"{name}/{Path(path).name}"] = _sha((run_dir / path).read_bytes())
            digests[f"{name}/history"] = _sha(_lines(map(_hex_fields, result.history)))
            images = [ex.features for ex in val[:sizes.held_out]]
            for width in (1, 3):
                digests[f"{name}/beam{width}"] = _sha(_lines(
                    f"{seq.target_ids.tolist()} {logprob.hex()}" for features in images
                    for seq, logprob in decoding.beam_search(model, features, beam_size=width)))
            digests[f"{name}/sample"] = _sha(_lines(
                str(decoding.sample_decode(model, features, seed=seed).target_ids.tolist())
                for features in images for seed in range(10)))
            probe = analysis.grad_norm_probe(model, examples[:sizes.scenes // 2], batch_size=7)
            digests[f"{name}/probe"] = _sha(_hex_fields(probe, PROBE_VALUES).encode("utf-8"))
            if max_steps == 8:
                digests[f"{kind}/probe-nan"] = nan_probe_digest(model, examples[:sizes.scenes // 2])
        digests |= resumed_digests(work / kind / "resumed", kind, records, vocab, cut)
    return digests


def nan_probe_digest(model, examples) -> str:
    """The probe's six values with the row of the first example's first
    word set to NaN; the model is restored afterwards."""
    analysis = importlib.import_module("captionkit.analysis")
    table = model.params["word_embedding"].data
    row = examples[0].seq.input_ids[1]
    saved = table[row].copy()
    table[row] = float("nan")
    try:
        probe = analysis.grad_norm_probe(model, examples, batch_size=7)
    finally:
        table[row] = saved
    return _sha(_hex_fields(probe, PROBE_VALUES).encode("utf-8"))


def resumed_digests(run_dir: Path, kind: str, records, vocab, cut: int) -> dict[str, str]:
    training = importlib.import_module("captionkit.training")
    checkpoint = importlib.import_module("captionkit.checkpoint")
    examples = training.prepare_examples(records, vocab, 8)
    model = _model(kind, vocab.size, records[0].features, 8)
    for start, epochs in ((0, 2), (2, 1)):
        if start:
            model = checkpoint.load_checkpoint(run_dir / "checkpoints" / "last.ckpt").model
        training.train(model, examples[:cut], examples[cut:],
                       training.TrainConfig(learning_rate=1e-3, epochs=epochs, seed=11,
                                            probe_size=64),
                       out_dir=str(run_dir), vocab=vocab, start_epoch=start)
    return {f"{kind}/resumed/{Path(path).name}": _sha((run_dir / path).read_bytes())
            for path in ("metrics.csv", "checkpoints/best.ckpt", "checkpoints/last.ckpt")}


def feature_file_digests(work: Path) -> dict[str, str]:
    import numpy as np

    data = importlib.import_module("captionkit.data")
    rng = np.random.default_rng(13)
    grids = [rng.normal(size=(4, 4, 8)), rng.normal(size=(8, 8, 8))[::2, ::2],
             np.asfortranarray(rng.normal(size=(4, 4, 8)))]
    work.mkdir(parents=True)
    path = work / "float64.ccf"
    data.write_features({f"img{i}": data.ImageFeatures(rng.normal(size=6), grid)
                         for i, grid in enumerate(grids)}, path)
    return {"data/float64.ccf": _sha(path.read_bytes())}


def cli_digests(root: Path, sizes: Sizes) -> dict[str, str]:
    cli = importlib.import_module("captionkit.cli")
    root.mkdir(parents=True)
    for name, text in cli_configs(sizes.cli_epochs).items():
        (root / name).write_text(text)
    steps = [
        ["synth", "--scenes", str(sizes.cli_scenes), "--seed", "9", "--channels", str(CLI_WIDTH),
         "--out", "data"],
        ["train", "--model", "cnn-attn", "--data", "data", "--config", "attn.cfg", "--out", "attn"],
        ["train", "--model", "cnn", "--data", "data", "--config", "cnn.cfg", "--out", "cnn"],
        ["train", "--model", "lstm", "--data", "data", "--config", "lstm.cfg", "--out", "lstm"],
        ["train", "--model", "lstm", "--data", "data", "--config", "lstm.cfg", "--out", "lstm",
         "--resume", "lstm/checkpoints/last.ckpt"],
    ]
    for run in ("attn", "cnn", "lstm"):
        ckpt = f"{run}/checkpoints/best.ckpt"
        steps += [["caption", "--ckpt", ckpt, "--features", "data/features.ccf", "--beam", "3",
                   "--out", f"caption-{run}/caps.txt"],
                  ["eval", "--ckpt", ckpt, "--data", "data", "--beam", "3", "--out", f"eval-{run}"]]
    steps.append(["analyze", "--ckpt", "attn/checkpoints/best.ckpt",
                  "--ckpt2", "lstm/checkpoints/best.ckpt", "--data", "data", "--beam", "3",
                  "--limit", "12", "--out", "analyze"])
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in steps:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            if status != 0:
                raise SystemExit(f"captionkit {' '.join(argv)} exited {status}:\n{err.getvalue()}")
    finally:
        os.chdir(cwd)
    return {f"cli/{path.relative_to(root).as_posix()}":
            _sha(path.read_bytes().replace(str(root).encode("utf-8"), b"<root>"))
            for path in sorted(root.rglob("*")) if path.is_file()}


def tree_digests(src: str, sizes: Sizes) -> dict[str, str]:
    sys.path.insert(0, os.path.abspath(src))
    package = importlib.import_module("captionkit")
    print(f"captionkit from {os.path.dirname(package.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        return (library_digests(work / "lib", sizes) | feature_file_digests(work / "data")
                | cli_digests(work / "chain", sizes))


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (a_path, b_path))
    names = sorted(a.keys() | b.keys())
    differ = [name for name in names if a.get(name) != b.get(name)]
    for name in differ:
        where = "differs" if name in a and name in b else f"only in {a_path if name in a else b_path}"
        print(f"{where}: {name}")
    print(f"{len(names) - len(differ)} of {len(names)} digests equal")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", help="a tree's src directory")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two digest files")
    parser.add_argument("--tiny", action="store_true",
                        help="fewer scenes, epochs and held-out images; same digest names")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.src:
        parser.error("give a src directory or --compare A B")
    # One BLAS thread, set before captionkit imports numpy: a product's bits
    # can depend on the thread count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    print(json.dumps(tree_digests(args.src, TINY if args.tiny else FULL), indent=2,
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
