"""Command-line pipeline: synthetic data generation, training, caption
generation, BLEU evaluation, and diagnostic analysis export.

Every subcommand writes a ``manifest.json`` into its output location before
doing any work (status ``running``) and finalizes it with the produced files
and their SHA-256 checksums (status ``complete``), or marks it ``failed``;
a run is reproducible from its manifest alone. No timestamps are recorded,
so identical invocations produce byte-identical outputs. A location holding
another subcommand's manifest is refused. Every output goes through
``data.write_bytes`` (a temp file renamed).

Configuration files are flat ``key = value`` text; ``#`` starts a comment.
Recognized keys are the field names of TrainConfig and of the model's config
(ModelConfig, or LstmConfig for ``--model lstm``) minus DATA_FIELDS, the
dimensions taken from the data, plus ``init_seed``. Each value is read by
its field's declared type, and an absent key keeps the field's default.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

from captionkit import analysis, decoding, training
from captionkit import convmodel as cm
from captionkit import lstmmodel as lm
from captionkit.checkpoint import load_checkpoint
from captionkit.data import (
    CorpusRecord,
    Vocabulary,
    build_vocab,
    decode,
    read_caption_file,
    read_features,
    read_lines,
    synth_corpus,
    write_bytes,
    write_caption_file,
    write_features,
    write_lines,
)

OUT_ROOT_ENV = "CAPTIONKIT_OUT_ROOT"


class CliError(ValueError):
    """User-facing command error (bad flags, missing files, mismatches)."""


# ---------------------------------------------------------------------------
# manifest


class Manifest:
    def __init__(self, directory: str, subcommand: str, config: dict, seed, inputs: dict):
        self.directory = directory
        self.path = os.path.join(directory, "manifest.json")
        if os.path.exists(self.path):
            try:
                existing = json.load(read_lines(self.path))
            except ValueError:  # not UTF-8 (a FormatError), or not JSON
                existing = None
            if not isinstance(existing, dict):
                raise CliError(f"{directory} holds a manifest.json that is not a JSON object; "
                               "use another --out")
            owner = existing.get("subcommand")
            if owner != subcommand:
                raise CliError(f"{directory} holds the output of {owner!r}; use another --out")
        os.makedirs(directory, exist_ok=True)
        self.data = {
            "subcommand": subcommand,
            "config": config,
            "seed": seed,
            "inputs": inputs,
            "outputs": {},
            "status": "running",
        }
        self._write()

    def _write(self) -> None:
        write_lines(self.path, [json.dumps(self.data, indent=2, sort_keys=True)])

    def finish(self, outputs: list[str], **extra) -> None:
        self.data["outputs"] = {
            os.path.relpath(path, self.directory): _sha256(path) for path in outputs
        }
        self.data.update(extra)
        self.data["status"] = "complete"
        self._write()

    def __enter__(self) -> "Manifest":
        return self

    def __exit__(self, exc_type, error, traceback) -> None:
        """Any error, KeyboardInterrupt included, marks the run failed and
        propagates."""
        if error is not None:
            self.data["status"] = "failed"
            self.data["error"] = f"{type(error).__name__}: {error}"
            self._write()


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolve_out(value, subcommand: str) -> str:
    if value:
        return value
    root = os.environ.get(OUT_ROOT_ENV)
    if root:
        return os.path.join(root, subcommand)
    raise CliError(f"--out not given and ${OUT_ROOT_ENV} is not set")


# ---------------------------------------------------------------------------
# config files


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise CliError(f"{path}:{lineno}: key {key} given twice")
        values[key] = value
    return values


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.replace(" ", "").split(",") if part)


# Config values are converted by the declared type of the field they name.
CONVERTERS = {"int": int, "float": float, "bool": _bool, "tuple[int, ...]": _int_tuple}
# Model fields taken from the data directory; they are not config keys.
DATA_FIELDS = ("vocab_size", "feature_dim", "grid_size", "spatial_channels")


def _pop(values: dict, key: str, convert):
    raw = values.pop(key)
    try:
        return convert(raw)
    except ValueError as exc:
        raise CliError(f"config key {key}: {exc}") from exc


def config_fields(cls, values: dict) -> dict:
    """Pop the config keys that name fields of the dataclass ``cls`` (other
    than DATA_FIELDS), converted by each field's declared type. Absent
    fields are left out, so the dataclass default applies."""
    return {
        f.name: _pop(values, f.name, CONVERTERS[f.type])
        for f in dataclasses.fields(cls)
        if f.name in values and f.name not in DATA_FIELDS
    }


def build_model_config(values: dict, kind: str, vocab_size: int,
                       feature_dim: int, grid_size: int, spatial_channels: int):
    if kind == "lstm":
        return lm.LstmConfig(**config_fields(lm.LstmConfig, values),
                             vocab_size=vocab_size, feature_dim=feature_dim)
    fields = config_fields(cm.ModelConfig, values)
    if kind == "cnn-attn":
        fields["attention"] = True
    if fields.get("attention") and grid_size == 0:
        raise CliError("attention requested but the feature file has no spatial grids")
    return cm.ModelConfig(**fields, vocab_size=vocab_size, feature_dim=feature_dim,
                          grid_size=max(grid_size, 1),
                          spatial_channels=max(spatial_channels, 1))


# ---------------------------------------------------------------------------
# data plumbing


def _data_file(data_dir: str, name: str) -> str:
    path = os.path.join(data_dir, name)
    if not os.path.exists(path):
        raise CliError(f"data directory {data_dir} is missing {name}")
    return path


def _load_dataset(data_dir: str, nonempty=()):
    """The train and val records of a data directory and its feature
    dimensions (F, G, C); each split named in ``nonempty`` must hold a
    caption. Its ``vocab.txt`` is read by ``train`` alone; every other
    subcommand reads captions with the checkpoint's own."""
    paths = {name: _data_file(data_dir, name) for name in ("train.tsv", "val.tsv", "features.ccf")}
    features = read_features(paths["features.ccf"])
    if not features:
        raise CliError(f"{paths['features.ccf']} holds no images")
    first = next(iter(features.values()))
    g_dim, _, c_dim = first.spatial.shape if first.spatial is not None else (0, 0, 0)
    splits = {}
    for split in ("train", "val"):
        items = read_caption_file(paths[f"{split}.tsv"])
        missing = [image_id for image_id, _ in items if image_id not in features]
        if missing:
            raise CliError(f"{split}.tsv references ids without features: {missing[:3]}")
        if not items and split in nonempty:
            raise CliError(f"{paths[f'{split}.tsv']} holds no captions")
        splits[split] = [CorpusRecord(image_id, caption, features[image_id])
                         for image_id, caption in items]
    return splits, (first.global_vec.shape[0], g_dim, c_dim)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    out_dir = _resolve_out(args.out, "synth")
    with Manifest(
        out_dir, "synth",
        {
            "scenes": args.scenes, "val_fraction": args.val_fraction,
            "feature_dim": args.feature_dim, "grid": args.grid,
            "channels": args.channels, "noise": args.noise,
        },
        args.seed, {},
    ) as manifest:
        # 1.0 is refused below: it leaves no training scenes.
        if not 0.0 <= args.val_fraction <= 1.0:
            raise CliError(f"--val-fraction must be in [0, 1), got {args.val_fraction}")
        records, _ = synth_corpus(
            args.scenes, args.seed,
            feature_dim=args.feature_dim, grid_size=args.grid,
            spatial_channels=args.channels, noise=args.noise,
        )
        n_val = int(round(args.val_fraction * len(records)))
        if len(records) > 1 and n_val == 0:
            n_val = 1
        train_records = records[: len(records) - n_val]
        val_records = records[len(records) - n_val:]
        if not train_records:
            raise CliError("no training scenes left after the validation split")
        vocab = build_vocab((r.caption for r in train_records))

        paths = {name: os.path.join(out_dir, name)
                 for name in ("vocab.txt", "train.tsv", "val.tsv", "features.ccf", "scenes.json")}
        vocab.to_file(paths["vocab.txt"])
        write_caption_file(paths["train.tsv"], [(r.image_id, r.caption) for r in train_records])
        write_caption_file(paths["val.tsv"], [(r.image_id, r.caption) for r in val_records])
        write_features({r.image_id: r.features for r in records}, paths["features.ccf"])
        scenes = json.dumps({r.image_id: r.meta for r in records}, indent=2, sort_keys=True)
        write_bytes(paths["scenes.json"], [scenes.encode("utf-8")])
        manifest.finish(list(paths.values()), scenes=len(records))
    return 0


def cmd_train(args) -> int:
    out_dir = _resolve_out(args.out, "train")
    values = parse_config_file(args.config) if args.config else {}
    with Manifest(
        out_dir, "train", dict(values) | {"model": args.model},
        values.get("seed", str(training.TrainConfig.seed)),
        {"data": args.data, "config": args.config, "resume": args.resume},
    ) as manifest:
        # The pipeline trains on precomputed image features; the extractor
        # that produced them is held fixed and is never fine-tuned here.
        print("training on precomputed image features (extractor held fixed)",
              file=sys.stderr)
        manifest.data["notes"] = "image features precomputed; extractor held fixed"
        splits, (f_dim, g_dim, c_dim) = _load_dataset(args.data)
        vocab = Vocabulary.from_file(_data_file(args.data, "vocab.txt"))
        init_seed = _pop(values, "init_seed", int) if "init_seed" in values else None
        if init_seed is not None and init_seed < 0:
            raise CliError(f"config key init_seed must be >= 0, got {init_seed}")
        train_config = training.TrainConfig(**config_fields(training.TrainConfig, values))
        manifest.data["seed"] = train_config.seed
        model_config = build_model_config(values, args.model, vocab.size, f_dim, g_dim, c_dim)
        if values:
            raise CliError(f"unknown config keys: {', '.join(sorted(values))}")

        start_epoch = 0
        if args.resume:
            loaded = load_checkpoint(args.resume, expect_config=model_config)
            if loaded.vocab is not None and loaded.vocab != vocab:
                raise CliError(f"{args.resume} holds a vocabulary that differs from "
                               f"{_data_file(args.data, 'vocab.txt')}")
            model = loaded.model
            start_epoch = loaded.epoch + 1
        else:
            seed = train_config.seed if init_seed is None else init_seed
            model = (lm if args.model == "lstm" else cm).init_params(model_config, seed)

        max_steps = model_config.max_steps
        train_examples = training.prepare_examples(splits["train"], vocab, max_steps)
        val_examples = training.prepare_examples(splits["val"], vocab, max_steps)
        result = training.train(
            model, train_examples, val_examples, train_config,
            out_dir=out_dir, vocab=vocab, start_epoch=start_epoch,
            log=lambda line: print(line, file=sys.stderr),
        )
        outputs = [os.path.join(out_dir, "metrics.csv")]
        outputs += [p for p in (result.best_path, result.last_path) if p]
        manifest.finish(
            outputs,
            best_epoch=result.best_epoch,
            best_val_loss=result.best_val_loss if result.best_epoch >= 0 else None,
            clamped_probabilities=result.loss_stats.clamped,
        )
    return 0


def _load_model_checkpoint(path):
    loaded = load_checkpoint(path)
    if loaded.vocab is None:
        raise CliError(f"checkpoint {path} carries no vocabulary")
    return loaded


def cmd_caption(args) -> int:
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    with Manifest(
        out_dir, "caption", {"beam": args.beam, "max_steps": args.max_steps},
        None, {"ckpt": args.ckpt, "features": args.features},
    ) as manifest:
        loaded = _load_model_checkpoint(args.ckpt)
        features = read_features(args.features)
        ranked = {image_id: decoding.beam_search(loaded.model, feat, max_steps=args.max_steps,
                                                 beam_size=args.beam)
                  for image_id, feat in features.items()}
        lines = [f"{image_id}\t{rank}\t{logprob:.10g}\t"
                 f"{' '.join(decode(seq.target_ids, loaded.vocab))}"
                 for image_id, hyps in ranked.items()
                 for rank, (seq, logprob) in enumerate(hyps, 1)]
        manifest.finish([write_lines(args.out, lines)], images=len(features))
    return 0


def cmd_eval(args) -> int:
    out_dir = _resolve_out(args.out, "eval")
    with Manifest(
        out_dir, "eval", {"beam": args.beam, "split": args.split},
        None, {"ckpt": args.ckpt, "data": args.data},
    ) as manifest:
        loaded = _load_model_checkpoint(args.ckpt)
        splits, _ = _load_dataset(args.data, nonempty=(args.split,))
        records = splits[args.split]
        features, references = {}, {}  # per image, in first-appearance order
        for rec in records:
            features[rec.image_id] = rec.features
            references.setdefault(rec.image_id, []).append(rec.caption)
        best = [decoding.beam_search(loaded.model, feat, beam_size=args.beam)[0][0]
                for feat in features.values()]
        candidates = [(image_id, decode(seq.target_ids, loaded.vocab))
                      for image_id, seq in zip(features, best)]
        scores = analysis.bleu([tokens for _, tokens in candidates], list(references.values()))
        outputs = [
            write_lines(os.path.join(out_dir, "bleu.csv"),
                        ["n,score"] + [f"{n},{score:.10g}" for n, score in enumerate(scores, 1)]),
            write_caption_file(os.path.join(out_dir, "candidates.txt"), candidates),
            write_caption_file(os.path.join(out_dir, "references.txt"),
                               [(rec.image_id, rec.caption) for rec in records]),
        ]
        manifest.finish(outputs, bleu={f"bleu{n}": s for n, s in enumerate(scores, 1)})
        print("\n".join(f"BLEU-{n}: {score:.4f}" for n, score in enumerate(scores, 1)))
    return 0


def cmd_analyze(args) -> int:
    out_dir = _resolve_out(args.out, "analyze")
    with Manifest(
        out_dir, "analyze",
        {"beam": args.beam, "limit": args.limit, "positions": args.positions},
        None, {"ckpt": args.ckpt, "ckpt2": args.ckpt2, "data": args.data},
    ) as manifest:
        for flag, value in (("--limit", args.limit), ("--positions", args.positions)):
            if value < 1:
                raise CliError(f"{flag} must be >= 1, got {value}")
        splits, _ = _load_dataset(args.data, nonempty=("train", "val"))
        loaded = [_load_model_checkpoint(path) for path in (args.ckpt, args.ckpt2) if path]
        if len(loaded) == 2 and loaded[0].kind == loaded[1].kind:
            raise CliError(
                "side-by-side analysis expects one cnn and one lstm checkpoint, "
                f"got two {loaded[0].kind!r}"
            )
        # Each val image is decoded once, however many captions it has.
        val_images = {rec.image_id: rec.features for rec in splits["val"][:args.limit]}
        records = {}
        outputs = []
        for ckpt in loaded:
            model = ckpt.model
            records[ckpt.kind] = [
                analysis.grad_norm_probe(model, training.prepare_examples(
                    splits[split][:args.limit], ckpt.vocab, model.config.max_steps,
                ), epoch=ckpt.epoch, split=split)
                for split in ("train", "val")
            ]
            beams = [[seq for seq, _ in decoding.beam_search(model, feat, beam_size=args.beam)]
                     for feat in val_images.values()]
            diversity = analysis.unique_words_per_position(beams, positions=args.positions)
            outputs += [
                write_lines(os.path.join(out_dir, f"analysis_{ckpt.kind}.csv"),
                            [analysis.METRICS_CSV_HEADER]
                            + [record.csv_row() for record in records[ckpt.kind]]),
                write_lines(os.path.join(out_dir, f"diversity_{ckpt.kind}.csv"),
                            ["position,unique_count"]
                            + [f"{pos},{count}" for pos, count in enumerate(diversity, 1)]),
            ]
        if len(records) == 2:
            outputs += _write_comparison(out_dir, records)
        manifest.finish(outputs)
    return 0


def _write_comparison(out_dir: str, records: dict) -> list[str]:
    """Side-by-side table of the two kinds' records plus the directional
    observations, logged only; returns the paths of both files."""
    (kind_a, recs_a), (kind_b, recs_b) = records.items()
    table = [f"metric,split,{kind_a},{kind_b}"] + [
        f"{name},{ra.split},{getattr(ra, name):.10g},{getattr(rb, name):.10g}"
        for ra, rb in zip(recs_a, recs_b)
        for name in ("loss", "accuracy", "entropy", "grad_norm_in", "grad_norm_out")
    ]
    val = {kind: next(r for r in recs if r.split == "val") for kind, recs in records.items()}
    notes = [f"entropy: {kind_a}={val[kind_a].entropy:.4f} {kind_b}={val[kind_b].entropy:.4f}"]
    notes += [f"gradient decay {kind}: output/input norm ratio "
              f"{rec.grad_norm_out / rec.grad_norm_in:.2f}"
              for kind, rec in val.items() if rec.grad_norm_in > 0]
    return [write_lines(os.path.join(out_dir, "comparison.csv"), table),
            write_lines(os.path.join(out_dir, "notes.txt"), notes)]


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="captionkit",
        description="Convolutional image captioning pipeline at desk scale.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene/caption dataset")
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help=f"output dir (default ${OUT_ROOT_ENV}/synth)")
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--feature-dim", type=int, default=96)
    p.add_argument("--grid", type=int, default=4)
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--noise", type=float, default=0.05)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a captioner on a data directory")
    p.add_argument("--model", choices=("cnn", "cnn-attn", "lstm"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="flat key=value configuration file")
    p.add_argument("--out", default=None)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("caption", help="decode captions for a feature file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--out", required=True, help="output caption file")
    p.set_defaults(func=cmd_caption)

    p = sub.add_parser("eval", help="BLEU evaluation of a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="entropy/accuracy/gradient/diversity tables")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ckpt2", default=None, help="second checkpoint of the other kind")
    p.add_argument("--data", required=True)
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--limit", type=int, default=64, help="examples per split to analyze")
    p.add_argument("--positions", type=int, default=13)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # argparse handles its own exits
        print(f"captionkit {args.subcommand}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
