"""One benchmark workload: set-up, warm-up, timed rounds, checks and the
metrics computed from them. ``run.py`` is the entry point."""

from __future__ import annotations

import json
import resource
import shutil
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from captionkit import checkpoint, cli, data, decoding, training
from captionkit import convmodel as cm
from captionkit import lstmmodel as lm
from tracing import TRACED_OPS

MAX_STEPS = 8
WIDTH = 64
BEAM = 3
VAL_FRACTION = 0.2


@dataclass(frozen=True)
class Size:
    scenes: int            # synthetic scenes; the last fifth is held out
    epochs: int            # epochs per training round
    probe: int             # trainer probe size
    setups: int            # set-ups per run; setup_s is their median
    warmup_s: float
    # Least shares of held-out greedy captions equal to the generator's
    # template, whole and word by word, per model kind.
    floors: dict


# 100 held-out images, each captioned once per epoch of every round after
# the first: at least six times per mode in a run. After six epochs, over 20 seeds,
# cnn greedy captions equal the template for 0.32 to 0.91 of the held-out
# scenes (0.87 to 0.99 of the words in place) and lstm ones for at most 0.01
# (0.44 to 0.49 of the words); the floors sit well below. See README.md.
FULL = Size(scenes=500, epochs=6, probe=64, setups=9, warmup_s=2.0,
            floors={"cnn": (0.05, 0.7), "lstm": (0.0, 0.35)})
# For the benchmark's own tests: every step of a run, in a few seconds.
TINY = Size(scenes=60, epochs=3, probe=8, setups=2, warmup_s=0.0,
            floors={"cnn": (0.0, 0.0), "lstm": (0.0, 0.0)})


@dataclass
class Dataset:
    vocab: object
    train: list
    val: list
    templates: dict  # image id -> the generator's caption for the scene


class Bench:
    def __init__(self, kind: str, seed: int, size: Size, tracer, work: Path):
        self.kind, self.size, self.tracer, self.work = kind, size, tracer, work
        corpus, init, train = np.random.SeedSequence(abs(seed)).generate_state(3)
        self.corpus_seed, self.init_seed, self.train_seed = int(corpus), int(init), int(train)
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.epoch_s: list[float] = []
        # mode -> held-out image index -> its latencies, one per pass
        self.latency_ms = {"greedy": defaultdict(list), "beam3": defaultdict(list)}
        self.passes = 0
        self.rounds = 0
        self.caption_model = None  # best.ckpt of the last round, loaded
        self.first_history = None
        self.first_captions = None
        self.template_share = self.template_word_share = None

    def captions(self, mode: str) -> int:
        return sum(len(v) for v in self.latency_ms[mode].values())

    @property
    def attempted(self) -> int:
        return len(self.epoch_s) + self.captions("greedy") + self.captions("beam3")

    def verify(self, check, *args) -> None:
        try:
            check(*args)
        except checks.CheckFailed as exc:
            self.problems.append(str(exc))

    # ------------------------------------------------------------------
    # the run

    def run(self, seconds: float) -> None:
        # The first set-up feeds the warm-up; the ones after it are timed.
        self.ds = self.set_up(self.work / "data")
        self.warm_up()
        self.tracer.phase = "setup"
        for i in range(self.size.setups):
            t0 = perf_counter()
            self.ds = self.set_up(self.work / f"data{i}")
            self.setup_s.append(perf_counter() - t0)
        self.tracer.phase = None
        # Whole rounds only; stop before a round that would end past the
        # deadline, once a round with captions is in.
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self.round(self.work / f"round{self.rounds}")
            self.rounds += 1
            now = perf_counter()
            if self.rounds >= 2 and now + (now - t0) - start > seconds:
                return

    def set_up(self, out: Path) -> Dataset:
        with self.tracer.span("cli.synth"):
            code = cli.main(["synth", "--scenes", str(self.size.scenes),
                             "--seed", str(self.corpus_seed),
                             "--val-fraction", str(VAL_FRACTION), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"captionkit synth exited with {code}")
        vocab = data.Vocabulary.from_file(out / "vocab.txt")
        with self.tracer.span("data.read_features"):
            features = data.read_features(out / "features.ccf")
        scenes = json.loads((out / "scenes.json").read_text(encoding="utf-8"))
        splits = {}
        for split in ("train", "val"):
            items = data.read_caption_file(out / f"{split}.tsv")
            records = [data.CorpusRecord(i, caption, features[i]) for i, caption in items]
            with self.tracer.span("data.prepare_examples"):
                splits[split] = training.prepare_examples(records, vocab, MAX_STEPS)
        templates = {ex.image_id: checks.template_caption(scenes[ex.image_id])
                     for ex in splits["val"]}
        return Dataset(vocab, splits["train"], splits["val"], templates)

    def new_model(self):
        ds = self.ds
        feat = ds.train[0].features
        if self.kind == "cnn":
            config = cm.ModelConfig(
                vocab_size=ds.vocab.size, embed_dim=WIDTH, hidden_dim=WIDTH, num_layers=3,
                kernel_widths=(2, 3, 3), bottleneck_dim=WIDTH, max_steps=MAX_STEPS,
                feature_dim=feat.global_vec.shape[0], dropout_p=0.1, weight_norm=True,
                residual=True, attention=True, grid_size=feat.spatial.shape[0],
                spatial_channels=feat.spatial.shape[2],
            )
            return cm.init_params(config, self.init_seed)
        config = lm.LstmConfig(vocab_size=ds.vocab.size, embed_dim=WIDTH, hidden_dim=WIDTH,
                               max_steps=MAX_STEPS, feature_dim=feat.global_vec.shape[0])
        return lm.init_params(config, self.init_seed)

    def train_config(self, epochs: int, probe: int):
        return training.TrainConfig(
            learning_rate=1e-3, decay_factor=0.1, decay_period=15, epochs=epochs,
            batch_size=32, seed=self.train_seed, probe_size=probe,
        )

    def caption(self, model, features, mode: str):
        if mode == "greedy":
            return decoding.greedy_decode(model, features)
        return decoding.beam_search(model, features, beam_size=BEAM)

    def warm_up(self) -> None:
        # Past the machine's burst after idle and the first calls' costs.
        deadline = perf_counter() + self.size.warmup_s
        while True:
            model = self.new_model()
            training.train(model, self.ds.train[:64], self.ds.val[:16],
                           self.train_config(1, 8), out_dir=str(self.work / "warmup"),
                           vocab=self.ds.vocab)
            for ex in self.ds.val[:4]:
                for mode in ("greedy", "beam3"):
                    self.caption(model, ex.features, mode)
            if perf_counter() >= deadline:
                return

    def round(self, out: Path) -> None:
        """Train a fresh model; after each epoch, caption every held-out image
        with the model the previous round saved."""
        ds, size = self.ds, self.size
        probe = ds.train[:size.probe]
        model = self.new_model()
        self.verify(checks.check_fresh_probe, model, probe, ds.vocab.size)

        epoch_start = [perf_counter()]

        def on_epoch_end(_line):
            self.epoch_s.append(perf_counter() - epoch_start[0])
            if self.caption_model is not None:
                self.tracer.phase = None
                self.check_captions(self.caption_pass())
                self.tracer.phase = "train"
            epoch_start[0] = perf_counter()

        self.tracer.phase = "train"
        result = training.train(
            model, ds.train, ds.val, self.train_config(size.epochs, size.probe),
            out_dir=str(out), vocab=ds.vocab, log=on_epoch_end,
        )
        self.tracer.phase = None

        losses = [r.loss for r in result.history if r.split == "train"]
        self.verify(checks.check_reported_probe, model, probe, losses[-1])
        self.verify(checks.check_loss_fell, losses[0], losses[-1])
        self.verify(checks.check_checkpoint_roundtrip, result.last_path, model, probe[:8])
        if self.first_history is None:
            self.first_history = result.history
        elif result.history != self.first_history:
            # Same seed, same inputs: every round must repeat the first exactly.
            self.problems.append(f"training in round {self.rounds} differs from round 0")

        self.tracer.phase = "load"
        with self.tracer.span("checkpoint.load"):
            self.caption_model = checkpoint.load_checkpoint(result.best_path).model
        self.tracer.phase = None
        shutil.rmtree(out, ignore_errors=True)

    def caption_pass(self) -> list[dict]:
        outputs = []
        for i, ex in enumerate(self.ds.val):
            # Alternate which mode goes first, from image to image and from
            # pass to pass, so neither always follows the other.
            modes = ("greedy", "beam3") if (i + self.passes) % 2 == 0 else ("beam3", "greedy")
            got = {}
            for mode in modes:
                self.tracer.phase = f"caption.{mode}"
                t0 = perf_counter()
                got[mode] = self.caption(self.caption_model, ex.features, mode)
                self.latency_ms[mode][i].append((perf_counter() - t0) * 1e3)
                self.tracer.phase = None
            outputs.append(got)
        self.passes += 1
        return outputs

    def check_captions(self, outputs) -> None:
        signature = [
            (checks.caption_tokens(o["greedy"]),
             [(checks.caption_tokens(seq), lp) for seq, lp in o["beam3"]]) for o in outputs
        ]
        if self.first_captions is not None:
            if signature != self.first_captions:
                self.problems.append(f"caption pass {self.passes} differs from pass 1")
            return
        self.first_captions = signature
        ds, model = self.ds, self.caption_model
        exact = words = 0
        for ex, got in zip(ds.val, outputs):
            self.verify(checks.check_beams, model, ex.features, got["beam3"], BEAM, MAX_STEPS)
            beam1 = decoding.beam_search(model, ex.features, beam_size=1)
            self.verify(checks.check_beams, model, ex.features, beam1, 1, MAX_STEPS)
            self.verify(checks.check_greedy_is_beam1, got["greedy"], beam1)
            caption = data.decode(got["greedy"].target_ids, ds.vocab)
            template = ds.templates[ex.image_id]
            exact += caption == template
            words += sum(a == b for a, b in zip(caption, template))
        n_words = sum(len(ds.templates[ex.image_id]) for ex in ds.val)
        self.template_share = exact / len(ds.val)
        self.template_word_share = words / n_words
        exact_floor, word_floor = self.size.floors[self.kind]
        self.verify(checks.check_template_share, "captions", exact, len(ds.val), exact_floor)
        self.verify(checks.check_template_share, "words", words, n_words, word_floor)

    # ------------------------------------------------------------------
    # results

    def end_to_end_metrics(self) -> dict:
        n_train = len(self.ds.train)
        out = {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "train_examples_per_s": (statistics.median(n_train / s for s in self.epoch_s),
                                     "examples/s"),
        }
        # Each image's latency is the median of its passes, so a slow stretch
        # of the machine during one pass does not become the tail; the
        # percentiles are over images.
        for mode, samples in self.latency_ms.items():
            per_image = [statistics.median(v) for v in samples.values()]
            for q in (50, 90):
                out[f"caption_{mode}_ms.p{q}"] = (float(np.percentile(per_image, q)), "ms")
        return out

    def layer_metrics(self) -> dict:
        get = self.tracer.get
        epochs = len(self.epoch_s)
        captions = self.captions("greedy")
        out = {}

        def per_epoch(key):
            return get("train", key) / epochs

        epoch_s = sum(self.epoch_s) / epochs
        probe_s = per_epoch("analysis.probe.s")
        save_s = per_epoch("checkpoint.save.s")
        out["training.epoch_s"] = (epoch_s, "s")
        out["training.update_s"] = (epoch_s - probe_s - save_s, "s")
        out["training.optimizer_step_s"] = (per_epoch("training.optimizer_step.s"), "s")
        out["training.optimizer_steps"] = (per_epoch("training.optimizer_step.calls"), "count")
        out["analysis.probe_s"] = (probe_s, "s")
        out["analysis.probe_share"] = (probe_s / epoch_s, "share")
        out["analysis.probe_forward_calls"] = (per_epoch("analysis.probe_forward.calls"), "count")
        out["autodiff.backward_s"] = (per_epoch("autodiff.backward.s"), "s")
        out["autodiff.backward_calls"] = (per_epoch("autodiff.backward.calls"), "count")
        out["checkpoint.save_s"] = (save_s, "s")
        out["checkpoint.saves"] = (per_epoch("checkpoint.save.calls"), "count")
        out["checkpoint.bytes_written"] = (per_epoch("checkpoint.bytes_written"), "bytes")

        # Layers both phases use: per epoch in training, per caption (either
        # mode) in captioning.
        for phase, phases, units in (("train", ("train",), epochs),
                                     ("caption", ("caption.greedy", "caption.beam3"),
                                      2 * captions)):
            def total(key):
                return sum(get(p, key) for p in phases) / units

            for layer, fn in (("convmodel", "forward"), ("lstmmodel", "forward"),
                              ("lstmmodel", "step")):
                out[f"{phase}.{layer}.{fn}_calls"] = (total(f"{layer}.{fn}.calls"), "count")
            out[f"{phase}.convmodel.forward_s"] = (total("convmodel.forward.s"), "s")
            out[f"{phase}.lstmmodel.forward_s"] = (total("lstmmodel.forward.s"), "s")
            for key in ("tensors_created", "graph_tensors_created"):
                out[f"{phase}.autodiff.{key}"] = (total(f"autodiff.{key}"), "count")
            for op in TRACED_OPS:
                out[f"{phase}.autodiff.{op}.calls"] = (total(f"autodiff.{op}.calls"), "count")
                out[f"{phase}.autodiff.{op}.forward_s"] = (total(f"autodiff.{op}.s"), "s")

        for mode in ("greedy", "beam3"):
            phase = f"caption.{mode}"
            forwards = get(phase, "convmodel.forward.calls") + get(phase, "lstmmodel.forward.calls")
            out[f"decoding.forward_calls_per_image.{mode}"] = (forwards / captions, "count")
            out[f"decoding.rows_per_image.{mode}"] = (get(phase, "model.rows") / captions, "count")

        out["checkpoint.load_s"] = (get("load", "checkpoint.load.s") / self.rounds, "s")
        for key in ("cli.synth", "data.synth", "data.read_features", "data.prepare_examples"):
            out[f"{key}_s"] = (get("setup", f"{key}.s") / self.size.setups, "s")
        return out

    def summary(self) -> str:
        e2e = self.end_to_end_metrics()
        figures = " ".join(f"{name}={value:.4g}" for name, (value, _) in e2e.items())
        return (f"{self.kind}: {self.rounds} rounds, {len(self.epoch_s)} epochs, "
                f"{self.passes} caption passes, {self.captions('greedy')} captions per mode, "
                f"greedy template share "
                f"{self.template_share} (words {self.template_word_share}); {figures}")

