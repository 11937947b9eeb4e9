"""Per-layer tracing of captionkit from outside the program.

A :class:`Tracer` replaces public functions of each layer (and the two
private graph hooks named below) with wrappers that count calls and add up
inclusive wall time. Figures go into the bucket named by ``tracer.phase``;
with the phase set to ``None`` the wrappers only forward the call, so
warm-up and the benchmark's own checks are never counted. ``uninstall``
puts every original back.

Raw keys are ``<key>.calls`` and ``<key>.s``; ``workload.py`` turns them
into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from captionkit import analysis, autodiff, cli, training
from captionkit.convmodel import CaptionModel
from captionkit.lstmmodel import LstmModel

# The autodiff ops whose calls and forward time are reported one by one.
TRACED_OPS = ("weight_norm", "causal_conv1d", "glu", "softmax", "matmul",
              "embedding_lookup", "dropout")

# analysis functions the trainer's per-epoch probe is made of.
PROBE_FUNCTIONS = ("mean_nll", "word_accuracy", "entropy_profile", "grad_norm_probe")


class Tracer:
    def __init__(self):
        self.phase: str | None = None
        self.stats: dict[tuple[str, str], float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []
        self._probe_depth = 0

    def get(self, phase: str, key: str) -> float:
        return self.stats.get((phase, key), 0.0)

    def add(self, key: str, value: float) -> None:
        if self.phase is not None:
            self.stats[self.phase, key] += value

    @contextmanager
    def span(self, key: str):
        """Count one call of ``key`` and add its wall time, in the current phase."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add(key + ".s", perf_counter() - t0)
            self.add(key + ".calls", 1)

    # ------------------------------------------------------------------
    # installation

    def _replace(self, owner, name: str, make_wrapper) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, make_wrapper(original))
        self._undo.append((owner, name, original))

    def _timed(self, owner, name: str, key: str, on_call=None) -> None:
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer.phase is None:
                    return original(*args, **kwargs)
                if on_call is not None:
                    on_call(args)
                with tracer.span(key):
                    return original(*args, **kwargs)
            return wrapper

        self._replace(owner, name, make)

    def install(self) -> None:
        for op in TRACED_OPS:
            self._timed(autodiff, op, f"autodiff.{op}")
        self._timed(autodiff, "backward", "autodiff.backward")
        self._timed(training.RmsProp, "step", "training.optimizer_step")
        self._timed(CaptionModel, "forward", "convmodel.forward",
                    on_call=lambda args: self._on_forward(args[1]))
        self._timed(LstmModel, "forward", "lstmmodel.forward",
                    on_call=lambda args: self._on_forward(args[1]))
        self._timed(LstmModel, "step", "lstmmodel.step")
        # cli imports synth_corpus by name, so its call is caught there.
        self._timed(cli, "synth_corpus", "data.synth")
        self._wrap_probe()
        self._wrap_save()
        self._wrap_tensor_counts()

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # wrappers with more than a count and a time

    def _on_forward(self, ids) -> None:
        # Prefix positions a model forward computes; inside a probe the
        # call also counts as a probe forward.
        self.add("model.rows", len(ids))
        if self._probe_depth:
            self.add("analysis.probe_forward.calls", 1)

    def _wrap_probe(self) -> None:
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer.phase is None:
                    return original(*args, **kwargs)
                tracer._probe_depth += 1
                try:
                    with tracer.span("analysis.probe"):
                        return original(*args, **kwargs)
                finally:
                    tracer._probe_depth -= 1
            return wrapper

        for name in PROBE_FUNCTIONS:
            self._replace(analysis, name, make)

    def _wrap_save(self) -> None:
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(path, *args, **kwargs):
                if tracer.phase is None:
                    return original(path, *args, **kwargs)
                with tracer.span("checkpoint.save"):
                    out = original(path, *args, **kwargs)
                tracer.add("checkpoint.bytes_written", os.path.getsize(path))
                return out
            return wrapper

        # training imports save_checkpoint by name.
        self._replace(training, "save_checkpoint", make)

    def _wrap_tensor_counts(self) -> None:
        # Every Tensor goes through Tensor.__init__; every op result goes
        # through autodiff._node, which attaches the backward closure.
        tracer = self

        def make_init(original):
            def wrapper(tensor, *args, **kwargs):
                original(tensor, *args, **kwargs)
                tracer.add("autodiff.tensors_created", 1)
            return wrapper

        def make_node(original):
            def wrapper(data, parents, bw):
                out = original(data, parents, bw)
                if out._bw is not None:
                    tracer.add("autodiff.graph_tensors_created", 1)
                return out
            return wrapper

        self._replace(autodiff.Tensor, "__init__", make_init)
        self._replace(autodiff, "_node", make_node)
