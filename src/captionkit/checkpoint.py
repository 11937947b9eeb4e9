"""Checkpoint container for both model kinds.

Layout: magic ``CCKP`` | u32 version | u32 header length | JSON header |
parameter blobs. The header carries the model kind tag, a config echo, the
training seed, the epoch, the vocabulary (when supplied) and the name/shape
of every parameter; the blobs are the parameters' float64 little-endian bytes
concatenated in header order, so a save/load round trip is bit-exact.
Saving writes each parameter from its own memory, and loading reads each
one straight into its array, so neither holds a second copy of the data.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from itertools import chain

import numpy as np

from captionkit import convmodel as cm
from captionkit import lstmmodel as lm
from captionkit.autodiff import Tensor
from captionkit.convmodel import CaptionModel, ModelConfig
from captionkit.data import Vocabulary, write_bytes
from captionkit.lstmmodel import LstmConfig, LstmModel

MAGIC = b"CCKP"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


class CheckpointMismatchError(CheckpointError):
    """Stored configuration conflicts with what the caller expects."""


# The header's kind tag -> (config class, model class, parameter shapes of a config).
MODEL_KINDS = {
    "cnn": (ModelConfig, CaptionModel, cm.parameter_shapes),
    "lstm": (LstmConfig, LstmModel, lm.parameter_shapes),
}

# A config field's declared type -> whether a header value has its JSON type.
# A float field takes an integer too: ``json.dumps`` writes ``0`` for int 0.
_JSON_TYPES = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "tuple[int, ...]": lambda v: isinstance(v, list) and all(_JSON_TYPES["int"](k) for k in v),
}


def _header_config(config_cls, values):
    """The config a header stores: exactly the dataclass's fields, each value
    of the JSON type of the field's declared type."""
    declared = {f.name: f.type for f in fields(config_cls)}
    if not isinstance(values, dict):
        raise CheckpointError(f"config is not a JSON object: {values!r}")
    if values.keys() != declared.keys():
        odd = ", ".join(sorted(declared.keys() ^ values.keys()))
        raise CheckpointError(f"config fields differ from {config_cls.__name__} on {odd}")
    for name, type_name in declared.items():
        if not _JSON_TYPES[type_name](values[name]):
            raise CheckpointError(f"config field {name} is not of type {type_name}: {values[name]!r}")
    return config_cls(**values)


@dataclass
class LoadedCheckpoint:
    kind: str
    model: CaptionModel | LstmModel
    seed: int
    epoch: int
    vocab: Vocabulary | None


def save_checkpoint(path, model, *, seed: int, epoch: int, vocab: Vocabulary | None = None) -> None:
    header = {
        "version": VERSION,
        "kind": model.kind,
        "config": asdict(model.config),
        "seed": int(seed),
        "epoch": int(epoch),
        "vocab": vocab.id_to_token if vocab is not None else None,
        "params": [
            {"name": name, "shape": list(t.data.shape)} for name, t in model.parameters().items()
        ],
    }
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    blobs = (memoryview(np.ascontiguousarray(t.data, dtype="<f8")).cast("B")
             for t in model.parameters().values())
    write_bytes(path, chain((MAGIC, struct.pack("<II", VERSION, len(raw)), raw), blobs))


def load_checkpoint(path, expect_config=None) -> LoadedCheckpoint:
    """Read a checkpoint; a malformed or truncated file raises CheckpointError
    naming the byte offset where it went wrong."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(12)
        if prefix[:4] != MAGIC:
            raise CheckpointError(f"{path}: bad magic {prefix[:4]!r} at offset 0")
        if size < 12:
            raise CheckpointError(f"{path}: truncated at offset {size}, inside the 12-byte prefix")
        version, header_len = struct.unpack("<II", prefix[4:12])
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version} at offset 4")
        if 12 + header_len > size:
            raise CheckpointError(
                f"{path}: truncated at offset {size}, inside the {header_len}-byte header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            kind, seed, epoch = header["kind"], header["seed"], header["epoch"]
            for name in ("seed", "epoch"):
                if not _JSON_TYPES["int"](header[name]):
                    raise CheckpointError(f"header field {name} is not of type int: {header[name]!r}")
            if kind not in MODEL_KINDS:
                raise CheckpointError(f"unknown model kind {kind!r}")
            config_cls, model_cls, parameter_shapes = MODEL_KINDS[kind]
            config = _header_config(config_cls, header["config"])
            entries = [(entry["name"], tuple(entry["shape"])) for entry in header["params"]]
            vocab = Vocabulary(header["vocab"]) if header["vocab"] else None
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            offset = 12 + getattr(exc, "pos", getattr(exc, "start", 0))
            raise CheckpointError(
                f"{path}: malformed header at offset {offset}: {type(exc).__name__}: {exc}"
            ) from exc
        if entries != list(parameter_shapes(config).items()):
            raise CheckpointError(f"{path}: parameter table at offset 12 does not match the config")
        if vocab is not None and vocab.size != config.vocab_size:
            raise CheckpointError(f"{path}: vocabulary at offset 12 has {vocab.size} tokens, "
                                  f"config vocab_size is {config.vocab_size}")

        if expect_config is not None and config != expect_config:
            stored, expected = asdict(config), asdict(expect_config)
            diffs = sorted(k for k in stored.keys() | expected.keys()
                           if stored.get(k) != expected.get(k))
            raise CheckpointMismatchError(f"{path}: config mismatch on {', '.join(diffs)}")

        pos = 12 + header_len
        params: dict[str, Tensor] = {}
        for name, shape in entries:
            end = pos + 8 * math.prod(shape)
            if end > size:
                raise CheckpointError(f"{path}: truncated at offset {size}, inside parameter {name}")
            arr = np.empty(shape, "<f8")
            fh.readinto(arr.reshape(-1))  # a view, as in data.read_features
            params[name] = Tensor(arr.astype(np.float64, copy=False), requires_grad=True)
            pos = end
    if pos != size:
        raise CheckpointError(f"{path}: {size - pos} trailing bytes at offset {pos}")

    model = model_cls(config, params)
    return LoadedCheckpoint(kind=kind, model=model, seed=seed, epoch=epoch, vocab=vocab)
