"""Truncated and bit-flipped files: every reader either loads the file or
raises its module's declared error, never a decoder's or parser's own."""

import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from captionkit import convmodel as cm
from captionkit import data
from captionkit import lstmmodel as lm
from captionkit.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    records, vocab = data.synth_corpus(2, seed=1, feature_dim=3, grid_size=2, spatial_channels=2)
    model = cm.init_params(cm.ModelConfig(vocab_size=vocab.size, embed_dim=2, hidden_dim=2,
                                          num_layers=1, kernel_widths=(2,), bottleneck_dim=2,
                                          max_steps=4, feature_dim=3), seed=0)
    paths = {name: root / name for name in ("ckpt", "ccf", "vocab", "tsv")}
    save_checkpoint(paths["ckpt"], model, seed=0, epoch=0, vocab=vocab)
    data.write_features({r.image_id: r.features for r in records}, paths["ccf"])
    vocab.to_file(paths["vocab"])
    data.write_caption_file(paths["tsv"], [(r.image_id, r.caption) for r in records])
    return root, {name: path.read_bytes() for name, path in paths.items()}


READERS = {
    "ckpt": (load_checkpoint, CheckpointError),
    "ccf": (data.read_features, data.FormatError),
    "vocab": (data.Vocabulary.from_file, data.FormatError),
    "tsv": (data.read_caption_file, data.FormatError),
}


def corrupt(blob: bytes, cut: int, offset: int, value: int, flip: bool) -> bytes:
    """A single-byte flip at ``offset`` or a truncation to ``cut`` bytes."""
    if flip:
        i = offset % len(blob)
        return blob[:i] + bytes([value]) + blob[i + 1:]
    return blob[: cut % len(blob)]


@pytest.mark.parametrize("name", sorted(READERS))
@given(cut=st.integers(0, 2**16), offset=st.integers(0, 2**16),
       value=st.integers(0, 255), flip=st.booleans())
@settings(max_examples=150, deadline=None)
def test_only_declared_errors(valid_files, name, cut, offset, value, flip):
    root, blobs = valid_files
    reader, declared = READERS[name]
    path = root / f"fuzzed_{name}"
    path.write_bytes(corrupt(blobs[name], cut, offset, value, flip))
    try:
        reader(path)
    except declared as exc:
        assert str(path) in str(exc)


def test_checkpoint_config_flip_caught_by_parameter_table(valid_files, tmp_path):
    _, blobs = valid_files
    blob = blobs["ckpt"]
    i = blob.index(b'"hidden_dim": 2') + len(b'"hidden_dim": ')
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(blob[:i] + b"3" + blob[i + 1:])
    with pytest.raises(CheckpointError, match="parameter table"):
        load_checkpoint(path)


def test_undecodable_feature_id_reports_offset(valid_files, tmp_path):
    _, blobs = valid_files
    path = tmp_path / "bad_id.ccf"
    path.write_bytes(blobs["ccf"][:22] + b"\xff" + blobs["ccf"][23:])
    with pytest.raises(data.FormatError, match="offset 22"):
        data.read_features(path)


def test_non_finite_feature_value_is_a_format_error(valid_files, tmp_path):
    _, blobs = valid_files
    blob = bytearray(blobs["ccf"])
    first_value = 20 + 2 + len("scene00000")
    blob[first_value:first_value + 4] = np.array([np.inf], dtype="<f4").tobytes()
    path = tmp_path / "inf.ccf"
    path.write_bytes(bytes(blob))
    with pytest.raises(data.FormatError, match="offset 20"):
        data.read_features(path)


def test_signalling_nan_feature_is_a_format_error_under_strict_warnings(valid_files, tmp_path):
    """Widening a float32 signalling NaN warns; the reader still reports the
    bad value as its own error, also when warnings are errors."""
    _, blobs = valid_files
    blob = bytearray(blobs["ccf"])
    first_value = 20 + 2 + len("scene00000")
    blob[first_value:first_value + 4] = np.array([0x7F800001], dtype="<u4").tobytes()
    path = tmp_path / "snan.ccf"
    path.write_bytes(bytes(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(data.FormatError, match="offset 20"):
            data.read_features(path)


def test_unknown_model_kind_names_the_kind(valid_files, tmp_path):
    _, blobs = valid_files
    path = tmp_path / "gru.ckpt"
    path.write_bytes(blobs["ckpt"].replace(b'"kind": "cnn"', b'"kind": "gru"'))
    with pytest.raises(CheckpointError, match="unknown model kind 'gru'"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def lstm_checkpoint(tmp_path_factory):
    records, vocab = data.synth_corpus(16, seed=7, feature_dim=3, grid_size=2, spatial_channels=2)
    assert vocab.size > 10
    model = lm.init_params(lm.LstmConfig(vocab_size=vocab.size, embed_dim=2, hidden_dim=2,
                                         max_steps=4, feature_dim=3), seed=0)
    path = tmp_path_factory.mktemp("lstm") / "m.ckpt"
    save_checkpoint(path, model, seed=0, epoch=0, vocab=vocab)
    return path.read_bytes()


def with_header(blob: bytes, key: str, edit) -> bytes:
    """The checkpoint with its header's ``key`` replaced by ``edit(value)``."""
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + header_len])
    header[key] = edit(header[key])
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + header_len:]


def with_vocabulary(blob: bytes, edit) -> bytes:
    """The checkpoint with its header's vocabulary replaced by ``edit(vocab)``."""
    return with_header(blob, "vocab", edit)


@pytest.mark.parametrize("edit, match", [
    (lambda v: v[3:], "does not start with the reserved tokens"),
    (lambda v: v[:-1] + [v[3]], "lists a token twice"),
    (lambda v: v[:10], "vocabulary at offset 12 has 10 tokens"),
    (lambda v: v[:3] + list(range(3, len(v))), "token that is not a string"),
    (lambda v: v[:3] + [""] + v[4:], "token 3 '' is empty or holds whitespace"),
    (lambda v: v[:4] + ["a b"] + v[5:], "token 4 'a b' is empty or holds whitespace"),
], ids=["reserved_removed", "token_repeated", "ten_tokens", "int_tokens", "empty_token",
        "whitespace_token"])
def test_checkpoint_vocabulary_checked_like_a_vocabulary_file(lstm_checkpoint, tmp_path,
                                                              edit, match):
    path = tmp_path / "edited.ckpt"
    path.write_bytes(with_vocabulary(lstm_checkpoint, edit))
    with pytest.raises(CheckpointError, match=match) as caught:
        load_checkpoint(path)
    assert str(path) in str(caught.value)


def edited_config(**changes):
    """A header config edit: ``None`` removes a field, any other value sets it."""
    def edit(config):
        config = dict(config, **changes)
        return {k: v for k, v in config.items() if v is not None}
    return edit


@pytest.mark.parametrize("edit, match", [
    (edited_config(dropout_p=None), "config fields differ from ModelConfig on dropout_p"),
    (edited_config(extra=1), "config fields differ from ModelConfig on extra"),
    (edited_config(residual=1), "config field residual is not of type bool: 1"),
    (edited_config(num_layers=True), "config field num_layers is not of type int: True"),
    (edited_config(dropout_p="0.1"), "config field dropout_p is not of type float"),
    (edited_config(kernel_widths=[2.0]), "config field kernel_widths is not of type tuple"),
    (lambda config: list(config), "config is not a JSON object"),
], ids=["dropout_p_removed", "unknown_field", "residual_int", "num_layers_bool",
        "dropout_p_string", "kernel_width_float", "config_list"])
def test_checkpoint_config_checked_against_its_dataclass(valid_files, tmp_path, edit, match):
    _, blobs = valid_files
    path = tmp_path / "edited.ckpt"
    path.write_bytes(with_header(blobs["ckpt"], "config", edit))
    with pytest.raises(CheckpointError, match=match) as caught:
        load_checkpoint(path)
    assert str(path) in str(caught.value)


@pytest.mark.parametrize("key, value, match", [
    ("epoch", "1", "header field epoch is not of type int: '1'"),
    ("epoch", True, "header field epoch is not of type int: True"),
    ("seed", [3], r"header field seed is not of type int: \[3\]"),
], ids=["epoch_string", "epoch_bool", "seed_list"])
def test_checkpoint_seed_and_epoch_must_be_integers(valid_files, tmp_path, key, value, match):
    # --resume computes loaded.epoch + 1, so a string or bool epoch must not load.
    _, blobs = valid_files
    path = tmp_path / "edited.ckpt"
    path.write_bytes(with_header(blobs["ckpt"], key, lambda _: value))
    with pytest.raises(CheckpointError, match=match) as caught:
        load_checkpoint(path)
    assert str(path) in str(caught.value)


def test_checkpoint_float_field_takes_an_integer(valid_files, tmp_path):
    _, blobs = valid_files
    path = tmp_path / "dropout0.ckpt"
    path.write_bytes(with_header(blobs["ckpt"], "config", edited_config(dropout_p=0)))
    assert load_checkpoint(path).model.config.dropout_p == 0


@pytest.mark.parametrize("edit, match", [
    (lambda blob: blob[:7], "truncated at offset 7, inside the 12-byte prefix"),
    (lambda blob: blob[:4] + struct.pack("<I", 2) + blob[8:], "unsupported version 2 at offset 4"),
], ids=["short_prefix", "version_2"])
def test_checkpoint_prefix_errors_report_the_offset(valid_files, tmp_path, edit, match):
    _, blobs = valid_files
    path = tmp_path / "edited.ckpt"
    path.write_bytes(edit(blobs["ckpt"]))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_checkpoint_trailing_byte_reports_the_offset(valid_files, tmp_path):
    _, blobs = valid_files
    path = tmp_path / "trailing.ckpt"
    path.write_bytes(blobs["ckpt"] + b"\x00")
    with pytest.raises(CheckpointError, match=f"1 trailing bytes at offset {len(blobs['ckpt'])}"):
        load_checkpoint(path)
