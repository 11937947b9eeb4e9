"""Feature files and checkpoints stream: a read holds what it returns plus
one record, a write holds one record or one parameter beyond its input, and
a header promising more than the file holds is refused without allocating
what it promises. Peaks are tracemalloc's, on files of at least 8 MB."""

import json
import struct

import numpy as np
import pytest

from captionkit import data
from captionkit import lstmmodel as lm
from captionkit.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from conftest import traced_peak

MIB = 2**20


@pytest.fixture(scope="module")
def features():
    # The paper's feature shapes: 512 global values and a 7x7x512 grid.
    rng = np.random.default_rng(0)
    return {f"img{i:03d}": data.ImageFeatures(rng.normal(size=512).astype("<f4"),
                                              rng.normal(size=(7, 7, 512)).astype("<f4"))
            for i in range(82)}


@pytest.fixture(scope="module")
def feature_file(features, tmp_path_factory):
    path = tmp_path_factory.mktemp("features") / "f.ccf"
    data.write_features(features, path)
    assert path.stat().st_size >= 8 * 10**6
    return path


@pytest.fixture(scope="module")
def model():
    return lm.init_params(lm.LstmConfig(vocab_size=8000, embed_dim=64, hidden_dim=64,
                                        max_steps=4, feature_dim=8), seed=0)


@pytest.fixture(scope="module")
def checkpoint_file(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(path, model, seed=0, epoch=0)
    assert path.stat().st_size >= 8 * 10**6
    return path


def test_read_features_holds_the_returned_arrays_and_one_record(features, feature_file):
    loaded, peak = traced_peak(lambda: data.read_features(feature_file))
    arrays = sum(f.global_vec.nbytes + f.spatial.nbytes for f in loaded.values())
    assert peak <= arrays + MIB
    assert arrays == 4 * sum(f.global_vec.size + f.spatial.size for f in loaded.values())
    assert all(np.array_equal(loaded[k].spatial, features[k].spatial) for k in features)


def test_write_features_adds_at_most_one_mib(features, feature_file, tmp_path):
    path = tmp_path / "f.ccf"
    _, peak = traced_peak(lambda: data.write_features(features, path))
    assert peak <= MIB
    assert path.read_bytes() == feature_file.read_bytes()


def test_load_checkpoint_holds_the_parameters(model, checkpoint_file):
    loaded, peak = traced_peak(lambda: load_checkpoint(checkpoint_file))
    params = loaded.model.parameters()
    assert peak <= sum(t.data.nbytes for t in params.values()) + MIB
    assert all(np.array_equal(t.data, model.params[k].data) for k, t in params.items())


def test_save_checkpoint_adds_at_most_one_mib(model, checkpoint_file, tmp_path):
    path = tmp_path / "m.ckpt"
    _, peak = traced_peak(lambda: save_checkpoint(path, model, seed=0, epoch=0))
    assert peak <= MIB
    assert path.read_bytes() == checkpoint_file.read_bytes()


def refused(error, read, path, match):
    """The error ``read(path)`` raises, which must be ``error`` matching ``match``."""
    with pytest.raises(error, match=match) as caught:
        read(path)
    assert str(path) in str(caught.value)
    return caught.value


def test_a_feature_header_promising_more_than_the_file_is_refused_small(tmp_path):
    path = tmp_path / "huge.ccf"
    path.write_bytes(data.FEATURE_MAGIC + struct.pack("<IIII", *[2**32 - 1] * 4))
    _, peak = traced_peak(lambda: refused(data.FormatError, data.read_features, path,
                                          "truncated payload, needed 2 bytes at offset 20"))
    assert peak < MIB


def test_a_checkpoint_promising_a_billion_words_is_refused_before_allocating(tmp_path):
    small = lm.init_params(lm.LstmConfig(vocab_size=10, embed_dim=2, hidden_dim=2,
                                         max_steps=4, feature_dim=3), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, small, seed=0, epoch=0)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + header_len])
    header["config"]["vocab_size"] = 10**9
    header["params"] = [{"name": name, "shape": list(shape)} for name, shape
                        in lm.parameter_shapes(lm.LstmConfig(**header["config"])).items()]
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + header_len:])
    _, peak = traced_peak(lambda: refused(CheckpointError, load_checkpoint, path,
                                          "inside parameter word_embedding"))
    assert peak < MIB
