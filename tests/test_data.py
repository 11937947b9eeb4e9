import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from captionkit import data
from captionkit.autodiff import ShapeError


class TestTokenize:
    def test_lowercase_split_strip(self):
        assert data.tokenize("A red Ball, on the TABLE.") == [
            "a", "red", "ball", "on", "the", "table",
        ]

    def test_pure_punctuation_dropped(self):
        assert data.tokenize("!! ... ok") == ["ok"]


class TestBuildVocab:
    def test_hand_counted_min_count_one(self):
        vocab = data.build_vocab([["a", "b"], ["a"]], min_count=1)
        assert vocab.size == 5
        assert vocab.encode_token("a") == 3
        assert vocab.encode_token("b") == 4

    def test_hand_counted_min_count_two(self):
        vocab = data.build_vocab([["a", "b"], ["a"]], min_count=2)
        assert vocab.size == 4
        assert vocab.encode_token("b") == data.UNK_ID

    def test_reserved_ids_fixed(self):
        vocab = data.build_vocab([["x"]])
        assert vocab.decode_id(0) == "<S>"
        assert vocab.decode_id(1) == "<E>"
        assert vocab.decode_id(2) == "<UNK>"

    def test_deterministic_tie_break_is_lexicographic(self):
        vocab = data.build_vocab([["zeta", "alpha"], ["alpha", "zeta"]])
        assert vocab.encode_token("alpha") == 3
        assert vocab.encode_token("zeta") == 4

    def test_empty_corpus_rejected(self):
        with pytest.raises(data.EmptyCorpusError):
            data.build_vocab([])

    def test_file_round_trip(self, tmp_path):
        vocab = data.build_vocab([["a", "b", "c"], ["a", "b"], ["a"]], min_count=2)
        path = tmp_path / "vocab.txt"
        vocab.to_file(path)
        assert data.Vocabulary.from_file(path) == vocab

    def test_constructor_rejects_a_token_that_is_not_a_string(self):
        with pytest.raises(data.FormatError, match="token that is not a string"):
            data.Vocabulary(["<S>", "<E>", "<UNK>", "a", 4])

    @pytest.mark.parametrize("lines, match", [
        (["a", "<S>", "<E>", "<UNK>"], "does not start with the reserved tokens"),
        (["<S>", "<E>", "<UNK>", "a", "b", "a"], "lists a token twice"),
        (["<S>", "<E>", "<UNK>", "", "x"], "token 3 '' is empty or holds whitespace"),
        (["<S>", "<E>", "<UNK>", "x", "a b"], "token 4 'a b' is empty or holds whitespace"),
    ])
    def test_constructor_and_file_reject_the_same_lists(self, tmp_path, lines, match):
        with pytest.raises(data.FormatError, match=match):
            data.Vocabulary(lines)
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.FormatError, match=match) as caught:
            data.Vocabulary.from_file(path)
        assert str(path) in str(caught.value)


class TestEncodeDecode:
    def test_round_trip_running_example(self):
        caption = data.tokenize("a woman is playing tennis")
        vocab = data.build_vocab([caption])
        seq = data.encode(caption, vocab, max_steps=15)
        assert data.decode(seq.target_ids, vocab) == caption
        assert seq.valid_len == 6
        assert len(seq.input_ids) == 16

    def test_teacher_forcing_alignment(self):
        vocab = data.build_vocab([["x", "y"]])
        seq = data.encode(["x", "y"], vocab, max_steps=4)
        assert list(seq.input_ids) == [data.START_ID, 3, 4, data.END_ID, data.END_ID]
        assert list(seq.target_ids) == [3, 4, data.END_ID, data.END_ID, data.END_ID]
        assert seq.valid_len == 3

    def test_empty_caption(self):
        vocab = data.build_vocab([["x"]])
        seq = data.encode([], vocab, max_steps=3)
        assert list(seq.input_ids) == [data.START_ID, data.END_ID, data.END_ID, data.END_ID]
        assert list(seq.target_ids) == [data.END_ID] * 4
        assert seq.valid_len == 1

    def test_truncation(self):
        tokens = [f"w{i}" for i in range(20)]
        vocab = data.build_vocab([tokens])
        seq = data.encode(tokens, vocab, max_steps=15)
        assert seq.valid_len == 16
        assert data.decode(seq.target_ids, vocab) == tokens[:15]

    def test_oov_encodes_to_unk(self):
        vocab = data.build_vocab([["known"]])
        seq = data.encode(["mystery"], vocab, max_steps=2)
        assert seq.target_ids[0] == data.UNK_ID

    @given(st.lists(st.sampled_from(["cat", "dog", "sat", "mat", "ran"]), min_size=0, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, caption):
        vocab = data.build_vocab([["cat", "dog", "sat", "mat", "ran"]])
        assert data.decode(data.encode(caption, vocab, 8).target_ids, vocab) == caption


class TestFeatureFile:
    def _features(self, with_spatial=True):
        rng = np.random.default_rng(0)
        out = {}
        for i in range(2):
            g = rng.normal(size=6).astype("<f4").astype(np.float64)
            s = None
            if with_spatial:
                s = rng.normal(size=(3, 3, 4)).astype("<f4").astype(np.float64)
            out[f"img{i}"] = data.ImageFeatures(g, s)
        return out

    def test_round_trip_bit_exact(self, tmp_path):
        feats = self._features()
        path = tmp_path / "f.ccf"
        data.write_features(feats, path)
        loaded = data.read_features(path)
        assert loaded.keys() == feats.keys()
        for key in feats:
            assert np.array_equal(loaded[key].global_vec, feats[key].global_vec)
            assert np.array_equal(loaded[key].spatial, feats[key].spatial)

    def test_file_level_round_trip(self, tmp_path):
        p1, p2 = tmp_path / "a.ccf", tmp_path / "b.ccf"
        data.write_features(self._features(), p1)
        data.write_features(data.read_features(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("layout", [lambda a: a[::2, ::2], np.asfortranarray],
                             ids=["strided", "fortran"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_any_memory_layout_is_written_in_row_major_order(self, tmp_path, layout, dtype):
        grid = layout(np.arange(6 * 6 * 4, dtype=dtype).reshape(6, 6, 4)[:3, :3])
        path = tmp_path / "f.ccf"
        data.write_features({"img0": data.ImageFeatures(np.arange(6, dtype=dtype), grid)}, path)
        assert np.array_equal(data.read_features(path)["img0"].spatial, grid)

    def test_a_read_keeps_no_more_than_the_same_features_built_in_memory(self, tmp_path):
        # A returned array that was handed to fh.readinto keeps numpy's
        # buffer-export record (about 70 bytes) until it dies.
        def kept(build):
            tracemalloc.start()
            try:
                out = build()
                return out, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        ids = [f"img{i:03d}" for i in range(500)]
        path = tmp_path / "f.ccf"
        data.write_features({k: data.ImageFeatures(np.ones(16, np.float32),
                                                   np.ones((2, 2, 8), np.float32)) for k in ids}, path)
        data.read_features(path)  # first-call caches
        read, read_kept = kept(lambda: data.read_features(path))
        built, built_kept = kept(lambda: {k.encode().decode(): data.ImageFeatures(
            np.zeros(16, np.float32), np.zeros((2, 2, 8), np.float32)) for k in ids})
        assert read.keys() == built.keys()
        assert read_kept <= built_kept + 8 * len(ids), (read_kept, built_kept)

    def test_no_spatial_variant(self, tmp_path):
        feats = self._features(with_spatial=False)
        path = tmp_path / "f.ccf"
        data.write_features(feats, path)
        loaded = data.read_features(path)
        assert loaded["img0"].spatial is None

    @pytest.mark.parametrize("bad", [
        data.ImageFeatures(np.zeros(5), np.zeros((3, 3, 4))),
        data.ImageFeatures(np.zeros(6), np.zeros((2, 2, 4))),
        data.ImageFeatures(np.zeros(6)),
        data.ImageFeatures(np.array([1.0, 1e39] + [0.0] * 4), np.zeros((3, 3, 4))),
    ], ids=["global_width", "grid", "no_grid", "float32_overflow"])
    def test_a_rejected_item_leaves_the_earlier_file_whole(self, tmp_path, bad):
        path = tmp_path / "f.ccf"
        data.write_features(dict(list(self._features().items())[:1]), path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            data.write_features(self._features() | {"img1": bad}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["f.ccf"]
        assert list(data.read_features(path)) == ["img0"]

    @pytest.mark.parametrize("mark", ["\t", "\n", "\r"], ids=["tab", "newline", "return"])
    def test_an_id_with_a_tab_or_line_break_is_refused_before_writing(self, tmp_path, mark):
        features = self._features()
        with pytest.raises(ValueError, match="tab or line break"):
            data.write_features(features | {f"img{mark}7": features["img0"]}, tmp_path / "f.ccf")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("image_id", ["i" * 65536, "\u00e9" * 32768], ids=["ascii", "two_byte"])
    def test_an_id_over_65535_utf8_bytes_is_refused_before_writing(self, tmp_path, image_id):
        features = self._features()
        with pytest.raises(ValueError, match="image id is 65536 UTF-8 bytes") as caught:
            data.write_features(features | {image_id: features["img0"]}, tmp_path / "f.ccf")
        assert str(caught.value).startswith(repr(image_id[:40]))
        assert list(tmp_path.iterdir()) == []

    def test_an_id_of_65535_utf8_bytes_round_trips(self, tmp_path):
        image_id = "\u00e9" * 32767 + "i"
        path = tmp_path / "f.ccf"
        data.write_features({image_id: self._features()["img0"]}, path)
        assert list(data.read_features(path)) == [image_id]

    @pytest.mark.parametrize("mark", [b"\t", b"\n", b"\r"], ids=["tab", "newline", "return"])
    def test_an_id_with_a_tab_or_line_break_is_a_format_error(self, tmp_path, mark):
        path = tmp_path / "f.ccf"
        data.write_features(self._features(), path)
        blob = path.read_bytes()
        offset = blob.index(b"img1")  # the second id, the same length with its 1 replaced
        path.write_bytes(blob[:offset + 3] + mark + blob[offset + 4:])
        with pytest.raises(data.FormatError, match=f"at offset {offset} holds a tab or line break"):
            data.read_features(path)

    def test_a_repeated_id_is_a_format_error(self, tmp_path):
        path = tmp_path / "f.ccf"
        data.write_features(self._features(), path)
        blob = path.read_bytes()
        offset = blob.index(b"img1") - 2  # the second record, after its u16 id length
        path.write_bytes(blob.replace(b"img1", b"img0"))
        with pytest.raises(data.FormatError, match=f"id 'img0' repeated at offset {offset}"):
            data.read_features(path)

    @pytest.mark.parametrize("bad", [
        data.ImageFeatures(np.array([1.0, 1e39] + [0.0] * 4), np.zeros((3, 3, 4))),
        data.ImageFeatures(np.zeros(6), np.full((3, 3, 4), -(2.0**128 - 2.0**103))),
    ], ids=["global", "grid"])
    def test_a_value_float32_makes_infinite_is_refused_before_writing(self, tmp_path, bad):
        with pytest.raises(ValueError, match="img1: a feature value rounds to infinity"):
            data.write_features(self._features() | {"img1": bad}, tmp_path / "f.ccf")
        assert list(tmp_path.iterdir()) == []

    def test_float32_extremes_and_underflow_are_written(self, tmp_path):
        top = np.nextafter(2.0**128 - 2.0**103, 0.0)  # rounds down to the float32 maximum
        feats = {"img0": data.ImageFeatures(np.array([top, -top, 1e-50, 0.0, 1.0, -1.0]))}
        path = tmp_path / "f.ccf"
        data.write_features(feats, path)
        big = float(np.finfo(np.float32).max)
        assert data.read_features(path)["img0"].global_vec.tolist() == [big, -big, 0.0, 0.0,
                                                                       1.0, -1.0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.ccf"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(data.FormatError, match="magic"):
            data.read_features(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "f.ccf"
        data.write_features(self._features(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(data.FormatError, match="offset"):
            data.read_features(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "f.ccf"
        data.write_features(self._features(), path)
        path.write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(data.FormatError, match="trailing"):
            data.read_features(path)

    def test_full_scale_header_accepted(self, tmp_path):
        # F=4096, G=7, C=512 -- one image keeps the file small enough.
        feat = data.ImageFeatures(np.zeros(4096), np.zeros((7, 7, 512)))
        path = tmp_path / "big.ccf"
        data.write_features({"img": feat}, path)
        loaded = data.read_features(path)
        assert loaded["img"].global_vec.shape == (4096,)
        assert loaded["img"].spatial.shape == (7, 7, 512)

    def test_non_finite_rejected(self):
        with pytest.raises(data.InvalidFeatureError):
            data.ImageFeatures(np.array([1.0, np.nan]))


class TestCaptionFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "caps.tsv"
        items = [("img0", ["a", "red", "ball"]), ("img1", ["the", "cat"])]
        data.write_caption_file(path, items)
        assert data.read_caption_file(path) == items

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("no tab here\n")
        with pytest.raises(data.FormatError, match="caps.tsv:1"):
            data.read_caption_file(path)


class TestSynthCorpus:
    def test_same_seed_bit_identical(self):
        a_records, a_vocab = data.synth_corpus(20, seed=7)
        b_records, b_vocab = data.synth_corpus(20, seed=7)
        assert a_vocab == b_vocab
        for a, b in zip(a_records, b_records):
            assert a.image_id == b.image_id
            assert a.caption == b.caption
            assert np.array_equal(a.features.global_vec, b.features.global_vec)
            assert np.array_equal(a.features.spatial, b.features.spatial)

    def test_different_seed_differs(self):
        a_records, _ = data.synth_corpus(20, seed=7)
        b_records, _ = data.synth_corpus(20, seed=8)
        assert any(a.caption != b.caption for a, b in zip(a_records, b_records))

    def test_caption_is_pure_function_of_attributes(self):
        records, _ = data.synth_corpus(50, seed=3)
        for rec in records:
            m = rec.meta
            assert rec.caption == data.caption_for_scene(
                m["color"], m["object"], m["relation"], m["place"]
            )

    def test_distinct_tuples_have_distinct_global_features(self):
        records, _ = data.synth_corpus(60, seed=5)
        min_dist = np.inf
        for i, a in enumerate(records):
            for b in records[i + 1:]:
                ka = (a.meta["color"], a.meta["object"], a.meta["relation"], a.meta["place"])
                kb = (b.meta["color"], b.meta["object"], b.meta["relation"], b.meta["place"])
                if ka != kb:
                    min_dist = min(
                        min_dist,
                        float(np.linalg.norm(a.features.global_vec - b.features.global_vec)),
                    )
        assert min_dist > 0.0

    def test_object_signature_localized_in_block(self):
        records, _ = data.synth_corpus(10, seed=11)
        for rec in records:
            grid = rec.features.spatial
            block = set(map(tuple, rec.meta["block"]))
            g = grid.shape[0]
            inside = np.mean([grid[r, c] for (r, c) in block], axis=0)
            outside = np.mean(
                [grid[r, c] for r in range(g) for c in range(g) if (r, c) not in block],
                axis=0,
            )
            assert np.linalg.norm(inside - outside) > 1.0

    def test_vocabulary_is_compact(self):
        _, vocab = data.synth_corpus(300, seed=1)
        assert 20 <= vocab.size <= 35

    def test_round_trips_through_files(self, tmp_path):
        records, vocab = data.synth_corpus(5, seed=2)
        feats = {r.image_id: r.features for r in records}
        data.write_features(feats, tmp_path / "f.ccf")
        data.write_caption_file(tmp_path / "c.tsv", [(r.image_id, r.caption) for r in records])
        assert data.read_features(tmp_path / "f.ccf").keys() == feats.keys()
        assert [c for _, c in data.read_caption_file(tmp_path / "c.tsv")] == [
            r.caption for r in records
        ]


class TestWriteLines:
    def test_writes_each_line_and_returns_the_path(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old contents\n")
        assert data.write_lines(path, ["a", "b\tc"]) == path
        assert path.read_bytes() == b"a\nb\tc\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_no_lines_is_an_empty_file(self, tmp_path):
        assert data.write_lines(tmp_path / "empty.txt", []).read_bytes() == b""

    def test_write_bytes_joins_the_chunks_and_returns_the_path(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")
        assert data.write_bytes(path, iter([b"\x00ab", b"", b"c\n"])) == path
        assert path.read_bytes() == b"\x00abc\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_a_failed_write_leaves_the_earlier_file_whole(self, tmp_path):
        path = data.write_lines(tmp_path / "out.txt", ["kept"])

        def chunks():
            yield b"partial"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            data.write_bytes(path, chunks())
        assert path.read_bytes() == b"kept\n"

    def test_a_failed_write_removes_its_temporary_file(self, tmp_path):
        path = data.write_lines(tmp_path / "out.txt", ["kept"])

        def chunks():
            yield b"partial"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            data.write_bytes(path, chunks())
        (tmp_path / "taken").mkdir()
        with pytest.raises(IsADirectoryError):
            data.write_bytes(tmp_path / "taken", [b"renamed onto a directory"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "taken"]
        assert path.read_bytes() == b"kept\n"

    def test_write_lines_given_a_non_string_writes_nothing(self, tmp_path):
        path = data.write_lines(tmp_path / "out.txt", ["kept"])
        with pytest.raises(TypeError):
            data.write_lines(path, ["a", 3])
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_bytes() == b"kept\n"


def _features(global_dim=3, grid=None):
    rng = np.random.default_rng(0)
    spatial = None if grid is None else rng.normal(size=(grid, grid, 2))
    return data.ImageFeatures(rng.normal(size=global_dim), spatial)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda tmp: data.build_vocab([["a"]], min_count=0), ValueError, "min_count must be >= 1"),
    (lambda tmp: data.TokenSeq(np.zeros(3), np.zeros(2), 1), ValueError,
     "input and target views must have equal length"),
    (lambda tmp: data.TokenSeq(np.zeros(3), np.zeros(3), 4), ValueError,
     "valid_len 4 out of range"),
    (lambda tmp: data.encode(["a"], data.build_vocab([["a"]]), 0), ValueError,
     "max_steps must be >= 1, got 0"),
    (lambda tmp: data.ImageFeatures(np.zeros((2, 2))), data.InvalidFeatureError,
     "global feature must be 1-d"),
    (lambda tmp: data.ImageFeatures(np.zeros(2), np.zeros((2, 3, 4))), data.InvalidFeatureError,
     "spatial grid must be [G,G,C]"),
    (lambda tmp: data.ImageFeatures(np.zeros(2), np.full((1, 1, 2), np.inf)),
     data.InvalidFeatureError, "spatial features contain non-finite values"),
    (lambda tmp: _features().spatial_flat(), data.InvalidFeatureError,
     "no spatial features present"),
    (lambda tmp: data.model_ids([], _features()), ShapeError,
     "ids must be a non-empty [T] sequence"),
    (lambda tmp: data.model_ids([[1], [2]], [_features()]), ShapeError,
     "2 id sequences for 1 images"),
    (lambda tmp: data.global_rows([_features(global_dim=3)], 4), ShapeError,
     "global feature dim 3 != configured 4"),
    (lambda tmp: data.write_features({}, tmp / "f.ccf"), ValueError,
     "refusing to write an empty feature file"),
    (lambda tmp: data.write_features({"a": _features(3), "b": _features(4)}, tmp / "f.ccf"),
     ValueError, "b: global dim 4 != header 3"),
    (lambda tmp: data.write_features({"a": _features(grid=2), "b": _features()}, tmp / "f.ccf"),
     ValueError, "b: spatial shape inconsistent with header"),
    (lambda tmp: data.synth_corpus(0, seed=1), ValueError, "num_scenes must be >= 1, got 0"),
])
def test_rejections_raise_the_declared_error(tmp_path, call, error, fragment):
    with pytest.raises(error) as caught:
        call(tmp_path)
    assert fragment in str(caught.value)
