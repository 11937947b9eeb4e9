"""Vocabulary, caption tokenization/padding, feature-file IO, and the
synthetic scene corpus used for desk-scale experiments.

File formats owned by this module:

* Caption corpus: UTF-8 text, one record per line, ``image_id<TAB>caption``.
* Vocabulary: UTF-8 text, one token per line in id order (reserved tokens
  first, so line number == token id). A token is not empty and holds no
  whitespace, so a blank line is an error.
* Feature file: binary, magic ``CCF1`` | u32 count | u32 F | u32 G | u32 C
  (all little-endian), then per image: u16 id length, id bytes, F float32
  global values, G*G*C float32 spatial values in row-major cell order. A
  header with G == 0 or C == 0 means no spatial grids are stored. Values are
  float32 on disk and widened to float64 in memory; the writer refuses a
  value whose float32 rounding is infinite, while underflow to 0 is allowed.
  An image id appears once and holds no tab, ``\n`` or ``\r``: the text
  files and the ``caption`` output write it before a tab on a line of its
  own. Both directions stream: a read holds the arrays it returns plus one
  record, a write one record's float32 bytes beyond the features given.
"""

from __future__ import annotations

import contextlib
import io
import os
import string
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from captionkit.autodiff import ShapeError

START_TOKEN = "<S>"
END_TOKEN = "<E>"
UNK_TOKEN = "<UNK>"
START_ID = 0
END_ID = 1
UNK_ID = 2
RESERVED = (START_TOKEN, END_TOKEN, UNK_TOKEN)

FEATURE_MAGIC = b"CCF1"
_ID_BREAKS = ("\t", "\n", "\r")  # characters no image id holds


class EmptyCorpusError(ValueError):
    """No captions supplied where at least one is required."""


class FormatError(ValueError):
    """A data file does not match its declared layout."""


class InvalidFeatureError(ValueError):
    """Image features contain non-finite values."""


_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def write_bytes(path, chunks):
    """Write the byte strings ``chunks`` to ``path`` through a temporary
    file and a rename, so a reader never sees a partial file; returns
    ``path``. If a chunk or the write raises, the temporary file is removed
    and the error propagates, leaving an earlier file at ``path`` whole."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return path


def write_lines(path, lines):
    """``write_bytes`` of each of ``lines`` and a newline, UTF-8 encoded."""
    return write_bytes(path, ((line + "\n").encode("utf-8") for line in lines))


def read_lines(path) -> io.StringIO:
    """The lines of a UTF-8 text file, split as ``open(path)`` splits them,
    the counterpart of ``write_lines``; an undecodable byte raises
    FormatError with its offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, delete punctuation characters."""
    out = []
    for raw in text.lower().split():
        tok = raw.translate(_PUNCT_TABLE)
        if tok:
            out.append(tok)
    return out


class Vocabulary:
    """Bijective token<->id map with fixed reserved ids 0/1/2."""

    def __init__(self, tokens: list[str]):
        if not all(isinstance(t, str) for t in tokens):
            raise FormatError("vocabulary lists a token that is not a string")
        if tuple(tokens[:3]) != RESERVED:
            raise FormatError("vocabulary does not start with the reserved tokens")
        if len(set(tokens)) != len(tokens):
            raise FormatError("vocabulary lists a token twice")
        for i, tok in enumerate(tokens):
            if tok.split() != [tok]:
                raise FormatError(f"vocabulary token {i} {tok!r} is empty or holds whitespace")
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def decode_id(self, token_id: int) -> str:
        return self.id_to_token[token_id]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.id_to_token == other.id_to_token

    def to_file(self, path) -> None:
        write_lines(path, self.id_to_token)

    @classmethod
    def from_file(cls, path) -> "Vocabulary":
        tokens = [line.rstrip("\n") for line in read_lines(path)]
        try:
            return cls(tokens)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def build_vocab(captions, min_count: int = 1) -> Vocabulary:
    """Keep tokens seen at least min_count times; the rest map to <UNK>.

    ``captions`` is an iterable of token lists. Ids are assigned after the
    reserved ones in (frequency descending, token ascending) order so the
    mapping is stable across runs.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    any_caption = False
    for caption in captions:
        any_caption = True
        counts.update(caption)
    if not any_caption:
        raise EmptyCorpusError("cannot build a vocabulary from zero captions")
    for tok in RESERVED:
        counts.pop(tok, None)
    kept = sorted((t for t, c in counts.items() if c >= min_count),
                  key=lambda tok: (-counts[tok], tok))
    return Vocabulary(list(RESERVED) + kept)


@dataclass(frozen=True)
class TokenSeq:
    """A caption padded to N+1 positions in both teacher-forcing views.

    ``input_ids`` is <S>, y1..yn followed by <E> padding; ``target_ids`` is
    y1..yn, <E> followed by <E> padding. Positions at index >= valid_len are
    padding and excluded from losses and metrics.
    """

    input_ids: np.ndarray
    target_ids: np.ndarray
    valid_len: int

    def __post_init__(self):
        if self.input_ids.shape != self.target_ids.shape:
            raise ValueError("input and target views must have equal length")
        if not 1 <= self.valid_len <= len(self.input_ids):
            raise ValueError(f"valid_len {self.valid_len} out of range")

    @classmethod
    def from_token_ids(cls, ids, max_steps: int) -> "TokenSeq":
        ids = list(ids)[:max_steps]
        n = len(ids)
        pad = [END_ID] * (max_steps - n)
        return cls(
            input_ids=np.array([START_ID] + ids + pad, dtype=np.int64),
            target_ids=np.array(ids + [END_ID] + pad, dtype=np.int64),
            valid_len=n + 1,
        )


def encode(caption: list[str], vocab: Vocabulary, max_steps: int) -> TokenSeq:
    """Map tokens to ids, truncate to max_steps, and pad both views."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    ids = [vocab.encode_token(tok) for tok in caption[:max_steps]]
    return TokenSeq.from_token_ids(ids, max_steps)


def decode(ids, vocab: Vocabulary) -> list[str]:
    """Ids back to tokens, every one up to the first <E>."""
    out = []
    for token_id in np.asarray(ids, dtype=np.int64):
        if token_id == END_ID:
            break
        out.append(vocab.decode_id(int(token_id)))
    return out


@dataclass
class ImageFeatures:
    """Precomputed image descriptors: one global vector plus an optional
    G x G grid of C-dimensional spatial cells."""

    global_vec: np.ndarray
    spatial: np.ndarray | None = None

    def __post_init__(self):
        self.global_vec = np.asarray(self.global_vec, dtype=np.float64)
        if self.global_vec.ndim != 1:
            raise InvalidFeatureError(f"global feature must be 1-d, got {self.global_vec.shape}")
        if not np.all(np.isfinite(self.global_vec)):
            raise InvalidFeatureError("global feature contains non-finite values")
        if self.spatial is not None:
            self.spatial = np.asarray(self.spatial, dtype=np.float64)
            if self.spatial.ndim != 3 or self.spatial.shape[0] != self.spatial.shape[1]:
                raise InvalidFeatureError(f"spatial grid must be [G,G,C], got {self.spatial.shape}")
            if not np.all(np.isfinite(self.spatial)):
                raise InvalidFeatureError("spatial features contain non-finite values")

    def spatial_flat(self) -> np.ndarray:
        """Spatial grid as [G*G, C] in row-major cell order."""
        if self.spatial is None:
            raise InvalidFeatureError("no spatial features present")
        g, _, c = self.spatial.shape
        return self.spatial.reshape(g * g, c)


def model_ids(ids, features) -> np.ndarray:
    """Check a model's inputs, a batch [B, T] of id sequences with a list of
    B ImageFeatures, and return the ids as int64."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size < 1 or ids.ndim != 2:
        raise ShapeError(f"ids must be a non-empty [T] sequence per image, stacked as "
                         f"[B, T], got shape {ids.shape}")
    if not isinstance(features, list):
        raise ShapeError(f"features must be a list of ImageFeatures, got {type(features).__name__}")
    if len(features) != ids.shape[0]:
        raise ShapeError(f"{ids.shape[0]} id sequences for {len(features)} images")
    return ids


def global_rows(features, feature_dim: int) -> np.ndarray:
    """Global feature vectors of a list of B ImageFeatures as one-row inputs
    [B, 1, F], checked against the configured dimension F."""
    for f in features:
        if f.global_vec.shape[-1] != feature_dim:
            raise ShapeError(f"global feature dim {f.global_vec.shape[-1]} != configured "
                             f"{feature_dim}")
    rows = np.stack([f.global_vec.reshape(1, -1) for f in features])
    if not np.all(np.isfinite(rows)):
        raise InvalidFeatureError("global feature contains non-finite values")
    return rows


@dataclass
class CorpusRecord:
    image_id: str
    caption: list[str]
    features: ImageFeatures
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.caption:
            raise ValueError(f"record {self.image_id} has an empty caption")


# ---------------------------------------------------------------------------
# feature file IO


def write_features(features: dict[str, ImageFeatures], path) -> None:
    """Check every item, then write them all: a rejected one leaves ``path`` as it was."""
    items = list(features.items())
    if not items:
        raise ValueError("refusing to write an empty feature file")
    f_dim = items[0][1].global_vec.shape[0]
    first_spatial = items[0][1].spatial
    if first_spatial is None:
        g_dim = c_dim = 0
    else:
        g_dim, _, c_dim = first_spatial.shape
    records = []  # (u16 id length + id bytes, value blocks) per image
    # An overflowing float32 cast raises here; each cast is dropped at once.
    with np.errstate(over="raise"):
        for image_id, feat in items:
            if feat.global_vec.shape[0] != f_dim:
                raise ValueError(f"{image_id}: global dim {feat.global_vec.shape[0]} != header {f_dim}")
            has_spatial = feat.spatial is not None
            if has_spatial != (g_dim > 0) or (has_spatial and feat.spatial.shape != (g_dim, g_dim, c_dim)):
                raise ValueError(f"{image_id}: spatial shape inconsistent with header")
            if any(c in image_id for c in _ID_BREAKS):
                raise ValueError(f"{image_id!r}: image id holds a tab or line break")
            blocks = [feat.global_vec] + ([feat.spatial] if has_spatial else [])
            try:
                for block in blocks:
                    block.astype("<f4")
            except FloatingPointError as exc:
                raise ValueError(f"{image_id}: a feature value rounds to infinity in float32") from exc
            raw = image_id.encode("utf-8")
            records.append((struct.pack("<H", len(raw)) + raw, blocks))

    def chunks():
        yield FEATURE_MAGIC + struct.pack("<IIII", len(items), f_dim, g_dim, c_dim)
        for head, blocks in records:
            yield head
            for block in blocks:
                yield block.astype("<f4")

    write_bytes(path, chunks())


def read_features(path) -> dict[str, ImageFeatures]:
    """Read record by record, each read checked against the file's size first."""
    out: dict[str, ImageFeatures] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def need(offset: int, count: int) -> None:
            if offset + count > size:
                raise FormatError(f"{path}: truncated payload, needed {count} bytes at offset {offset}")

        head = fh.read(20)
        need(0, 4)
        if head[:4] != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r} at byte 0")
        need(4, 16)
        count, f_dim, g_dim, c_dim = struct.unpack("<IIII", head[4:])
        grid = g_dim * g_dim * c_dim if g_dim > 0 and c_dim > 0 else 0
        pos = 20
        # Widening a float32 signalling NaN warns; the NaN it becomes is
        # rejected by ImageFeatures as non-finite.
        with np.errstate(invalid="ignore"):
            for _ in range(count):
                start = pos
                need(pos, 2)
                (id_len,) = struct.unpack("<H", fh.read(2))
                pos += 2
                # The id and both value blocks in one read; a record cut
                # short reads its id alone and fails one of the checks below.
                body_len = id_len + 4 * (f_dim + grid)
                body = fh.read(body_len if pos + body_len <= size else id_len)
                need(pos, id_len)
                try:
                    image_id = body[:id_len].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FormatError(f"{path}: image id is not UTF-8 at offset {pos + exc.start}") from exc
                if any(c in image_id for c in _ID_BREAKS):
                    raise FormatError(f"{path}: image id {image_id!r} at offset {pos} holds a tab "
                                      "or line break")
                if image_id in out:
                    raise FormatError(f"{path}: image id {image_id!r} repeated at offset {start}")
                pos += id_len
                need(pos, 4 * f_dim)
                need(pos + 4 * f_dim, 4 * grid)
                # Separate arrays, so holding one block keeps no other alive.
                global_vec = np.frombuffer(body, "<f4", f_dim, id_len).astype(np.float64)
                spatial = None
                if grid:
                    spatial = (np.frombuffer(body, "<f4", grid, id_len + 4 * f_dim)
                               .astype(np.float64).reshape(g_dim, g_dim, c_dim))
                pos += 4 * (f_dim + grid)
                try:
                    out[image_id] = ImageFeatures(global_vec, spatial)
                except InvalidFeatureError as exc:
                    raise FormatError(f"{path}: image {image_id!r} at offset {start}: {exc}") from exc
    if pos != size:
        raise FormatError(f"{path}: {size - pos} trailing bytes at offset {pos}")
    return out


# ---------------------------------------------------------------------------
# caption corpus IO


def write_caption_file(path, items):
    """``items`` is an iterable of (image_id, token list); returns ``path``."""
    return write_lines(path, (f"{image_id}\t{' '.join(tokens)}" for image_id, tokens in items))


def read_caption_file(path) -> list[tuple[str, list[str]]]:
    out = []
    for lineno, line in enumerate(read_lines(path), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if "\t" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'id<TAB>caption'")
        image_id, text = line.split("\t", 1)
        out.append((image_id, tokenize(text)))
    return out


# ---------------------------------------------------------------------------
# synthetic corpus

SYNTH_COLORS = ("red", "blue", "green", "yellow", "purple", "orange")
SYNTH_OBJECTS = ("ball", "cube", "lamp", "bottle", "drum", "kite", "plant", "clock")
SYNTH_RELATIONS = ("on", "under", "near", "beside")
SYNTH_PLACES = ("table", "shelf", "floor", "bench", "desk")
SYNTH_BLOCK = 2  # object signature occupies a BLOCK x BLOCK cell patch


def caption_for_scene(color: str, obj: str, relation: str, place: str) -> list[str]:
    """The fixed template grammar: 'a red ball on the table'."""
    return ["a", color, obj, relation, "the", place]


def synth_corpus(
    num_scenes: int,
    seed: int,
    *,
    feature_dim: int = 96,
    grid_size: int = 4,
    spatial_channels: int = 64,
    noise: float = 0.05,
) -> tuple[list[CorpusRecord], Vocabulary]:
    """Deterministic scene/caption generator standing in for a real dataset.

    Each scene is a (color, object, relation, place) tuple rendered by the
    template grammar. The global vector is a fixed random projection of the
    one-hot (color, relation, place) encoding plus small noise; the object's
    identity is carried only by its signature, written into a random
    contiguous BLOCK x BLOCK patch of the spatial grid (the remaining cells
    hold the place's background signature). Localizing the object in the
    grid is what gives spatial attention real signal: a model without
    attention cannot resolve the object token.

    Record.meta stores the attribute tuple and the patch cells so tests can
    re-derive captions and measure attention mass.
    """
    for name, value, least in (("num_scenes", num_scenes, 1), ("feature_dim", feature_dim, 1),
                               ("grid_size", grid_size, SYNTH_BLOCK),
                               ("spatial_channels", spatial_channels, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    rng = np.random.default_rng(seed)

    # Fixed tables first, so the per-scene stream is independent of their size.
    n_global_attrs = len(SYNTH_COLORS) + len(SYNTH_RELATIONS) + len(SYNTH_PLACES)
    projection = rng.normal(size=(n_global_attrs, feature_dim))
    object_sigs = rng.normal(size=(len(SYNTH_OBJECTS), spatial_channels))
    place_sigs = rng.normal(size=(len(SYNTH_PLACES), spatial_channels))

    records: list[CorpusRecord] = []
    for idx in range(num_scenes):
        ci = int(rng.integers(len(SYNTH_COLORS)))
        oi = int(rng.integers(len(SYNTH_OBJECTS)))
        ri = int(rng.integers(len(SYNTH_RELATIONS)))
        pi = int(rng.integers(len(SYNTH_PLACES)))
        row0 = int(rng.integers(grid_size - SYNTH_BLOCK + 1))
        col0 = int(rng.integers(grid_size - SYNTH_BLOCK + 1))

        one_hot = np.zeros(n_global_attrs)
        one_hot[ci] = 1.0
        one_hot[len(SYNTH_COLORS) + ri] = 1.0
        one_hot[len(SYNTH_COLORS) + len(SYNTH_RELATIONS) + pi] = 1.0
        global_vec = one_hot @ projection + noise * rng.normal(size=feature_dim)

        spatial = np.tile(place_sigs[pi], (grid_size, grid_size, 1))
        spatial += noise * rng.normal(size=spatial.shape)
        block = [
            (r, c)
            for r in range(row0, row0 + SYNTH_BLOCK)
            for c in range(col0, col0 + SYNTH_BLOCK)
        ]
        for r, c in block:
            spatial[r, c] = object_sigs[oi] + noise * rng.normal(size=spatial_channels)

        # Round through float32 so the feature file round-trips bit-exactly.
        feat = ImageFeatures(
            global_vec.astype("<f4").astype(np.float64),
            spatial.astype("<f4").astype(np.float64),
        )
        color, obj = SYNTH_COLORS[ci], SYNTH_OBJECTS[oi]
        relation, place = SYNTH_RELATIONS[ri], SYNTH_PLACES[pi]
        records.append(
            CorpusRecord(
                image_id=f"scene{idx:05d}",
                caption=caption_for_scene(color, obj, relation, place),
                features=feat,
                meta={
                    "color": color,
                    "object": obj,
                    "relation": relation,
                    "place": place,
                    "block": block,
                },
            )
        )
    vocab = build_vocab((r.caption for r in records), min_count=1)
    return records, vocab
