"""Dataset ingestion, normalization, augmentation, splits, and label noise.

Datasets are immutable bags of flat inputs plus integer labels. The inputs
are float32, or an IDX file's uint8 pixels with the table that decodes them;
Dataset.rows reads model inputs either way. Images keep (height, width,
channels) metadata so augmentation and per-channel normalization know the
geometry; purely tabular data leaves it unset and gets per-feature
statistics instead.
"""
from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, FormatError, check_fields, rule
from .nn import float64_sum

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

STD_FLOOR = 1e-8
# float64 bytes one normalization pass holds: whole rows, at least one
NORM_CHUNK_BYTES = 1 << 17
# codes (pixels, or augmented pixel codes) per np.take of a decode, which
# first copies its indices to intp
DECODE_CODES = 16384
PAD_CODE = 256  # the uint16 code of an augmentation's zero padding beside pixel codes 0..255
# literals, not np.iinfo/np.finfo: calling those at import raised
# img_aug_distill's peak_rss_mb by about 0.2 MB (2 CPUs, numpy 2.4.6)
LABEL_MAX = 2**63 - 1  # int64's largest; a CSV label past it does not fit the labels array
FLOAT32_MAX = 3.4028234663852886e38  # float32's largest finite value


@dataclass(frozen=True)
class Dataset:
    """n examples of d features each, with optional image geometry.

    inputs are float32 model inputs, or uint8 pixels together with
    ``decode``, the (257,) float32 table of the model input of each pixel
    value 0..255 and then 0.0 at PAD_CODE; ``rows`` reads model inputs either way.
    """

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int
    image_shape: tuple[int, int, int] | None = None
    decode: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.inputs)
        y = np.asarray(self.labels)
        if x.ndim != 2 or x.shape[0] < 1:
            raise DataError(f"inputs must be a nonempty (n, d) matrix, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise DataError(f"{x.shape[0]} inputs vs labels of shape {y.shape}")
        if y.min() < 0 or y.max() >= self.num_classes:
            raise DataError(f"labels must lie in [0, {self.num_classes})")
        if self.image_shape is not None:
            h, w, ch = self.image_shape
            if h * w * ch != x.shape[1]:
                raise DataError(f"image shape {self.image_shape} does not flatten to {x.shape[1]}")
        if (x.dtype == np.uint8) != (self.decode is not None):
            raise DataError(f"inputs of dtype {x.dtype} {'with' if self.decode is not None else 'without'} a decode table")
        if self.decode is not None and (self.decode.shape, self.decode.dtype) != ((PAD_CODE + 1,), np.float32):
            raise DataError(f"decode table must be (257,) float32, got {self.decode.shape} {self.decode.dtype}")
        if self.decode is not None and self.decode[PAD_CODE] != 0.0:
            raise DataError(f"decode table must hold 0.0 at PAD_CODE {PAD_CODE}, got {self.decode[PAD_CODE]}")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y.astype(np.int64))

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def rows(self, sel) -> np.ndarray:
        """The float32 model inputs of the rows sel (a slice or an index array)
        names: float inputs as indexing gives them, pixels decoded."""
        x = self.inputs[sel]
        return x if self.decode is None else _decode(x, self.decode)


def _decode(codes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """table[codes] in float32, for uint8 pixels or uint16 augmentation codes,
    DECODE_CODES codes per np.take. Every code is an entry of table, so mode
    "wrap" never wraps; it spares the copy of each piece that an out= take
    makes under the default "raise"."""
    flat = codes.reshape(-1)
    out = np.empty(flat.shape, dtype=np.float32)
    for start in range(0, flat.shape[0], DECODE_CODES):
        piece = slice(start, start + DECODE_CODES)
        np.take(table, flat[piece], out=out[piece], mode="wrap")
    return out.reshape(codes.shape)


@dataclass(frozen=True)
class AugmentSpec:
    """Random horizontal flips plus a size-preserving pad-and-crop."""

    horizontal_flip_prob: float = rule(0.5, "lie in [0, 1]", lambda v: 0 <= v <= 1)
    pad_pixels: int = rule(4, "be >= 0", lambda v: v >= 0)

    def __post_init__(self):
        check_fields(self, "augment")


def _read_be_u32(buf: bytes, offset: int, path, what: str) -> int:
    if len(buf) < offset + 4:
        raise FormatError(f"{path}: truncated before {what} at byte {offset}")
    return struct.unpack(">I", buf[offset : offset + 4])[0]


def read_idx(images_path, labels_path) -> Dataset:
    """MNIST-style IDX pair: big-endian headers, one byte per pixel/label,
    kept as the file's uint8 pixels, which decode to float32 divided by 255."""
    img_buf = Path(images_path).read_bytes()
    lbl_buf = Path(labels_path).read_bytes()

    magic = _read_be_u32(img_buf, 0, images_path, "image magic")
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"{images_path}: bad image magic 0x{magic:08x} at byte 0")
    n = _read_be_u32(img_buf, 4, images_path, "image count")
    rows = _read_be_u32(img_buf, 8, images_path, "row count")
    cols = _read_be_u32(img_buf, 12, images_path, "column count")
    want = 16 + n * rows * cols
    if len(img_buf) != want:
        raise FormatError(f"{images_path}: expected {want} bytes, found {len(img_buf)} (payload from byte 16)")

    magic = _read_be_u32(lbl_buf, 0, labels_path, "label magic")
    if magic != IDX_LABEL_MAGIC:
        raise FormatError(f"{labels_path}: bad label magic 0x{magic:08x} at byte 0")
    n_lbl = _read_be_u32(lbl_buf, 4, labels_path, "label count")
    if len(lbl_buf) != 8 + n_lbl:
        raise FormatError(f"{labels_path}: expected {8 + n_lbl} bytes, found {len(lbl_buf)} (payload from byte 8)")
    if n_lbl != n:
        raise FormatError(f"{images_path}: {n} images but {labels_path} has {n_lbl} labels")
    if n == 0:
        raise FormatError(f"{images_path}: zero images")

    pixels = np.frombuffer(img_buf, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    labels = np.frombuffer(lbl_buf, dtype=np.uint8, offset=8).astype(np.int64)
    table = np.arange(PAD_CODE + 1, dtype=np.float32)
    table /= 255.0
    table[PAD_CODE] = 0.0
    return Dataset(pixels, labels, int(labels.max()) + 1, (rows, cols, 1), table)


def load_idx(images_path, labels_path) -> Dataset:
    """An IDX pair (see read_idx) with its pixels scaled to [0, 1] in float32."""
    raw = read_idx(images_path, labels_path)
    return replace(raw, inputs=raw.rows(slice(None)), decode=None)


def load_csv(path) -> Dataset:
    """Rows of `label,f0,f1,...`: each label an integer in 0..2**63-1 and each
    feature a number that float32 holds finitely."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if not header or header[0] != "label":
            raise FormatError(f"{path}: row 1 must be a header starting with 'label', got {header[:3]}")
        dim = len(header) - 1
        if dim < 1:
            raise FormatError(f"{path}: header defines no feature columns")
        labels, rows = [], []
        for r, row in enumerate(reader, start=2):
            if len(row) != dim + 1:
                raise FormatError(f"{path}: row {r} has {len(row)} cells, expected {dim + 1}")
            try:
                label = int(row[0])
            except ValueError:
                raise FormatError(f"{path}: row {r}, column 1: {row[0]!r} is not an integer label") from None
            if not 0 <= label <= LABEL_MAX:
                raise FormatError(f"{path}: row {r}, column 1: label {label} outside 0..{LABEL_MAX}")
            values = [_feature(c) for c in row[1:]]
            if None in values:
                bad = values.index(None) + 2
                raise FormatError(f"{path}: row {r}, column {bad}: {row[bad - 1]!r} is not a finite float32 number")
            labels.append(label)
            rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    y = np.array(labels, dtype=np.int64)
    return Dataset(np.array(rows, dtype=np.float32), y, int(y.max()) + 1)


def _feature(cell: str) -> float | None:
    """cell's number when float32 holds it finitely, else None (nan, inf and 1e39 too)."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if abs(value) <= FLOAT32_MAX else None


def make_synthetic(
    num_classes: int,
    dim: int,
    per_class: int,
    class_separation: float,
    seed: int,
    image_hw: tuple[int, int] | None = None,
) -> Dataset:
    """Gaussian mixture: class means of the given norm, isotropic unit noise.

    image_hw tags the features as a single-channel (h, w) image so the
    augmentation pipeline accepts synthetic data. DataConfig checks the
    arguments, h*w == dim included.
    """
    image_shape = None if image_hw is None else (*image_hw, 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.normal(size=(num_classes, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    means = raw / norms * class_separation
    labels = np.repeat(np.arange(num_classes), per_class)
    inputs = np.empty((labels.size, dim), dtype=np.float32)
    # labels run in per_class blocks; drawing the noise one block at a time
    # gives the stream of one whole draw and holds one class in float64
    block = np.empty((per_class, dim))
    for c in range(num_classes):
        rng.standard_normal(out=block)
        block += means[c]
        inputs[c * per_class : (c + 1) * per_class] = block
    # shuffle makes the swaps permutation(n) makes, so shuffling the rows in
    # place gives inputs[order] without a second copy of the inputs
    state = rng.bit_generator.state
    order = rng.permutation(labels.size)
    rng.bit_generator.state = state
    rng.shuffle(inputs.view(np.dtype((np.void, inputs.strides[0]))).reshape(-1))
    return Dataset(inputs, labels[order], num_classes, image_shape=image_shape)


def inject_label_noise(ds: Dataset, q: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Re-draw exactly floor(q*n) labels uniformly over all classes.

    Returns the noisy labels and the boolean mask of the re-drawn entries;
    outside the mask the labels are ds.labels. The re-drawn label may
    coincide with the true one, so the expected fraction actually corrupted
    is q*(C-1)/C. RunConfig checks that q lies in [0, 1].
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    k = int(q * ds.n)
    mask = np.zeros(ds.n, dtype=bool)
    noisy = ds.labels.copy()
    if k > 0:
        chosen = rng.choice(ds.n, size=k, replace=False)
        mask[chosen] = True
        noisy[chosen] = rng.integers(0, ds.num_classes, size=k)
    return noisy, mask


def augment_batch(ds: Dataset, sel, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """The float32 model inputs of ds's rows sel (as Dataset.rows reads them),
    each image flipped and then cropped from its zero-padded copy; labels
    untouched. Only stored values move: float inputs pad with 0.0, and pixels
    widen to uint16 codes that pad with PAD_CODE and decode once at the end,
    through ds.decode as rows decodes pixels.
    run_experiment checks that its data has image geometry."""
    h, w, ch = ds.image_shape
    stored = ds.inputs[sel]
    n = stored.shape[0]
    flips = rng.random(n) < spec.horizontal_flip_prob
    pad = spec.pad_pixels
    pixels = ds.decode is not None
    dtype, fill = (np.uint16, PAD_CODE) if pixels else (stored.dtype, 0)
    out = np.full((n, h + 2 * pad, w + 2 * pad, ch), fill, dtype=dtype)
    out[:, pad : pad + h, pad : pad + w] = stored.reshape(n, h, w, ch)
    del stored
    if pad > 0:
        # crop first: the flipped image's window at column c is the mirror of
        # the unflipped one's at column 2 * pad - c; one gather of all windows.
        # np.ndarray builds their view: sliding_window_view's as_strided reads
        # __array_interface__, whose dict interns a key that dies with it, and
        # that churn grows the interpreter's interned-string table for good.
        k = 2 * pad + 1  # window positions along each axis
        offsets = rng.integers(0, k, size=(n, 2))
        cols = np.where(flips, 2 * pad - offsets[:, 1], offsets[:, 1])
        s0, s1, s2, s3 = out.strides
        windows = np.ndarray((n, k, k, h, w, ch), out.dtype, out, 0, (s0, s1, s2, s1, s2, s3))
        out = windows[np.arange(n), offsets[:, 0], cols]
        del windows  # the padded buffer
    out[flips] = out[flips, :, ::-1]
    out = out.reshape(n, h * w * ch)
    return _decode(out, ds.decode) if pixels else out


def subset(ds: Dataset, indices: np.ndarray) -> Dataset:
    """The examples at indices, gathered once; pixels stay pixels with ds's decode table."""
    idx = np.asarray(indices)
    return replace(ds, inputs=ds.inputs[idx], labels=ds.labels[idx])


def split_indices(
    labels: np.ndarray, val_fraction: float, seed: int, what: str = "val fraction"
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified index split; every class lands on both sides when it can.

    The validation side gets floor(val_fraction*n) indices, allocated to
    classes proportionally (largest remainder). Classes with at least two
    examples are then repaired to appear on both sides if the budget allows.
    DataConfig checks that the fraction lies in (0, 1); errors name it as what.
    """
    y = np.asarray(labels)
    n = y.shape[0]
    n_val = int(val_fraction * n)
    if n_val < 1 or n_val >= n:
        raise ConfigurationError(f"{what} {val_fraction} leaves one side of {n} examples empty")
    rng = np.random.Generator(np.random.PCG64(seed))
    classes = _distinct(y)
    per_class = {int(c): rng.permutation(np.flatnonzero(y == c)) for c in classes}
    counts = {c: len(idx) for c, idx in per_class.items()}
    # proportional quota with largest-remainder rounding to hit n_val exactly
    quota = {c: n_val * counts[c] / n for c in per_class}
    alloc = {c: int(quota[c]) for c in per_class}
    leftovers = sorted(per_class, key=lambda c: (alloc[c] - quota[c], c))
    for c in leftovers:
        if sum(alloc.values()) == n_val:
            break
        alloc[c] += 1
    for c in per_class:
        # keep at least one example of every class on the train side
        if alloc[c] >= counts[c]:
            alloc[c] = counts[c] - 1
    while sum(alloc.values()) < n_val:
        c = max(per_class, key=lambda c: counts[c] - 1 - alloc[c])
        if alloc[c] >= counts[c] - 1:
            raise ConfigurationError(f"{what} {val_fraction} is too large for the class counts")
        alloc[c] += 1
    if len(classes) <= n_val:
        for c in per_class:
            if alloc[c] == 0 and counts[c] >= 2:
                # c holds none of the n_val >= len(classes) slots, so the fullest other class holds >= 2
                donor = max(per_class, key=lambda d: alloc[d])
                alloc[donor] -= 1
                alloc[c] = 1
    val_parts = [per_class[c][: alloc[c]] for c in sorted(per_class)]
    train_parts = [per_class[c][alloc[c] :] for c in sorted(per_class)]
    train_idx = rng.permutation(np.concatenate(train_parts))
    val_idx = rng.permutation(np.concatenate(val_parts))
    return train_idx, val_idx


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a nonempty 1-D array, as np.unique gives them without importing numpy.ma."""
    s = np.sort(a)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def make_chunks(ds: Dataset, num_chunks: int, seed: int) -> tuple[np.ndarray, ...]:
    """Seeded partition of the index set into arrival-ordered chunks whose
    sizes differ by at most 1."""
    if not 1 <= num_chunks <= ds.n:
        raise ConfigurationError(f"chunk count {num_chunks} outside 1..{ds.n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(ds.n)
    return tuple(np.array_split(order, num_chunks))


def compute_normalization(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std per channel (images) or per feature (tabular), float64.

    Bit-identical to ``np.mean`` and ``np.std`` on a float64 copy of the
    model inputs: the std repeats numpy's own steps, through float64_sum for
    a single channel (decoding pixels a piece at a time) and in place on that
    one copy otherwise.
    """
    if ds.image_shape is not None and ds.image_shape[2] == 1:
        flat = ds.inputs.reshape(-1)
        read = None if ds.decode is None else (lambda piece: _decode(piece, ds.decode))
        mean = float64_sum(flat, None, read) / flat.size
        var = np.array([float64_sum(flat, mean, read) / flat.size])
        return np.array([mean]), np.maximum(np.sqrt(var, out=var), STD_FLOOR)
    x = ds.rows(slice(None)).astype(np.float64)
    if ds.image_shape is not None:
        x = x.reshape(ds.n, -1, ds.image_shape[2])
        axis = (0, 1)
    else:
        axis = 0
    mean = x.mean(axis=axis)
    count = x.size // mean.size
    shift = x.sum(axis=axis, keepdims=True)
    shift /= count
    x -= shift
    np.square(x, out=x)
    var = x.sum(axis=axis)
    var /= count
    return mean, np.maximum(np.sqrt(var, out=var), STD_FLOOR)


def normalize_in_place(ds: Dataset, mean: np.ndarray, std: np.ndarray) -> None:
    """Overwrite ds's float32 inputs with (x - mean) / std, computed in float64
    a NORM_CHUNK_BYTES buffer at a time. Pixels normalize through
    normalized_table instead."""
    step = max(1, NORM_CHUNK_BYTES // (8 * ds.dim))
    buf = np.empty((min(ds.n, step), ds.dim))
    # per channel for images: channels are the last axis of each row
    cols = ds.image_shape[2] if ds.image_shape is not None else ds.dim
    for start in range(0, ds.n, step):
        chunk = ds.inputs[start : start + step]
        x = buf[: chunk.shape[0]]
        x[...] = chunk
        block = x.reshape(-1, cols)
        block -= mean
        block /= std
        chunk[...] = x


def normalized_table(table: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """The decode table of single-channel pixels whose inputs become
    (x - mean) / std, each pixel input x of table computed as
    normalize_in_place computes an input; PAD_CODE stays 0.0."""
    x = table[:PAD_CODE].astype(np.float64)
    x -= mean
    x /= std
    return np.append(x.astype(np.float32), np.float32(0.0))
