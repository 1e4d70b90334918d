"""Loaders, synthetic data, noise injection, augmentation, splits, chunks, normalization."""
import csv
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reinit_lab.data import (
    NORM_CHUNK_BYTES,
    AugmentSpec,
    Dataset,
    _distinct,
    augment_batch,
    compute_normalization,
    inject_label_noise,
    load_csv,
    load_idx,
    make_chunks,
    make_synthetic,
    normalize_in_place,
    normalized_table,
    split_indices,
    subset,
)
from reinit_lab.errors import ConfigurationError, DataError, FormatError
from reinit_lab.harness import (
    TEST_SPLIT_TAG,
    VAL_SPLIT_TAG,
    DataConfig,
    RunConfig,
    Seeds,
    prepare_data,
    run_experiment,
)
from reinit_lab.nn import PIECE, NetworkSpec
from reinit_lab.reinit import stage_seed
from helpers import run_fresh_process, traced_peak, write_csv, write_idx


def write_idx_pair(tmp_path, images, labels):
    """Build an IDX fixture byte-by-byte: big-endian headers, uint8 payload."""
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(
        struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()
    )
    lbl_path.write_bytes(struct.pack(">II", 0x00000801, len(labels)) + bytes(labels))
    return img_path, lbl_path


def test_load_idx_fixture(tmp_path):
    rng = np.random.Generator(np.random.PCG64(1))
    images = rng.integers(0, 256, size=(4, 28, 28), dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, [3, 1, 4, 1])
    ds = load_idx(img_path, lbl_path)
    assert ds.n == 4 and ds.dim == 784
    assert ds.image_shape == (28, 28, 1)
    assert ds.num_classes == 5
    np.testing.assert_allclose(ds.inputs[0], images[0].ravel() / 255.0, atol=1e-7)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0


def test_load_idx_rejects_bad_magic_and_truncation(tmp_path):
    images = np.zeros((2, 4, 4), dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, [0, 1])
    img_path.write_bytes(b"\x00\x00\x08\x04" + img_path.read_bytes()[4:])
    with pytest.raises(FormatError, match="magic"):
        load_idx(img_path, lbl_path)
    img_path, _ = write_idx_pair(tmp_path, images, [0, 1])
    img_path.write_bytes(img_path.read_bytes()[:-3])
    with pytest.raises(FormatError, match="bytes"):
        load_idx(img_path, lbl_path)


def test_load_idx_rejects_count_mismatch_and_empty(tmp_path):
    images = np.zeros((2, 4, 4), dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, [0, 1, 1])
    with pytest.raises(FormatError, match="labels"):
        load_idx(img_path, lbl_path)
    (tmp_path / "empty.idx").write_bytes(b"")
    with pytest.raises(FormatError, match="truncated"):
        load_idx(tmp_path / "empty.idx", lbl_path)


def test_csv_round_trip(tmp_path):
    ds = make_synthetic(3, 4, per_class=5, class_separation=2.0, seed=9)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(ds.dim)])
        writer.writerows([int(label)] + [repr(float(v)) for v in row] for label, row in zip(ds.labels, ds.inputs))
    back = load_csv(path)
    np.testing.assert_array_equal(back.inputs, ds.inputs)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes


def test_csv_three_row_fixture(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("label,f0,f1\n0,1.5,-2\n1,0,0.25\n0,3,4\n")
    ds = load_csv(path)
    assert ds.n == 3 and ds.dim == 2
    np.testing.assert_allclose(ds.inputs[2], [3.0, 4.0])


def test_csv_positioned_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1\n1,2\n")
    with pytest.raises(FormatError, match="header"):
        load_csv(path)
    path.write_text("label,f0,f1\n0,1.5,oops\n")
    with pytest.raises(FormatError, match="row 2, column 3"):
        load_csv(path)
    path.write_text("label,f0\nx,1\n")
    with pytest.raises(FormatError, match="row 2, column 1"):
        load_csv(path)
    path.write_text(f"label,f0\n0,1\n{2**64},1\n")
    with pytest.raises(FormatError, match="row 3, column 1: label 18446744073709551616 outside"):
        load_csv(path)
    for cell in ("nan", "-inf", "1e39"):
        path.write_text(f"label,f0,f1\n0,1,{cell}\n")
        with pytest.raises(FormatError, match=f"row 2, column 3: '{cell}' is not a finite float32 number"):
            load_csv(path)
    path.write_text("")
    with pytest.raises(FormatError, match="empty"):
        load_csv(path)


def test_make_synthetic_deterministic_and_separated():
    a = make_synthetic(4, 8, per_class=25, class_separation=3.0, seed=10)
    b = make_synthetic(4, 8, per_class=25, class_separation=3.0, seed=10)
    c = make_synthetic(4, 8, per_class=25, class_separation=3.0, seed=11)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.inputs, c.inputs)
    assert a.n == 100
    counts = np.bincount(a.labels)
    assert np.all(counts == 25)


def test_make_synthetic_large_separation_is_linearly_separable():
    ds = make_synthetic(3, 10, per_class=60, class_separation=10.0, seed=4)
    # nearest-class-mean probe stands in for a linear classifier
    means = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(3)])
    pred = np.argmin(((ds.inputs[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    assert (pred == ds.labels).mean() >= 0.99


def test_make_synthetic_zero_separation_near_chance():
    ds = make_synthetic(4, 6, per_class=200, class_separation=0.0, seed=5)
    means = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(4)])
    pred = np.argmin(((ds.inputs[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    assert abs((pred == ds.labels).mean() - 0.25) < 0.07


def test_make_synthetic_image_tagging():
    ds = make_synthetic(2, 36, per_class=3, class_separation=1.0, seed=1, image_hw=(6, 6))
    assert ds.image_shape == (6, 6, 1)
    # DataConfig is where image_hw must flatten to dim
    with pytest.raises(ConfigurationError, match=r"image_hw \[6, 6\] must flatten to dim 35"):
        DataConfig(num_classes=2, dim=35, per_class=3, class_separation=1.0, image_hw=(6, 6))


def test_inject_noise_exact_count_and_identity():
    ds = make_synthetic(10, 4, per_class=10, class_separation=1.0, seed=2)
    noisy, mask = inject_label_noise(ds, 0.2, seed=3)
    assert mask.sum() == 20
    np.testing.assert_array_equal(noisy[~mask], ds.labels[~mask])
    clean, clean_mask = inject_label_noise(ds, 0.0, seed=3)
    assert clean_mask.sum() == 0
    np.testing.assert_array_equal(clean, ds.labels)


def test_inject_noise_floor_count():
    ds = make_synthetic(2, 3, per_class=5, class_separation=1.0, seed=2)
    assert inject_label_noise(ds, 0.25, seed=1)[1].sum() == 2  # floor(0.25 * 10)
    assert inject_label_noise(ds, 1.0, seed=1)[1].sum() == 10


def test_inject_noise_deterministic():
    ds = make_synthetic(5, 4, per_class=20, class_separation=1.0, seed=2)
    a_labels, a_mask = inject_label_noise(ds, 0.4, seed=7)
    b_labels, b_mask = inject_label_noise(ds, 0.4, seed=7)
    np.testing.assert_array_equal(a_labels, b_labels)
    np.testing.assert_array_equal(a_mask, b_mask)
    _, c_mask = inject_label_noise(ds, 0.4, seed=8)
    assert not np.array_equal(a_mask, c_mask)


def make_image_batch(n=6, h=5, w=5, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.random((n, h * w)).astype(np.float32), (h, w, 1)


def augment_rows(x, image_shape, spec, rng):
    """augment_batch over every row of float inputs x, as one image dataset."""
    ds = Dataset(x, np.zeros(x.shape[0], dtype=np.int64), 1, image_shape)
    return augment_batch(ds, np.arange(x.shape[0]), spec, rng)


def test_augment_flip_is_involutive():
    x, shape = make_image_batch()
    spec = AugmentSpec(horizontal_flip_prob=1.0, pad_pixels=0)
    rng = np.random.Generator(np.random.PCG64(0))
    once = augment_rows(x, shape, spec, rng)
    twice = augment_rows(once, shape, spec, rng)
    np.testing.assert_array_equal(twice, x)
    assert not np.array_equal(once, x)


def test_augment_preserves_pixel_multiset_under_flip():
    x, shape = make_image_batch()
    spec = AugmentSpec(horizontal_flip_prob=1.0, pad_pixels=0)
    out = augment_rows(x, shape, spec, np.random.Generator(np.random.PCG64(1)))
    np.testing.assert_array_equal(np.sort(out, axis=1), np.sort(x, axis=1))


class CenterDraws:
    """Stands in for the generator: no image flips, and every crop offset at the center."""

    def random(self, n):
        return np.ones(n)

    def integers(self, low, high, size):
        return np.full(size, (high - 1) // 2)


def test_center_crop_is_identity():
    x, shape = make_image_batch()
    out = augment_rows(x, shape, AugmentSpec(horizontal_flip_prob=0.5, pad_pixels=4), CenterDraws())
    np.testing.assert_array_equal(out, x)


def test_augment_keeps_shape_and_needs_geometry():
    x, shape = make_image_batch()
    out = augment_rows(x, shape, AugmentSpec(), np.random.Generator(np.random.PCG64(2)))
    assert out.shape == x.shape
    # run_experiment checks that the data it augments has image geometry, before its first step
    cfg = RunConfig(NetworkSpec(3, (4,), 2), DataConfig(num_classes=2, dim=3, per_class=20), setting="d", epochs=1)
    with pytest.raises(ConfigurationError, match="augmentation needs image geometry"):
        run_experiment(cfg)


def test_augment_is_deterministic_given_rng_state():
    x, shape = make_image_batch()
    a = augment_rows(x, shape, AugmentSpec(), np.random.Generator(np.random.PCG64(3)))
    b = augment_rows(x, shape, AugmentSpec(), np.random.Generator(np.random.PCG64(3)))
    np.testing.assert_array_equal(a, b)


def reference_augment(x, image_shape, spec, rng):
    """Per-image flip, then np.pad, then crop, drawing the generator in the same order."""
    h, w, ch = image_shape
    n, pad = x.shape[0], spec.pad_pixels
    imgs = x.reshape(n, h, w, ch)
    flips = rng.random(n) < spec.horizontal_flip_prob
    offsets = rng.integers(0, 2 * pad + 1, size=(n, 2)) if pad > 0 else np.full((n, 2), 0)
    out = np.empty_like(imgs)
    for i in range(n):
        img = imgs[i, :, ::-1] if flips[i] else imgs[i]
        padded = np.pad(img, ((pad, pad), (pad, pad), (0, 0)))
        r, c = offsets[i]
        out[i] = padded[r : r + h, c : c + w]
    return out.reshape(n, h * w * ch)


@pytest.mark.parametrize("h, w, ch", [(5, 5, 1), (4, 7, 3), (28, 28, 1)])
@pytest.mark.parametrize("pad", [0, 1, 4])
@pytest.mark.parametrize("flip_prob", [0.0, 0.5, 1.0])
def test_augment_matches_per_image_reference(h, w, ch, pad, flip_prob):
    rng = np.random.Generator(np.random.PCG64(h * w * ch + pad))
    x = rng.random((17, h * w * ch)).astype(np.float32)
    spec = AugmentSpec(horizontal_flip_prob=flip_prob, pad_pixels=pad)
    got_rng = np.random.Generator(np.random.PCG64(9))
    want_rng = np.random.Generator(np.random.PCG64(9))
    x_before = x.copy()
    got = augment_rows(x, (h, w, ch), spec, got_rng)
    want = reference_augment(x, (h, w, ch), spec, want_rng)
    assert got.dtype == x.dtype and got.shape == x.shape
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert np.array_equal(x, x_before)
    assert not np.shares_memory(got, x)


def pixel_images(n, image_shape, seed):
    """uint8 images with the normalized decode table prepare_data gives an IDX split."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pixels = rng.integers(0, 256, size=(n, int(np.prod(image_shape))), dtype=np.uint8)
    scaled = np.append(np.arange(256, dtype=np.float32) / np.float32(255.0), np.float32(0.0))
    table = normalized_table(scaled, np.array([0.3]), np.array([0.25]))
    return Dataset(pixels, np.zeros(n, dtype=np.int64), 1, image_shape, table)


@pytest.mark.parametrize("seed", range(24))
def test_pixel_code_augmentation_equals_decode_then_augment(seed):
    """Pixels moved as uint16 codes, with PAD_CODE for the padding, decode
    bit for bit to the decoded rows flipped, zero-padded and cropped."""
    flip_prob, pad = (0.0, 0.5, 1.0)[seed % 3], (0, 1, 4)[seed // 3 % 3]
    image_shape = ((28, 28, 1), (4, 7, 3))[seed // 9 % 2]
    ds = pixel_images(40, image_shape, seed)
    pixels_before = ds.inputs.copy()
    idx = np.random.Generator(np.random.PCG64(seed)).permutation(ds.n)[:17]
    spec = AugmentSpec(horizontal_flip_prob=flip_prob, pad_pixels=pad)
    got_rng, want_rng = (np.random.Generator(np.random.PCG64(seed + 100)) for _ in range(2))
    got = augment_batch(ds, idx, spec, got_rng)
    want = reference_augment(ds.rows(idx), image_shape, spec, want_rng)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert np.array_equal(ds.inputs, pixels_before)


def test_augmented_pixel_batch_peak():
    """One augmented 125x784 batch of pixels holds its uint16 codes, padded
    and then cropped, beside the float32 inputs it returns: 0.73 MB traced
    (the crop windows are a view), where decoding first and padding float32
    inputs held 1.44 MB."""
    ds = pixel_images(1000, (28, 28, 1), 0)
    idx = np.random.Generator(np.random.PCG64(1)).permutation(ds.n)[:125]
    rng = np.random.Generator(np.random.PCG64(2))
    peak = traced_peak(lambda: augment_batch(ds, idx, AugmentSpec(), rng))
    assert peak <= 0.8e6, f"{peak / 1e6:.2f} MB"


AUGMENT_LOOP = """
import numpy as np
from reinit_lab.data import AugmentSpec, Dataset, augment_batch

def peak_kb():
    with open("/proc/self/status") as f:
        return int(next(line for line in f if line.startswith("VmHWM:")).split()[1])

def raised_peak_kb(call):
    before = peak_kb()
    for _ in range(25000):
        call()
    return peak_kb() - before

table = np.append(np.arange(256, dtype=np.float32), np.float32(0.0))
ds = Dataset(np.arange(256, dtype=np.uint8).reshape(4, 64), np.zeros(4, dtype=np.int64), 1, (8, 8, 1), table)
spec, rng, sel = AugmentSpec(pad_pixels=2), np.random.Generator(np.random.PCG64(0)), np.arange(4)
for _ in range(100):
    augment_batch(ds, sel, spec, rng)
print(raised_peak_kb(lambda: augment_batch(ds, sel, spec, rng)))
print(raised_peak_kb(lambda: np.zeros(3).__array_interface__))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the resident peak from /proc")
def test_augmentation_leaves_the_interned_string_table_alone():
    """Each read of ndarray.__array_interface__ (which as_strided and
    sliding_window_view make) interns a string that dies with it, and enough
    such reads grow the interpreter's interned-string table to 65,536 slots
    for good: about 1 MB more resident peak. 25,000 augmented batches, more
    than the table's usable slots at 32,768, must not do that. 25,000 such
    reads after them show that the interpreter still grows its table so;
    else a pass shows nothing and the test skips. The child reads its own
    VmHWM, because ru_maxrss keeps the forking test process's peak across
    exec and tracemalloc would make the loop about five times slower."""
    proc = run_fresh_process("-c", AUGMENT_LOOP)
    assert proc.returncode == 0, proc.stderr
    augment_kb, control_kb = map(int, proc.stdout.split())
    assert augment_kb < 100, f"25,000 augmented batches raised the resident peak {augment_kb} KB"
    if control_kb <= 500:
        pytest.skip(f"{control_kb} KB: this interpreter does not grow its interned-string table on such reads")


def test_split_sizes_and_exhaustive_indices():
    labels = np.repeat(np.arange(10), 100)
    train_idx, val_idx = split_indices(labels, 0.1, seed=1)
    assert len(val_idx) == 100 and len(train_idx) == 900
    assert np.array_equal(np.sort(np.concatenate([train_idx, val_idx])), np.arange(1000))


def test_split_is_seeded_and_stratified():
    ds = make_synthetic(5, 3, per_class=40, class_separation=1.0, seed=0)
    t1, v1 = (subset(ds, idx) for idx in split_indices(ds.labels, 0.2, seed=9))
    t2, v2 = (subset(ds, idx) for idx in split_indices(ds.labels, 0.2, seed=9))
    np.testing.assert_array_equal(t1.inputs, t2.inputs)
    np.testing.assert_array_equal(v1.labels, v2.labels)
    assert set(np.unique(v1.labels)) == set(range(5))
    assert set(np.unique(t1.labels)) == set(range(5))


def test_split_class_presence_with_skew():
    labels = np.array([0] * 96 + [1] * 2 + [2] * 2)
    train_idx, val_idx = split_indices(labels, 0.1, seed=3)
    assert len(val_idx) == 10
    for c in (0, 1, 2):
        assert c in labels[train_idx]
        assert c in labels[val_idx]


def test_split_rejects_empty_sides():
    ds = make_synthetic(2, 3, per_class=3, class_separation=1.0, seed=0)
    with pytest.raises(ConfigurationError):
        split_indices(ds.labels, 0.01, seed=1)
    with pytest.raises(ConfigurationError):
        split_indices(ds.labels, 1.0, seed=1)


def test_make_chunks_partition():
    ds = make_synthetic(2, 3, per_class=51, class_separation=1.0, seed=0)
    for n, k in ((100, 5), (101, 5), (7, 7), (9, 1)):
        chunks = make_chunks(subset(ds, np.arange(n)), k, seed=4)
        assert len(chunks) == k
        sizes = [len(c) for c in chunks]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        # disjoint and covering: the chunks together hold every index exactly once
        assert np.array_equal(np.sort(np.concatenate(chunks)), np.arange(n))
    with pytest.raises(ConfigurationError):
        make_chunks(ds, 0, seed=4)
    with pytest.raises(ConfigurationError):
        make_chunks(ds, 103, seed=4)


def normalized(ds, mean, std):
    """A copy of ds normalized as prepare_data normalizes its splits in place."""
    out = replace(ds, inputs=ds.inputs.copy())
    normalize_in_place(out, mean, std)
    return out


def test_normalization_zero_mean_unit_std_tabular():
    ds = make_synthetic(3, 6, per_class=100, class_separation=2.0, seed=6)
    mean, std = compute_normalization(ds)
    normed = normalized(ds, mean, std)
    got_mean, got_std = compute_normalization(normed)
    np.testing.assert_allclose(got_mean, 0.0, atol=1e-6)
    np.testing.assert_allclose(got_std, 1.0, atol=1e-6)


def test_normalization_per_channel_for_images(tmp_path):
    rng = np.random.Generator(np.random.PCG64(8))
    images = rng.integers(0, 256, size=(30, 6, 6), dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, list(rng.integers(0, 3, size=30)))
    ds = load_idx(img_path, lbl_path)
    mean, std = compute_normalization(ds)
    assert mean.shape == (1,) and std.shape == (1,)
    normed = normalized(ds, mean, std)
    m2, s2 = compute_normalization(normed)
    np.testing.assert_allclose(m2, 0.0, atol=1e-6)
    np.testing.assert_allclose(s2, 1.0, atol=1e-6)


def test_subset_keeps_metadata():
    ds = make_synthetic(2, 36, per_class=10, class_separation=1.0, seed=1, image_hw=(6, 6))
    sub = subset(ds, np.array([0, 3, 5]))
    assert sub.n == 3
    assert sub.image_shape == (6, 6, 1)
    np.testing.assert_array_equal(sub.inputs[1], ds.inputs[3])


# --- the data path against today's formulas, bit for bit ---------------------
# prepare_data keeps one float64 copy of the training split; these references
# write each step the direct, allocating way and must agree to the last bit.


def reference_load_idx(images_path, labels_path):
    raw = Path(images_path).read_bytes()
    n, rows, cols = struct.unpack(">III", raw[4:16])
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    labels = np.frombuffer(Path(labels_path).read_bytes(), dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(pixels.astype(np.float32) / 255.0, labels, int(labels.max()) + 1, image_shape=(rows, cols, 1))


def reference_make_synthetic(num_classes, dim, per_class, class_separation, seed, image_hw=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.normal(size=(num_classes, dim))
    means = raw / np.linalg.norm(raw, axis=1, keepdims=True) * class_separation
    labels = np.repeat(np.arange(num_classes), per_class)
    inputs = means[labels] + rng.normal(size=(labels.size, dim))
    order = rng.permutation(labels.size)
    image_shape = None if image_hw is None else (*image_hw, 1)
    return Dataset(inputs[order].astype(np.float32), labels[order], num_classes, image_shape=image_shape)


def _reference_view(ds):
    x = ds.inputs.astype(np.float64)
    if ds.image_shape is None:
        return x, 0
    return x.reshape(ds.n, -1, ds.image_shape[2]), (0, 1)


def reference_normalization(ds):
    x, axis = _reference_view(ds)
    return x.mean(axis=axis), np.maximum(x.std(axis=axis), 1e-8)


def reference_normalize(ds, mean, std):
    x, _ = _reference_view(ds)
    return ((x - mean) / std).reshape(ds.n, ds.dim).astype(np.float32)


def reference_prepare(cfg):
    dc = cfg.data
    if dc.source == "idx":
        full = reference_load_idx(dc.images_path, dc.labels_path)
    else:
        full = reference_make_synthetic(
            dc.num_classes, dc.dim, dc.per_class, dc.class_separation, cfg.seeds.data, dc.image_hw
        )
    if dc.test_images_path:
        test = reference_load_idx(dc.test_images_path, dc.test_labels_path)
    else:
        rest, test_idx = split_indices(full.labels, dc.test_fraction, stage_seed(cfg.seeds.data, TEST_SPLIT_TAG))
        full, test = subset(full, rest), subset(full, test_idx)
    train_idx, val_idx = split_indices(full.labels, dc.val_fraction, stage_seed(cfg.seeds.data, VAL_SPLIT_TAG))
    train, val = subset(full, train_idx), subset(full, val_idx)
    mean, std = reference_normalization(train)
    parts = {"train": train, "val": val, "test": test}
    parts = {name: reference_normalize(ds, mean, std) for name, ds in parts.items()}
    noisy, mask = inject_label_noise(train, cfg.noise_q, cfg.seeds.noise)
    return parts, (noisy, val.labels, test.labels), mask


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_prepare_matches_reference(cfg):
    bundle = prepare_data(cfg)
    parts, labels, mask = reference_prepare(cfg)
    # the training split holds the noisy labels; val and test the clean ones
    for ds, name, want_labels in zip((bundle.train, bundle.val, bundle.test), parts, labels):
        assert_bits_equal(ds.rows(slice(None)), parts[name])
        assert_bits_equal(ds.labels, want_labels)
    assert_bits_equal(bundle.noise_mask, mask)
    return bundle


def run_config(data, input_dim, num_classes):
    network = NetworkSpec(input_dim, (8,), num_classes)
    return RunConfig(network=network, data=data, noise_q=0.2, seeds=Seeds(5, 6, 7, 8))


def test_prepare_data_idx_matches_reference_across_chunks(tmp_path):
    rng = np.random.Generator(np.random.PCG64(12))
    n = 1600  # test 400, val 120, train 1080: statistics over several float64_sum pieces
    images = rng.integers(0, 256, size=(n, 6, 5), dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, list(rng.permutation(np.arange(n) % 7)))
    data = DataConfig(source="idx", images_path=str(img_path), labels_path=str(lbl_path))
    bundle = assert_prepare_matches_reference(run_config(data, 30, 7))
    assert bundle.train.inputs.dtype == np.uint8 and bundle.train.n * 30 > 2 * PIECE


@pytest.mark.parametrize("image_hw", [None, (5, 7)])
def test_prepare_data_synthetic_matches_reference(image_hw):
    data = DataConfig(num_classes=3, dim=35, per_class=400, class_separation=1.5, image_hw=image_hw)
    bundle = assert_prepare_matches_reference(run_config(data, 35, 3))
    # test 300, val 90, train 810: one full normalization chunk and a partial one
    rows = NORM_CHUNK_BYTES // (8 * 35)
    assert bundle.train.n > rows and bundle.train.n % rows != 0


@pytest.mark.parametrize("source", ["csv", "idx"])
def test_held_out_test_file_is_the_test_split_and_trains(tmp_path, source):
    rng = np.random.Generator(np.random.PCG64(8))
    images, test_images = rng.integers(0, 256, (60, 2, 3)), rng.integers(0, 256, (15, 2, 3))
    labels, test_labels = np.arange(60) % 3, rng.permutation(np.arange(15) % 3)
    if source == "csv":
        paths = [tmp_path / "train.csv", tmp_path / "test.csv"]
        write_csv(paths[0], labels, images.reshape(60, 6) / 7.0)
        write_csv(paths[1], test_labels, test_images.reshape(15, 6) / 7.0)
        data = DataConfig(source="csv", csv_path=str(paths[0]), test_csv_path=str(paths[1]))
        held_out = load_csv(paths[1])
    else:
        paths = [tmp_path / name for name in ("images.idx", "labels.idx", "test-images.idx", "test-labels.idx")]
        write_idx(*paths[:2], images, labels)
        write_idx(*paths[2:], test_images, test_labels)
        names = ("images_path", "labels_path", "test_images_path", "test_labels_path")
        data = DataConfig(source="idx", **{k: str(p) for k, p in zip(names, paths)})
        held_out = load_idx(*paths[2:])
    cfg = RunConfig(NetworkSpec(6, (8,), 3), data, epochs=2, batch_size=10, seeds=Seeds(5, 6, 7, 8))
    bundle = prepare_data(cfg)
    raw = load_csv(paths[0]) if source == "csv" else load_idx(*paths[:2])
    train_idx, _ = split_indices(raw.labels, data.val_fraction, stage_seed(cfg.seeds.data, VAL_SPLIT_TAG))
    train = subset(raw, train_idx)
    stats = compute_normalization(train)
    assert_bits_equal(bundle.train.rows(slice(None)), normalized(train, *stats).inputs)
    # the held-out file, normalized with the training split's statistics, is the whole test split
    assert_bits_equal(bundle.test.labels, held_out.labels)
    assert_bits_equal(bundle.test.rows(slice(None)), normalized(held_out, *stats).inputs)
    assert (bundle.train.n, bundle.val.n) == (54, 6)
    res = run_experiment(cfg, bundle, tmp_path / "runs")
    assert not res.failed and res.total_steps == 2 * 6
    assert (tmp_path / "runs" / res.run_id / "best.ckpt").exists()


def test_normalization_matches_reference_on_three_channels():
    rng = np.random.Generator(np.random.PCG64(4))
    # 1,100 rows of 4x5 RGB: not a multiple of the normalization chunk
    pixels = rng.random((1100, 4 * 5, 3)) * np.array([1.0, 5.0, 0.25]) + np.array([0.0, 2.0, -1.0])
    inputs = pixels.reshape(1100, 4 * 5 * 3).astype(np.float32)
    ds = Dataset(inputs, rng.integers(0, 2, size=1100), 2, image_shape=(4, 5, 3))
    mean, std = compute_normalization(ds)
    want_mean, want_std = reference_normalization(ds)
    assert mean.shape == (3,)
    assert_bits_equal(mean, want_mean)
    assert_bits_equal(std, want_std)
    assert_bits_equal(normalized(ds, mean, std).inputs, reference_normalize(ds, mean, std))


@pytest.mark.parametrize(
    "image_shape, n, width",
    [((28, 28, 1), 700, 784), ((5, 7, 1), 3, 35), (None, 1500, 50), (None, 4, 1)],
    ids=["image", "small_image", "tabular", "one_feature"],
)
def test_normalization_matches_the_float64_copy(image_shape, n, width):
    rng = np.random.Generator(np.random.PCG64(n))
    inputs = (rng.random((n, width)) * rng.random(width) * 3.0 - 0.4).astype(np.float32)
    ds = Dataset(inputs, rng.integers(0, 3, size=n), 3, image_shape=image_shape)
    mean, std = compute_normalization(ds)
    want_mean, want_std = reference_normalization(ds)
    assert mean.shape == want_mean.shape == ((1,) if image_shape else (width,))
    assert_bits_equal(mean, want_mean)
    assert_bits_equal(std, want_std)


def test_prepare_data_peak_memory_is_the_splits_it_keeps(tmp_path):
    """The splits stay uint8 pixels, and the peak traced allocations stay
    within 2.1 times the arrays the bundle holds.

    The file's bytes (as many as the splits' pixels) stay alive until the
    three splits are gathered; the decode tables take 1,028 bytes each, and
    statistics decode one piece at a time.
    """
    rng = np.random.Generator(np.random.PCG64(9))
    n = 3000
    images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, list(rng.permutation(np.arange(n) % 10)))
    cfg = run_config(DataConfig(source="idx", images_path=str(img_path), labels_path=str(lbl_path)), 784, 10)
    bundles = []
    peak = traced_peak(lambda: bundles.append(prepare_data(cfg)))
    splits = (bundles[0].train, bundles[0].val, bundles[0].test)
    assert all(ds.inputs.dtype == np.uint8 and ds.decode is splits[0].decode for ds in splits)
    kept = sum(ds.inputs.nbytes + ds.labels.nbytes for ds in splits) + bundles[0].noise_mask.nbytes
    bound = 2.1 * kept  # 4.99 MB, where 4.81 MB is traced
    assert peak <= bound, f"peak {peak} bytes is {peak / kept:.2f}x the {kept} bytes kept"


@pytest.mark.parametrize(
    "hw, held_out", [((28, 28), False), ((28, 28), True), ((5, 7), False)], ids=["split", "held_out", "odd_width"]
)
def test_idx_rows_decode_to_the_float32_splits_bit_for_bit(tmp_path, hw, held_out):
    """Every split's rows, read whole, by index array or by slice, equal the
    float32 arrays normalized the direct way; an odd width leaves an
    unpaired last pixel and row slices that start at odd byte offsets."""
    rng = np.random.Generator(np.random.PCG64(hw[1] + held_out))
    images, labels = rng.integers(0, 256, size=(401, *hw), dtype=np.uint8), np.arange(401) % 10
    paths = [tmp_path / name for name in ("images.idx", "labels.idx", "test-images.idx", "test-labels.idx")]
    write_idx(*paths[:2], images, labels)
    names = ["images_path", "labels_path"]
    if held_out:
        write_idx(*paths[2:], rng.integers(0, 256, size=(103, *hw), dtype=np.uint8), np.arange(103) % 10)
        names += ["test_images_path", "test_labels_path"]
    data = DataConfig(source="idx", **{k: str(p) for k, p in zip(names, paths)})
    cfg = run_config(data, hw[0] * hw[1], 10)
    bundle = assert_prepare_matches_reference(cfg)  # rows(slice(None)) of each split
    parts, _, _ = reference_prepare(cfg)
    for ds, want in zip((bundle.train, bundle.val, bundle.test), parts.values()):
        assert ds.inputs.dtype == np.uint8 and ds.decode is bundle.train.decode
        idx = rng.permutation(ds.n)[: ds.n - 1 + ds.n % 2]  # an odd count of rows
        assert_bits_equal(ds.rows(idx), want[idx])
        assert_bits_equal(ds.rows(slice(1, 4)), want[1:4])


def test_pixels_and_decode_tables_come_together():
    table = np.append(np.arange(256, dtype=np.float32), np.float32(0.0))
    pixels, floats, labels = np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.float32), [0, 1]
    assert Dataset(pixels, labels, 2, decode=table).rows(slice(None)).dtype == np.float32
    for inputs, decode, phrase in [
        (pixels, None, "uint8 without a decode table"),
        (floats, table, "float32 with a decode table"),
        (pixels, table[:256], r"must be \(257,\) float32"),
        (pixels, table.astype(np.float64), r"must be \(257,\) float32"),
        (pixels, np.append(table[:256], np.float32(1.0)), "must hold 0.0 at PAD_CODE 256, got 1.0"),
    ]:
        with pytest.raises(DataError, match=phrase):
            Dataset(inputs, labels, 2, decode=decode)


@pytest.mark.parametrize(
    "args", [(10, 50, 600, 2.5, 4, None), (2, 7, 1, 1.0, 3, None), (3, 35, 17, 0.0, 9, (5, 7)), (5, 1, 33, 3.0, 11, None)]
)
def test_make_synthetic_matches_reference(args):
    got, want = make_synthetic(*args), reference_make_synthetic(*args)
    assert_bits_equal(got.inputs, want.inputs)
    assert_bits_equal(got.labels, want.labels)
    assert got.image_shape == want.image_shape


def test_make_synthetic_peak_memory_is_one_class_block():
    """The noise is drawn one class at a time, so the peak stays near the float32 inputs it returns."""
    make_synthetic(10, 50, 10, 2.5, seed=0)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ds = make_synthetic(10, 50, 600, 2.5, seed=4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    kept = ds.inputs.nbytes
    assert peak <= 1.5 * kept, f"peak {peak} bytes is {peak / kept:.2f}x the {kept} bytes kept"


@pytest.mark.parametrize(
    "values", [[3, 1, 3, 0, 1], [-2, 5, -2, 0], [7], [0.5, -1.5, 0.5], list(range(9, -1, -1)) * 3]
)
def test_distinct_matches_np_unique(values):
    a = np.array(values)
    assert_bits_equal(_distinct(a), np.unique(a))


def test_split_with_negative_labels_splits_like_shifted_labels():
    # the classes come out in the same sorted order, so a shift of every label changes nothing
    rng = np.random.Generator(np.random.PCG64(2))
    y = rng.integers(-3, 4, size=200)
    got = split_indices(y, 0.3, seed=5)
    want = split_indices(y + 3, 0.3, seed=5)
    for g, w in zip(got, want):
        assert_bits_equal(g, w)
