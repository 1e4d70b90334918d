"""Loaders, synthetic data, noise injection, augmentation, splits, chunks."""
import struct

import numpy as np
import pytest

from reinit_lab.data import (
    AugmentSpec,
    ChunkStream,
    Dataset,
    NoisyDataset,
    apply_normalization,
    augment_batch,
    compute_normalization,
    inject_label_noise,
    load_csv,
    load_idx,
    make_chunks,
    make_synthetic,
    pad_crop,
    save_csv,
    split,
    split_indices,
    subset,
)
from reinit_lab.errors import ConfigurationError, DataError, FormatError


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
    save_csv(ds, path)
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
    with pytest.raises(ConfigurationError):
        make_synthetic(2, 35, per_class=3, class_separation=1.0, seed=1, image_hw=(6, 6))


def test_inject_noise_exact_count_and_identity():
    ds = make_synthetic(10, 4, per_class=10, class_separation=1.0, seed=2)
    noisy = inject_label_noise(ds, 0.2, seed=3)
    assert noisy.num_flipped == 20
    np.testing.assert_array_equal(noisy.noisy_labels[~noisy.noise_mask], ds.labels[~noisy.noise_mask])
    clean = inject_label_noise(ds, 0.0, seed=3)
    assert clean.num_flipped == 0
    np.testing.assert_array_equal(clean.noisy_labels, ds.labels)


def test_inject_noise_floor_count():
    ds = make_synthetic(2, 3, per_class=5, class_separation=1.0, seed=2)
    assert inject_label_noise(ds, 0.25, seed=1).num_flipped == 2  # floor(0.25 * 10)
    assert inject_label_noise(ds, 1.0, seed=1).num_flipped == 10


def test_inject_noise_deterministic():
    ds = make_synthetic(5, 4, per_class=20, class_separation=1.0, seed=2)
    a = inject_label_noise(ds, 0.4, seed=7)
    b = inject_label_noise(ds, 0.4, seed=7)
    np.testing.assert_array_equal(a.noisy_labels, b.noisy_labels)
    np.testing.assert_array_equal(a.noise_mask, b.noise_mask)
    c = inject_label_noise(ds, 0.4, seed=8)
    assert not np.array_equal(a.noise_mask, c.noise_mask)


def test_noisy_dataset_validation():
    ds = make_synthetic(2, 3, per_class=5, class_separation=1.0, seed=2)
    mask = np.zeros(10, dtype=bool)
    mask[0] = True
    tampered = ds.labels.copy()
    tampered[1] = 1 - tampered[1]
    with pytest.raises(DataError):
        NoisyDataset(ds, tampered, mask, 0.1, 0)
    with pytest.raises(DataError):
        NoisyDataset(ds, ds.labels.copy(), mask, 0.5, 0)


def make_image_batch(n=6, h=5, w=5, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.random((n, h * w)).astype(np.float32), (h, w, 1)


def test_augment_flip_is_involutive():
    x, shape = make_image_batch()
    spec = AugmentSpec(horizontal_flip_prob=1.0, pad_pixels=0)
    rng = np.random.Generator(np.random.PCG64(0))
    once = augment_batch(x, shape, spec, rng)
    twice = augment_batch(once, shape, spec, rng)
    np.testing.assert_array_equal(twice, x)
    assert not np.array_equal(once, x)


def test_augment_preserves_pixel_multiset_under_flip():
    x, shape = make_image_batch()
    spec = AugmentSpec(horizontal_flip_prob=1.0, pad_pixels=0)
    out = augment_batch(x, shape, spec, np.random.Generator(np.random.PCG64(1)))
    np.testing.assert_array_equal(np.sort(out, axis=1), np.sort(x, axis=1))


def test_center_crop_is_identity():
    x, (h, w, ch) = make_image_batch()
    imgs = x.reshape(-1, h, w, ch)
    offsets = np.full((imgs.shape[0], 2), 4)
    np.testing.assert_array_equal(pad_crop(imgs, 4, offsets), imgs)


def test_augment_keeps_shape_and_needs_geometry():
    x, shape = make_image_batch()
    out = augment_batch(x, shape, AugmentSpec(), np.random.Generator(np.random.PCG64(2)))
    assert out.shape == x.shape
    with pytest.raises(ConfigurationError):
        augment_batch(x, None, AugmentSpec(), np.random.Generator(np.random.PCG64(2)))


def test_augment_is_deterministic_given_rng_state():
    x, shape = make_image_batch()
    a = augment_batch(x, shape, AugmentSpec(), np.random.Generator(np.random.PCG64(3)))
    b = augment_batch(x, shape, AugmentSpec(), np.random.Generator(np.random.PCG64(3)))
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
    got = augment_batch(x, (h, w, ch), spec, got_rng)
    want = reference_augment(x, (h, w, ch), spec, want_rng)
    assert got.dtype == x.dtype and got.shape == x.shape
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert np.array_equal(x, x_before)
    assert not np.shares_memory(got, x)


def test_split_sizes_and_exhaustive_indices():
    labels = np.repeat(np.arange(10), 100)
    train_idx, val_idx = split_indices(labels, 0.1, seed=1)
    assert len(val_idx) == 100 and len(train_idx) == 900
    assert np.array_equal(np.sort(np.concatenate([train_idx, val_idx])), np.arange(1000))


def test_split_is_seeded_and_stratified():
    ds = make_synthetic(5, 3, per_class=40, class_separation=1.0, seed=0)
    t1, v1 = split(ds, 0.2, seed=9)
    t2, v2 = split(ds, 0.2, seed=9)
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
        split(ds, 0.01, seed=1)
    with pytest.raises(ConfigurationError):
        split(ds, 1.0, seed=1)


def test_make_chunks_partition():
    ds = make_synthetic(2, 3, per_class=50, class_separation=1.0, seed=0)
    stream = make_chunks(ds, 5, seed=4)
    assert stream.num_chunks == 5
    assert all(len(c) == 20 for c in stream.chunks)
    union = stream.cumulative_union(5)
    assert np.array_equal(np.sort(union), np.arange(100))
    for i in range(5):
        for j in range(i + 1, 5):
            assert not set(stream.chunks[i]) & set(stream.chunks[j])
    assert len(stream.cumulative_union(2)) == 40


def test_chunk_stream_validation():
    with pytest.raises(ConfigurationError):
        ChunkStream((np.array([0, 1, 2]), np.array([3])))
    with pytest.raises(ConfigurationError):
        ChunkStream((np.array([0, 1]), np.array([1, 2])))


def test_normalization_zero_mean_unit_std_tabular():
    ds = make_synthetic(3, 6, per_class=100, class_separation=2.0, seed=6)
    mean, std = compute_normalization(ds)
    normed = apply_normalization(ds, mean, std)
    got_mean, got_std = compute_normalization(normed)
    np.testing.assert_allclose(got_mean, 0.0, atol=1e-6)
    np.testing.assert_allclose(got_std, 1.0, atol=1e-6)
    assert normed.normalization is not None


def test_normalization_per_channel_for_images(tmp_path):
    rng = np.random.Generator(np.random.PCG64(8))
    images = rng.integers(0, 256, size=(30, 6, 6), dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, list(rng.integers(0, 3, size=30)))
    ds = load_idx(img_path, lbl_path)
    mean, std = compute_normalization(ds)
    assert mean.shape == (1,) and std.shape == (1,)
    normed = apply_normalization(ds, mean, std)
    m2, s2 = compute_normalization(normed)
    np.testing.assert_allclose(m2, 0.0, atol=1e-6)
    np.testing.assert_allclose(s2, 1.0, atol=1e-6)


def test_subset_keeps_metadata():
    ds = make_synthetic(2, 36, per_class=10, class_separation=1.0, seed=1, image_hw=(6, 6))
    sub = subset(ds, np.array([0, 3, 5]))
    assert sub.n == 3
    assert sub.image_shape == (6, 6, 1)
    np.testing.assert_array_equal(sub.inputs[1], ds.inputs[3])
