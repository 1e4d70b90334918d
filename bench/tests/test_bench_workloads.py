"""The image workload's generated inputs and its accuracy floor."""
from dataclasses import replace

import numpy as np

import idxgen
import workloads
from reinit_lab import load_idx


def test_load_idx_reads_back_generated_pixels_and_labels(tmp_path):
    images, labels = idxgen.make_images(seed=7, n=50)
    idxgen.write_idx(images, labels, tmp_path / "i.idx", tmp_path / "l.idx")
    ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    assert ds.image_shape == (28, 28, 1)
    np.testing.assert_array_equal(ds.labels, labels)
    np.testing.assert_array_equal(ds.inputs, images.reshape(50, -1).astype(np.float32) / 255.0)


def test_generator_is_a_function_of_the_seed():
    a, b, c = (idxgen.make_images(seed, n=40) for seed in (3, 3, 4))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    assert np.bincount(a[1]).tolist() == [4] * 10


def test_img_workload_trains_above_its_floor(tmp_path):
    w = workloads.WORKLOADS["img_aug_distill"]
    w.inputs(1, tmp_path)
    cfg = w.config(1, tmp_path)
    result = w.call(cfg, workloads.harness.prepare_data(cfg), tmp_path / "out")
    (run,) = w.outcomes(result, tmp_path / "out")
    assert run["problems"] == []
    assert run["best_test_acc"] >= w.acc_floor


def test_outcome_flags_wrong_step_count(tmp_path):
    w = workloads.WORKLOADS["desk_sp"]
    cfg = replace(w.config(2, tmp_path), epochs=5)
    result = w.call(cfg, workloads.harness.prepare_data(cfg), tmp_path / "out")
    (run,) = w.outcomes(result, tmp_path / "out")
    assert any("optimizer steps" in p for p in run["problems"])
