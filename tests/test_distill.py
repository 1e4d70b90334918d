"""Teacher cache construction, lookup guards, and persistence."""
import json
import re

import numpy as np
import pytest

from reinit_lab.data import Dataset
from reinit_lab.distill import (
    TeacherCache,
    distill_rows,
    load_teacher_cache,
    save_teacher_cache,
    snapshot_teacher,
)
from reinit_lab.errors import ConfigurationError, DataError, FormatError
from reinit_lab.runio import write_framed
from reinit_lab.nn import (
    NO_GRAD_ROWS,
    NetworkSpec,
    ParamVector,
    forward,
    init_params,
    loss_grad_logits,
    softmax,
)

SPEC = NetworkSpec(input_dim=5, hidden_dims=(6,), num_classes=3)


def fixture_inputs(n=10, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(size=(n, SPEC.input_dim))


def fixture_split(n=10, seed=0):
    """fixture_inputs as the training split snapshot_teacher reads."""
    return Dataset(fixture_inputs(n, seed), np.zeros(n, dtype=np.int64), SPEC.num_classes)


def test_snapshot_matches_direct_forward_softmax():
    params = init_params(SPEC, 3)
    train = fixture_split(2)
    cache = snapshot_teacher(params, train, source_stage=1)
    want = softmax(forward(params, train.inputs).astype(np.float64)).astype(np.float32)
    np.testing.assert_array_equal(cache.probs, want)
    assert cache.source_stage == 1


def test_snapshot_zero_params_gives_uniform_rows():
    params = ParamVector(np.zeros(SPEC.param_count, dtype=np.float32), SPEC)
    cache = snapshot_teacher(params, fixture_split(4), source_stage=1)
    np.testing.assert_allclose(cache.probs, 1.0 / 3.0, atol=1e-7)


def test_snapshot_rows_sum_to_one():
    params = init_params(SPEC, 8)
    cache = snapshot_teacher(params, fixture_split(50), source_stage=2)
    np.testing.assert_allclose(cache.probs.sum(axis=1, dtype=np.float64), 1.0, atol=1e-6)


def test_snapshot_batching_is_invisible():
    params = init_params(SPEC, 3)
    # more rows than one no-grad forward pass takes, and not a multiple of it
    train = fixture_split(2 * NO_GRAD_ROWS + 23)
    cache = snapshot_teacher(params, train, 1)
    want = softmax(forward(params, train.inputs).astype(np.float64)).astype(np.float32)
    np.testing.assert_array_equal(cache.probs, want)


def test_cache_rejects_bad_tables():
    with pytest.raises(DataError):
        TeacherCache(np.array([[0.5, 0.4]]), 1)
    with pytest.raises(DataError):
        TeacherCache(np.array([[1.2, -0.2]]), 1)
    with pytest.raises(ConfigurationError):
        TeacherCache(np.array([[0.5, 0.5]]), 0)


def test_row_sum_message_reads_a_plain_float():
    with pytest.raises(DataError) as info:
        TeacherCache(np.array([[0.7, 0.7]], dtype=np.float32), 1)
    assert str(info.value) == "teacher row 0 sums to 1.399999976158142, expected 1 within 1e-6"


# a float32 row whose float64 sum is 1 - 9.5e-7, inside the cache's 1e-6 rule,
# while numpy's float32 row sum reads 0.999999, outside it
EDGE_ROW = [
    0.00436408631503582, 0.015963705256581306, 0.12152279913425446, 0.09136617928743362, 0.2049776166677475,
    0.04879677668213844, 0.0528712160885334, 0.21847395598888397, 0.20350725948810577, 0.0381554551422596,
]


def test_rows_the_cache_accepts_train_through_the_step():
    probs = np.tile(np.array(EDGE_ROW, dtype=np.float32), (12, 1))
    assert np.all(np.abs(probs.sum(axis=1, dtype=np.float64) - 1.0) <= 1e-6)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) > 1e-6)
    cache = TeacherCache(probs, 1)
    spec = NetworkSpec(input_dim=5, hidden_dims=(6,), num_classes=10)
    params = init_params(spec, 3)
    x = fixture_inputs(12).astype(np.float32)
    y = np.arange(12) % 10
    for idx in (np.arange(6), np.arange(6, 12)):
        rows = distill_rows(cache, idx)
        grad = np.empty_like(params.values)
        loss, _ = loss_grad_logits(params, x[idx], y[idx], grad, rows, 1.0)
        assert np.isfinite(loss) and np.isfinite(grad).all()


def test_distill_rows_gathers_and_counts():
    probs = np.tile(np.array([[0.2, 0.3, 0.5]], dtype=np.float32), (6, 1))
    probs[4] = [1.0, 0.0, 0.0]
    cache = TeacherCache(probs, 1)
    got = distill_rows(cache, np.array([4, 4, 0]))
    np.testing.assert_array_equal(got, probs[[4, 4, 0]])
    np.testing.assert_array_equal(distill_rows(cache, np.array([0])), probs[[0]])


def test_distill_rows_whole_table_and_epoch_coverage():
    rng = np.random.Generator(np.random.PCG64(5))
    probs = rng.dirichlet(np.ones(3), size=8).astype(np.float32)
    probs /= probs.sum(axis=1, keepdims=True)
    cache = TeacherCache(probs, 1)
    np.testing.assert_array_equal(distill_rows(cache, np.arange(8)), cache.probs)
    # a shuffled epoch covers each row exactly once
    perm = rng.permutation(8)
    seen = np.concatenate([distill_rows(cache, perm[i : i + 3]) for i in range(0, 8, 3)])
    np.testing.assert_array_equal(np.sort(seen, axis=0), np.sort(cache.probs, axis=0))


def test_cache_file_round_trip(tmp_path):
    params = init_params(SPEC, 3)
    cache = snapshot_teacher(params, fixture_split(9), source_stage=4)
    path = tmp_path / "teacher_stage4.bin"
    save_teacher_cache(cache, path)
    loaded = load_teacher_cache(path)
    np.testing.assert_array_equal(loaded.probs, cache.probs)
    assert loaded.source_stage == 4
    assert json.loads(path.read_bytes().split(b"\n", 1)[0]) == {"rows": 9, "cols": 3, "source_stage": 4}


def test_cache_file_with_the_retired_beta_key_loads(tmp_path):
    """Teacher files written before the header dropped beta load as before;
    the key is not read, whatever it holds."""
    probs = [[0.5, 0.5], [0.2, 0.8]]
    for beta in (1.0, -1, "0.5"):
        loaded = load_teacher_cache(cache_file(tmp_path / "teacher_stage1.bin", probs, beta=beta))
        np.testing.assert_array_equal(loaded.probs, np.asarray(probs, dtype=np.float32))
        assert loaded.source_stage == 1


def test_cache_file_rejects_truncation(tmp_path):
    params = init_params(SPEC, 3)
    cache = snapshot_teacher(params, fixture_split(9), source_stage=2)
    path = tmp_path / "teacher_stage2.bin"
    save_teacher_cache(cache, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError):
        load_teacher_cache(path)
    path.write_bytes(b"not json\n" + data)
    with pytest.raises(FormatError):
        load_teacher_cache(path)


def cache_file(path, probs, **header_changes):
    """A teacher file of the table probs, whose header then gets header_changes."""
    probs = np.asarray(probs, dtype=np.float32)
    header = {"rows": probs.shape[0], "cols": probs.shape[1], "source_stage": 1} | header_changes
    write_framed(path, header, probs)
    return path


@pytest.mark.parametrize(
    "probs, changes, phrase",
    [
        ([[0.5, 0.5], [0.2, 0.8]], {"source_stage": 0}, "teacher cache key source_stage must be >= 1, got 0"),
        ([[0.7, 0.7], [0.5, 0.5]], {}, "teacher row 0 sums to .*1.39"),
        ([[0.5, 0.5], [0.2, 0.8], [1.0, 0.0]], {"rows": 2, "cols": 3}, "teacher row 0 sums to"),
        ([[0.5, 0.5], [0.2, 0.8]], {"source_stage": 2.7}, "teacher cache key source_stage must be an integer, got 2.7"),
        # int() would read a 2-row table out of 2.9 rows
        ([[0.5, 0.5], [0.2, 0.8]], {"rows": 2.9}, "teacher cache key rows must be an integer, got 2.9"),
        ([[0.5, 0.5], [0.2, 0.8]], {"cols": 2.0}, "teacher cache key cols must be an integer, got 2.0"),
    ],
    ids=[
        "stage-zero", "row-sum-1.4", "rows-cols-swapped", "fractional-stage", "fractional-rows", "float-cols",
    ],
)
def test_cache_file_the_cache_rejects_names_the_file(tmp_path, probs, changes, phrase):
    path = cache_file(tmp_path / "teacher_stage1.bin", probs, **changes)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: bad teacher cache header: {phrase}"):
        load_teacher_cache(path)
