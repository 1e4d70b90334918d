"""Core network engine: geometry, init, forward, losses, exact gradients."""
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reinit_lab.data import Dataset
from reinit_lab.distill import snapshot_teacher
from reinit_lab.errors import ConfigurationError, NumericalError, ShapeError, from_json
from reinit_lab.nn import (
    FrozenNormLayer,
    NetworkSpec,
    ParamVector,
    block_norms,
    float64_sum,
    forward,
    init_params,
    loss_grad_logits,
    softmax,
    weight_norm,
)
from helpers import fd_check, kl_oracle, loss_grad, oracle_layers, traced_peak


def manual_forward(spec, params, x):
    """Loop-and-dot reference forward pass, no vectorized matmul."""
    views = [(params.values[w].reshape(shape), params.values[b]) for w, b, shape, _ in oracle_layers(spec)]
    out = np.zeros((x.shape[0], spec.num_classes))
    for r in range(x.shape[0]):
        h = x[r].astype(np.float64)
        for lid, (w, b) in enumerate(views):
            z = np.array([sum(h[i] * w[i, j] for i in range(w.shape[0])) + b[j] for j in range(w.shape[1])])
            h = np.maximum(z, 0) if lid != spec.num_layers - 1 else z
        out[r] = h
    return out


COUNT_4_5_6_3 = (4 * 5 + 5) + (5 * 6 + 6) + (6 * 3 + 3)
GEOMETRY_CASES = {
    "three_blocks": (NetworkSpec(4, (5, 6), 3, block_boundaries=(1, 2)), COUNT_4_5_6_3),
    "two_uneven_blocks": (NetworkSpec(4, (5, 6), 3, block_boundaries=(2,)), COUNT_4_5_6_3),
    "one_block": (NetworkSpec(4, (5, 6), 3), COUNT_4_5_6_3),
    "no_hidden_layer": (NetworkSpec(3, (), 2), 3 * 2 + 2),
}


@pytest.mark.parametrize("spec, count", GEOMETRY_CASES.values(), ids=GEOMETRY_CASES.keys())
def test_block_slices_tile_the_vector(spec, count):
    assert spec.param_count == count
    # the block slices tile the vector in order, each holding its block's layers
    slices = [spec.block_slice(b) for b in range(1, spec.num_blocks + 1)]
    assert slices[0].start == 0 and slices[-1].stop == count
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    for layer_id, (w, b, _, block) in enumerate(oracle_layers(spec)):
        own = slices[block - 1]
        assert own.start <= w.start and w.stop == b.start and b.stop <= own.stop
        assert layer_id in spec.block_layers(block)


def test_network_is_one_block_by_default():
    spec = NetworkSpec(input_dim=4, hidden_dims=(5, 6), num_classes=3)
    assert spec.num_blocks == 1
    assert spec.block_layers(1) == range(3)
    assert spec.block_slice(1) == slice(0, spec.param_count)


def test_block_outside_the_network_is_rejected():
    spec = NetworkSpec(4, (5, 6), 3, block_boundaries=(1, 2))
    for block in (0, 4):
        with pytest.raises(ConfigurationError, match=f"block {block} outside 1..3"):
            spec.block_slice(block)


def test_spec_rejects_bad_boundaries():
    with pytest.raises(ConfigurationError):
        NetworkSpec(input_dim=4, hidden_dims=(5,), num_classes=3, block_boundaries=(2,))
    with pytest.raises(ConfigurationError):
        NetworkSpec(input_dim=4, hidden_dims=(5, 6), num_classes=3, block_boundaries=(2, 1))
    with pytest.raises(ConfigurationError):
        NetworkSpec(input_dim=0, hidden_dims=(5,), num_classes=3)


@pytest.mark.parametrize(
    "dims, phrase",
    [
        ((8, (10.7,), 4), "network key hidden_dims must be an array of integers"),
        ((8.5, (10,), 4), "network key input_dim must be an integer"),
        ((8, (10,), 4.0), "network key num_classes must be an integer"),
        ((8, ("10",), 4), "network key hidden_dims must be an array of integers"),
        ((8, (10, 6), 4, (1.0,)), "network key block_boundaries must be an array of integers"),
    ],
    ids=["float_hidden", "float_input", "float_classes", "string_hidden", "float_boundary"],
)
def test_spec_rejects_non_integer_dimensions(dims, phrase):
    with pytest.raises(ConfigurationError, match=phrase):
        NetworkSpec(*dims)


def test_spec_stores_a_numpy_array_of_dimensions_as_a_tuple_of_int():
    spec = NetworkSpec(8, np.array([10, 6]), 4, block_boundaries=np.array([1]))
    assert spec == NetworkSpec(8, (10, 6), 4, block_boundaries=(1,))
    assert all(type(v) is int for v in (*spec.hidden_dims, *spec.block_boundaries))


def test_spec_stores_numpy_int_dimensions_as_int():
    spec = NetworkSpec(np.int64(8), (np.int32(10), np.uint8(6)), np.int64(4), block_boundaries=(np.int64(1),))
    assert spec == NetworkSpec(8, (10, 6), 4, block_boundaries=(1,))
    values = (spec.input_dim, *spec.hidden_dims, spec.num_classes, *spec.block_boundaries)
    assert all(type(v) is int for v in values)


def test_spec_dict_round_trip():
    spec = NetworkSpec(input_dim=7, hidden_dims=(9, 4), num_classes=5, block_boundaries=(2,))
    assert from_json(NetworkSpec, json.loads(json.dumps(asdict(spec))), "network") == spec


def test_init_is_deterministic_and_bounded():
    spec = NetworkSpec(input_dim=30, hidden_dims=(40,), num_classes=10)
    a = init_params(spec, 123)
    b = init_params(spec, 123)
    c = init_params(spec, 124)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.dtype == np.float32
    for w, b, (fan_in, _), _ in oracle_layers(spec):
        assert np.all(a.values[b] == 0)
        chunk = a.values[w]
        bound = 1.0 / math.sqrt(fan_in)
        assert np.all(np.abs(chunk) <= bound)
        # a uniform draw this size should fill most of the interval
        assert chunk.max() > 0.8 * bound and chunk.min() < -0.8 * bound


def test_init_weight_distribution_moments():
    spec = NetworkSpec(input_dim=100, hidden_dims=(500,), num_classes=10)
    params = init_params(spec, 5, dtype=np.float64)
    w = params.values[oracle_layers(spec)[0][0]]
    bound = 1.0 / math.sqrt(100)
    # uniform(-b, b): mean 0, variance b^2/3
    assert abs(w.mean()) < 0.01 * bound
    assert w.var() == pytest.approx(bound * bound / 3, rel=0.05)


def test_param_vector_validation():
    spec = NetworkSpec(input_dim=4, hidden_dims=(5,), num_classes=3)
    with pytest.raises(ShapeError):
        ParamVector(np.zeros(spec.param_count - 1), spec)
    bad = np.zeros(spec.param_count)
    bad[3] = np.nan
    with pytest.raises(NumericalError):
        ParamVector(bad, spec)


def test_param_vector_checks_its_frozen_norm_against_its_network():
    spec = NetworkSpec(input_dim=4, hidden_dims=(5, 6), num_classes=3, block_boundaries=(1, 2))
    values = init_params(spec, 0).values
    with pytest.raises(ConfigurationError, match="block 7 outside 1..3"):
        ParamVector(values, spec, FrozenNormLayer(7, np.zeros(5), np.ones(5)))
    with pytest.raises(ShapeError, match="after block 2 has 5 units, but that block outputs 6"):
        ParamVector(values, spec, FrozenNormLayer(2, np.zeros(5), np.ones(5)))
    fn = FrozenNormLayer(2, np.zeros(6), np.ones(6))
    params = ParamVector(values, spec, fn)
    copy = params.copy()
    assert copy.frozen_norm is fn and copy.values is not params.values


def test_forward_matches_manual_oracle():
    spec = NetworkSpec(input_dim=2, hidden_dims=(3,), num_classes=2)
    params = init_params(spec, 11, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.normal(size=(6, 2))
    got = forward(params, x)
    want = manual_forward(spec, params, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_forward_shape_errors():
    spec = NetworkSpec(input_dim=4, hidden_dims=(5,), num_classes=3)
    params = init_params(spec, 1)
    with pytest.raises(ShapeError):
        forward(params, np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        forward(params, np.zeros(4))


def test_softmax_rows_sum_to_one_and_survive_extremes():
    z = np.array([[1e4, 0.0, -1e4], [3.0, 3.0, 3.0]])
    p = softmax(z)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p[1], [1 / 3] * 3, atol=1e-12)


def logits_net(c):
    """A one-layer float64 net with identity weights and zero biases: its logits are its inputs."""
    spec = NetworkSpec(input_dim=c, hidden_dims=(), num_classes=c)
    values = np.zeros(spec.param_count)
    values[: c * c] = np.eye(c).ravel()
    return ParamVector(values, spec)


def cross_entropy(z, y):
    """The training step's cross-entropy of the logits z."""
    return loss_grad(logits_net(z.shape[1]), z, y)[0]


def kl_term(p, z):
    """The training step's distillation term: its loss with teacher p at beta 1, less its plain loss."""
    params = logits_net(z.shape[1])
    y = np.zeros(z.shape[0], dtype=np.int64)
    return loss_grad(params, z, y, p, 1.0)[0] - loss_grad(params, z, y)[0]


def test_cross_entropy_uniform_logits_is_log_c():
    for c in (2, 5, 10):
        z = np.zeros((4, c))
        y = np.arange(4) % c
        assert cross_entropy(z, y) == pytest.approx(math.log(c), abs=1e-12)


def test_cross_entropy_matches_elementwise_oracle():
    rng = np.random.Generator(np.random.PCG64(3))
    z = rng.normal(size=(8, 5), scale=4.0)
    y = rng.integers(0, 5, size=8)
    want = 0.0
    for r in range(8):
        e = np.exp(z[r] - z[r].max())
        p = e / e.sum()
        want -= math.log(p[y[r]])
    want /= 8
    assert cross_entropy(z, y) == pytest.approx(want, rel=1e-12)


def test_kl_matches_elementwise_oracle():
    rng = np.random.Generator(np.random.PCG64(9))
    p = rng.dirichlet(np.ones(6), size=5)
    z = rng.normal(size=(5, 6), scale=2.0)
    assert kl_term(p, z) == pytest.approx(kl_oracle(p, z), rel=1e-12)


def test_kl_zero_when_teacher_equals_student():
    z = np.array([[0.3, -1.2, 2.0], [5.0, 5.0, -5.0]])
    p = softmax(z)
    assert kl_term(p, z) == 0.0


def test_kl_ignores_zero_probability_teacher_entries():
    p = np.array([[0.5, 0.5, 0.0]])
    z = np.array([[0.0, 0.0, -100.0]])
    q = softmax(z)
    want = 0.5 * math.log(0.5 / q[0, 0]) + 0.5 * math.log(0.5 / q[0, 1])
    assert kl_term(p, z) == pytest.approx(want, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_kl_nonnegative_property(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    p = rng.dirichlet(np.ones(4) * rng.uniform(0.2, 5.0), size=3)
    z = rng.normal(size=(3, 4), scale=rng.uniform(0.1, 10.0))
    assert kl_term(p, z) >= 0.0


def test_kl_against_the_students_own_snapshot_is_clamped_to_zero():
    # a lambda=1, gamma=0 boundary hands stage 2 the student's own snapshot as its teacher; the true KL is 0,
    # and on this desk-shape batch float32 rounding makes the unclamped mean negative (about -1e-8)
    spec = NetworkSpec(50, (256, 128), 10, block_boundaries=(1, 2))
    rng = np.random.Generator(np.random.PCG64(28))
    params = init_params(spec, 28)
    x = rng.normal(size=(125, 50)).astype(np.float32)
    y = rng.integers(0, 10, size=125)
    teacher = snapshot_teacher(params, Dataset(x, y, 10), source_stage=1).probs
    assert loss_grad(params, x, y, teacher, 1.0)[0] == loss_grad(params, x, y)[0]


def test_gradient_matches_finite_differences(tiny_net):
    spec, params = tiny_net
    rng = np.random.Generator(np.random.PCG64(21))
    x = rng.normal(size=(7, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=7)
    assert fd_check(params, x, y) < 1e-6


def test_gradient_with_distillation_matches_finite_differences(tiny_net):
    spec, params = tiny_net
    rng = np.random.Generator(np.random.PCG64(22))
    x = rng.normal(size=(7, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=7)
    teacher = rng.dirichlet(np.ones(spec.num_classes), size=7)
    assert fd_check(params, x, y, teacher=teacher, beta=1.7) < 1e-6


def test_gradient_through_frozen_norm(tiny_net):
    spec, _ = tiny_net
    spec = NetworkSpec(spec.input_dim, spec.hidden_dims, spec.num_classes, block_boundaries=(1,))
    fn = FrozenNormLayer(insert_after_block=1, mean=np.full(5, 0.3), std=np.full(5, 1.7))
    params = ParamVector(init_params(spec, 7, dtype=np.float64).values, spec, fn)
    rng = np.random.Generator(np.random.PCG64(23))
    x = rng.normal(size=(6, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=6)
    assert fd_check(params, x, y) < 1e-6


def test_distill_loss_is_additive_in_beta(tiny_net):
    spec, params = tiny_net
    rng = np.random.Generator(np.random.PCG64(31))
    x = rng.normal(size=(9, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=9)
    teacher = rng.dirichlet(np.ones(spec.num_classes), size=9)
    base, _, logits = loss_grad(params, x, y)
    kl = kl_oracle(teacher, logits)
    for beta in (0.5, 1.0, 2.0):
        combined, _, _ = loss_grad(params, x, y, teacher, beta)
        assert abs(combined - base - beta * kl) < 1e-12


def test_zero_beta_ignores_teacher_bitwise(tiny_net):
    spec, params = tiny_net
    rng = np.random.Generator(np.random.PCG64(32))
    x = rng.normal(size=(5, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=5)
    teacher = rng.dirichlet(np.ones(spec.num_classes), size=5)
    l0, g0, _ = loss_grad(params, x, y)
    l1, g1, _ = loss_grad(params, x, y, teacher, 0.0)
    assert l0 == l1
    assert np.array_equal(g0, g1)


def test_frozen_norm_forward_standardizes():
    spec = NetworkSpec(input_dim=3, hidden_dims=(4, 4), num_classes=2, block_boundaries=(1,))
    params = init_params(spec, 2, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.normal(size=(50, 3))
    acts = forward(params, x, stop_block=1)
    fn = FrozenNormLayer(1, acts.mean(axis=0), np.maximum(acts.std(axis=0), 1e-5))
    normed_params = ParamVector(params.values, spec, fn)
    normed = forward(normed_params, x, stop_block=1)
    np.testing.assert_allclose(normed.mean(axis=0), 0.0, atol=1e-10)
    # plain logits shift by the same transform end to end
    assert not np.allclose(forward(normed_params, x), forward(params, x))


def test_frozen_norm_rejects_nonpositive_std():
    with pytest.raises(NumericalError):
        FrozenNormLayer(1, np.zeros(3), np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "mean, std",
    [([0.0, np.nan, 0.0], [1.0] * 3), ([0.0, np.inf, 0.0], [1.0] * 3), ([0.0] * 3, [1.0, np.inf, 1.0])],
)
def test_frozen_norm_rejects_non_finite_mean_and_std(mean, std):
    with pytest.raises(NumericalError, match="must be finite"):
        FrozenNormLayer(1, np.array(mean), np.array(std))


def test_weight_norm_matches_float64_oracle():
    spec = NetworkSpec(input_dim=6, hidden_dims=(8,), num_classes=4)
    params = init_params(spec, 13)
    want = math.sqrt(sum(float(v) ** 2 for v in params.values))
    assert weight_norm(params.values) == pytest.approx(want, rel=1e-12)


# the acceptance network (784-256-128-10) has 235,146 values, the desk network 47,242
IMAGE_NET = NetworkSpec(784, (256, 128), 10, block_boundaries=(1, 2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 7, 8, 8191, 8192, 8193, 47242, 235146])
def test_weight_norm_is_the_whole_float64_reduce_bit_for_bit(n, dtype):
    rng = np.random.Generator(np.random.PCG64(n))
    values = (rng.standard_normal(n) * 0.05 + 0.01).astype(dtype)
    x = values.astype(np.float64)
    assert weight_norm(values) == float(np.sqrt(np.add.reduce(np.square(x))))
    assert float64_sum(values) == np.add.reduce(x)


def test_init_params_equals_one_draw_per_layer():
    for spec in (IMAGE_NET, NetworkSpec(50, (256, 128), 10), NetworkSpec(3, (2,), 2)):
        for dtype in (np.float32, np.float64):
            rng = np.random.Generator(np.random.PCG64(21))
            want = []
            for fan_in, fan_out in spec.layer_dims():
                bound = 1.0 / np.sqrt(fan_in)
                want += [rng.uniform(-bound, bound, fan_in * fan_out).astype(dtype), np.zeros(fan_out, dtype)]
            got = init_params(spec, 21, dtype=dtype).values
            assert got.dtype == dtype and got.tobytes() == np.concatenate(want).tobytes()


def test_weight_norm_and_init_params_hold_less_than_a_float64_copy():
    copy = IMAGE_NET.param_count * 8
    params = init_params(IMAGE_NET, 0)
    assert traced_peak(lambda: weight_norm(params.values)) < copy
    # the returned float32 vector is half a float64 copy; the draws add one piece
    assert traced_peak(lambda: init_params(IMAGE_NET, 1)) < copy


def test_block_norms_partition_total_norm():
    spec = NetworkSpec(input_dim=6, hidden_dims=(8, 8), num_classes=4, block_boundaries=(1, 2))
    params = init_params(spec, 14)
    norms = block_norms(params)
    assert norms.shape == (3,)
    assert math.sqrt(float((norms**2).sum())) == pytest.approx(weight_norm(params.values), rel=1e-12)


def reference_loss_grad(params, x, y, teacher=None, beta=0.0):
    """Allocating reference step: the float32 operation order loss_grad_logits must keep."""
    spec, frozen_norm = params.network, params.frozen_norm
    geometry = oracle_layers(spec)
    layers = [(params.values[w].reshape(shape), params.values[b]) for w, b, shape, _ in geometry]
    last = spec.num_layers - 1
    norm_layer = -1
    for lid, (*_, block) in enumerate(geometry):
        if frozen_norm is not None and block == frozen_norm.insert_after_block:
            norm_layer = lid
    inputs, preacts, h = [], [], x
    for lid, (w, b) in enumerate(layers):
        inputs.append(h)
        z = h @ w + b
        preacts.append(z)
        h = np.maximum(z, 0) if lid != last else z
        if lid == norm_layer:
            h = (h - frozen_norm.mean.astype(h.dtype)) / frozen_norm.std.astype(h.dtype)
    logits, n = h, x.shape[0]
    m = logits.max(axis=1)
    loss = float(np.mean(m + np.log(np.exp(logits - m[:, None]).sum(axis=1)) - logits[np.arange(n), y]))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    d = probs.copy()
    d[np.arange(n), y] -= 1.0
    d /= n
    if teacher is not None and beta != 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(teacher > 0, teacher * (np.log(teacher) - np.log(probs)), 0.0)
        loss = loss + beta * max(float(np.mean(terms.sum(axis=1))), 0.0)
        d = d + (beta / n) * (probs - teacher)
    grad = np.zeros_like(params.values)
    for lid in range(last, -1, -1):
        if lid == norm_layer:
            d = d / frozen_norm.std.astype(d.dtype)
        dz = d if lid == last else d * (preacts[lid] > 0)
        w, b, *_ = geometry[lid]
        grad[w] = (inputs[lid].T @ dz).ravel()
        grad[b] = dz.sum(axis=0)
        d = dz @ layers[lid][0].T
    return loss, grad, logits


def float32_step_case(seed, batch=12, with_teacher=False, with_norm=False):
    spec = NetworkSpec(input_dim=7, hidden_dims=(9, 6), num_classes=4, block_boundaries=(1, 2))
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(batch, 7)).astype(np.float32)
    y = rng.integers(0, 4, size=batch)
    teacher = rng.dirichlet(np.ones(4), size=batch).astype(np.float32) if with_teacher else None
    fn = FrozenNormLayer(2, rng.normal(size=6), rng.uniform(0.5, 2.0, size=6)) if with_norm else None
    params = ParamVector(init_params(spec, seed).values, spec, fn)
    return params, x, y, teacher, (1.5 if with_teacher else 0.0)


STEP_CASES = [(0, False, False), (1, True, False), (2, False, True), (3, True, True)]


@pytest.mark.parametrize("seed, with_teacher, with_norm", STEP_CASES)
def test_loss_grad_matches_allocating_reference_bitwise(seed, with_teacher, with_norm):
    params, x, y, teacher, beta = float32_step_case(seed, with_teacher=with_teacher, with_norm=with_norm)
    x_before, p_before = x.copy(), params.values.copy()
    grad = np.empty_like(params.values)
    loss, logits = loss_grad_logits(params, x, y, grad, teacher, beta)
    want_loss, want_grad, want_logits = reference_loss_grad(params, x, y, teacher, beta)
    assert loss == want_loss
    assert grad.dtype == np.float32
    assert np.array_equal(grad, want_grad)
    assert np.array_equal(logits, want_logits)
    # the in-place forward and ReLU backward touch neither the inputs nor the parameters
    assert np.array_equal(x, x_before) and np.array_equal(params.values, p_before)


def test_loss_grad_into_reused_buffer_equals_fresh_calls():
    buf = np.full(float32_step_case(0)[0].values.shape, np.nan, dtype=np.float32)
    # one buffer across calls that differ in batch size, teacher and frozen norm
    for i, (seed, with_teacher, with_norm) in enumerate(STEP_CASES * 2):
        case = float32_step_case(seed, batch=5 + 3 * i, with_teacher=with_teacher, with_norm=with_norm)
        params, x, y, teacher, beta = case
        fresh_loss, fresh_grad, fresh_logits = loss_grad(*case)
        loss, logits = loss_grad_logits(params, x, y, buf, teacher, beta)
        assert loss == fresh_loss
        assert np.array_equal(buf, fresh_grad)
        assert np.array_equal(logits, fresh_logits)
