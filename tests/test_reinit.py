"""Stage plans, shrink-and-perturb, layer-wise rebuilds."""
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reinit_lab.errors import ConfigurationError, NumericalError
from reinit_lab.harness import RunConfig
from reinit_lab.nn import (
    FrozenNormLayer,
    NetworkSpec,
    ParamVector,
    block_norms,
    forward,
    init_params,
    weight_norm,
)
from reinit_lab.reinit import (
    ReinitSpec,
    apply_reinit,
    layerwise_reinit,
    make_stage_plan,
    shrink_perturb,
    stage_seed,
)
from helpers import oracle_layers

THREE_BLOCK = NetworkSpec(input_dim=6, hidden_dims=(8, 7), num_classes=4, block_boundaries=(1, 2))


def three_block_params(seed, dtype=np.float64):
    return init_params(THREE_BLOCK, seed, dtype=dtype)


def test_stage_plan_floor_division():
    assert make_stage_plan(200, 20) == 10
    assert make_stage_plan(200, 1) == 200
    assert make_stage_plan(200, 3) == 66  # 3 * 66 = 198; the 2 leftover epochs are dropped


def test_stage_plan_rejects_bad_counts():
    # make_stage_plan trusts its counts: RunConfig is where 1 <= stages <= epochs is checked
    with pytest.raises(ConfigurationError, match="11 stages cannot fit in 10 epochs"):
        RunConfig(network=THREE_BLOCK, epochs=10, stages=11)
    with pytest.raises(ConfigurationError, match="stages must be >= 1, got 0"):
        RunConfig(network=THREE_BLOCK, epochs=10, stages=0)


def test_shrink_perturb_direct_evaluation():
    spec = NetworkSpec(input_dim=1, hidden_dims=(), num_classes=2)
    # the vector is [w0, w1, b0, b1]; fill weights with the worked example values
    theta = ParamVector(np.array([2.0, -4.0, 0.0, 0.0]), spec)
    theta_init = ParamVector(np.array([1.0, 1.0, 0.0, 0.0]), spec)
    out = shrink_perturb(theta, theta_init, 0.4, 0.1)
    np.testing.assert_allclose(out.values, [0.9, -1.5, 0.0, 0.0], atol=1e-15)


def test_shrink_perturb_identity_and_reset_cases():
    theta = three_block_params(1)
    theta_init = three_block_params(2)
    kept = shrink_perturb(theta, theta_init, 1.0, 0.0)
    assert np.array_equal(kept.values, theta.values)
    reset = shrink_perturb(theta, theta_init, 0.0, 1.0)
    assert np.array_equal(reset.values, theta_init.values)
    # inputs must not be modified in place
    assert np.array_equal(theta.values, three_block_params(1).values)


def test_shrink_perturb_affine_combinations_commute():
    # with one shared fresh draw, R(a*t1 + (1-a)*t2) == a*R(t1) + (1-a)*R(t2)
    theta1 = three_block_params(3)
    theta2 = three_block_params(4)
    theta_init = three_block_params(5)
    for a in (-0.5, 0.25, 0.7, 1.5):
        b = 1.0 - a
        mixed = ParamVector(a * theta1.values + b * theta2.values, theta1.network)
        lhs = shrink_perturb(mixed, theta_init, 0.4, 0.1).values
        rhs = a * shrink_perturb(theta1, theta_init, 0.4, 0.1).values + b * shrink_perturb(
            theta2, theta_init, 0.4, 0.1
        ).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_shrink_perturb_scales_homogeneously_when_gamma_zero():
    theta = three_block_params(6)
    theta_init = three_block_params(7)
    doubled = ParamVector(2.0 * theta.values, theta.network)
    lhs = shrink_perturb(doubled, theta_init, 0.4, 0.0).values
    rhs = 2.0 * shrink_perturb(theta, theta_init, 0.4, 0.0).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_reinit_spec_validation():
    assert ReinitSpec("shrink_perturb").lam == 0.4
    assert ReinitSpec("shrink_perturb").gamma == 0.1
    with pytest.raises(ConfigurationError):
        ReinitSpec("none", lam=0.4)
    with pytest.raises(ConfigurationError):
        ReinitSpec("shrink_perturb", lam=1.5)
    with pytest.raises(ConfigurationError):
        ReinitSpec("layer_wise", gamma=0.1)
    with pytest.raises(ConfigurationError):
        ReinitSpec("rewind")
    # layer_wise takes its blocks and repeats from the run, not from the spec
    assert [f.name for f in fields(ReinitSpec)] == ["kind", "lam", "gamma"]


def test_stage_seed_is_stable_and_spreads():
    assert stage_seed(42, 1) == stage_seed(42, 1)
    seen = {stage_seed(42, t) for t in range(1, 101)}
    assert len(seen) == 100
    assert stage_seed(42, 1) != stage_seed(43, 1)


def layerwise_setup(seed_theta=11, seed_init=12):
    theta = three_block_params(seed_theta)
    # trained-looking parameters: scale blocks unevenly away from init norms
    scaled = theta.values.copy()
    for b, factor in zip(range(1, 4), (1.7, 0.6, 2.3)):
        scaled[THREE_BLOCK.block_slice(b)] *= factor
    theta = ParamVector(scaled, THREE_BLOCK)
    theta_init = three_block_params(seed_init)
    init_norms = tuple(block_norms(three_block_params(seed_theta)))
    rng = np.random.Generator(np.random.PCG64(99))
    stats = rng.normal(size=(32, THREE_BLOCK.input_dim))
    return theta, theta_init, init_norms, stats


def test_layerwise_keeps_direction_restores_norm_resamples_suffix():
    theta, theta_init, init_norms, stats = layerwise_setup()
    for t in (1, 2, 3):
        out = layerwise_reinit(theta, theta_init, t, 1, init_norms, stats)
        fn = out.frozen_norm
        kept = math.ceil(t / 1)
        for b in range(1, kept + 1):
            idx = THREE_BLOCK.block_slice(b)
            a, c = out.values[idx], theta.values[idx]
            cos = float(a @ c / (np.linalg.norm(a) * np.linalg.norm(c)))
            assert abs(cos - 1.0) < 1e-6
            assert abs(np.linalg.norm(a) - init_norms[b - 1]) < 1e-5
        for b in range(kept + 1, 4):
            idx = THREE_BLOCK.block_slice(b)
            assert np.array_equal(out.values[idx], theta_init.values[idx])
        assert fn.insert_after_block == kept
        assert np.all(fn.std >= 1e-5)


def test_layerwise_full_mask_keeps_everything_rescaled():
    theta, theta_init, init_norms, stats = layerwise_setup()
    out = layerwise_reinit(theta, theta_init, 3, 1, init_norms, stats)
    norms = block_norms(out)
    np.testing.assert_allclose(norms, init_norms, atol=1e-5)
    assert not np.array_equal(out.values, theta_init.values)


def test_layerwise_frozen_layer_standardizes_stats_batch():
    theta, theta_init, init_norms, stats = layerwise_setup()
    out = layerwise_reinit(theta, theta_init, 2, 1, init_norms, stats)
    fn = out.frozen_norm
    acts = forward(out, stats, stop_block=2)
    np.testing.assert_allclose(acts.mean(axis=0), 0.0, atol=1e-9)
    # units that vary got unit spread; dead-ReLU units hit the std floor instead
    varying = fn.std > 1e-5
    np.testing.assert_allclose(acts.std(axis=0)[varying], 1.0, atol=1e-9)


def test_layerwise_repeats_keep_the_ceiling_of_t_over_repeats_blocks():
    theta, theta_init, init_norms, stats = layerwise_setup()
    # K=3, M=2: boundary t keeps ceil(t/2) blocks and resamples the rest
    for t, kept in ((1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3)):
        out = layerwise_reinit(theta, theta_init, t, 2, init_norms, stats)
        stop = THREE_BLOCK.block_slice(kept).stop
        assert out.frozen_norm.insert_after_block == kept
        assert np.array_equal(out.values[stop:], theta_init.values[stop:])
        assert not np.array_equal(out.values[:stop], theta_init.values[:stop])


def test_layerwise_error_cases():
    theta, theta_init, init_norms, stats = layerwise_setup()
    zeroed = theta.values.copy()
    zeroed[THREE_BLOCK.block_slice(1)] = 0.0
    with pytest.raises(NumericalError):
        layerwise_reinit(ParamVector(zeroed, THREE_BLOCK), theta_init, 1, 1, init_norms, stats)


def layerwise_state():
    """The init block norms and stats batch a run hands the layer-wise rule."""
    rng = np.random.Generator(np.random.PCG64(7))
    return tuple(block_norms(three_block_params(11))), rng.normal(size=(16, 6))


def test_apply_reinit_none_keeps_params():
    theta = three_block_params(20)
    out, fresh_norm = apply_reinit(ReinitSpec("none"), theta, 5, 1, *layerwise_state())
    assert np.array_equal(out.values, theta.values)
    assert out.frozen_norm is None and fresh_norm is None


def test_apply_reinit_full_matches_seeded_fresh_draw():
    for t in (1, 2):
        a, fresh_norm = apply_reinit(ReinitSpec("full"), three_block_params(20), 5, t)
        b, _ = apply_reinit(ReinitSpec("full"), three_block_params(21), 5, t)
        want = init_params(THREE_BLOCK, stage_seed(5, t), dtype=np.float64)
        assert np.array_equal(a.values, want.values)
        assert fresh_norm == weight_norm(want.values)
        assert np.array_equal(b.values, want.values)


def test_apply_reinit_shrink_perturb_triangle_inequality():
    theta = three_block_params(20)
    out, _ = apply_reinit(ReinitSpec("shrink_perturb"), theta, 5, 1)
    fresh = init_params(THREE_BLOCK, stage_seed(5, 1), dtype=np.float64)
    lhs = np.linalg.norm(out.values)
    rhs = 0.4 * np.linalg.norm(theta.values) + 0.1 * np.linalg.norm(fresh.values)
    assert lhs <= rhs + 1e-12
    np.testing.assert_allclose(out.values, 0.4 * theta.values + 0.1 * fresh.values, atol=1e-12)


def test_apply_reinit_dispatches_layerwise():
    theta = three_block_params(11)
    fresh = init_params(THREE_BLOCK, stage_seed(5, 2), dtype=np.float64)
    # boundary 2 of a run with stages // 3 repeats per block keeps ceil(2 / repeats) blocks
    for stages, kept in ((3, 2), (6, 1)):
        out, _ = apply_reinit(ReinitSpec("layer_wise"), theta, 5, 2, *layerwise_state(), stages)
        assert out.frozen_norm is not None and out.frozen_norm.insert_after_block == kept
        stop = THREE_BLOCK.block_slice(kept).stop
        assert np.array_equal(out.values[stop:], fresh.values[stop:])


def test_apply_reinit_layerwise_requires_context():
    init_norms, stats = layerwise_state()
    context = {"init_block_norms": init_norms, "stats_batch": stats, "stages": 3}
    # nothing, then everything but one of the three
    for given in ({}, *({k: v for k, v in context.items() if k != left_out} for left_out in context)):
        with pytest.raises(ConfigurationError, match="init block norms, a stats batch and the stage count"):
            apply_reinit(ReinitSpec("layer_wise"), three_block_params(1), 5, 1, **given)


def test_apply_reinit_outputs_always_finite():
    theta = three_block_params(20)
    state = layerwise_state()
    for kind in ("none", "full", "shrink_perturb", "layer_wise"):
        out, _ = apply_reinit(ReinitSpec(kind), theta, 5, 1, *state, 3)
        assert np.all(np.isfinite(out.values))


def test_apply_reinit_frozen_norm_follows_the_rule():
    fn = FrozenNormLayer(1, np.zeros(8), np.ones(8))
    theta = ParamVector(three_block_params(20).values, THREE_BLOCK, fn)
    kept = {kind: apply_reinit(ReinitSpec(kind), theta, 5, 1, *layerwise_state(), 3)[0].frozen_norm for kind in
            ("none", "shrink_perturb", "full", "layer_wise")}
    # none and shrink_perturb keep the installed layer, full starts a model without one,
    # layer_wise installs its own
    assert kept["none"] is fn and kept["shrink_perturb"] is fn
    assert kept["full"] is None
    assert kept["layer_wise"] is not fn and kept["layer_wise"].insert_after_block == 1


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([np.float32, np.float64]),
)
def test_shrink_perturb_property_matches_formula(lam, gamma, seed, dtype):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = THREE_BLOCK.param_count
    theta = ParamVector(rng.normal(size=n).astype(dtype), THREE_BLOCK)
    theta_init = ParamVector(rng.normal(size=n).astype(dtype), THREE_BLOCK)
    out = shrink_perturb(theta, theta_init, lam, gamma)
    want = lam * theta.values + gamma * theta_init.values
    assert out.values.dtype == want.dtype
    assert out.values.tobytes() == want.tobytes()


# --- block slices against an index-based oracle, bit for bit -----------------
# blocks are contiguous runs of the flat vector; these references gather each
# block's parameters through explicit index arrays, counted from layer_dims().


def oracle_block_indices(spec, b):
    return np.concatenate([np.r_[w, bias] for w, bias, _, block in oracle_layers(spec) if block == b])


def oracle_kept_indices(spec, kept):
    return np.concatenate([oracle_block_indices(spec, b) for b in range(1, kept + 1)])


def oracle_norm(v):
    """nn.weight_norm's formula: float64 squares, numpy's pairwise sum, no BLAS."""
    return float(np.sqrt(np.add.reduce(np.square(v.astype(np.float64)))))


def oracle_layerwise_values(theta, theta_init, t, repeats, init_norms):
    spec = theta.network
    kept = math.ceil(t / repeats)
    mask = np.zeros(theta.values.shape[0], dtype=bool)
    mask[oracle_kept_indices(spec, kept)] = True
    out = np.where(mask, theta.values, theta_init.values.astype(theta.dtype))
    for b in range(1, kept + 1):
        idx = oracle_block_indices(spec, b)
        cur = oracle_norm(out[idx])
        out[idx] = (out[idx].astype(np.float64) * (init_norms[b - 1] / cur)).astype(out.dtype)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_block_norms_match_index_oracle(dtype):
    theta = three_block_params(31, dtype)
    want = np.array([oracle_norm(theta.values[oracle_block_indices(THREE_BLOCK, b)]) for b in range(1, 4)])
    assert block_norms(theta).tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layerwise_rescale_matches_index_oracle(dtype):
    theta, theta_init, init_norms, stats = layerwise_setup()
    theta = ParamVector(theta.values.astype(dtype), THREE_BLOCK)
    for t in range(1, 7):
        out = layerwise_reinit(theta, theta_init, t, 2, init_norms, stats)
        want = oracle_layerwise_values(theta, theta_init, t, 2, init_norms)
        assert out.values.dtype == want.dtype
        assert out.values.tobytes() == want.tobytes()

