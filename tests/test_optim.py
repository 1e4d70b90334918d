"""Optimizer step semantics and learning-rate schedules."""
import math

import numpy as np
import pytest

from reinit_lab.errors import ConfigurationError, NumericalError
from reinit_lab.harness import RunConfig
from reinit_lab.nn import NetworkSpec, init_params
from reinit_lab.optim import LrSchedule, OptimState, lr_at, sgd_step


def small_params(seed=0, dtype=np.float64):
    spec = NetworkSpec(input_dim=3, hidden_dims=(4,), num_classes=2)
    return init_params(spec, seed, dtype=dtype)


def manual_sgd(values, grads, lr, momentum, wd, steps):
    """Reference update loop written against the textbook recurrence."""
    theta = values.copy()
    buf = np.zeros_like(theta)
    for g in grads[:steps]:
        eff = g + wd * theta
        buf = momentum * buf + eff
        theta = theta - lr * buf
    return theta


def test_sgd_matches_reference_recurrence():
    params = small_params()
    rng = np.random.Generator(np.random.PCG64(1))
    grads = [rng.normal(size=params.values.shape) for _ in range(8)]
    state = OptimState.fresh(params, momentum=0.9, weight_decay=0.001)
    p = params
    for g in grads:
        p, state = sgd_step(p, g, state, lr=0.05)
    want = manual_sgd(params.values, grads, 0.05, 0.9, 0.001, 8)
    np.testing.assert_allclose(p.values, want, rtol=0, atol=1e-12)


def test_zero_momentum_zero_decay_is_plain_gradient_descent():
    params = small_params()
    g = np.ones_like(params.values)
    state = OptimState.fresh(params, momentum=0.0)
    p, _ = sgd_step(params, g, state, lr=0.1)
    np.testing.assert_allclose(p.values, params.values - 0.1, atol=1e-12)


def test_zero_lr_leaves_parameters_unchanged():
    params = small_params()
    state = OptimState.fresh(params, momentum=0.9)
    rng = np.random.Generator(np.random.PCG64(2))
    p, state = sgd_step(params, rng.normal(size=params.values.shape), state, lr=0.0)
    assert np.array_equal(p.values, params.values)
    assert np.any(state.momentum_buffer != 0)


def test_weight_decay_is_coupled_into_momentum_buffer():
    params = small_params()
    state = OptimState.fresh(params, momentum=0.5, weight_decay=0.01)
    zero_g = np.zeros_like(params.values)
    _, state = sgd_step(params, zero_g, state, lr=0.0)
    np.testing.assert_allclose(state.momentum_buffer, 0.01 * params.values, atol=1e-12)


def test_sgd_rejects_nonfinite_gradients_with_step_context():
    params = small_params()
    state = OptimState.fresh(params)
    g = np.zeros_like(params.values)
    g[2] = np.inf
    with pytest.raises(NumericalError, match="step 17"):
        sgd_step(params, g, state, lr=0.1, step=17)


def reference_sgd_float32(values, grads, lr, momentum, wd):
    """The allocating float32 update whose operation order sgd_step keeps."""
    theta, buf = values.copy(), np.zeros_like(values)
    for g in grads:
        if wd:
            g = g + wd * theta
        buf *= momentum
        buf += g
        theta = theta - lr * buf
    return theta, buf


@pytest.mark.parametrize("wd", [0.0, 5e-4])
def test_sgd_into_spare_buffers_matches_float32_reference_bitwise(wd):
    params = small_params(dtype=np.float32)
    rng = np.random.Generator(np.random.PCG64(5))
    grads = [rng.normal(size=params.values.shape).astype(np.float32) for _ in range(6)]
    state = OptimState.fresh(params, momentum=0.9, weight_decay=wd)
    p, spare = params.copy(), params.copy()
    for step, g in enumerate(grads):
        new, state = sgd_step(p, g, state, lr=0.05, step=step, out=spare)
        assert new is spare
        p, spare = new, p
    want_theta, want_buf = reference_sgd_float32(params.values, grads, 0.05, 0.9, wd)
    assert np.array_equal(p.values, want_theta)
    assert np.array_equal(state.momentum_buffer, want_buf)


@pytest.mark.parametrize(
    "bad, lr, what",
    [(np.inf, 0.1, "gradient"), (np.nan, 0.0, "gradient"), (1.0, 1e39, "parameters after the update")],
)
def test_non_finite_update_names_step_and_leaves_params_intact(bad, lr, what):
    params = small_params(dtype=np.float32)
    before = params.values.copy()
    g = np.zeros_like(params.values)
    g[2] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=f"non-finite {what} at step 4"):
            sgd_step(params, g, OptimState.fresh(params), lr=lr, step=4, out=params.copy())
    assert np.array_equal(params.values, before)


def run_config(**kw):
    return RunConfig(network=small_params().network, **kw)


def test_optim_state_validation():
    # the optimizer's hyperparameters have one home: the RunConfig the run builds its OptimState from
    with pytest.raises(ConfigurationError, match="momentum must lie in \\[0, 1\\), got 1.0"):
        run_config(momentum=1.0)
    with pytest.raises(ConfigurationError, match="weight_decay must be >= 0, got -0.0001"):
        run_config(weight_decay=-1e-4)


def test_cosine_schedule_hits_exact_anchor_points():
    sched = LrSchedule(eta_max=0.1, eta_min=0.001, steps_per_stage=80)
    assert lr_at(sched, 0) == pytest.approx(0.1, abs=1e-15)
    assert lr_at(sched, 40) == pytest.approx((0.1 + 0.001) / 2, abs=1e-15)
    assert lr_at(sched, 80) == pytest.approx(0.001, abs=1e-15)


def test_cosine_schedule_matches_closed_form_everywhere():
    sched = LrSchedule(eta_max=0.05, eta_min=0.0, steps_per_stage=33)
    for s in range(34):
        want = 0.0 + 0.5 * 0.05 * (1 + math.cos(math.pi * s / 33))
        assert lr_at(sched, s) == pytest.approx(want, abs=1e-15)


def test_cosine_schedule_is_monotone_within_stage():
    sched = LrSchedule(eta_max=0.1, eta_min=0.01, steps_per_stage=50)
    lrs = [lr_at(sched, s) for s in range(51)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_constant_schedule_ignores_step():
    # eta_min == eta_max is the constant rate: the cosine term is scaled by a span of exactly 0.0
    for eta in (0.03, 0.1, 0.05, 1e-3, 0.7, 1 / 3):
        sched = LrSchedule(eta_max=eta, eta_min=eta, steps_per_stage=10)
        assert {lr_at(sched, s) for s in range(11)} == {eta}


def test_schedule_validation():
    # the schedule's eta_max is the run's lr, and RunConfig checks eta_min <= lr in each setting that reads eta_min
    for setting in ("dc", "dcw"):
        assert run_config(setting=setting, lr=0.1, eta_min=0.1).eta_min == 0.1
        with pytest.raises(ConfigurationError, match="eta_min must be <= lr, got eta_min=0.2, lr=0.1"):
            run_config(setting=setting, lr=0.1, eta_min=0.2)
    for setting in ("none", "dc"):
        with pytest.raises(ConfigurationError, match="lr must be > 0"):
            run_config(setting=setting, lr=0.0)
    with pytest.raises(ConfigurationError, match="setting must be one of"):
        run_config(setting="linear")
