"""Acceptance suite: one test per shipping criterion, run in order.

Each test prints a single "criterion NN <name>: PASS/FAIL" line so the
whole gate can be read off `pytest -v -s tests/test_acceptance.py`. The
desk-scale runs (criteria 10 and 11) share a session fixture so the
expensive training happens once. Every run here is single-threaded.
"""
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import reinit_lab.harness as harness
from reinit_lab.data import AugmentSpec, Dataset, inject_label_noise
from reinit_lab.distill import snapshot_teacher
from reinit_lab.harness import (
    DataConfig,
    DistillConfig,
    RunConfig,
    Seeds,
    noise_study,
    online_sim,
    prepare_data,
    run_experiment,
)
from reinit_lab.nn import (
    NetworkSpec,
    ParamVector,
    block_norms,
    forward,
    init_params,
    loss_grad_logits,
)
from reinit_lab.optim import LrSchedule, lr_at
from reinit_lab.reinit import (
    ReinitSpec,
    apply_reinit,
    shrink_perturb,
    stage_seed,
)

from helpers import fd_check, kl_oracle, spy


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


# ---------------------------------------------------------------- shared nets

SMALL_NET = NetworkSpec(8, (10, 6), 4, block_boundaries=(1, 2))
SMALL_DATA = DataConfig(num_classes=4, dim=8, per_class=25, class_separation=3.0)
SMALL_IMG_DATA = replace(SMALL_DATA, image_hw=(2, 4))

DESK_NET = NetworkSpec(50, (256, 128), 10, block_boundaries=(1, 2))
DESK_DATA = DataConfig(num_classes=10, dim=50, per_class=600, class_separation=2.5)
DESK_SEEDS = Seeds(5, 6, 7, 8)
DESK_EPOCHS = 60
DESK_STAGES = 5
DESK_LAM, DESK_GAMMA = 0.25, 0.45


def small_cfg(**kw):
    base = dict(
        network=SMALL_NET,
        data=SMALL_DATA,
        lr=0.05,
        epochs=6,
        batch_size=25,
        seeds=Seeds(1, 2, 3, 4),
    )
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="session")
def desk():
    """One S&P desk run and one standard desk run on the same task."""
    sp_cfg = RunConfig(
        network=DESK_NET,
        data=DESK_DATA,
        lr=0.01,
        epochs=DESK_EPOCHS,
        stages=DESK_STAGES,
        reinit=ReinitSpec("shrink_perturb", lam=DESK_LAM, gamma=DESK_GAMMA),
        seeds=DESK_SEEDS,
    )
    std_cfg = RunConfig(
        network=DESK_NET, data=DESK_DATA, lr=0.01, epochs=DESK_EPOCHS, seeds=DESK_SEEDS
    )
    t0 = time.monotonic()
    sp = run_experiment(sp_cfg)
    std = run_experiment(std_cfg)
    elapsed = time.monotonic() - t0
    assert not sp.failed and not std.failed
    return sp, std, elapsed


# ------------------------------------------------------------------ criteria


def test_01_shrink_perturb_oracle():
    with criterion(1, "shrink-perturb oracle"):
        rng = np.random.Generator(np.random.PCG64(77))
        t0 = time.monotonic()
        for i in range(1000):
            dtype, tol = (np.float32, 1e-6) if i % 2 == 0 else (np.float64, 1e-12)
            theta = rng.uniform(-1, 1, SMALL_NET.param_count)
            theta0 = rng.uniform(-1, 1, SMALL_NET.param_count)
            lam, gamma = rng.uniform(0, 1, 2)
            got = shrink_perturb(
                ParamVector(theta.astype(dtype), SMALL_NET),
                ParamVector(theta0.astype(dtype), SMALL_NET),
                lam,
                gamma,
            )
            want = lam * theta + gamma * theta0
            assert np.abs(got.values.astype(np.float64) - want).max() < tol
        # exact special cases, in both dtypes
        for dtype in (np.float32, np.float64):
            a = init_params(SMALL_NET, 3, dtype=dtype)
            b = init_params(SMALL_NET, 4, dtype=dtype)
            assert np.array_equal(shrink_perturb(a, b, 1.0, 0.0).values, a.values)
            assert np.array_equal(shrink_perturb(a, b, 0.0, 1.0).values, b.values)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f}s"


def test_02_gradient_check():
    with criterion(2, "finite-difference gradients"):
        rng = np.random.Generator(np.random.PCG64(123))
        t0 = time.monotonic()
        for trial in range(20):
            depth = int(rng.integers(1, 3))
            hidden = tuple(int(rng.integers(2, 6)) for _ in range(depth))
            spec = NetworkSpec(int(rng.integers(2, 5)), hidden, int(rng.integers(2, 5)))
            assert spec.param_count <= 200
            params = init_params(spec, trial, dtype=np.float64)
            params.values[:] += rng.normal(0, 0.2, spec.param_count)
            n = int(rng.integers(2, 6))
            x = rng.normal(0, 1, (n, spec.input_dim))
            y = rng.integers(0, spec.num_classes, n)
            assert fd_check(params, x, y) < 1e-4
            raw = rng.uniform(0.05, 1.0, (n, spec.num_classes))
            teacher = raw / raw.sum(axis=1, keepdims=True)
            beta = float(rng.uniform(0.3, 2.0))
            assert fd_check(params, x, y, teacher=teacher, beta=beta) < 1e-4
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"gradient sweep took {elapsed:.2f}s"


def test_03_distill_additivity():
    with criterion(3, "distillation loss additivity"):
        rng = np.random.Generator(np.random.PCG64(9))
        for trial in range(10):
            spec = NetworkSpec(5, (7, 6), 3)
            params = init_params(spec, trial, dtype=np.float64)
            x = rng.normal(0, 1, (8, 5))
            y = rng.integers(0, 3, 8)
            raw = rng.uniform(0.05, 1.0, (8, 3))
            teacher = raw / raw.sum(axis=1, keepdims=True)
            base, _, _ = loss_grad_logits(params, x, y)
            kl = kl_oracle(teacher, forward(params, x))
            for beta in (0.25, 1.0, 3.0):
                combined, _, _ = loss_grad_logits(params, x, y, teacher=teacher, beta_distill=beta)
                assert abs(combined - base - beta * kl) < 1e-10


def test_04_compute_parity():
    with criterion(4, "compute parity across methods"):
        base = small_cfg(epochs=200, lr=0.02)
        bundle = prepare_data(base)
        steps_per_epoch = math.ceil(bundle.train.n / base.batch_size)
        method_fields = {
            "standard": dict(stages=1, reinit=ReinitSpec("none")),
            "sp": dict(reinit=ReinitSpec("shrink_perturb")),
            "sp_distill": dict(
                reinit=ReinitSpec("shrink_perturb"), distill=DistillConfig(enabled=True)
            ),
            "full": dict(reinit=ReinitSpec("full")),
            "full_distill": dict(reinit=ReinitSpec("full"), distill=DistillConfig(enabled=True)),
        }
        counts = {}
        for t in (1, 2, 5, 10, 20, 25):
            for method, fields in method_fields.items():
                fields = dict(fields)
                fields.setdefault("stages", t)
                res = run_experiment(replace(base, **fields), bundle)
                assert not res.failed
                counts[(method, t)] = res.total_steps
        assert set(counts.values()) == {200 * steps_per_epoch}


def test_05_cosine_schedule():
    with criterion(5, "cosine schedule anchors and restarts"):
        eta_max, eta_min = 0.05, 0.001
        cfg = small_cfg(
            data=SMALL_IMG_DATA,
            setting="dc",
            lr=eta_max,
            eta_min=eta_min,
            epochs=20,
            stages=5,
        )
        bundle = prepare_data(cfg)
        steps_per_epoch = math.ceil(bundle.train.n / cfg.batch_size)
        S = 4 * steps_per_epoch
        sched = LrSchedule(eta_max, eta_min, S)
        assert abs(lr_at(sched, 0) - eta_max) < 1e-12
        assert abs(lr_at(sched, S) - eta_min) < 1e-12
        assert abs(lr_at(sched, S / 2) - (eta_max + eta_min) / 2) < 1e-12

        res = run_experiment(cfg, bundle)
        lrs = [r.lr for r in res.records]
        for stage in range(5):
            first = lrs[stage * 4]
            last = lrs[stage * 4 + 3]
            assert abs(first - eta_max) < 1e-12
            want_last = lr_at(sched, 3 * steps_per_epoch)
            assert abs(last - want_last) < 1e-12
            assert last < first


def test_06_layer_wise_correctness():
    with criterion(6, "layer-wise keep/rescale/resample"):
        theta0 = init_params(SMALL_NET, 11)
        rng = np.random.Generator(np.random.PCG64(42))
        theta_end = theta0.copy()
        theta_end.values[:] = theta_end.values * 1.8 + rng.normal(
            0, 0.1, SMALL_NET.param_count
        ).astype(np.float32)
        init_norms = tuple(block_norms(theta0))
        stats = rng.normal(0, 1, (64, 8)).astype(np.float32)
        # six stages on SMALL_NET's three blocks: each block is kept for two boundaries
        for t in range(1, 6):
            new, _ = apply_reinit(ReinitSpec("layer_wise"), theta_end, 9, t, init_norms, stats, 6)
            fn = new.frozen_norm
            kept = math.ceil(t / 2)
            suffix = slice(SMALL_NET.block_slice(kept).stop, None)
            fresh = init_params(SMALL_NET, stage_seed(9, t))
            for b in range(1, kept + 1):
                idx = SMALL_NET.block_slice(b)
                a, o = new.values[idx].astype(np.float64), theta_end.values[idx].astype(np.float64)
                cos = a @ o / (np.linalg.norm(a) * np.linalg.norm(o))
                assert abs(cos - 1.0) < 1e-6
                assert abs(np.linalg.norm(a) - init_norms[b - 1]) < 1e-5
            assert np.array_equal(new.values[suffix], fresh.values[suffix])
            assert len(new.values) == SMALL_NET.param_count
            assert fn.insert_after_block == kept
            assert fn.std.min() >= 1e-5


def test_07_full_reinit_ignores_trained_weights():
    with criterion(7, "full re-init reduces to a fresh draw"):
        end_a = init_params(SMALL_NET, 100)
        end_b = init_params(SMALL_NET, 200)
        for t in (1, 3):
            want = init_params(SMALL_NET, stage_seed(5, t))
            got_a, _ = apply_reinit(ReinitSpec("full"), end_a, 5, t)
            got_b, _ = apply_reinit(ReinitSpec("full"), end_b, 5, t)
            assert np.array_equal(got_a.values, want.values)
            assert np.array_equal(got_b.values, got_a.values)


def test_08_label_noise_exactness():
    with criterion(8, "label-noise exact count and uniformity"):
        rng = np.random.Generator(np.random.PCG64(0))
        inputs = rng.normal(0, 1, (109, 3)).astype(np.float32)
        labels = rng.integers(0, 10, 109)
        ds = Dataset(inputs, labels, num_classes=10)
        # at 0.4, 43.6 labels floor to 43 where rounding would give 44
        for q, want in ((0.37, 40), (0.4, 43), (0.5, 54), (1.0, 109)):
            _, mask = inject_label_noise(ds, q, seed=3)
            assert int(mask.sum()) == want == int(q * 109)
        clean, mask = inject_label_noise(ds, 0.0, seed=3)
        assert np.array_equal(clean, labels)
        assert not mask.any()

        small = Dataset(inputs[:50], np.zeros(50, dtype=labels.dtype), num_classes=10)
        counts = np.zeros(10, dtype=np.int64)
        for seed in range(10_000):
            noisy, mask = inject_label_noise(small, 0.2, seed=seed)
            counts += np.bincount(noisy[mask], minlength=10)
        assert counts.sum() == 10 * 10_000
        p = stats.chisquare(counts).pvalue
        assert p > 0.001, f"chi-square p={p}"


def test_09_teacher_cache_contract(tmp_path, monkeypatch):
    with criterion(9, "teacher cache hygiene"):
        bundle = prepare_data(small_cfg())
        params = init_params(SMALL_NET, 2)
        cache = snapshot_teacher(params, bundle.train.inputs, 1)
        sums = cache.probs.astype(np.float64).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-6

        steps = spy(monkeypatch, harness, "sgd_step")
        reads = spy(monkeypatch, harness, "distill_rows", lambda *_: len(steps))  # the step each read feeds
        res = run_experiment(small_cfg(stages=3, distill=DistillConfig(enabled=True, beta=0.7)))
        per_stage = res.total_steps // 3
        # no read in stage 1, then one read for every step of stages 2 and 3
        assert reads == list(range(per_stage, res.total_steps))
        assert res.counters["teacher_reads"] == len(reads)

        on = small_cfg(run_name="b0", stages=2, distill=DistillConfig(enabled=True, beta=0.0))
        off = small_cfg(run_name="b0", stages=2)
        run_experiment(on, out_dir=tmp_path / "on")
        run_experiment(off, out_dir=tmp_path / "off")
        for fname in ("metrics.jsonl", "best.ckpt"):
            assert (tmp_path / "on" / "b0" / fname).read_bytes() == (
                tmp_path / "off" / "b0" / fname
            ).read_bytes()
        assert not (tmp_path / "on" / "b0" / "teacher_stage1.bin").exists()


def test_10_desk_drop_and_recover(desk):
    with criterion(10, "desk-scale drop and recover"):
        sp, _, elapsed = desk
        per_stage = DESK_EPOCHS // DESK_STAGES
        recs = sp.records
        for t in range(1, DESK_STAGES):
            pre = recs[t * per_stage - 1].test_acc
            post = recs[t * per_stage].test_acc
            stage_max = max(r.test_acc for r in recs[t * per_stage : (t + 1) * per_stage])
            assert pre - post >= 0.02, f"boundary {t}: drop {pre - post:.3f}"
            assert stage_max >= pre - 0.01, f"boundary {t}: recovered only to {stage_max:.3f}"
        assert elapsed < 300.0, f"desk runs took {elapsed:.0f}s"


def test_11_weight_norm_dynamics(desk):
    with criterion(11, "weight-norm growth and shrink bound"):
        sp, std, _ = desk
        norms = [r.weight_norm for r in std.records]
        tail = norms[int(0.2 * len(norms)) :]
        assert all(b >= a for a, b in zip(tail, tail[1:]))
        assert len(sp.boundary_events) == DESK_STAGES - 1
        for ev in sp.boundary_events:
            assert ev.norm_after < ev.norm_before
            assert ev.norm_after <= DESK_LAM * ev.norm_before + DESK_GAMMA * ev.fresh_norm + 1e-5


def test_12_byte_determinism(tmp_path):
    with criterion(12, "byte-identical repeat runs"):
        cfg = small_cfg(run_name="det", stages=2, reinit=ReinitSpec("shrink_perturb"))
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for fname in ("metrics.jsonl", "best.ckpt"):
            one = (tmp_path / "a" / "det" / fname).read_bytes()
            two = (tmp_path / "b" / "det" / fname).read_bytes()
            assert one == two, fname


def test_13_label_noise_trend_report():
    with criterion(13, "label-noise trend (report only)"):
        # pixels here carry independent signal, so augmentation is flips only;
        # crop jitter would scramble the features and pin accuracy at chance
        cfg = RunConfig(
            network=DESK_NET,
            data=DataConfig(
                num_classes=10, dim=50, per_class=300, class_separation=3.0, image_hw=(5, 10)
            ),
            setting="dcw",
            lr=0.02,
            weight_decay=0.0005,
            epochs=40,
            stages=4,
            distill=DistillConfig(enabled=True, beta=1.0),
            seeds=DESK_SEEDS,
            augment=AugmentSpec(horizontal_flip_prob=0.5, pad_pixels=0),
        )
        rows = noise_study(cfg, (0.4,), ("standard", "sp_distill"))
        table = {r["method"]: r for r in rows}
        assert {"standard", "sp_distill"} <= set(table)
        for r in rows:
            assert r["q"] == 0.4
            assert not r["failed"]
            assert r["memorization"] is not None
            assert 0.0 <= r["memorization"] <= 1.0
        std, sp = table["standard"], table["sp_distill"]
        print(
            "report: q=0.4 test acc standard={:.3f} sp_distill={:.3f}; "
            "memorization standard={:.3f} sp_distill={:.3f}".format(
                std["test_acc"], sp["test_acc"], std["memorization"], sp["memorization"]
            )
        )
        print(
            "report: expected direction (re-init >= standard, lower memorization): "
            f"acc {'holds' if sp['test_acc'] >= std['test_acc'] else 'does not hold'}, "
            f"memorization {'holds' if sp['memorization'] <= std['memorization'] else 'does not hold'}"
        )


def test_14_online_simulation_report():
    with criterion(14, "online warm-start curves (report only)"):
        tab = replace(SMALL_DATA, per_class=150)
        img = replace(SMALL_IMG_DATA, per_class=150)
        for label, extra in (
            ("no regularization", dict(setting="none", data=tab)),
            (
                "full regularization",
                dict(
                    setting="dcw",
                    weight_decay=0.0005,
                    data=img,
                    augment=AugmentSpec(horizontal_flip_prob=0.5, pad_pixels=0),
                ),
            ),
        ):
            cfg = small_cfg(epochs=40, lr=0.05, **extra)
            curves = online_sim(cfg, num_chunks=5)
            assert set(curves) == {"scratch", "warm_start", "shrink_perturb"}
            bundle = prepare_data(cfg)
            for method, curve in curves.items():
                assert len(curve) == 5
                sizes = [row["train_size"] for row in curve]
                assert sizes == sorted(sizes)
                assert sizes[-1] == bundle.train.n
            finals = {m: curves[m][-1]["final_test_acc"] for m in curves}
            spread = max(finals.values()) - min(finals.values())
            print(
                f"report: {label}: final test acc "
                + " ".join(f"{m}={v:.3f}" for m, v in sorted(finals.items()))
                + f" (spread {spread:.3f})"
            )
