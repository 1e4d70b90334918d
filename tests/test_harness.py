"""Tests for the staged-training harness.

Everything here uses a deliberately tiny task (160 samples, 8 features,
4 classes) so full runs take milliseconds; the point is wiring, counters,
and determinism, not accuracy.
"""
import ast
import csv
import gc
import json
import math
import struct
import weakref
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import reinit_lab.data as data_module
import reinit_lab.distill as distill
import reinit_lab.harness as harness
import reinit_lab.reinit as reinit
import reinit_lab.runio as runio
from reinit_lab.data import AugmentSpec, Dataset, make_chunks, subset
from reinit_lab.distill import load_teacher_cache
from reinit_lab.errors import ConfigurationError, HarnessError, from_json
from reinit_lab.harness import (
    DataConfig,
    DistillConfig,
    RunConfig,
    RunResult,
    Seeds,
    evaluate_accuracy,
    grid_search,
    noise_study,
    online_sim,
    prepare_data,
    run_experiment,
    stage_sweep,
)
from reinit_lab.nn import NO_GRAD_ROWS, NetworkSpec, init_params, weight_norm
from reinit_lab.reinit import ReinitSpec, stage_seed
from reinit_lab.runio import MetricsRecord, best_record, load_checkpoint, read_json, read_metrics
from helpers import run_fresh_process, spy, traced_peak, write_idx


def tiny_net():
    return NetworkSpec(8, (10, 6), 4, block_boundaries=(1, 2))


IDX = {"source": "idx", "images_path": "a.idx", "labels_path": "b.idx"}
IDX_HELD_OUT = IDX | {"test_images_path": "t.idx", "test_labels_path": "u.idx"}
CSV = {"source": "csv", "csv_path": "a.csv"}

# every gated key: (section, a gate that does not read it, key, a value other than its default, the message's middle);
# the base config has 2 stages, so that it reaches a boundary
GATED = [
    ("run config", {}, "weight_decay", 0.001, "setting dcw, not to setting 'none'"),
    ("run config", {"setting": "d"}, "eta_min", 0.001, "setting dc or dcw, not to setting 'd'"),
    ("run config", {}, "augment", {"pad_pixels": 1}, "setting d or dc or dcw, not to setting 'none'"),
    ("data", IDX, "num_classes", 7, "source synthetic, not to source 'idx'"),
    ("data", CSV, "dim", 784, "source synthetic, not to source 'csv'"),
    ("data", IDX, "per_class", 3, "source synthetic, not to source 'idx'"),
    ("data", CSV, "class_separation", 1.0, "source synthetic, not to source 'csv'"),
    ("data", IDX, "image_hw", (2, 2), "source synthetic, not to source 'idx'"),
    ("data", CSV, "images_path", "a.idx", "source idx, not to source 'csv'"),
    ("data", {}, "labels_path", "b.idx", "source idx, not to source 'synthetic'"),
    ("data", CSV, "test_images_path", "t.idx", "source idx, not to source 'csv'"),
    ("data", {}, "test_labels_path", "u.idx", "source idx, not to source 'synthetic'"),
    ("data", IDX, "csv_path", "a.csv", "source csv, not to source 'idx'"),
    ("data", {}, "test_csv_path", "t.csv", "source csv, not to source 'synthetic'"),
    ("data", IDX_HELD_OUT, "test_fraction", 0.3, "held_out_test False, not to held_out_test True"),
    ("distill", {"enabled": False}, "beta", 0.5, "enabled True, not to enabled False"),
    ("reinit", {"kind": "full"}, "lam", 0.3, "kind shrink_perturb, not to kind 'full'"),
    ("reinit", {"kind": "none"}, "gamma", 0.2, "kind shrink_perturb, not to kind 'none'"),
    ("run config", {"stages": 1}, "online", True, "staged True, not to staged False"),
    ("run config", {"stages": 1}, "reinit", {"kind": "full"}, "staged True, not to staged False"),
    ("run config", {"stages": 1}, "distill", {"enabled": True}, "staged True, not to staged False"),
]


def tiny_cfg(**kw):
    base = dict(
        network=tiny_net(),
        data=DataConfig(num_classes=4, dim=8, per_class=40, class_separation=3.0),
        lr=0.05,
        epochs=6,
        batch_size=25,
        seeds=Seeds(1, 2, 3, 4),
    )
    base.update(kw)
    return RunConfig(**base)


def nan_loss_at(monkeypatch, step):
    """Make the run's step-th loss_grad_logits call (counting from 1) report a
    NaN loss; step None leaves every loss as it is."""
    calls, loss_grad_logits = [], harness.loss_grad_logits

    def diverging(*args, **kwargs):
        loss, logits = loss_grad_logits(*args, **kwargs)
        calls.append(None)
        return (math.nan if len(calls) == step else loss), logits

    monkeypatch.setattr(harness, "loss_grad_logits", diverging)


# tiny_cfg's data tagged as 2x4 images, which augmentation needs
IMAGE_DATA = DataConfig(num_classes=4, dim=8, per_class=40, class_separation=3.0, image_hw=(2, 4))

# 160 samples -> test 40, then val 12, train 108 -> 5 steps per epoch
TRAIN_N, VAL_N, TEST_N = 108, 12, 40
STEPS_PER_EPOCH = 5


class TestRunConfig:
    def test_run_id_is_stable_and_content_addressed(self):
        a, b = tiny_cfg(), tiny_cfg()
        assert a.run_id == b.run_id
        assert len(a.run_id) == 12
        assert a.run_id != tiny_cfg(lr=0.01).run_id

    def test_run_name_wins_over_hash(self):
        assert tiny_cfg(run_name="pinned").run_id == "pinned"

    def test_dict_round_trip_preserves_identity(self):
        cfg = tiny_cfg(
            setting="d",
            stages=2,
            reinit=ReinitSpec("shrink_perturb", lam=0.3, gamma=0.2),
            distill=DistillConfig(enabled=True, beta=0.5),
            augment=AugmentSpec(horizontal_flip_prob=0.25, pad_pixels=2),
        )
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.run_id == cfg.run_id

    @pytest.mark.parametrize(
        "setting,augment,cosine,wd",
        [
            ("none", False, False, 0.0),
            ("d", True, False, 0.0),
            ("dc", True, True, 0.0),
            ("dcw", True, True, 0.01),
        ],
    )
    def test_setting_flags(self, setting, augment, cosine, wd):
        # wd: a weight decay the setting takes; only dcw reads one, so the others take only the default
        cfg = tiny_cfg(setting=setting, weight_decay=wd)
        assert cfg.augment_enabled is augment
        assert cfg.cosine_enabled is cosine
        assert cfg.weight_decay == wd

    @pytest.mark.parametrize(
        "key, value, reading",
        [
            ("weight_decay", 0.001, ("dcw",)),
            ("eta_min", 0.001, ("dc", "dcw")),
            ("augment", AugmentSpec(pad_pixels=1), ("d", "dc", "dcw")),
        ],
    )
    @pytest.mark.parametrize("setting", ["none", "d", "dc", "dcw"])
    def test_a_key_its_setting_ignores_must_hold_its_default(self, key, value, reading, setting):
        # a key the setting ignores would still change the run id
        default = getattr(tiny_cfg(), key)
        assert tiny_cfg(setting=setting, **{key: default}).run_id == tiny_cfg(setting=setting).run_id
        d = json.loads(json.dumps(tiny_cfg(setting=setting).to_dict()))
        d[key] = asdict(value) if key == "augment" else value
        if setting in reading:
            assert getattr(tiny_cfg(setting=setting, **{key: value}), key) == value
            assert RunConfig.from_dict(d) == tiny_cfg(setting=setting, **{key: value})
            return
        phrase = f"run config key {key} applies only to setting {' or '.join(reading)}, not to setting '{setting}'"
        with pytest.raises(ConfigurationError, match=phrase):
            tiny_cfg(setting=setting, **{key: value})
        with pytest.raises(ConfigurationError, match=phrase):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("key", ["weight_decay", "eta_min"])
    def test_an_integer_at_an_ignored_keys_default_keeps_the_defaults_id(self, key):
        # json writes 0 and 0.0 apart, so a float field stores 0 as 0.0, whether the setting reads it or not
        assert tiny_cfg(**{key: 0}).run_id == tiny_cfg().run_id
        assert type(getattr(tiny_cfg(**{key: 0}), key)) is float
        dcw = tiny_cfg(setting="dcw", **{key: 0})
        assert type(getattr(dcw, key)) is float and dcw.run_id == tiny_cfg(setting="dcw").run_id

    def test_a_disabled_distillation_keeps_the_default_beta(self):
        # beta is read only when distillation is enabled, yet it would change the run id
        assert DistillConfig(enabled=False, beta=1.0) == DistillConfig()
        assert tiny_cfg(distill=DistillConfig(False, 1)).run_id == tiny_cfg().run_id
        phrase = "distill key beta applies only to enabled True, not to enabled False; leave it at 1.0, got "
        for beta in (0.5, 2.0):
            with pytest.raises(ConfigurationError, match=phrase + str(beta)):
                DistillConfig(enabled=False, beta=beta)
            d = json.loads(json.dumps(tiny_cfg().to_dict())) | {"distill": {"enabled": False, "beta": beta}}
            with pytest.raises(ConfigurationError, match=phrase + str(beta)):
                RunConfig.from_dict(d)

    @pytest.mark.parametrize("section, gate, key, value, reads", GATED, ids=[case[2] for case in GATED])
    def test_a_key_its_config_ignores_must_hold_its_default(self, section, gate, key, value, reads):
        # a key its config ignores would still change the run id: one rule for every gated key
        def build(**given):
            d = json.loads(json.dumps(tiny_cfg(stages=2).to_dict()))
            cfg = RunConfig.from_dict(d | gate | given if section == "run config" else d | {section: gate | given})
            return cfg, cfg if section == "run config" else getattr(cfg, section)

        without, part = build()
        default = getattr(part, key)
        # at its default, even as an int for a float, the key is stored as the default
        whole = isinstance(default, float) and default.is_integer()
        cfg, part = build(**{key: asdict(default) if is_dataclass(default) else int(default) if whole else default})
        assert getattr(part, key) == default and type(getattr(part, key)) is type(default)
        assert cfg.run_id == without.run_id and cfg.to_dict() == without.to_dict()
        got = type(default)(**value) if is_dataclass(default) else value
        with pytest.raises(ConfigurationError) as info:
            build(**{key: value})
        assert str(info.value) == f"{section} key {key} applies only to {reads}; leave it at {default!r}, got {got!r}"

    def test_every_gated_key_has_a_case(self):
        staged = {"online", "reinit", "distill"}  # RunConfig's gate staged
        tables = set(harness.SETTING_KEYS) | set(harness.SOURCE_KEYS) | {"test_fraction", "beta", "lam", "gamma"}
        assert sorted(case[2] for case in GATED) == sorted(tables | staged)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            tiny_cfg(setting="w")
        with pytest.raises(ConfigurationError):
            tiny_cfg(lr=0.0)
        with pytest.raises(ConfigurationError):
            tiny_cfg(batch_size=0)
        with pytest.raises(ConfigurationError):
            tiny_cfg(stages=7)  # stages > epochs is fine, 7 > 6

    @pytest.mark.parametrize(
        "config",
        [
            tiny_net(),
            DataConfig(num_classes=3, dim=4, per_class=7, class_separation=1.5, image_hw=(2, 2), val_fraction=0.2),
            ReinitSpec("shrink_perturb", lam=0.7, gamma=0.05),
            DistillConfig(enabled=True, beta=0.25),
            Seeds(5, 6, 7, 8),
            AugmentSpec(horizontal_flip_prob=0.1, pad_pixels=1),
            RunConfig(
                network=NetworkSpec(4, (5, 3), 3, block_boundaries=(1,)),
                data=DataConfig(num_classes=3, dim=4, per_class=7, class_separation=1.5, image_hw=(2, 2)),
                setting="dcw",
                weight_decay=0.001,
                stages=2,
                reinit=ReinitSpec("shrink_perturb", lam=0.7, gamma=0.05),
                distill=DistillConfig(enabled=True, beta=0.25),
                noise_q=0.2,
                seeds=Seeds(5, 6, 7, 8),
                eta_min=0.01,
                augment=AugmentSpec(horizontal_flip_prob=0.1, pad_pixels=1),
                run_name="all-sections",
            ),
        ],
        ids=lambda config: type(config).__name__,
    )
    def test_every_config_class_round_trips_through_its_json_form(self, config):
        d = json.loads(json.dumps(asdict(config)))  # tuples come back as JSON lists
        assert from_json(type(config), d, "config") == config
        assert from_json(type(config), asdict(config), "config") == config

    def test_from_dict_names_the_nested_key_of_a_section_that_is_not_an_object(self):
        d = json.loads(json.dumps(tiny_cfg().to_dict()))
        d["seeds"] = [1, 2, 3, 4]
        with pytest.raises(ConfigurationError, match="seeds must be a JSON object, got list"):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("where", [None, "data", "reinit", "distill", "seeds", "augment"])
    def test_from_dict_names_unknown_keys(self, where):
        d = json.loads(json.dumps(tiny_cfg().to_dict()))
        (d if where is None else d[where])["epoch"] = 3
        with pytest.raises(ConfigurationError, match="unknown .*keys: epoch"):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize(
        "where, key, value, phrase",
        [
            (None, "epochs", "4", "run config key epochs must be an integer"),
            (None, "epochs", 4.0, "run config key epochs must be an integer"),
            (None, "lr", True, "run config key lr must be a number"),
            ("data", "val_fraction", "0.1", "data key val_fraction must be a number"),
            ("network", "input_dim", 8.5, "network key input_dim must be an integer"),
            ("seeds", "init", 1.5, "seeds key init must be an integer"),
            ("augment", "pad_pixels", None, "augment key pad_pixels must be an integer"),
        ],
    )
    def test_from_dict_rejects_non_numbers_in_numeric_fields(self, where, key, value, phrase):
        d = json.loads(json.dumps(tiny_cfg().to_dict()))
        (d if where is None else d[where])[key] = value
        with pytest.raises(ConfigurationError, match=phrase):
            RunConfig.from_dict(d)

    def test_from_dict_accepts_an_int_for_a_float_and_none_where_optional(self):
        d = json.loads(json.dumps(tiny_cfg().to_dict()))
        d["lr"] = 1
        assert d["reinit"]["lam"] is None
        assert RunConfig.from_dict(d) == tiny_cfg(lr=1)

    @pytest.mark.parametrize("bad", [-1, 1.5, "3", None])
    def test_seeds_must_be_non_negative_integers(self, bad):
        with pytest.raises(ConfigurationError, match="seeds key noise must be (>= 0|an integer)"):
            Seeds(noise=bad)

    @pytest.mark.parametrize(
        "key, value, phrase",
        [
            ("epochs", 2.5, "run config key epochs must be an integer, got 2.5"),
            ("batch_size", 12.5, "run config key batch_size must be an integer, got 12.5"),
            ("lr", "0.1", "run config key lr must be a number, got '0.1'"),
            ("momentum", 1.5, "run config key momentum must lie in [0, 1), got 1.5"),
        ],
    )
    def test_library_values_are_checked_like_json_values(self, key, value, phrase):
        with pytest.raises(ConfigurationError) as info:
            tiny_cfg(**{key: value})
        assert phrase in str(info.value)

    def test_numpy_ints_are_stored_as_int_and_a_float_field_stores_a_float(self):
        cfg = tiny_cfg(epochs=np.int64(6), batch_size=np.int32(25), lr=1)
        assert type(cfg.epochs) is int and type(cfg.batch_size) is int and type(cfg.lr) is float
        assert cfg.run_id == tiny_cfg(lr=1.0).run_id

    def test_numpy_int_seeds_pass_as_ints(self):
        seeds = Seeds(np.int64(5), np.uint32(6))
        assert seeds == Seeds(5, 6) and type(seeds.init) is int
        assert tiny_cfg(seeds=seeds).run_id == tiny_cfg(seeds=Seeds(5, 6)).run_id

    @pytest.mark.parametrize("given", ["test_images_path", "test_labels_path"])
    def test_test_files_come_in_pairs(self, given):
        with pytest.raises(ConfigurationError, match="together"):
            DataConfig(source="idx", images_path="a.idx", labels_path="b.idx", **{given: "t.idx"})

    @pytest.mark.parametrize(
        "source, paths",
        [("idx", {"images_path": "a.idx", "labels_path": "b.idx"}), ("csv", {"csv_path": "a.csv"})],
    )
    def test_image_hw_only_describes_synthetic_data(self, source, paths):
        assert DataConfig(source=source, **paths).image_hw is None
        phrase = f"data key image_hw applies only to source synthetic, not to source '{source}'; leave it at None"
        with pytest.raises(ConfigurationError, match=phrase):
            DataConfig(source=source, image_hw=(2, 2), **paths)

    @pytest.mark.parametrize(
        "key, value", [("num_classes", 7), ("dim", 784), ("per_class", 3), ("class_separation", 1.0)]
    )
    @pytest.mark.parametrize(
        "source, paths",
        [("idx", {"images_path": "a.idx", "labels_path": "b.idx"}), ("csv", {"csv_path": "a.csv"})],
    )
    def test_synthetic_only_keys_keep_their_defaults_on_files(self, key, value, source, paths):
        # a key the source ignores would still change the run id
        default = getattr(DataConfig(), key)
        assert getattr(DataConfig(source=source, **paths, **{key: default}), key) == default
        phrase = f"data key {key} applies only to source synthetic, not to source '{source}'; "
        phrase += f"leave it at {default}, got {value}"
        with pytest.raises(ConfigurationError, match=phrase):
            DataConfig(source=source, **paths, **{key: value})

    def test_image_hw_must_flatten_to_dim(self):
        assert DataConfig(dim=8, image_hw=(2, 4)).image_hw == (2, 4)
        for image_hw in ((2, 3), (3, 3)):
            with pytest.raises(ConfigurationError, match=r"image_hw \[\d, \d\] must flatten to dim 8"):
                DataConfig(dim=8, image_hw=image_hw)

    def test_layer_wise_stage_consistency(self):
        # tiny_net has boundaries after layers 1 and 2, so three blocks
        for stages in (3, 6):
            assert tiny_cfg(stages=stages, reinit=ReinitSpec("layer_wise")).stages == stages
        for stages in (2, 4):
            with pytest.raises(ConfigurationError, match=f"divisible by the 3 network blocks: {stages} is not"):
                tiny_cfg(stages=stages, reinit=ReinitSpec("layer_wise"))

    @pytest.mark.parametrize("setting", ["none", "dcw"])
    @pytest.mark.parametrize("wd", [-1.0, -1e-9, float("nan")])
    def test_weight_decay_must_be_non_negative_in_every_setting(self, setting, wd):
        with pytest.raises(ConfigurationError, match="run config key weight_decay must be (>= 0|a finite number)"):
            tiny_cfg(setting=setting, weight_decay=wd)


class TestOneRunOneId:
    """Equal runs share one run id: a key a run never reads, an enabled
    distillation that could not distill, or another spelling of one number
    would each give one run two ids and two run directories."""

    # two configs that trained equal records under two ids before a 1-stage run refused reinit and distill
    ONE_STAGE = dict(
        network=NetworkSpec(8, (10,), 4),
        data=DataConfig(num_classes=4, dim=8, per_class=40, class_separation=3.0),
        epochs=3,
        batch_size=25,
    )

    @pytest.mark.parametrize(
        "boundary, key",
        [
            ({"reinit": ReinitSpec("shrink_perturb")}, "reinit"),
            ({"distill": DistillConfig(True, 0.5)}, "distill"),
            ({"reinit": ReinitSpec("shrink_perturb"), "distill": DistillConfig(True, 0.5)}, "reinit"),
            ({"online": True}, "online"),
        ],
        ids=["reinit", "distill", "both", "online"],
    )
    def test_a_one_stage_run_takes_no_boundary_key(self, boundary, key):
        RunConfig(**self.ONE_STAGE)
        with pytest.raises(ConfigurationError, match=f"run config key {key} applies only to staged True"):
            RunConfig(**self.ONE_STAGE, **boundary)
        assert RunConfig(**self.ONE_STAGE, stages=3, **boundary).staged

    def test_an_int_and_its_float_share_one_id(self):
        net = NetworkSpec(8, (10,), 4)
        assert RunConfig(net, lr=1).run_id == RunConfig(net, lr=1.0).run_id
        assert RunConfig(net, noise_q=1).to_dict() == RunConfig(net, noise_q=1.0).to_dict()
        # -0.0 == 0.0, yet json writes them apart
        assert RunConfig(net, setting="dcw", weight_decay=-0.0).run_id == RunConfig(net, setting="dcw").run_id

    def test_a_sweeps_one_stage_arm_is_the_noise_studys_standard_arm(self):
        base = tiny_cfg(
            network=NetworkSpec(8, (10,), 4, block_boundaries=(1,)),
            epochs=4,
            stages=2,
            reinit=ReinitSpec("layer_wise"),
            distill=DistillConfig(enabled=True, beta=0.5),
        )
        [sweep_arm] = stage_sweep(base, (1,))["rows"]
        standard = [r for r in noise_study(base, (0.0,), ("standard",))["rows"] if r["method"] == "standard"]
        assert [sweep_arm["run_id"]] == [r["run_id"] for r in standard]

    def test_every_seed_a_64_bit_generator_takes_is_accepted(self):
        top = 2**64 - 1
        assert Seeds(top, top, top, top).init == top
        with pytest.raises(ConfigurationError, match="seeds key init must fit in 64 bits as an integer, got 65 bits"):
            Seeds(2**64)
        res = run_experiment(tiny_cfg(epochs=1, seeds=Seeds(top, top, top, top)))
        assert not res.failed and res.total_steps == STEPS_PER_EPOCH


class TestPrepareData:
    def test_split_sizes(self):
        b = prepare_data(tiny_cfg())
        assert (b.train.n, b.val.n, b.test.n) == (TRAIN_N, VAL_N, TEST_N)

    def test_train_is_standardized_and_stats_are_shared(self, monkeypatch):
        stats = spy(monkeypatch, harness, "normalize_in_place", lambda ds, mean, std: (mean, std))
        b = prepare_data(tiny_cfg())
        assert np.allclose(b.train.inputs.mean(axis=0), 0.0, atol=1e-5)
        assert np.allclose(b.train.inputs.std(axis=0), 1.0, atol=1e-4)
        # train, val and test, each normalized with the one pair of training statistics
        assert len(stats) == 3 and all(s[0] is stats[0][0] and s[1] is stats[0][1] for s in stats)

    def test_noise_touches_exactly_the_mask(self, monkeypatch):
        clean = spy(monkeypatch, harness, "inject_label_noise", lambda ds, q, seed: ds.labels)
        b = prepare_data(tiny_cfg(noise_q=0.3))
        assert int(b.noise_mask.sum()) == int(0.3 * TRAIN_N)
        changed = b.train.labels != clean[0]
        assert changed.any() and not np.any(changed & ~b.noise_mask)

    def test_clean_when_q_zero(self, monkeypatch):
        clean = spy(monkeypatch, harness, "inject_label_noise", lambda ds, q, seed: ds.labels)
        b = prepare_data(tiny_cfg())
        assert not b.noise_mask.any()
        assert np.array_equal(b.train.labels, clean[0])

    def test_deterministic(self):
        a, b = prepare_data(tiny_cfg()), prepare_data(tiny_cfg())
        assert np.array_equal(a.train.inputs, b.train.inputs)
        assert np.array_equal(a.test.labels, b.test.labels)


class TestRunResult:
    def test_stores_only_what_a_run_cannot_recompute(self):
        stored = [f.name for f in fields(RunResult)]
        assert stored == [
            "config", "records", "final_params", "best_params", "boundary_events", "counters", "failure", "run_dir",
        ]

    def test_facts_read_from_the_stored_fields(self):
        cfg = tiny_cfg(run_name="facts")
        records = [
            MetricsRecord("facts", stage, epoch, 5 * epoch, 0.05, 1.0, 0.5, val, test, 1.0)
            for stage, epoch, val, test in [(1, 1, 0.5, 0.4), (1, 2, 0.75, 0.6), (2, 3, 0.75, 0.7), (2, 4, 0.25, 0.9)]
        ]
        res = RunResult(cfg, records, None, None, [], {"optimizer_steps": 20})
        assert (res.run_id, res.failed, res.total_steps) == ("facts", False, 20)
        assert res.best is records[1]  # the first of the two highest val accuracies
        assert (res.best.stage, res.best.epoch, res.best_val_acc, res.best_test_acc) == (1, 2, 0.75, 0.6)
        assert replace(res, failure="non-finite loss at step 3").failed

    def test_a_run_without_records_has_no_best(self):
        res = RunResult(tiny_cfg(), [], None, None, [], {"optimizer_steps": 0}, "non-finite loss at step 0")
        assert res.failed and res.best is None
        assert (res.best_val_acc, res.best_test_acc) == (-1.0, 0.0)


class TestRunExperiment:
    @pytest.mark.parametrize("kind", ["none", "shrink_perturb", "full"])
    def test_run_holds_fewer_than_six_parameter_vectors(self, kind):
        """The parameters, spare, momentum and best vectors, plus pieces: the
        gradient goes into the spare, where sgd_step writes the update over
        it a STEP_BLOCK scratch buffer at a time, and there is no whole
        float64 copy and no second best or draw temporary. 4.36 vectors
        traced; 5.35 with a separate gradient vector."""
        net = NetworkSpec(784, (256, 128), 10, block_boundaries=(1, 2))
        data = DataConfig(dim=784, per_class=20, image_hw=(28, 28))
        cfg = RunConfig(net, data, epochs=2, stages=2, batch_size=25, reinit=ReinitSpec(kind), seeds=Seeds(1, 2, 3))
        bundle = prepare_data(cfg)
        peak = traced_peak(lambda: run_experiment(cfg, bundle))
        assert peak < 5 * net.param_count * 4, f"peak {peak / (net.param_count * 4):.2f} parameter vectors"

    def test_layer_wise_boundary_holds_no_whole_vector_temporary(self):
        """The rule merges into its own fresh draw and rescales kept blocks a
        piece at a time, so a layer-wise run peaks where a shrink-perturb run
        does. The 0.02-vector (19 KB) allowance is the frozen norm layers it
        installs, float64 mean and std per unit (6.6 KB traced here). With
        a merged copy the run read 5.45 vectors, with that and a float64
        block copy 7.04."""
        net = NetworkSpec(784, (256, 128), 10, block_boundaries=(1, 2))
        data = DataConfig(dim=784, per_class=20, image_hw=(28, 28))
        vector = net.param_count * 4

        def peak(kind, stages):
            cfg = RunConfig(net, data, epochs=stages, stages=stages, batch_size=25, reinit=ReinitSpec(kind), seeds=Seeds(1, 2, 3))
            bundle = prepare_data(cfg)
            return traced_peak(lambda: run_experiment(cfg, bundle)) / vector

        sp, lw = peak("shrink_perturb", 2), peak("layer_wise", 3)
        assert lw <= sp + 0.02, f"layer-wise {lw:.3f} against shrink-perturb {sp:.3f} parameter vectors"

    def test_augmented_idx_run_holds_four_parameter_vectors_and_pieces(self, tmp_path):
        """An augmenting, distilling IDX run holds the four vectors plus a
        STEP_BLOCK scratch buffer, one NO_GRAD_ROWS decoded chunk with its
        forward pass, and the teacher: 5.37 vectors traced. It read 6.60
        with a separate gradient vector and float32 augmentation, and a
        batch held into the next augmentation would add 0.4. Given a run
        directory, which holds the best epoch, it keeps three vectors and
        reads 4.37."""
        rng = np.random.Generator(np.random.PCG64(4))
        images, labels = rng.integers(0, 256, size=(1200, 28, 28), dtype=np.uint8), np.arange(1200) % 10
        write_idx(tmp_path / "images.idx", tmp_path / "labels.idx", images, labels)
        net = NetworkSpec(784, (256, 128), 10, block_boundaries=(1, 2))
        data = DataConfig(source="idx", images_path=str(tmp_path / "images.idx"), labels_path=str(tmp_path / "labels.idx"))
        cfg = RunConfig(
            net, data, setting="dcw", lr=0.02, weight_decay=5e-4, epochs=2, stages=2,
            reinit=ReinitSpec("shrink_perturb"), distill=DistillConfig(enabled=True), noise_q=0.2, seeds=Seeds(1, 2, 3, 4),
        )
        bundle = prepare_data(cfg)
        vector = net.param_count * 4
        peak = traced_peak(lambda: run_experiment(cfg, bundle))
        assert peak < 5.5 * vector, f"peak {peak / vector:.2f} parameter vectors"
        peak = traced_peak(lambda: run_experiment(cfg, bundle, tmp_path / "runs"))
        assert peak < 4.5 * vector, f"peak {peak / vector:.2f} parameter vectors with a run directory"

    def test_idx_run_decodes_batches_and_never_a_split(self, tmp_path, monkeypatch):
        """IDX splits stay uint8 pixels and the run decodes a batch or
        NO_GRAD_ROWS rows at a time. Its traced peak above the uint8 bundle is
        that of the same run on the decoded float32 bundle plus at most one
        decoded chunk, which the float run reads as a view of its split."""
        rng = np.random.Generator(np.random.PCG64(4))
        images, labels = rng.integers(0, 256, size=(1200, 28, 28), dtype=np.uint8), np.arange(1200) % 10
        write_idx(tmp_path / "images.idx", tmp_path / "labels.idx", images, labels)
        net = NetworkSpec(784, (256, 128), 10, block_boundaries=(1, 2))
        data = DataConfig(source="idx", images_path=str(tmp_path / "images.idx"), labels_path=str(tmp_path / "labels.idx"))
        cfg = RunConfig(
            net, data, lr=0.02, epochs=2, stages=2, reinit=ReinitSpec("shrink_perturb"),
            distill=DistillConfig(enabled=True), noise_q=0.2, seeds=Seeds(1, 2, 3, 4),
        )
        bundle = prepare_data(cfg)
        splits = ("train", "val", "test")
        assert [getattr(bundle, k).inputs.dtype for k in splits] == [np.uint8] * 3
        assert min(bundle.train.n, bundle.test.n) > NO_GRAD_ROWS
        decoded = {k: replace(getattr(bundle, k), inputs=getattr(bundle, k).rows(slice(None)), decode=None) for k in splits}
        float_peak = traced_peak(lambda: run_experiment(cfg, replace(bundle, **decoded)))
        sizes = spy(monkeypatch, data_module, "_decode", lambda pixels, table: pixels.shape[0])
        peak = traced_peak(lambda: run_experiment(cfg, bundle))
        assert max(sizes) <= NO_GRAD_ROWS, f"decoded {max(sizes)} rows at once"
        chunk = NO_GRAD_ROWS * net.input_dim * 4
        vector = net.param_count * 4
        assert peak <= float_peak + chunk, f"{peak / vector:.2f} against {float_peak / vector:.2f} parameter vectors"

    def test_single_stage_bookkeeping(self):
        res = run_experiment(tiny_cfg())
        assert not res.failed
        assert len(res.records) == 6
        assert res.total_steps == 6 * STEPS_PER_EPOCH
        assert res.counters["optimizer_steps"] == res.total_steps
        assert [r.stage for r in res.records] == [1] * 6
        assert [r.epoch for r in res.records] == list(range(1, 7))
        assert [r.step for r in res.records] == [e * STEPS_PER_EPOCH for e in range(1, 7)]
        assert res.boundary_events == []

    def test_best_checkpoint_tracks_val_max_earliest(self, tmp_path):
        res = run_experiment(tiny_cfg(run_name="tie"), out_dir=tmp_path)
        vals = [r.val_acc for r in res.records]
        assert vals.count(max(vals)) > 1 and vals[-1] != max(vals)  # a tie, and the last epoch is not in it
        assert res.best_val_acc == max(vals)
        assert res.best is res.records[vals.index(max(vals))]
        assert res.best.epoch == vals.index(max(vals)) + 1
        params, header = load_checkpoint(tmp_path / "tie" / "best.ckpt")
        assert (header["stage"], header["epoch"]) == (res.best.stage, res.best.epoch)
        # each record holds the norm of its epoch's parameters; the tied epochs' norms differ
        assert weight_norm(res.best_params.values) == weight_norm(params.values) == res.best.weight_norm

    def test_run_is_bit_deterministic(self, tmp_path):
        cfg = tiny_cfg(run_name="det")
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for fname in ("metrics.jsonl", "best.ckpt"):
            one = (tmp_path / "a" / "det" / fname).read_bytes()
            two = (tmp_path / "b" / "det" / fname).read_bytes()
            assert one == two, fname

    def test_run_dir_contents(self, tmp_path):
        cfg = tiny_cfg(run_name="files", stages=2, distill=DistillConfig(enabled=True, beta=0.5))
        res = run_experiment(cfg, out_dir=tmp_path)
        d = tmp_path / "files"
        assert res.run_dir == d
        for fname in ("config.json", "metrics.jsonl", "summary.csv", "best.ckpt", "teacher_stage1.bin"):
            assert (d / fname).exists(), fname
        saved = RunConfig.from_dict(json.load(open(d / "config.json")))
        assert saved == cfg

    def test_an_unwritable_metrics_file_raises_what_the_other_writers_raise(self, tmp_path):
        # an OSError, as from write_json; FormatError is kept for malformed input files
        cfg = tiny_cfg(run_name="blocked", epochs=1)
        (tmp_path / "blocked" / "metrics.jsonl").mkdir(parents=True)
        with pytest.raises(OSError, match="metrics.jsonl"):
            run_experiment(cfg, out_dir=tmp_path)

    @pytest.mark.parametrize("diverge_at", [None, 22], ids=["distilled-two-stage", "diverged-mid-stage"])
    def test_records_read_back_are_the_records_the_run_kept(self, tmp_path, monkeypatch, diverge_at):
        # a non-finite loss at step 22 ends the run in stage 2's second epoch
        nan_loss_at(monkeypatch, diverge_at)
        cfg = tiny_cfg(run_name="kept", stages=2, distill=DistillConfig(enabled=True, beta=0.5))
        res = run_experiment(cfg, out_dir=tmp_path)
        assert res.failed == (diverge_at is not None)
        assert len(res.records) == (6 if diverge_at is None else 4)
        assert read_metrics(res.run_dir / "metrics.jsonl") == res.records

    def test_summary_has_one_row_per_stage(self, tmp_path):
        cfg = tiny_cfg(run_name="sums", stages=3)
        run_experiment(cfg, out_dir=tmp_path)
        lines = (tmp_path / "sums" / "summary.csv").read_text().splitlines()
        assert len(lines) == 4
        assert [ln.split(",")[1] for ln in lines[1:]] == ["1", "2", "3"]

    @pytest.mark.parametrize("diverge_at", [None, 22], ids=["two-stage", "diverged-mid-stage"])
    def test_summary_rows_follow_the_per_epoch_step_count(self, tmp_path, monkeypatch, diverge_at):
        # 2 stages of 3 epochs, 5 steps each; a non-finite loss at step 22 ends the
        # run in stage 2's second epoch, leaving 3 + 1 finished epochs
        nan_loss_at(monkeypatch, diverge_at)
        epoch_ms = spy(monkeypatch, harness, "write_summary_csv", lambda records, epoch_ms, path: list(epoch_ms))
        res = run_experiment(tiny_cfg(run_name="sums", stages=2), out_dir=tmp_path)
        assert res.failed == (diverge_at is not None)
        [times] = epoch_ms  # one wall time per finished epoch
        assert len(times) == len(res.records)
        # the summary as each stage's epoch count times the steps of one epoch
        per_epoch = res.records[-1].step // res.records[-1].epoch
        rows = []
        for stage in sorted({r.stage for r in res.records}):
            picked = [i for i, r in enumerate(res.records) if r.stage == stage]
            recs = [res.records[i] for i in picked]
            last = recs[-1]
            cells = [stage, len(recs), len(recs) * per_epoch, last.val_acc, last.test_acc]
            cells += [max(r.val_acc for r in recs), last.weight_norm, round(sum(times[i] for i in picked), 3)]
            rows.append(["sums", *map(str, cells)])
        with open(tmp_path / "sums" / "summary.csv", newline="") as fh:
            written = list(csv.reader(fh))
        assert written[1:] == rows
        assert [row[3] for row in rows] == (["15", "15"] if diverge_at is None else ["15", "5"])

    def test_setting_none_constant_lr_no_augment(self, monkeypatch):
        augments = spy(monkeypatch, harness, "augment_batch")
        res = run_experiment(tiny_cfg())
        assert all(r.lr == 0.05 for r in res.records)
        assert augments == []

    def test_setting_d_augments_every_batch(self, monkeypatch):
        cfg = tiny_cfg(setting="d", data=IMAGE_DATA)
        augments = spy(monkeypatch, harness, "augment_batch")
        res = run_experiment(cfg)
        assert not res.failed
        assert len(augments) == res.total_steps

    def test_setting_dc_cosine_restarts_each_stage(self):
        cfg = tiny_cfg(setting="dc", stages=2, data=IMAGE_DATA)
        res = run_experiment(cfg)
        lrs = [r.lr for r in res.records]
        assert lrs[0] == pytest.approx(0.05)
        assert lrs[1] < lrs[0]
        assert lrs[2] < lrs[1]
        # stage 2 starts the schedule over
        assert lrs[3] == pytest.approx(0.05)
        assert lrs[4] < lrs[3]

    def test_setting_dcw_decay_shrinks_weights(self):
        with_wd = run_experiment(tiny_cfg(setting="dcw", data=IMAGE_DATA, weight_decay=0.05))
        without = run_experiment(tiny_cfg(setting="dc", data=IMAGE_DATA))
        assert with_wd.records[-1].weight_norm < without.records[-1].weight_norm

    def test_every_stage_starts_with_zero_momentum(self, monkeypatch):
        fresh_calls = []
        buffers = {}
        real_fresh, real_step = harness.OptimState.fresh, harness.sgd_step

        def counting_fresh(params, momentum, weight_decay):
            fresh_calls.append(params)
            return real_fresh(params, momentum, weight_decay)

        def watching_step(params, spare, state, lr, step):
            # the buffer each stage's first and second steps see (2 epochs per stage)
            if step % (2 * STEPS_PER_EPOCH) in (0, 1):
                buffers[step] = state.momentum_buffer.copy()
            real_step(params, spare, state, lr, step)

        monkeypatch.setattr(harness.OptimState, "fresh", staticmethod(counting_fresh))
        monkeypatch.setattr(harness, "sgd_step", watching_step)
        res = run_experiment(tiny_cfg(stages=3))
        assert not res.failed
        assert len(fresh_calls) == 3
        for start in (0, 2 * STEPS_PER_EPOCH, 4 * STEPS_PER_EPOCH):
            assert not buffers[start].any()
            # momentum builds up within a stage, so the reset at the boundary is what zeroes it
            assert buffers[start + 1].any()

    def test_shrink_perturb_boundary_norms(self):
        cfg = tiny_cfg(stages=3, reinit=ReinitSpec("shrink_perturb"))
        res = run_experiment(cfg)
        assert len(res.boundary_events) == 2
        for ev in res.boundary_events:
            assert ev.norm_after < ev.norm_before
            bound = 0.4 * ev.norm_before + 0.1 * ev.fresh_norm + 1e-5
            assert ev.norm_after <= bound

    def test_layer_wise_installs_and_replaces_frozen_norm(self):
        cfg = tiny_cfg(epochs=6, stages=3, reinit=ReinitSpec("layer_wise"))
        res = run_experiment(cfg)
        assert not res.failed
        # boundaries t=1 then t=2; the t=2 layer replaces the t=1 one
        assert res.final_params.frozen_norm.insert_after_block == 2
        assert len(res.boundary_events) == 2

    def test_every_step_trains_with_its_stage_frozen_norm(self, monkeypatch):
        # the loop swaps params with its spare each step, so both must carry the new layer
        loss_grad_logits, blocks = harness.loss_grad_logits, []

        def recording(params, *args, **kwargs):
            blocks.append(params.frozen_norm and params.frozen_norm.insert_after_block)
            return loss_grad_logits(params, *args, **kwargs)

        monkeypatch.setattr(harness, "loss_grad_logits", recording)
        run_experiment(tiny_cfg(epochs=6, stages=3, reinit=ReinitSpec("layer_wise")))
        per_stage = 2 * STEPS_PER_EPOCH
        assert blocks == [None] * per_stage + [1] * per_stage + [2] * per_stage

    def test_best_checkpoint_reloads_as_the_model(self, tmp_path):
        cfg = tiny_cfg(run_name="lw", epochs=6, stages=3, reinit=ReinitSpec("layer_wise"))
        bundle = prepare_data(cfg)
        res = run_experiment(cfg, bundle, tmp_path)
        assert res.best.stage > 1  # so the checkpoint holds a frozen norm
        params, header = load_checkpoint(tmp_path / "lw" / "best.ckpt")
        assert (header["stage"], header["epoch"]) == (res.best.stage, res.best.epoch)
        assert params.frozen_norm.insert_after_block == res.best_params.frozen_norm.insert_after_block
        assert harness.evaluate_accuracy(params, bundle.test) == res.best_test_acc

    @pytest.mark.parametrize(
        "boundary",
        [
            {"reinit": ReinitSpec("shrink_perturb"), "distill": DistillConfig(enabled=True, beta=0.5)},
            {"reinit": ReinitSpec("layer_wise")},
        ],
        ids=["sp_distill", "layer_wise"],
    )
    def test_best_params_read_back_from_the_run_directory_are_the_ones_kept_without_it(self, tmp_path, boundary):
        cfg = tiny_cfg(run_name="best", epochs=6, stages=3, **boundary)
        bundle = prepare_data(cfg)
        kept, read = run_experiment(cfg, bundle).best_params, run_experiment(cfg, bundle, tmp_path).best_params
        assert read.values.dtype == kept.values.dtype and read.values.tobytes() == kept.values.tobytes()
        assert read.network == kept.network
        if cfg.reinit.kind == "layer_wise":
            assert kept.frozen_norm is not None  # the best epoch is past a boundary
        if kept.frozen_norm is None:
            assert read.frozen_norm is None
        else:
            assert read.frozen_norm.insert_after_block == kept.frozen_norm.insert_after_block
            for key in ("mean", "std"):
                a, b = getattr(read.frozen_norm, key), getattr(kept.frozen_norm, key)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key

    def test_a_run_stopped_mid_way_leaves_the_best_epoch_so_far(self, tmp_path, monkeypatch):
        # 2 stages of 3 epochs; evaluation raises at epoch 5, in stage 2
        cfg, stopped_at = tiny_cfg(run_name="stopped", stages=2), 5
        records = run_experiment(cfg).records[: stopped_at - 1]
        calls, evaluate = [], harness.evaluate_accuracy

        def stopping(*args):
            calls.append(None)
            if len(calls) == 2 * stopped_at - 1:  # the epoch's val accuracy comes first
                raise RuntimeError("stopped")
            return evaluate(*args)

        monkeypatch.setattr(harness, "evaluate_accuracy", stopping)
        with pytest.raises(RuntimeError, match="stopped"):
            run_experiment(cfg, out_dir=tmp_path)
        params, header = load_checkpoint(tmp_path / "stopped" / "best.ckpt")
        best = best_record(records)
        assert (header["stage"], header["epoch"]) == (best.stage, best.epoch)
        assert weight_norm(params.values) == best.weight_norm
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_a_failed_best_rewrite_leaves_the_earlier_best_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(run_name="rewrite")
        records = run_experiment(cfg).records
        bests = [r.epoch for i, r in enumerate(records) if best_record(records[: i + 1]) is r]
        assert len(bests) > 1  # a rewrite to fail
        writes, write_framed = [], runio.write_framed

        class Unwritable:
            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        def failing(path, header, values):
            # the second best fails after its header line went into the file
            writes.append(header["epoch"])
            write_framed(path, header, Unwritable() if len(writes) == 2 else values)

        monkeypatch.setattr(runio, "write_framed", failing)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(cfg, out_dir=tmp_path)
        params, header = load_checkpoint(tmp_path / "rewrite" / "best.ckpt")
        assert writes == bests[:2] and header["epoch"] == bests[0]
        assert weight_norm(params.values) == records[bests[0] - 1].weight_norm
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_a_failed_metrics_write_leaves_no_metrics_file(self, tmp_path, monkeypatch):
        lines, to_json_line = [], MetricsRecord.to_json_line

        def failing(record):
            # the third line fails after two went into the file
            lines.append(record.epoch)
            if len(lines) == 3:
                raise OSError("disk full")
            return to_json_line(record)

        monkeypatch.setattr(MetricsRecord, "to_json_line", failing)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(tiny_cfg(run_name="partial"), out_dir=tmp_path)
        assert not (tmp_path / "partial" / "metrics.jsonl").exists()
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_distill_reads_only_after_stage_one(self, monkeypatch):
        cfg = tiny_cfg(stages=3, distill=DistillConfig(enabled=True, beta=0.5))
        steps = spy(monkeypatch, harness, "sgd_step")
        reads = spy(monkeypatch, harness, "distill_rows", lambda cache, idx: (len(steps), cache.source_stage))
        snapshots = spy(monkeypatch, harness, "snapshot_teacher", lambda params, train, source_stage: source_stage)
        res = run_experiment(cfg)
        per_stage = 2 * STEPS_PER_EPOCH
        # each step of stages 2 and 3 reads the previous stage's teacher once; stage 1 reads none
        assert reads == [(step, step // per_stage) for step in range(per_stage, 3 * per_stage)]
        assert res.counters["teacher_reads"] == 2 * per_stage
        assert snapshots == [1, 2]

    def test_teacher_file_round_trips(self, tmp_path):
        cfg = tiny_cfg(run_name="tch", stages=2, distill=DistillConfig(enabled=True, beta=0.7))
        run_experiment(cfg, out_dir=tmp_path)
        cache = load_teacher_cache(tmp_path / "tch" / "teacher_stage1.bin")
        assert cache.source_stage == 1
        assert cache.probs.shape == (TRAIN_N, 4)
        # beta is the run's, recorded in config.json alone
        assert json.loads((tmp_path / "tch" / "config.json").read_text())["distill"]["beta"] == 0.7

    @pytest.mark.parametrize("beta", [0.0, 0, -0.0])
    def test_an_enabled_distillation_with_beta_zero_is_refused(self, beta):
        # it would train bit for bit as a disabled one, under a second run id
        with pytest.raises(ConfigurationError, match=r"distill key beta must be > 0, got -?0"):
            tiny_cfg(stages=2, distill=DistillConfig(enabled=True, beta=beta))
        d = json.loads(json.dumps(tiny_cfg(stages=2).to_dict())) | {"distill": {"enabled": True, "beta": beta}}
        with pytest.raises(ConfigurationError, match=r"distill key beta must be > 0, got -?0"):
            RunConfig.from_dict(d)

    def test_divergence_is_reported_not_raised(self):
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_experiment(tiny_cfg(lr=1e18))
        assert res.failed
        assert "step" in res.failure
        assert res.best_params is None
        # the last good step's parameters, not a half-written update buffer
        assert np.isfinite(res.final_params.values).all()

    def test_overflowing_update_keeps_last_good_params(self):
        # an lr beyond float32's range overflows the first update itself, so
        # sgd_step (not the loss check) stops the run at step 0
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_experiment(tiny_cfg(lr=1e39))
        assert res.failed and res.total_steps == 0
        assert res.failure == "non-finite parameters after the update at step 0"
        init = harness.init_params(tiny_net(), 1)
        assert np.array_equal(res.final_params.values, init.values)


def stub_result(cfg, val, failed=False):
    """A one-epoch result whose best record has val accuracy val and test accuracy val - 0.01."""
    record = MetricsRecord(cfg.run_id, 1, 1, 0, cfg.lr, 0.0, 0.0, val, val - 0.01, 0.0)
    return RunResult(
        config=cfg,
        records=[record],
        final_params=None,
        best_params=None,
        boundary_events=[],
        counters={"optimizer_steps": 0},
        failure="diverged" if failed else None,
    )


class TestGridSearch:
    def patch_runs(self, monkeypatch, table):
        def fake(cfg, bundle=None, out_dir=None):
            val, failed = table[(cfg.lr, cfg.weight_decay)]
            return stub_result(cfg, val, failed)

        monkeypatch.setattr(harness, "run_experiment", fake)

    def test_ties_prefer_small_lr_then_small_wd(self, monkeypatch):
        table = {
            (0.01, 0.0): (0.8, False),
            (0.01, 0.001): (0.8, False),
            (0.1, 0.0): (0.8, False),
            (0.1, 0.001): (0.7, False),
        }
        self.patch_runs(monkeypatch, table)
        grid = grid_search(tiny_cfg(setting="dcw"), [0.01, 0.1], [0.0, 0.001])
        assert grid["chosen"] == {"lr": 0.01, "wd": 0.0}
        assert [(c["lr"], c["wd"]) for c in grid["rows"]] == [(0.01, 0.0), (0.01, 0.001), (0.1, 0.0), (0.1, 0.001)]

    def test_failed_cells_never_win(self, monkeypatch):
        table = {
            (0.01, 0.0): (0.99, True),
            (0.1, 0.0): (0.5, False),
        }
        self.patch_runs(monkeypatch, table)
        grid = grid_search(tiny_cfg(), [0.01, 0.1], [0.0])
        assert grid["chosen"] == {"lr": 0.1, "wd": 0.0}
        assert [c["failed"] for c in grid["rows"]] == [True, False]

    def test_all_failed_is_an_error(self, monkeypatch):
        self.patch_runs(monkeypatch, {(0.01, 0.0): (0.9, True)})
        with pytest.raises(HarnessError, match="diverged"):
            grid_search(tiny_cfg(), [0.01], [0.0])

    def test_robustness_spans_surviving_cells(self, monkeypatch):
        table = {
            (0.01, 0.0): (0.8, False),
            (0.05, 0.0): (0.6, False),
            (0.1, 0.0): (0.9, True),
        }
        self.patch_runs(monkeypatch, table)
        grid = grid_search(tiny_cfg(), [0.01, 0.05, 0.1], [0.0])
        assert grid["robustness"] == pytest.approx((0.8 - 0.01) - (0.6 - 0.01))

    def test_real_grid_writes_table(self, tmp_path):
        grid = grid_search(tiny_cfg(epochs=2), [0.01, 0.05], [0.0], out_dir=tmp_path)
        assert (grid["chosen"]["lr"], grid["chosen"]["wd"]) in [(c["lr"], c["wd"]) for c in grid["rows"]]
        blob = json.load(open(tmp_path / "grid.json"))
        assert len(blob["rows"]) == 2
        assert blob["robustness"] >= 0.0
        # lr and wd leave the step count alone, so every cell trains the same number of steps
        assert len({c["total_steps"] for c in blob["rows"]}) == 1 and blob["rows"][0]["total_steps"] > 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_search(tiny_cfg(), [], [0.0])

    def test_lr_below_eta_min_is_rejected_before_any_cell_runs(self, tmp_path):
        base = tiny_cfg(epochs=2, setting="dc", eta_min=0.01)
        out = tmp_path / "runs"
        with pytest.raises(ConfigurationError, match="eta_min must be <= lr, got eta_min=0.01, lr=0.001"):
            grid_search(base, [0.1, 0.001], [0.0], out)
        assert not out.exists()

    def test_weight_decay_grid_outside_dcw_is_rejected_before_any_cell_runs(self, tmp_path):
        out = tmp_path / "runs"
        phrase = "run config key weight_decay applies only to setting dcw, not to setting 'dc'"
        with pytest.raises(ConfigurationError, match=phrase):
            grid_search(tiny_cfg(epochs=2, setting="dc", data=IMAGE_DATA), [0.01], [0.0, 0.001], out)
        assert not out.exists()

    def test_grid_writes_what_its_cells_write_run_in_order(self, tmp_path):
        base = tiny_cfg(epochs=2, setting="dcw", data=IMAGE_DATA)
        lrs, wds = [0.01, 0.05], [0.0, 0.001]
        grid_search(base, lrs, wds, out_dir=tmp_path / "grid")
        rows = []
        for lr in lrs:
            for wd in wds:
                res = run_experiment(replace(base, lr=lr, weight_decay=wd), out_dir=tmp_path / "cells")
                rows.append(
                    {
                        "lr": lr,
                        "wd": wd,
                        "val_acc": res.best_val_acc,
                        "test_acc": res.best_test_acc,
                        "failed": res.failed,
                        "run_id": res.run_id,
                        "total_steps": res.total_steps,
                    }
                )
        chosen = min(rows, key=lambda r: (-r["val_acc"], r["lr"], r["wd"]))
        accs = [r["test_acc"] for r in rows]
        table = {
            "study": "grid",
            "base": base.to_dict(),
            "axes": {"lrs": lrs, "wds": wds},
            "rows": rows,
            "chosen": {"lr": chosen["lr"], "wd": chosen["wd"]},
            "robustness": max(accs) - min(accs),
        }
        (tmp_path / "cells" / "grid.json").write_text(json.dumps(table, sort_keys=True, indent=2))
        assert tree_contents(tmp_path / "grid") == tree_contents(tmp_path / "cells")


def tree_contents(root):
    """Every file under root by relative path; summary.csv without its wall_ms column."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "summary.csv":
            out[path.relative_to(root)] = [
                {k: v for k, v in row.items() if k != "wall_ms"} for row in csv.DictReader(path.open())
            ]
        else:
            out[path.relative_to(root)] = path.read_bytes()
    return out


def test_library_reads_no_environment_and_starts_no_threads():
    """Studies run their cells in order: no worker-count knob, no pool."""
    found = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if node.module == "os":
                    modules += [f"os.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                modules = [f"os.{node.attr}"]
            else:
                continue
            for name in modules:
                if name.split(".")[0] in ("concurrent", "threading") or name in ("os.environ", "os.getenv"):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_tracer_hooks_name_harness_attributes():
    """bench/tracer.py wraps the reinit_lab.harness attributes named by its HOOKS keys."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "tracer.py").read_text())
    hooks = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"]
    )
    keys = ast.literal_eval(hooks)
    assert "OptimState.fresh" in keys
    missing = []
    for key in keys:
        obj = harness
        for part in key.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(key)
    assert missing == []


@pytest.mark.parametrize("kind", ["shrink_perturb", "full"])
def test_each_boundary_draws_fresh_parameters_once(monkeypatch, kind):
    draws = []

    def counting(*args, **kwargs):
        draws.append(args)
        return init_params(*args, **kwargs)

    monkeypatch.setattr(harness, "init_params", counting)
    monkeypatch.setattr(reinit, "init_params", counting)
    res = run_experiment(tiny_cfg(stages=3, reinit=ReinitSpec(kind)))
    assert not res.failed
    # the initial draw, then one per boundary; the event logs that draw's norm
    assert len(draws) == 1 + 2
    for event, t in zip(res.boundary_events, (1, 2)):
        fresh = init_params(tiny_net(), stage_seed(1, t))
        assert event.fresh_norm == harness.weight_norm(fresh.values)


def test_no_gradient_passes_read_no_grad_rows(monkeypatch):
    """Evaluation and teacher snapshots run NO_GRAD_ROWS rows per forward pass."""
    evaluate = spy(monkeypatch, harness, "forward", lambda params, x, *args, **kwargs: len(x))
    snapshot = spy(monkeypatch, distill, "forward", lambda params, x, *args, **kwargs: len(x))
    # 1,600 samples: test 400, val 120, train 1,080
    data = DataConfig(num_classes=4, dim=8, per_class=400, class_separation=3.0)
    run_experiment(tiny_cfg(data=data, epochs=2, stages=2, distill=DistillConfig(enabled=True)))
    per_epoch = [120, 256, 144]  # val, then test in NO_GRAD_ROWS blocks
    assert NO_GRAD_ROWS == 256 and evaluate == 2 * per_epoch
    assert snapshot == [256, 256, 256, 256, 56]


def test_runs_leave_numpy_ma_unimported(tmp_path):
    """np.unique imports numpy.ma, a megabyte of modules, on its first call; no run or chunk stream needs them."""
    rng = np.random.Generator(np.random.PCG64(3))
    n = 120
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, n, 6, 6) + rng.integers(0, 256, n * 36, dtype=np.uint8).tobytes())
    labels.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(list(np.arange(n) % 3)))
    code = """
import sys
from reinit_lab.data import make_chunks
from reinit_lab.harness import DataConfig, DistillConfig, RunConfig, prepare_data, run_experiment
from reinit_lab.nn import NetworkSpec
from reinit_lab.reinit import ReinitSpec

images, labels, out = sys.argv[1:]
sp = ReinitSpec("shrink_perturb")
desk = RunConfig(network=NetworkSpec(50, (32, 16), 10), data=DataConfig(per_class=30), epochs=4, stages=2, reinit=sp)
img = RunConfig(
    network=NetworkSpec(36, (16,), 3), data=DataConfig(source="idx", images_path=images, labels_path=labels),
    setting="dcw", epochs=4, stages=2, reinit=sp, distill=DistillConfig(enabled=True), noise_q=0.2,
)
for cfg in (desk, img):
    bundle = prepare_data(cfg)
    make_chunks(bundle.train, 3, seed=0)
    assert not run_experiment(cfg, bundle, out).failed
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""
    proc = run_fresh_process("-c", code, str(images), str(labels), str(tmp_path / "runs"), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestStudyRunDirectories:
    """A named base run must not make the cells of a study share one run directory."""

    def run_dirs(self, root):
        return sorted(p.name for p in root.iterdir() if (p / "config.json").exists())

    def test_grid_cells_get_their_own_directories(self, tmp_path):
        grid = grid_search(tiny_cfg(epochs=2, run_name="exp"), [0.01, 0.05], [0.0], out_dir=tmp_path)
        ids = [cell["run_id"] for cell in grid["rows"]]
        assert len(set(ids)) == 2
        assert self.run_dirs(tmp_path) == sorted(ids)
        for cell in grid["rows"]:
            saved = json.loads((tmp_path / cell["run_id"] / "config.json").read_text())
            assert saved["lr"] == cell["lr"]

    def test_stage_sweep_arms_get_their_own_directories(self, tmp_path):
        base = tiny_cfg(epochs=4, stages=2, reinit=ReinitSpec("shrink_perturb"), run_name="exp")
        rows = stage_sweep(base, (1, 2, 4), out_dir=tmp_path)["rows"]
        assert len({r["run_id"] for r in rows}) == 3
        assert self.run_dirs(tmp_path) == sorted(r["run_id"] for r in rows)

    def test_noise_study_cells_get_their_own_directories(self, tmp_path):
        base = tiny_cfg(epochs=4, stages=2, run_name="exp")
        rows = noise_study(base, (0.0, 0.3), ("standard", "sp"), out_dir=tmp_path)["rows"]
        assert len(rows) == 6  # 2 q values x (standard, its half-budget arm, sp)
        assert len({r["run_id"] for r in rows}) == 6
        assert self.run_dirs(tmp_path) == sorted(r["run_id"] for r in rows)

    def test_unnamed_cells_keep_content_addressed_ids(self):
        base = tiny_cfg(epochs=4, stages=2, reinit=ReinitSpec("shrink_perturb"))
        [row] = stage_sweep(base, (2,))["rows"]
        assert row["run_id"] == base.run_id


RUN_FIELDS = {"run_id", "failed", "val_acc", "test_acc", "total_steps"}
# each study with its axes, given out of order and as tuples
STUDIES = {
    "grid": (grid_search, {"lrs": (0.05, 0.01), "wds": (0.0,)}),
    "stage_sweep": (stage_sweep, {"t_values": (2, 1)}),
    "noise_study": (noise_study, {"q_values": (0.3, 0.0), "methods": ("sp", "standard")}),
    "online_sim": (online_sim, {"methods": ("warm_start", "scratch")}),
}
DERIVED = {"grid": {"chosen", "robustness"}}


@pytest.mark.parametrize("kind", sorted(STUDIES), ids=lambda kind: f"{kind}.json")
def test_every_study_returns_what_it_writes(kind, tmp_path):
    base = tiny_cfg(epochs=2, stages=2, reinit=ReinitSpec("shrink_perturb"))
    study_fn, axes = STUDIES[kind]
    study = study_fn(base, *axes.values(), out_dir=tmp_path)
    assert study == json.loads((tmp_path / f"{kind}.json").read_text())
    assert set(study) == {"study", "base", "axes", "rows"} | DERIVED.get(kind, set())
    assert study["study"] == kind
    assert RunConfig.from_dict(study["base"]) == base
    assert study["axes"] == {name: list(values) for name, values in axes.items()}
    rows = study["rows"] + [chunk for row in study["rows"] for chunk in row.get("chunks", [])]
    assert rows and all(RUN_FIELDS <= set(row) for row in rows)


def test_a_numpy_axis_gives_the_study_of_its_python_values(tmp_path):
    base = tiny_cfg(epochs=2, stages=2, reinit=ReinitSpec("shrink_perturb"))
    study = stage_sweep(base, np.array([1, 2]), out_dir=tmp_path / "np")
    assert study == json.loads((tmp_path / "np" / "stage_sweep.json").read_text())
    assert study == stage_sweep(base, [1, 2])


@pytest.mark.parametrize(
    "study",
    [
        lambda base, out: grid_search(base, [0.05], [0.0], out_dir=out),
        lambda base, out: stage_sweep(base, (2, 4), out_dir=out),
        lambda base, out: noise_study(base, (0.0,), ("standard", "sp"), out_dir=out),
    ],
    ids=["grid", "stage_sweep", "noise_study"],
)
def test_only_online_sim_takes_an_online_base(study, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "prepare_data", None)  # a study that got this far would fail on this
    phrase = "study base config key online must be false; online_sim makes its own cells online"
    with pytest.raises(ConfigurationError, match=phrase):
        study(tiny_cfg(epochs=4, stages=2, online=True), tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "study",
    [
        lambda base, out: grid_search(base, [], [0.0], out_dir=out),
        lambda base, out: grid_search(base, [0.05], [], out_dir=out),
        lambda base, out: stage_sweep(base, (), out_dir=out),
        lambda base, out: noise_study(base, (), ("sp",), out_dir=out),
        lambda base, out: noise_study(base, (0.0, 0.3), (), out_dir=out),
        lambda base, out: online_sim(base, (), out_dir=out),
    ],
    ids=["grid_lrs", "grid_wds", "stage_sweep", "noise_q", "noise_methods", "online"],
)
def test_a_study_with_no_cells_is_rejected_before_data_is_prepared(study, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "prepare_data", None)  # a study that got this far would fail on this
    with pytest.raises(ConfigurationError, match="the study has no cells to run"):
        study(tiny_cfg(epochs=2, stages=2), tmp_path)
    assert list(tmp_path.iterdir()) == []


class TestStageSweep:
    def test_equal_compute_across_stage_counts(self, tmp_path):
        base = tiny_cfg(epochs=4, reinit=ReinitSpec("shrink_perturb"), stages=2)
        rows = stage_sweep(base, (1, 2, 4), out_dir=tmp_path)["rows"]
        assert [r["stages"] for r in rows] == [1, 2, 4]
        assert len({r["total_steps"] for r in rows}) == 1
        assert (tmp_path / "stage_sweep.json").exists()

    def test_stage_sweep_prepares_data_once(self, monkeypatch):
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return prepare_data(cfg)

        monkeypatch.setattr(harness, "prepare_data", counting)
        base = tiny_cfg(epochs=4, stages=2, reinit=ReinitSpec("shrink_perturb"))
        rows = stage_sweep(base, (1, 2, 4))["rows"]
        assert len(rows) == 3
        assert len(calls) == 1

    def test_non_dividing_stage_count_rejected(self):
        with pytest.raises(ConfigurationError, match="parity"):
            stage_sweep(tiny_cfg(epochs=6), (4,))

    def test_diverged_arm_is_a_failed_row(self, tmp_path):
        # the T=6 arm hits a non-finite loss at step 33 while T=3 completes its 42 steps
        base = RunConfig(
            network=NetworkSpec(50, (64, 32), 10, block_boundaries=(1, 2)),
            data=DataConfig(per_class=120),
            lr=0.1,
            epochs=6,
            stages=3,
            reinit=ReinitSpec("layer_wise"),
            distill=DistillConfig(enabled=True, beta=1.0),
            seeds=Seeds(3, 4, 5, 6),
        )
        study = stage_sweep(base, (3, 6), out_dir=tmp_path)
        assert [(r["stages"], r["failed"], r["total_steps"]) for r in study["rows"]] == [(3, False, 42), (6, True, 33)]
        assert json.loads((tmp_path / "stage_sweep.json").read_text()) == study

    def test_layer_wise_repeats_scale_with_stages(self, monkeypatch):
        # each arm repeats the 3 blocks stages / 3 times; every cell is checked before one runs
        layerwise_reinit = reinit.layerwise_reinit
        repeats = []

        def recording(theta, theta_init, t, m, *rest):
            repeats.append((t, m))
            layerwise_reinit(theta, theta_init, t, m, *rest)

        monkeypatch.setattr(reinit, "layerwise_reinit", recording)
        base = tiny_cfg(epochs=6, stages=3, reinit=ReinitSpec("layer_wise"))
        rows = stage_sweep(base, (3, 6))["rows"]
        assert [r["stages"] for r in rows] == [3, 6]
        assert repeats == [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2)]
        monkeypatch.setattr(harness, "run_experiment", None)  # a cell that ran would fail on this
        with pytest.raises(ConfigurationError, match="multiple"):
            stage_sweep(base, (3, 2))


class TestNoiseStudy:
    def test_rows_and_memorization(self):
        # the half-budget arm floors an odd epoch count: 5 epochs give standard@2ep too
        for epochs in (4, 5):
            rows = noise_study(tiny_cfg(epochs=epochs, stages=2), (0.0, 0.3), ("standard", "sp"))["rows"]
            # per q: standard, its half-budget arm, sp
            assert len(rows) == 6
            methods = [r["method"] for r in rows[:3]]
            assert methods == ["standard", "standard@2ep", "sp"]
            assert (rows[0]["epochs"], rows[0]["total_steps"]) == (epochs, epochs * STEPS_PER_EPOCH)
            assert (rows[1]["epochs"], rows[1]["total_steps"]) == (2, 2 * STEPS_PER_EPOCH)
            for r in rows:
                if r["q"] == 0.0:
                    assert r["memorization"] is None
                else:
                    assert 0.0 <= r["memorization"] <= 1.0

    def test_memorization_scores_the_noisy_labels(self, tmp_path):
        base = tiny_cfg(epochs=4)
        [row, _] = noise_study(base, (0.5,), ("standard",), out_dir=tmp_path)["rows"]
        params, _ = load_checkpoint(tmp_path / row["run_id"] / "best.ckpt")
        bundle = prepare_data(replace(base, noise_q=0.5))
        rows = np.flatnonzero(bundle.noise_mask)
        noisy = evaluate_accuracy(params, subset(bundle.train, rows))
        # the clean labels (the same split at q = 0) score otherwise, so reading them would show
        clean = prepare_data(base).train
        assert noisy != evaluate_accuracy(params, subset(replace(bundle.train, labels=clean.labels), rows))
        assert row["memorization"] == noisy

    def test_accuracy_on_index_rows_equals_the_gathered_copy_without_making_it(self):
        params = init_params(NetworkSpec(64, (16,), 4), 3)
        rng = np.random.Generator(np.random.PCG64(5))
        inputs = rng.standard_normal((3000, 64)).astype(np.float32)
        labels = rng.integers(0, 4, 3000)
        rows = np.flatnonzero(rng.random(3000) < 0.4)
        assert rows.size > 4 * NO_GRAD_ROWS
        ds = Dataset(inputs, labels, 4)
        want = evaluate_accuracy(params, subset(ds, rows))
        assert evaluate_accuracy(params, ds, rows) == want
        # _memorization scores the corrupted rows this way, one NO_GRAD_ROWS chunk at a time
        assert traced_peak(lambda: evaluate_accuracy(params, ds, rows)) < inputs[rows].nbytes / 2

    def test_compute_parity_between_methods(self):
        base = tiny_cfg(epochs=4, stages=2)
        rows = noise_study(base, (0.2,), ("standard", "sp"))["rows"]
        full = [r for r in rows if r["method"] in ("standard", "sp")]
        assert full[0]["total_steps"] == full[1]["total_steps"]

    def test_bad_q_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_study(tiny_cfg(), (1.5,), ("standard",))

    def test_each_q_prepares_its_data_just_before_its_cells(self, monkeypatch):
        events = []

        def preparing(cfg):
            events.append(("prepare", cfg.noise_q))
            return prepare_data(cfg)

        def running(cfg, bundle, out_dir=None):
            events.append(("run", cfg.noise_q))
            return run_experiment(cfg, bundle, out_dir)

        monkeypatch.setattr(harness, "prepare_data", preparing)
        monkeypatch.setattr(harness, "run_experiment", running)
        noise_study(tiny_cfg(epochs=2, stages=2), (0.0, 0.3), ("standard", "sp"))
        # per q: its data, then standard, its one-epoch arm and sp
        assert events == [("prepare", 0.0), *[("run", 0.0)] * 3, ("prepare", 0.3), *[("run", 0.3)] * 3]

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="method"):
            noise_study(tiny_cfg(), (0.1,), ("sgd",))

    def test_shrink_perturb_methods_run_the_base_factors(self, tmp_path, monkeypatch):
        ran = {}

        def recording(cfg, bundle, out_dir=None):
            ran[cfg.run_name] = cfg
            return run_experiment(cfg, bundle, out_dir)

        monkeypatch.setattr(harness, "run_experiment", recording)
        sp = ReinitSpec("shrink_perturb", lam=0.6, gamma=0.2)
        base = tiny_cfg(epochs=2, stages=2, reinit=sp, run_name="exp")
        noise_study(base, (0.3,), ("sp", "sp_distill", "full"), out_dir=tmp_path)
        assert ran["exp-q0.3-sp"].reinit == ran["exp-q0.3-sp_distill"].reinit == sp
        assert ran["exp-q0.3-full"].reinit == ReinitSpec("full")
        saved = json.loads((tmp_path / "exp-q0.3-sp_distill" / "config.json").read_text())
        assert (saved["reinit"]["lam"], saved["reinit"]["gamma"]) == (0.6, 0.2)

    def test_one_stage_base_rejects_the_methods_that_reinitialize(self, monkeypatch):
        monkeypatch.setattr(harness, "prepare_data", None)  # a cell that ran would fail on this
        for method in ("sp", "sp_distill", "full", "full_distill"):
            # a 1-stage run reaches no boundary, so it takes no re-init rule
            with pytest.raises(ConfigurationError, match="run config key reinit applies only to staged True, not to staged False"):
                noise_study(tiny_cfg(), (0.0,), ("standard", method))

    def test_earlier_data_is_dropped_before_the_next_q_is_prepared(self, monkeypatch):
        prepared, alive = [], []

        def preparing(cfg):
            gc.collect()
            alive.append(sum(ref() is not None for ref in prepared))
            bundle = prepare_data(cfg)
            prepared.append(weakref.ref(bundle))
            return bundle

        monkeypatch.setattr(harness, "prepare_data", preparing)
        noise_study(tiny_cfg(epochs=2, stages=2), (0.0, 0.2, 0.3), ("sp",))
        # how many earlier bundles are alive as each noise fraction's data is prepared
        assert alive == [0, 0, 0]


class TestOnlineSim:
    def test_chunk_one_identical_across_methods(self):
        rows = online_sim(tiny_cfg(epochs=6, stages=3))["rows"]
        assert [row["method"] for row in rows] == list(harness.ONLINE_METHODS)
        first = [row["chunks"][0] for row in rows]
        assert first[0]["test_acc"] == first[1]["test_acc"] == first[2]["test_acc"]
        assert first[0]["final_test_acc"] == first[1]["final_test_acc"] == first[2]["final_test_acc"]

    def test_train_size_grows_linearly(self, tmp_path):
        [scratch, *_] = online_sim(tiny_cfg(epochs=6, stages=3), out_dir=tmp_path)["rows"]
        assert [chunk["train_size"] for chunk in scratch["chunks"]] == [36, 72, 108]
        # the method's row is its whole run: the chunks' steps add up to the run's
        assert scratch["total_steps"] == sum(chunk["total_steps"] for chunk in scratch["chunks"])
        assert (tmp_path / "online_sim.json").exists()

    def test_chunk_starts_follow_the_transition_rules(self, monkeypatch):
        boundaries = []

        def recording(rspec, theta_end, seed, t, *rest):
            start, fresh_norm = reinit.apply_reinit(rspec, theta_end, seed, t, *rest)
            boundaries.append((rspec.kind, t, theta_end.values.copy(), start.values.copy()))
            return start, fresh_norm

        monkeypatch.setattr(harness, "apply_reinit", recording)
        cfg = tiny_cfg(epochs=6, stages=3, reinit=ReinitSpec("shrink_perturb", lam=0.3, gamma=0.2))
        online_sim(cfg)
        # one run per method, in order; boundary t starts chunk t + 1
        kinds = ["full", "none", "shrink_perturb"]  # scratch, warm_start, shrink_perturb
        assert [(kind, t) for kind, t, _, _ in boundaries] == [(kind, t) for kind in kinds for t in (1, 2)]
        for kind, t, end, start in boundaries:
            fresh = init_params(cfg.network, stage_seed(cfg.seeds.init, t)).values
            expected = {"full": fresh, "none": end, "shrink_perturb": (0.3 * end + 0.2 * fresh).astype(np.float32)}
            assert np.array_equal(start, expected[kind])

    def test_repeated_method_is_rejected_before_data_is_prepared(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "prepare_data", None)  # a study that got this far would fail on this
        with pytest.raises(ConfigurationError, match="repeated cells: run ids"):
            online_sim(tiny_cfg(epochs=4, stages=2), methods=("scratch", "warm_start", "scratch"), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_a_method_replays_from_its_config_json_alone(self, tmp_path):
        [row] = online_sim(tiny_cfg(epochs=4, stages=2), ("shrink_perturb",), out_dir=tmp_path / "study")["rows"]
        written = tmp_path / "study" / row["run_id"]
        run_experiment(RunConfig.from_dict(read_json(written / "config.json")), out_dir=tmp_path / "replay")
        for name in ("metrics.jsonl", "best.ckpt", "config.json"):
            assert (tmp_path / "replay" / row["run_id"] / name).read_bytes() == (written / name).read_bytes(), name

    def test_the_base_rule_of_the_method_kind_is_in_the_config(self, tmp_path):
        """A tuned shrink-perturb base and a default base run the method with
        different factors, so their configs differ beyond run_name."""
        configs = []
        for name, rule in (("tuned", ReinitSpec("shrink_perturb", 0.6, 0.2)), ("default", ReinitSpec("none"))):
            [row] = online_sim(tiny_cfg(epochs=4, stages=2, reinit=rule), ("shrink_perturb",), out_dir=tmp_path / name)["rows"]
            config = read_json(tmp_path / name / row["run_id"] / "config.json")
            configs.append({key: value for key, value in config.items() if key != "run_name"})
        assert configs[0]["reinit"] == {"kind": "shrink_perturb", "lam": 0.6, "gamma": 0.2}
        assert configs[0] != configs[1]

    def test_an_online_run_needs_two_stages(self):
        phrase = "run config key online applies only to staged True, not to staged False; leave it at False, got True"
        with pytest.raises(ConfigurationError, match=phrase):
            tiny_cfg(online=True, stages=1)

    def test_an_online_layer_wise_run_takes_its_stats_batch_from_chunk_one(self, monkeypatch):
        cfg = RunConfig(
            NetworkSpec(50, (32, 16), 10, block_boundaries=(1, 2)),
            DataConfig(per_class=60),
            epochs=3,
            stages=3,
            online=True,
            reinit=ReinitSpec("layer_wise"),
        )
        bundle = prepare_data(cfg)
        # apply_reinit(spec, params, seed, boundary, init_norms, stats_batch, stages)
        batches = spy(monkeypatch, harness, "apply_reinit", lambda *args: args[5])
        run_experiment(cfg, bundle)
        chunk_one = make_chunks(bundle.train, 3, stage_seed(cfg.seeds.data, harness.CHUNK_TAG))[0]
        arrived = {row.tobytes() for row in bundle.train.rows(chunk_one)}
        assert len(batches) == 2
        for batch in batches:
            assert batch.shape[0] == min(256, chunk_one.shape[0])
            assert all(row.tobytes() in arrived for row in batch)

    def test_a_diverged_method_is_a_failed_row(self):
        with np.errstate(over="ignore", invalid="ignore"):
            [row] = online_sim(tiny_cfg(lr=1e18, epochs=4, stages=2), ("warm_start",))["rows"]
        [first, second] = row["chunks"]
        assert row["failed"] and row["total_steps"] == 1
        assert first["failed"] and first["final_test_acc"] is None and first["total_steps"] == 1
        assert second["failed"] and second["total_steps"] == 0

    def test_a_chunk_row_reads_its_own_stage(self):
        cfg = tiny_cfg(epochs=4, stages=2, online=True)
        bundle = prepare_data(cfg)
        res = run_experiment(cfg, bundle)
        # the run as a divergence one step into the second stage's second epoch would leave it
        cut = replace(res, records=res.records[:3], counters={"optimizer_steps": res.records[2].step + 1}, failure="x")
        first, second = harness._chunk_rows(cut, bundle)["chunks"]
        assert (first["failed"], first["total_steps"], first["train_size"]) == (False, res.records[1].step, TRAIN_N // 2)
        assert first["final_test_acc"] == res.records[1].test_acc
        assert (second["failed"], second["total_steps"], second["train_size"]) == (True, STEPS_PER_EPOCH + 1, TRAIN_N)
        assert second["test_acc"] == second["final_test_acc"] == res.records[2].test_acc

    @pytest.mark.parametrize(
        "change, phrase",
        [
            # a 1-stage base holds one chunk, so no method reaches a boundary
            ({"stages": 1}, "online_sim needs a base config of 2 or more stages, one per chunk, got 1"),
            ({"distill": DistillConfig(enabled=True, beta=0.5)}, "online chunks train without distillation"),
        ],
        ids=["stages", "distill"],
    )
    def test_base_that_chunks_would_ignore_is_rejected_before_any_run(self, tmp_path, monkeypatch, change, phrase):
        monkeypatch.setattr(harness, "prepare_data", None)  # a study that got this far would fail on this
        with pytest.raises(ConfigurationError, match=phrase):
            online_sim(tiny_cfg(epochs=4, **{"stages": 2, **change}), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            online_sim(tiny_cfg())
        with pytest.raises(ConfigurationError):
            online_sim(tiny_cfg(stages=2), methods=("replay",))
