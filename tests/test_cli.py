"""CLI contract tests: exit codes, JSON output, flag plumbing."""
import json
import math
import shutil
import subprocess
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reinit_lab.cli as cli
import reinit_lab.harness as harness
import reinit_lab.reinit as reinit
from reinit_lab.cli import DEFAULT_T_VALUES, build_config, main, make_parser
from reinit_lab.harness import DataConfig, DistillConfig, RunConfig, RunResult, Seeds, online_sim
from reinit_lab.nn import NetworkSpec, init_params, weight_norm
from reinit_lab.reinit import ReinitSpec
from reinit_lab.runio import MetricsRecord, load_checkpoint, write_json
from helpers import run_fresh_process, write_csv, write_idx


@pytest.fixture
def tiny_config_file(tmp_path):
    cfg = RunConfig(
        network=NetworkSpec(8, (10, 6), 4, block_boundaries=(1, 2)),
        data=DataConfig(num_classes=4, dim=8, per_class=40, class_separation=3.0),
        lr=0.05,
        epochs=6,
        batch_size=25,
        seeds=Seeds(1, 2, 3, 4),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


def parse_args(argv):
    return make_parser().parse_args(argv)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    payload = captured.out or captured.err
    return code, json.loads(payload.strip().splitlines()[-1])


class TestBuildConfig:
    def test_seed_flag_derives_all_four(self, tiny_config_file):
        args = parse_args(["train", "--config", tiny_config_file, "--seed", "9"])
        cfg = build_config(args)
        assert cfg.seeds == Seeds(9, 10, 11, 12)

    def test_reinit_tokens(self, tiny_config_file):
        for token, kind in [("none", "none"), ("sp", "shrink_perturb"), ("full", "full")]:
            args = parse_args(["train", "--config", tiny_config_file, "--reinit", token, "--stages", "2"])
            assert build_config(args).reinit.kind == kind

    def test_sp_defaults_and_overrides(self, tiny_config_file):
        args = parse_args(["train", "--config", tiny_config_file, "--reinit", "sp"])
        cfg = build_config(args)
        assert (cfg.reinit.lam, cfg.reinit.gamma) == (0.4, 0.1)
        args = parse_args(
            ["train", "--config", tiny_config_file, "--reinit", "sp", "--lambda", "0.3", "--gamma", "0.2"]
        )
        cfg = build_config(args)
        assert (cfg.reinit.lam, cfg.reinit.gamma) == (0.3, 0.2)

    def test_layerwise_token_sizes_to_network(self, tiny_config_file, tmp_path, monkeypatch, capsys):
        # three blocks, six stages: the run keeps each block for two boundaries
        layerwise_reinit = reinit.layerwise_reinit
        kept = []

        def recording(*args):
            layerwise_reinit(*args)
            kept.append(args[1].frozen_norm.insert_after_block)

        monkeypatch.setattr(reinit, "layerwise_reinit", recording)
        argv = ["train", "--config", tiny_config_file, "--stages", "6", "--reinit", "layerwise"]
        assert build_config(parse_args(argv)).reinit == ReinitSpec("layer_wise")
        code, payload = run_main([*argv, "--out", str(tmp_path / "runs")], capsys)
        assert code == 0
        assert kept == [1, 1, 2, 2, 3]

    def test_lambda_or_gamma_alone_changes_only_its_own_factor(self, tmp_path):
        d = json.loads(json.dumps(RunConfig(network=NetworkSpec(8, (10, 6), 4)).to_dict()))
        d["reinit"] = {"kind": "shrink_perturb", "lam": 0.6, "gamma": 0.2}
        path = tmp_path / "sp.json"
        path.write_text(json.dumps(d))
        for flags, want in [(["--gamma", "0.3"], (0.6, 0.3)), (["--lambda", "0.5"], (0.5, 0.2))]:
            cfg = build_config(parse_args(["train", "--config", str(path), *flags]))
            assert (cfg.reinit.kind, cfg.reinit.lam, cfg.reinit.gamma) == ("shrink_perturb", *want)

    def test_lambda_without_sp_rejected(self, tiny_config_file):
        from reinit_lab.errors import ConfigurationError

        args = parse_args(["train", "--config", tiny_config_file, "--lambda", "0.3"])
        with pytest.raises(ConfigurationError, match="--reinit sp"):
            build_config(args)
        args = parse_args(["train", "--config", tiny_config_file, "--reinit", "full", "--lambda", "0.3"])
        phrase = "reinit key lam applies only to kind shrink_perturb, not to kind 'full'; leave it at None, got 0.3"
        with pytest.raises(ConfigurationError, match=phrase):
            build_config(args)

    def test_distill_beta_zero_disables(self, tiny_config_file):
        args = parse_args(["train", "--config", tiny_config_file, "--distill-beta", "0"])
        cfg = build_config(args)
        assert cfg.distill == DistillConfig()
        args = parse_args(["train", "--config", tiny_config_file, "--distill-beta", "0.5"])
        cfg = build_config(args)
        assert cfg.distill.enabled and cfg.distill.beta == 0.5


    def test_default_t_values_divide_the_default_epochs(self):
        # the stages command runs at its defaults only if every default T splits the budget evenly
        epochs = build_config(parse_args(["stages"])).epochs
        assert [t for t in DEFAULT_T_VALUES if epochs % t] == []


class TestMain:
    def test_train_happy_path(self, tiny_config_file, tmp_path, capsys):
        out = str(tmp_path / "runs")
        code, payload = run_main(
            ["train", "--config", tiny_config_file, "--epochs", "2", "--out", out], capsys
        )
        assert code == 0
        assert payload["failed"] is False
        assert payload["total_steps"] == 2 * 5
        assert (tmp_path / "runs" / payload["run_id"] / "metrics.jsonl").exists()

    def test_missing_config_reports_oserror(self, capsys):
        code, payload = run_main(["train", "--config", "/nope/missing.json"], capsys)
        assert code == 2
        assert payload["error"] == "OSError"

    def test_bad_flag_combo_reports_configuration_error(self, tiny_config_file, capsys):
        code, payload = run_main(
            ["train", "--config", tiny_config_file, "--stages", "4", "--reinit", "layerwise"],
            capsys,
        )
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert "divisible" in payload["message"]

    def test_unknown_config_key_reports_configuration_error(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"epoch": 3}))
        code, payload = run_main(["train", "--config", str(path)], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert "epoch" in payload["message"]

    @pytest.mark.parametrize(
        "config, names",
        [
            ({}, ["missing run config keys: network"]),
            (
                {"network": {"input_dim": 8, "hidden_dim": [10], "num_classes": 4}},
                ["unknown network keys: hidden_dim", "missing network keys: hidden_dims"],
            ),
            # a config.json written while NetworkSpec had an activation field
            (
                {"network": {"input_dim": 8, "hidden_dims": [10], "num_classes": 4, "activation": "relu"}},
                ["unknown network keys: activation"],
            ),
        ],
    )
    def test_missing_network_keys_report_configuration_error(self, tmp_path, capsys, config, names):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(config))
        code, payload = run_main(["train", "--config", str(path), "--out", str(tmp_path / "runs")], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        for name in names:
            assert name in payload["message"]
        assert not (tmp_path / "runs").exists()

    def test_unknown_rescale_mode_leaves_no_run_directory(self, tiny_config_file, tmp_path, capsys):
        # both retired keys, at their old values, now fail the unknown-key check
        for key, value in (("rescale_mode", "per_block"), ("reset_optimizer_on_stage", True)):
            config = json.loads(Path(tiny_config_file).read_text())
            config.update(stages=2, reinit={"kind": "shrink_perturb"}, **{key: value})
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / "runs"
            code, payload = run_main(["train", "--config", str(path), "--out", str(out)], capsys)
            assert code == 2
            assert payload["error"] == "ConfigurationError"
            assert f"unknown run config keys: {key}" in payload["message"]
            assert not out.exists()

    def test_retired_layer_wise_keys_leave_no_run_directory(self, tiny_config_file, tmp_path, capsys):
        config = json.loads(Path(tiny_config_file).read_text())
        config.update(stages=6, reinit={"kind": "layer_wise", "blocks": 3, "repeats": 2})
        path = tmp_path / "old.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        code, payload = run_main(["train", "--config", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert "unknown reinit keys: blocks, repeats" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, change, phrase",
        [
            ("distill", {"enabled": True, "beta": math.nan}, "distill key beta must be a finite number, got nan"),
            (None, {"lr": math.nan}, "run config key lr must be a finite number, got nan"),
            (None, {"lr": math.inf}, "run config key lr must be a finite number, got inf"),
            (None, {"weight_decay": -math.inf}, "run config key weight_decay must be a finite number, got -inf"),
        ],
        ids=["nan_beta", "nan_lr", "inf_lr", "minus_inf_wd"],
    )
    def test_non_finite_config_value_leaves_no_run_directory(
        self, tiny_config_file, tmp_path, capsys, section, change, phrase
    ):
        config = json.loads(Path(tiny_config_file).read_text())
        if section is None:
            config.update(change)
        else:
            config[section] = config[section] | change
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))  # writes NaN, Infinity, -Infinity, which json.load reads back
        out = tmp_path / "runs"
        code, payload = run_main(["train", "--config", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert phrase in payload["message"]
        assert not out.exists()

    def test_truncated_config_reports_format_error(self, tiny_config_file, tmp_path, capsys):
        path = tmp_path / "torn.json"
        path.write_text(Path(tiny_config_file).read_text()[:40])
        out = tmp_path / "runs"
        code, payload = run_main(["train", "--config", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert payload["error"] == "FormatError"
        assert str(path) in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, damage",
        [("config.json", lambda raw: raw[: len(raw) // 2]), ("metrics.jsonl", lambda raw: raw[:-2] + b"\xff\n")],
        ids=["torn_config", "non_utf8_metrics"],
    )
    def test_inspect_reports_unreadable_run_files(self, tiny_config_file, tmp_path, capsys, name, damage):
        out = str(tmp_path / "runs")
        code, payload = run_main(["train", "--config", tiny_config_file, "--epochs", "2", "--out", out], capsys)
        assert code == 0
        path = tmp_path / "runs" / payload["run_id"] / name
        path.write_bytes(damage(path.read_bytes()))
        code, payload = run_main(["inspect", payload["run_id"], "--out", out], capsys)
        assert code == 2
        assert payload["error"] == "FormatError"
        assert str(path) in payload["message"]

    @pytest.mark.parametrize(
        "network, phrases",
        [
            ({"input_dim": 40, "hidden_dims": [16], "num_classes": 10}, ("input_dim 40", "50 features")),
            ({"input_dim": 50, "hidden_dims": [16], "num_classes": 5}, ("span 10 classes", "num_classes 5")),
        ],
        ids=["input_width", "label_range"],
    )
    def test_network_that_does_not_fit_the_data_leaves_no_run_directory(self, tmp_path, capsys, network, phrases):
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps({"network": network, "epochs": 2}))
        out = tmp_path / "runs"
        code, payload = run_main(["train", "--config", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        for phrase in phrases:
            assert phrase in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config, phrase",
        [
            (["--seed", "-5"], {}, "seeds key init must be >= 0, got -5"),
            ([], {"seeds": {"init": 1.5}}, "seeds key init must be an integer, got 1.5"),
            ([], {"epochs": "4"}, "run config key epochs must be an integer, got '4'"),
        ],
        ids=["negative_seed", "float_seed", "string_epochs"],
    )
    def test_bad_seed_or_value_type_leaves_no_run_directory(
        self, tiny_config_file, tmp_path, capsys, flags, config, phrase
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(json.loads(Path(tiny_config_file).read_text()) | config))
        out = tmp_path / "runs"
        code, payload = run_main(["train", "--config", str(path), "--out", str(out), *flags], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert phrase in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, change, phrase",
        [
            ("network", {"hidden_dims": ["a"]}, "network key hidden_dims must be an array of integers, got ['a']"),
            ("network", {"hidden_dims": ["16"]}, "network key hidden_dims must be an array of integers, got ['16']"),
            ("network", {"hidden_dims": [16.7]}, "network key hidden_dims must be an array of integers, got [16.7]"),
            ("network", {"block_boundaries": [True]}, "block_boundaries must be an array of integers, got [True]"),
            ("data", {"image_hw": [2.0, 4]}, "data key image_hw must be an array of two integers, got [2.0, 4]"),
            ("data", {"image_hw": [2, 4, 1]}, "data key image_hw must be an array of two integers, got [2, 4, 1]"),
            (None, {"run_name": 5}, "run config key run_name must be a string, got 5"),
            (
                "data",
                {"source": "idx", "images_path": 5, "labels_path": "labels.idx"},
                "data key images_path must be a string, got 5",
            ),
            ("distill", {"enabled": "no"}, "distill key enabled must be true or false, got 'no'"),
            *[
                ("data", {**files, key: ""}, f"data key {key} must be a non-empty string, got ''")
                for files in (
                    {
                        "source": "idx", "images_path": "i.idx", "labels_path": "l.idx",
                        "test_images_path": "t.idx", "test_labels_path": "u.idx",
                    },
                    {"source": "csv", "csv_path": "a.csv", "test_csv_path": "t.csv"},
                )
                for key in list(files)[1:]
            ],
        ],
        ids=[
            "letter_dim", "string_dim", "float_dim", "bool_boundary", "float_image_hw", "long_image_hw",
            "int_run_name", "int_images_path", "string_enabled",
            "empty_images_path", "empty_labels_path", "empty_test_images_path", "empty_test_labels_path",
            "empty_csv_path", "empty_test_csv_path",
        ],
    )
    def test_wrong_typed_config_value_leaves_no_run_directory(
        self, tiny_config_file, tmp_path, capsys, section, change, phrase
    ):
        config = json.loads(Path(tiny_config_file).read_text())
        if section is None:
            config.update(change)
        else:
            config[section] = config.get(section, {}) | change
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        code, payload = run_main(["train", "--config", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert phrase in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, phrase",
        [
            (["--q-values", "0", "--methods", "standard,bogus"], "unknown method 'bogus'"),
            (["--q-values", "0,1.5"], "noise_q must lie in [0, 1], got 1.5"),
        ],
        ids=["bad_method", "bad_q"],
    )
    def test_noise_study_checks_every_cell_before_it_runs_one(self, tmp_path, capsys, flags, phrase):
        out = tmp_path / "runs"
        # 10 epochs hold the default 5 stages, so the cells of q 0 are built before the bad one
        code, payload = run_main(["noise", "--epochs", "10", "--out", str(out), *flags], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert phrase in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["stages", "--t-values", "2,2"],
            ["grid", "--lrs", "0.05,0.05", "--wds", "0"],
            ["noise", "--q-values", "0.3,0.3", "--methods", "sp", "--stages", "2"],
            ["noise", "--q-values", "0.3", "--methods", "sp,sp", "--stages", "2"],
            ["online", "--stages", "2", "--methods", "scratch,scratch"],
        ],
        ids=["stages", "grid", "noise_q", "noise_method", "online"],
    )
    def test_repeated_study_cell_leaves_no_run_directory(self, tiny_config_file, tmp_path, capsys, argv):
        out = tmp_path / "runs"
        code, payload = run_main([*argv, "--config", tiny_config_file, "--epochs", "2", "--out", str(out)], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert "repeated" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, phrase",
        [
            ({"test_fraction": 0.0}, "data key test_fraction must lie strictly in (0, 1), got 0.0"),
            ({"val_fraction": 1.0}, "data key val_fraction must lie strictly in (0, 1), got 1.0"),
            # a shape numpy cannot represent, so nothing is allocated
            ({"num_classes": 10**20}, "num_classes x per_class x dim"),
        ],
        ids=["test_fraction", "val_fraction", "unshapeable_num_classes"],
    )
    def test_out_of_range_data_value_leaves_no_run_directory(
        self, tiny_config_file, tmp_path, capsys, change, phrase
    ):
        config = json.loads(Path(tiny_config_file).read_text())
        config["data"] |= change
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        code, payload = run_main(["train", "--config", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert phrase in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, phrase",
        [
            (["--lr", "nan"], "run config key lr must be a finite number, got nan"),
            (["--lr", "inf"], "run config key lr must be a finite number, got inf"),
            (["--wd", "inf"], "run config key weight_decay must be a finite number, got inf"),
            (["--distill-beta", "nan"], "distill key beta must be a finite number, got nan"),
        ],
        ids=["nan_lr", "inf_lr", "inf_wd", "nan_distill_beta"],
    )
    def test_non_finite_flag_leaves_no_run_directory(self, tiny_config_file, tmp_path, capsys, flags, phrase):
        out = tmp_path / "runs"
        code, payload = run_main(["train", "--config", tiny_config_file, "--out", str(out), *flags], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert phrase in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config, phrase",
        [
            (["--wd", "0.001"], {}, "run config key weight_decay applies only to setting dcw, not to setting 'none'"),
            (
                ["--setting", "d"],
                {"setting": "dc", "eta_min": 0.001},
                "run config key eta_min applies only to setting dc or dcw, not to setting 'd'",
            ),
            (
                [],
                {"augment": {"pad_pixels": 1}},
                "run config key augment applies only to setting d or dc or dcw, not to setting 'none'",
            ),
            (
                [],
                {"distill": {"enabled": False, "beta": 0.0}},
                "distill key beta applies only to enabled True, not to enabled False; leave it at 1.0, got 0.0",
            ),
        ],
        ids=["wd_flag", "eta_min_in_d", "augment_in_none", "beta_of_disabled_distill"],
    )
    def test_key_the_setting_ignores_leaves_no_run_directory(
        self, tiny_config_file, tmp_path, capsys, flags, config, phrase
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(json.loads(Path(tiny_config_file).read_text()) | config))
        out = tmp_path / "runs"
        code = main(["train", "--config", str(path), "--out", str(out), *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ConfigurationError" and phrase in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("key, left", [("test_fraction", 160), ("val_fraction", 120)])
    def test_split_that_empties_a_side_names_its_fraction(self, tiny_config_file, tmp_path, capsys, key, left):
        config = json.loads(Path(tiny_config_file).read_text())
        config["data"][key] = 0.001
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        code, payload = run_main(["train", "--config", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert f"data key {key} 0.001 leaves one side of {left} examples empty" in payload["message"]
        assert not out.exists()

    def test_network_too_large_to_shape_leaves_no_run_directory(self, tiny_config_file, tmp_path, capsys):
        config = json.loads(Path(tiny_config_file).read_text())
        config["network"]["num_classes"] = 10**30
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        code, payload = run_main(["train", "--config", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert "too many parameters" in payload["message"]
        assert not out.exists()

    def test_zero_stage_count_leaves_no_run_directory(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "runs"
        argv = ["stages", "--config", tiny_config_file, "--t-values", "0", "--epochs", "2", "--out", str(out)]
        code, payload = run_main(argv, capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert "run config key stages must be >= 1, got 0" in payload["message"]
        assert not out.exists()

    def test_augmentation_without_image_geometry_leaves_no_run_directory(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code, payload = run_main(["train", "--setting", "d", "--epochs", "1", "--out", str(out)], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"
        assert "image geometry" in payload["message"]
        assert not out.exists()

    def test_idx_test_files_on_a_csv_source_leave_no_run_directory(self, tmp_path, capsys):
        # the csv source never reads them: the run would report a test accuracy on a split of the csv
        rng = np.random.Generator(np.random.PCG64(4))
        write_csv(tmp_path / "train.csv", np.arange(60) % 2, rng.normal(size=(60, 4)))
        data = {
            "source": "csv", "csv_path": str(tmp_path / "train.csv"),
            "test_images_path": "missing-images.idx", "test_labels_path": "missing-labels.idx",
        }
        path = tmp_path / "csv-with-idx-test.json"
        network = {"input_dim": 4, "hidden_dims": [5], "num_classes": 2}
        path.write_text(json.dumps({"network": network, "data": data, "epochs": 1, "batch_size": 10}))
        out = tmp_path / "runs"
        code = main(["train", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {
            "error": "ConfigurationError",
            "message": "data key test_images_path applies only to source idx, not to source 'csv'; "
            "leave it at None, got 'missing-images.idx'",
        }
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, test_hw",
        [("csv", None), ("idx", (3, 3)), ("idx", (1, 4))],
        ids=["csv_width", "idx_size", "idx_geometry"],
    )
    def test_held_out_test_file_of_another_shape_leaves_no_run_directory(self, tmp_path, capsys, source, test_hw):
        rng = np.random.Generator(np.random.PCG64(4))
        labels = np.arange(60) % 2
        if source == "csv":
            files = tmp_path / "train.csv", tmp_path / "test.csv"
            write_csv(files[0], labels, rng.normal(size=(60, 4)))
            write_csv(files[1], labels[:10], rng.normal(size=(10, 3)))
            data = {"source": "csv", "csv_path": str(files[0]), "test_csv_path": str(files[1])}
        else:
            files = tmp_path / "train-images.idx", tmp_path / "test-images.idx"
            write_idx(files[0], tmp_path / "train-labels.idx", rng.integers(0, 256, (60, 2, 2)), labels)
            write_idx(files[1], tmp_path / "test-labels.idx", rng.integers(0, 256, (10, *test_hw)), labels[:10])
            data = {
                "source": "idx", "images_path": str(files[0]), "labels_path": str(tmp_path / "train-labels.idx"),
                "test_images_path": str(files[1]), "test_labels_path": str(tmp_path / "test-labels.idx"),
            }
        path = tmp_path / "held-out.json"
        network = {"input_dim": 4, "hidden_dims": [5], "num_classes": 2}
        path.write_text(json.dumps({"network": network, "data": data, "epochs": 1, "batch_size": 10}))
        out = tmp_path / "runs"
        code = main(["train", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ShapeError"
        assert str(files[0]) in payload["message"] and str(files[1]) in payload["message"]
        assert not out.exists()

    def test_inspect_round_trip(self, tiny_config_file, tmp_path, capsys):
        out = str(tmp_path / "runs")
        code, payload = run_main(["train", "--config", tiny_config_file, "--out", out], capsys)
        assert code == 0
        code, info = run_main(["inspect", payload["run_id"], "--out", out], capsys)
        assert code == 0
        assert info["epochs_logged"] == 6
        assert info["config"]["epochs"] == 6
        run_dir = Path(payload["run_dir"])
        vals = [json.loads(line)["val_acc"] for line in (run_dir / "metrics.jsonl").open()]
        assert vals.count(max(vals)) > 1 and vals[-1] != max(vals)  # a tie, and the last epoch is not in it
        # the first tied epoch, in inspect, in the run result and in best.ckpt
        assert info["best"]["val_acc"] == payload["best_val_acc"]
        assert info["best"]["epoch"] == payload["best_epoch"] == vals.index(max(vals)) + 1
        params, header = load_checkpoint(run_dir / "best.ckpt")
        assert header["epoch"] == info["best"]["epoch"]
        assert weight_norm(params.values) == info["best"]["weight_norm"]

    def test_inspect_unknown_run(self, tmp_path, capsys):
        code, payload = run_main(["inspect", "ghost", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert payload["error"] == "ConfigurationError"

    def test_grid_subcommand(self, tiny_config_file, tmp_path, capsys):
        code, payload = run_main(
            [
                "grid",
                "--config",
                tiny_config_file,
                "--epochs",
                "2",
                "--lrs",
                "0.01,0.05",
                "--wds",
                "0",
                "--out",
                str(tmp_path / "runs"),
            ],
            capsys,
        )
        assert code == 0
        assert payload["chosen"]["lr"] in (0.01, 0.05)
        assert len(payload["rows"]) == 2

    def test_online_subcommand(self, tiny_config_file, tmp_path, capsys):
        code, payload = run_main(
            [
                "online",
                "--config",
                tiny_config_file,
                "--epochs",
                "4",
                "--stages",
                "2",
                "--methods",
                "scratch,warm_start",
                "--out",
                str(tmp_path / "runs"),
            ],
            capsys,
        )
        assert code == 0
        assert [row["method"] for row in payload["rows"]] == ["scratch", "warm_start"]
        assert len(payload["rows"][0]["chunks"]) == 2

    @pytest.mark.parametrize(
        "flags, phrase",
        [
            # the config file's 1 stage is the chunk count when no --stages gives one
            ([], "an online run needs at least 2 stages, got 1"),
            (["--stages", "2", "--distill-beta", "0.5"], "online chunks train without distillation"),
            (["--distill-beta", "0.5"], "online chunks train without distillation"),
        ],
        ids=["stages", "distill", "both"],
    )
    def test_online_base_with_stages_or_distillation_leaves_no_run_directory(
        self, tiny_config_file, tmp_path, capsys, flags, phrase
    ):
        out = tmp_path / "runs"
        code = main(["online", "--config", tiny_config_file, *flags, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ConfigurationError" and phrase in payload["message"]
        assert not out.exists()

    def test_online_chunk_runs_can_be_inspected(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "runs"
        argv = ["online", "--config", tiny_config_file, "--epochs", "4", "--stages", "2", "--out", str(out)]
        code, payload = run_main(argv, capsys)
        assert code == 0
        cfg = replace(RunConfig.from_dict(json.loads(Path(tiny_config_file).read_text())), epochs=4, stages=2)
        for row in payload["rows"]:
            # one online run per method, whose stage k is chunk k
            chunks = row["chunks"]
            [run_id] = {row["run_id"]} | {chunk["run_id"] for chunk in chunks}
            code, info = run_main(["inspect", run_id, "--out", str(out)], capsys)
            assert code == 0
            assert info["config"]["online"] is True and info["config"]["stages"] == 2
            assert info["epochs_logged"] == 4
            assert info["last"]["test_acc"] == chunks[-1]["final_test_acc"]
            assert info["best"]["val_acc"] == row["val_acc"] == max(chunk["val_acc"] for chunk in chunks)
        # the study file is the one a simulation without run directories writes
        write_json(online_sim(cfg), tmp_path / "no_dirs.json")
        assert (out / "online_sim.json").read_bytes() == (tmp_path / "no_dirs.json").read_bytes()

    @pytest.mark.parametrize(
        "argv, study_file",
        [
            (["grid", "--lrs", "0.01,0.05", "--wds", "0"], "grid.json"),
            (["stages", "--t-values", "1,2", "--reinit", "sp"], "stage_sweep.json"),
            (["noise", "--q-values", "0,0.3", "--stages", "2"], "noise_study.json"),
            (["online", "--stages", "2"], "online_sim.json"),
        ],
        ids=["grid", "stages", "noise", "online"],
    )
    def test_study_command_prints_its_study_file(self, tiny_config_file, tmp_path, capsys, argv, study_file):
        out = tmp_path / "runs"
        code, payload = run_main([*argv, "--config", tiny_config_file, "--epochs", "2", "--out", str(out)], capsys)
        assert code == 0
        assert payload == json.loads((out / study_file).read_text())

    def test_bad_grid_values_report_error(self, tiny_config_file, capsys):
        code, payload = run_main(
            ["grid", "--config", tiny_config_file, "--lrs", "fast"], capsys
        )
        assert code == 2
        assert payload["error"] == "ConfigurationError"


@pytest.fixture
def stub_runs(monkeypatch):
    """run_experiment replaced by a stub that trains nothing; returns the list of configs it is called with."""
    configs = []

    def stub(cfg, bundle=None, out_dir=None):
        configs.append(cfg)
        params = init_params(cfg.network, cfg.seeds.init)
        record = MetricsRecord(cfg.run_id, 1, 1, 1, cfg.lr, 1.0, 0.5, 0.5, 0.5, 1.0)
        return RunResult(cfg, [record], params, None, [], {"optimizer_steps": 1})

    monkeypatch.setattr(harness, "run_experiment", stub)
    monkeypatch.setattr(cli, "run_experiment", stub)
    return configs


@pytest.mark.parametrize("command", ["train", "grid", "stages", "noise", "online"])
def test_every_subcommand_runs_at_its_defaults(tmp_path, capsys, stub_runs, command):
    code, payload = run_main([command, "--out", str(tmp_path / "runs")], capsys)
    assert code == 0, payload
    assert stub_runs  # every default run went through the stub


@pytest.mark.parametrize("flags, runs", [([], 5), (["--setting", "dcw"], 25)], ids=["none", "dcw"])
def test_grid_searches_weight_decay_only_where_the_setting_reads_it(tmp_path, capsys, stub_runs, flags, runs):
    code, payload = run_main(["grid", *flags, "--out", str(tmp_path / "runs")], capsys)
    assert code == 0, payload
    assert len(stub_runs) == len({cfg.run_id for cfg in stub_runs}) == runs
    want = cli.DEFAULT_WD_GRID if flags else (0.0,)
    assert sorted({cfg.weight_decay for cfg in stub_runs}) == list(want)


def stage_counts(argv, tmp_path, capsys, stub_runs) -> dict:
    """The stage counts of the runs argv makes at the defaults, with --stages 2
    and with a --config file of 3 stages."""
    config = tmp_path / "three_stages.json"
    write_json(RunConfig(network=cli.default_network(), stages=3).to_dict(), config)
    counts = {}
    for name, flags in (("default", []), ("flag", ["--stages", "2"]), ("config", ["--config", str(config)])):
        stub_runs.clear()
        assert run_main([*argv, *flags, "--out", str(tmp_path / "runs")], capsys)[0] == 0
        counts[name] = [cfg.stages for cfg in stub_runs]
    return counts


def test_noise_base_has_5_stages_unless_a_flag_or_the_config_gives_a_count(tmp_path, capsys, stub_runs):
    counts = stage_counts(["noise", "--q-values", "0", "--methods", "sp"], tmp_path, capsys, stub_runs)
    assert counts == {"default": [5], "flag": [2], "config": [3]}


def test_online_chunk_count_is_the_base_stage_count(tmp_path, capsys, stub_runs):
    """online shares noise's default of 5 stages; each method runs one chunk per stage."""
    counts = stage_counts(["online"], tmp_path, capsys, stub_runs)
    assert counts == {"default": [5, 5, 5], "flag": [2, 2, 2], "config": [3, 3, 3]}
    assert all(cfg.online for cfg in stub_runs)


def test_online_has_no_chunks_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["online", "--chunks", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --chunks 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["grid", "--lrs", ","], ["grid", "--wds", ","], ["stages", "--t-values", ","], ["noise", "--q-values", ","]],
    ids=["grid_lrs", "grid_wds", "stages", "noise"],
)
def test_a_study_with_no_cells_exits_2_without_writing(tmp_path, capsys, stub_runs, argv):
    out = tmp_path / "runs"
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line) == {"error": "ConfigurationError", "message": "the study has no cells to run"}
    assert not out.exists() and not stub_runs


def test_console_script_is_wired():
    """The declared ``reinit-lab`` entry point starts in a fresh process.

    Runs the call an installer-generated wrapper makes, so no install is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["reinit-lab"]
    module, _, attr = target.partition(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = run_fresh_process("-c", code, "train", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: reinit-lab train")
    assert "--reinit" in proc.stdout


def test_diverged_run_writes_one_json_line_to_stderr(tiny_config_file, tmp_path):
    """numpy's overflow warnings stay off stderr. In-process runs cannot show
    this: pytest captures warnings before they reach stderr."""
    out = str(tmp_path / "runs")
    proc = run_fresh_process("-m", "reinit_lab.cli", "train", "--config", tiny_config_file, "--epochs", "2",
                             "--lr", "1e30", "--out", out)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert "diverged" in json.loads(lines[0])["message"]


@pytest.mark.skipif(shutil.which("reinit-lab") is None, reason="reinit-lab console script not installed")
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["reinit-lab", "train", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "--reinit" in proc.stdout
