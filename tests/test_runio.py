"""Tests for metrics/checkpoint serialization."""
import json
import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from reinit_lab.errors import FormatError
from reinit_lab.nn import (
    FrozenNormLayer,
    NetworkSpec,
    ParamVector,
    init_params,
)
from reinit_lab.runio import (
    MetricsRecord,
    emit_metrics,
    load_checkpoint,
    read_metrics,
    save_checkpoint,
    write_summary_csv,
)
from helpers import traced_peak


def make_record(epoch=1, **extra):
    base = dict(
        run_id="abc123",
        stage=1,
        epoch=epoch,
        step=epoch * 10,
        lr=0.05,
        train_loss=2.0,
        train_acc=0.5,
        val_acc=0.4,
        test_acc=0.45,
        weight_norm=3.25,
    )
    base.update(extra)
    return MetricsRecord(**base)


class TestMetricsRecord:
    def test_json_line_has_exactly_the_public_fields(self):
        line = make_record().to_json_line()
        d = json.loads(line)
        assert set(d) == {f.name for f in fields(MetricsRecord)}

    def test_keys_are_sorted(self):
        d = json.loads(make_record().to_json_line())
        assert list(d) == sorted(d)

    def test_round_trip(self, tmp_path):
        recs = [make_record(epoch=e) for e in range(1, 6)]
        path = tmp_path / "metrics.jsonl"
        emit_metrics(recs, path)
        assert read_metrics(path) == recs

    def test_read_reports_bad_line_number(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text(make_record().to_json_line() + "\n{not json\n")
        with pytest.raises(FormatError, match="line 2"):
            read_metrics(path)

    @pytest.mark.parametrize(
        "edit, phrase",
        [
            (lambda d: d | {"val_loss": 1.0}, "unknown metrics line keys: val_loss"),
            (lambda d: {k: v for k, v in d.items() if k != "val_acc"}, "missing metrics line keys: val_acc"),
            (lambda d: list(d.values()), "metrics line must be a JSON object, got list"),
            # a string val_acc used to reach the best-epoch comparison as a TypeError
            (lambda d: d | {"val_acc": "x"}, "metrics line key val_acc must be a number, got 'x'"),
            (lambda d: d | {"epoch": 2.0}, "metrics line key epoch must be an integer, got 2.0"),
        ],
        ids=["unknown-key", "missing-key", "not-an-object", "string-val-acc", "float-epoch"],
    )
    def test_read_names_the_file_and_line_of_a_line_that_is_not_a_record(self, tmp_path, edit, phrase):
        path = tmp_path / "metrics.jsonl"
        path.write_text(make_record().to_json_line() + "\n" + json.dumps(edit(asdict(make_record()))) + "\n")
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: line 2: {phrase}"):
            read_metrics(path)

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_metrics(tmp_path / "nope.jsonl")


class TestSummaryCsv:
    def test_header_and_rows(self, tmp_path):
        # stage 1 ran epochs 1-2 (steps 10, 20), stage 2 epoch 3 (step 30)
        recs = [make_record(epoch=e, stage=1 if e <= 2 else 2, val_acc=0.1 * e) for e in (1, 2, 3)]
        path = tmp_path / "summary.csv"
        write_summary_csv(recs, [123.4] * 3, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "run_id,stage,epochs,steps,stage_val_acc,stage_test_acc,best_val_acc,weight_norm,wall_ms"
        assert lines[1:] == [
            "abc123,1,2,20,0.2,0.45,0.2,3.25,246.8",
            "abc123,2,1,10,0.30000000000000004,0.45,0.30000000000000004,3.25,123.4",
        ]

    def test_no_records_is_the_header_alone(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv([], [], path)
        assert path.read_text().splitlines() == [
            "run_id,stage,epochs,steps,stage_val_acc,stage_test_acc,best_val_acc,weight_norm,wall_ms"
        ]


class TestCheckpoint:
    def setup_method(self):
        self.net = NetworkSpec(6, (5, 4), 3, block_boundaries=(1,))
        self.params = init_params(self.net, 11)
        # a frozen norm after block 1, whose one layer has 5 units
        fn = FrozenNormLayer(1, np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 2.5, 5))
        self.normed = ParamVector(self.params.values, self.net, fn)

    @staticmethod
    def edit_header(path, edit):
        raw, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(raw)
        edit(header)
        path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + body)

    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.params, seed=11, stage=2, epoch=7)
        loaded, header = load_checkpoint(path)
        assert np.array_equal(loaded.values, self.params.values)
        assert loaded.values.dtype == np.float32
        assert loaded.network == self.net
        assert header["seed"] == 11
        assert header["stage"] == 2
        assert header["epoch"] == 7
        assert header["network"]["hidden_dims"] == [5, 4]
        assert loaded.frozen_norm is None

    def test_write_makes_no_copy_of_the_parameters(self, tmp_path):
        """The payload is written from the vector's own buffer: the image
        network's 235,146 values take under half a vector of traced memory."""
        params = init_params(NetworkSpec(784, (256, 128), 10, block_boundaries=(1, 2)), 3)
        assert params.values.shape == (235_146,)
        path = tmp_path / "best.ckpt"
        peak = traced_peak(lambda: save_checkpoint(path, params, seed=3, stage=1, epoch=1))
        assert peak < params.values.nbytes / 2, f"peak {peak / params.values.nbytes:.2f} parameter vectors"
        assert path.read_bytes().split(b"\n", 1)[1] == params.values.astype("<f4").tobytes()

    def test_frozen_norm_round_trip(self, tmp_path):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.normed, 11, 1, 1)
        fn, fn_in = load_checkpoint(path)[0].frozen_norm, self.normed.frozen_norm
        assert fn is not None
        assert fn.insert_after_block == 1
        assert np.array_equal(fn.mean, fn_in.mean)
        assert np.array_equal(fn.std, fn_in.std)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.params, 11, 1, 1)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="parameter bytes"):
            load_checkpoint(path)

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "best.ckpt"
        path.write_bytes(b"{broken\n" + b"\x00" * 16)
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(path)

    def test_layout_recorded_in_header(self, tmp_path):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.params, 11, 1, 1)
        _, header = load_checkpoint(path)
        assert header["layout"]["total_len"] == self.net.param_count == len(self.params.values)
        assert header["layout"]["num_blocks"] == self.net.num_blocks

    @pytest.mark.parametrize("field, delta", [("total_len", 1), ("num_blocks", 1), ("num_blocks", -1)])
    def test_header_layout_must_match_network(self, tmp_path, field, delta):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.params, 11, 1, 1)
        self.edit_header(path, lambda header: header["layout"].update({field: header["layout"][field] + delta}))
        with pytest.raises(FormatError, match="layout"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["total_len", "num_blocks"])
    def test_header_layout_numbers_must_be_integers(self, tmp_path, field):
        # 74.0 == 74 in Python, so an equality check alone would load this file
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.params, 11, 1, 1)
        self.edit_header(path, lambda header: header["layout"].update({field: float(header["layout"][field])}))
        value = float({"total_len": self.net.param_count, "num_blocks": self.net.num_blocks}[field])
        phrase = f"layout key {field} must be an integer, got {value}"
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: bad checkpoint header: {phrase}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section, key", [("network", "hidden_dims"), ("frozen_norm", "std")])
    def test_header_section_missing_a_key_is_rejected(self, tmp_path, section, key):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.normed, 11, 1, 1)
        self.edit_header(path, lambda header: header[section].pop(key))
        with pytest.raises(FormatError, match=f"bad checkpoint header: .*{key}"):
            load_checkpoint(path)

    def test_header_with_the_retired_activation_key_names_the_file(self, tmp_path):
        # best.ckpt files written before NetworkSpec dropped activation
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.params, 11, 1, 1)
        assert "activation" not in load_checkpoint(path)[1]["network"]
        self.edit_header(path, lambda header: header["network"].update(activation="relu"))
        phrase = "unknown network keys: activation"
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: bad checkpoint header: {phrase}"):
            load_checkpoint(path)

    def test_header_without_layout_is_rejected(self, tmp_path):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.params, 11, 1, 1)
        self.edit_header(path, lambda header: header.pop("layout"))
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(path)

    def test_frozen_norm_after_a_block_the_network_lacks_is_rejected(self, tmp_path):
        net = NetworkSpec(6, (5, 4), 3, block_boundaries=(1, 2))
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, ParamVector(init_params(net, 11).values, net, self.normed.frozen_norm), 11, 1, 1)
        self.edit_header(path, lambda header: header["frozen_norm"].update(insert_after_block=7))
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: bad checkpoint header: block 7 outside 1..3"):
            load_checkpoint(path)

    def test_frozen_norm_block_must_be_an_integer(self, tmp_path):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.normed, 11, 1, 1)
        self.edit_header(path, lambda header: header["frozen_norm"].update(insert_after_block=1.9))
        phrase = "frozen norm key insert_after_block must be an integer, got 1.9"
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: bad checkpoint header: {phrase}"):
            load_checkpoint(path)

    def test_frozen_norm_of_another_width_than_its_block_is_rejected(self, tmp_path):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.normed, 11, 1, 1)
        self.edit_header(path, lambda header: header["frozen_norm"].update(mean=[0.0] * 3, std=[1.0] * 3))
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: bad checkpoint header: .*3 units, but that block outputs 5"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "mean, std, phrase",
        [
            ([0.0] * 5, [1.0] * 4, "mean/std must be matching 1-D vectors"),
            ([0.0] * 5, [0.0] * 5, "std entries must be positive"),
            ([0.0, float("nan"), 0.0, 0.0, 0.0], [1.0] * 5, "mean/std entries must be finite"),
            ([0.0] * 5, [1.0, float("inf"), 1.0, 1.0, 1.0], "mean/std entries must be finite"),
        ],
        ids=["std-shorter-than-mean", "zero-std", "nan-mean", "infinite-std"],
    )
    def test_frozen_norm_the_layer_rejects_names_the_file(self, tmp_path, mean, std, phrase):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, self.normed, 11, 1, 1)
        self.edit_header(path, lambda header: header["frozen_norm"].update(mean=mean, std=std))
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: bad checkpoint header: .*{phrase}"):
            load_checkpoint(path)
