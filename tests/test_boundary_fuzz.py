"""Boundary fuzz of `reinit-lab train`: one config key or one numeric flag set
to an edge value, and sets of flags that change the epoch budget, the stage
count and the rule together; and of the run files a run writes.

Three properties hold for every train case:
- main exits 0, or exits 2 with one JSON line on stderr and no run
  directory; a diverged run also exits 2 but keeps its directory;
- the config.json a finished run writes reloads through --config to the
  same run id;
- flags apply as one change: a run exits 0 exactly when the config with
  every flag merged in is valid, and its config.json is that config.

A run file with one byte changed, or cut short, loads or raises a
ReinitLabError, never another exception. A data file (an IDX pair or a CSV,
for training or as the held-out test set) with one mutation trains, or exits
2 with one JSON line on stderr and no run directory.
"""
import contextlib
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import write_csv, write_idx
from hypothesis import given, settings
from hypothesis import strategies as st

from reinit_lab.cli import REINIT_TOKENS, build_config, main, make_parser
from reinit_lab.data import AugmentSpec
from reinit_lab.distill import load_teacher_cache
from reinit_lab.errors import ConfigurationError, ReinitLabError
from reinit_lab.harness import DataConfig, DistillConfig, RunConfig, Seeds, run_experiment
from reinit_lab.nn import NetworkSpec
from reinit_lab.reinit import ReinitSpec
from reinit_lab.runio import load_checkpoint, read_json, read_metrics

EDGE_VALUES = (math.nan, math.inf, -math.inf, -1, 0, 0.5, 1.5, 2, "x", "4", True, None, [], {})

# 40 examples of 2x4 images: 10 test, 3 val, 27 train in batches of 10; the
# dcw setting, shrink-perturb and distillation reach every config section
TINY = RunConfig(
    network=NetworkSpec(8, (6,), 4, block_boundaries=(1,)),
    data=DataConfig(num_classes=4, dim=8, per_class=10, class_separation=3.0, image_hw=(2, 4)),
    setting="dcw",
    lr=0.05,
    weight_decay=0.001,
    epochs=2,
    batch_size=10,
    stages=2,
    reinit=ReinitSpec("shrink_perturb"),
    distill=DistillConfig(enabled=True),
    noise_q=0.1,
    seeds=Seeds(1, 2, 3, 4),
    eta_min=0.001,
    augment=AugmentSpec(pad_pixels=1),
).to_dict()

KEY_CASES = [
    (section, key, value)
    for section, keys in [(None, list(TINY))] + [(s, list(v)) for s, v in TINY.items() if isinstance(v, dict)]
    for key in keys
    for value in EDGE_VALUES
]
FLAG_TYPES = {
    "--lr": float, "--wd": float, "--lambda": float, "--gamma": float, "--distill-beta": float,
    "--noise-q": float, "--stages": int, "--seed": int, "--epochs": int,
}
# the values each flag's argparse type accepts; `--flag=value` keeps "-inf" a value
FLAG_CASES = [
    (flag, value)
    for flag, kind in FLAG_TYPES.items()
    for value in EDGE_VALUES
    if isinstance(value, (int, float)) and not isinstance(value, bool) and (kind is float or value in (-1, 0, 2))
]


# one epoch per stage and layer-wise on the two blocks: flags applied one at a
# time pass through invalid configs on their way to many valid ones, such as
# --epochs 2 --stages 2 (4 stages in 2 epochs) or --stages 3 --reinit sp
# (layer-wise on 3 stages of a 2-block net)
MERGE_BASE = {**TINY, "epochs": 4, "stages": 4, "reinit": {"kind": "layer_wise", "lam": None, "gamma": None}}


def run_train(config: dict, flags: list[str], may_diverge: bool = True) -> dict | None:
    """Run train on config plus flags in a fresh directory and check the first
    two properties (a run that may not diverge leaves no run directory on any
    failure); the config.json a finished run wrote, else None."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "runs"
        path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["train", "--config", str(path), "--out", str(out), *flags])
        if code == 0:
            result = json.loads(stdout.getvalue())
            written = Path(result["run_dir"]) / "config.json"
            replay = build_config(make_parser().parse_args(["train", "--config", str(written)]))
            assert replay.run_id == result["run_id"]
            return read_json(written)
        assert code == 2
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])
        diverged = error["error"] == "HarnessError" and "diverged" in error["message"]
        assert out.exists() == (diverged and may_diverge), error
        return None


def test_the_tiny_config_trains():
    run_train(TINY, [])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(KEY_CASES))
def test_one_edge_value_in_the_config(case):
    section, key, value = case
    config = json.loads(json.dumps(TINY))
    (config if section is None else config[section])[key] = value
    run_train(config, [])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(FLAG_CASES))
def test_one_edge_value_in_a_flag(case):
    flag, value = case
    run_train(TINY, [f"{flag}={value}"])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    st.sampled_from([None, 2, 3, 4]),
    st.sampled_from([None, 1, 2, 3, 4]),
    st.sampled_from([None, *REINIT_TOKENS]),
)
def test_flags_apply_as_one_change(epochs, stages, reinit):
    given = {k: v for k, v in (("epochs", epochs), ("stages", stages), ("reinit", reinit)) if v is not None}
    merged = {**MERGE_BASE, **given}
    if reinit is not None:
        merged["reinit"] = {"kind": REINIT_TOKENS[reinit], "lam": None, "gamma": None}
    try:
        want = json.loads(json.dumps(RunConfig.from_dict(merged).to_dict()))  # tuples as JSON lists
    except ConfigurationError:
        want = None
    flags = [f"--{k}={v}" for k, v in given.items()]
    assert run_train(MERGE_BASE, flags) == want, flags


# each run file a run writes and the loader that reads it back
RUN_FILE_LOADERS = {"best.ckpt": load_checkpoint, "teacher_stage1.bin": load_teacher_cache, "metrics.jsonl": read_metrics}


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """The bytes of each run file of one layer-wise, distilled 2-stage run of
    the tiny config (its checkpoint may carry a frozen norm), and a scratch
    directory to write mutated copies into."""
    out = tmp_path_factory.mktemp("runs")
    cfg = RunConfig.from_dict({**MERGE_BASE, "epochs": 2, "stages": 2})
    run_dir = out / run_experiment(cfg, out_dir=out).run_id
    return {name: (run_dir / name).read_bytes() for name in RUN_FILE_LOADERS}, tmp_path_factory.mktemp("mutated")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(RUN_FILE_LOADERS)), st.booleans(), st.integers(0, 1 << 20), st.integers(0, 255))
def test_a_mutated_run_file_loads_or_raises_a_library_error(run_files, name, truncate, at, byte):
    files, scratch = run_files
    data = bytearray(files[name])
    at %= len(data)
    if truncate:
        del data[at:]
    else:
        data[at] = byte
    path = scratch / name
    path.write_bytes(data)
    try:
        RUN_FILE_LOADERS[name](path)
    except ReinitLabError:
        pass


# 40 examples of 2x4 images in 4 classes, as an IDX pair and as a CSV table,
# and 40 more as each source's held-out test file(s), named with a "test_" prefix
DATA_LABELS = np.arange(40) % 4
DATA_IMAGES = np.random.default_rng(5).integers(0, 256, size=(40, 2, 4))
TEST_IMAGES = np.random.default_rng(6).integers(0, 256, size=(40, 2, 4))
DATA_FILES = {"idx": ("images.idx", "labels.idx"), "csv": ("data.csv",)}
BAD_CELLS = ("x", "", " ", "nan", "inf", "-inf", "1e39", "-1e39", "0x10", '"', "1,2", "1\n2")


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    """The bytes of each data file, and a scratch directory to write mutated copies into."""
    tmp = tmp_path_factory.mktemp("data")
    for prefix, images in (("", DATA_IMAGES), ("test_", TEST_IMAGES)):
        write_idx(tmp / f"{prefix}images.idx", tmp / f"{prefix}labels.idx", images, DATA_LABELS)
        write_csv(tmp / f"{prefix}data.csv", DATA_LABELS, images.reshape(40, 8))
    return {path.name: path.read_bytes() for path in tmp.iterdir()}, tmp_path_factory.mktemp("mutated")


def set_header(files, field, value):
    """One count of the IDX pair's headers (images, rows, columns, labels) set to value."""
    name, offset = (("images.idx", 4), ("images.idx", 8), ("images.idx", 12), ("labels.idx", 4))[field]
    files[name][offset : offset + 4] = struct.pack(">I", value)


def set_geometry(files, shape):
    """The IDX image header's (rows, columns) set to another shape of the same pixels."""
    files["images.idx"][8:16] = struct.pack(">II", *shape)


def truncate(files, which, at):
    name = sorted(files)[which % len(files)]
    del files[name][at % len(files[name]) :]


def edit_csv_row(files, row, edit):
    """Row row of the CSV table (0 is the header) as edit returns its cells."""
    lines = files["data.csv"].decode().split("\n")
    lines[row] = ",".join(edit(lines[row].split(",")))
    files["data.csv"][:] = "\n".join(lines).encode()


def set_csv_cell(files, row, column, text):
    edit_csv_row(files, row, lambda cells: cells[:column] + [text] + cells[column + 1 :])


def change_width(files, row, wider):
    edit_csv_row(files, row, lambda cells: cells + ["0.5"] if wider else cells[:-1])


def change_every_width(files, wider):
    """Every row of the CSV table, header included, one cell wider or narrower."""
    for row in range(41):
        change_width(files, row, wider)


def set_label(files, example, label):
    if "labels.idx" in files:
        files["labels.idx"][8 + example] = label
    else:
        set_csv_cell(files, 1 + example, 0, str(label))


DATA_MUTATIONS = st.one_of(
    st.tuples(st.just("idx"), st.just(set_header), st.integers(0, 3), st.integers(0, (1 << 32) - 1)),
    st.tuples(st.sampled_from(sorted(DATA_FILES)), st.just(truncate), st.integers(0, 1), st.integers(0, 1 << 12)),
    st.tuples(
        st.just("csv"), st.just(set_csv_cell), st.integers(0, 40), st.integers(0, 8), st.sampled_from(BAD_CELLS)
    ),
    st.tuples(st.just("csv"), st.just(change_width), st.integers(1, 40), st.booleans()),
    st.tuples(st.just("idx"), st.just(set_geometry), st.sampled_from([(1, 8), (8, 1), (4, 2)])),
    st.tuples(st.just("csv"), st.just(change_every_width), st.booleans()),
    st.tuples(st.just("idx"), st.just(set_label), st.integers(0, 39), st.integers(4, 255)),
    st.tuples(st.just("csv"), st.just(set_label), st.integers(0, 39), st.integers(4, 1 << 70)),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.booleans(), DATA_MUTATIONS)
def test_a_mutated_data_file_trains_or_exits_2_without_a_run_directory(data_files, held_out, case):
    """With held_out, the run also reads the source's held-out test file(s),
    and the mutation goes into them instead of the training file(s)."""
    originals, scratch = data_files
    source, mutate, *args = case
    prefix = "test_" if held_out else ""
    files = {name: bytearray(originals[prefix + name]) for name in DATA_FILES[source]}
    mutate(files, *args)
    for name in DATA_FILES[source]:
        (scratch / name).write_bytes(originals[name])
        (scratch / f"test_{name}").write_bytes(originals[f"test_{name}"])
        (scratch / (prefix + name)).write_bytes(files[name])
    keys = {"idx": ("images_path", "labels_path"), "csv": ("csv_path",)}[source]
    data = {"source": source} | {key: str(scratch / name) for key, name in zip(keys, DATA_FILES[source])}
    if held_out:
        data |= {f"test_{key}": str(scratch / f"test_{name}") for key, name in zip(keys, DATA_FILES[source])}
    network = {"input_dim": 8, "hidden_dims": [6], "num_classes": 4}
    run_train({"network": network, "data": data, "epochs": 2, "batch_size": 10}, [], may_diverge=False)
