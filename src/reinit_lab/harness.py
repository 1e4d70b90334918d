"""Experiment orchestration: staged runs, grids, sweeps, and studies.

A run is fully described by a RunConfig. The same staged loop drives single
runs, LR x WD grids, stage-count sweeps, label-noise studies, and the
online/warm-start simulation; studies differ only in how they vary the
config. Every piece of randomness is owned by one of four named seeds, so
any run can be replayed bit-for-bit from its config.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data import (
    AugmentSpec,
    Dataset,
    augment_batch,
    compute_normalization,
    inject_label_noise,
    load_csv,
    make_chunks,
    make_synthetic,
    normalize_in_place,
    normalized_table,
    read_idx,
    split_indices,
    subset,
)
from .distill import TeacherCache, distill_rows, save_teacher_cache, snapshot_teacher
from .errors import ConfigurationError, HarnessError, NumericalError, ShapeError, check_fields, check_gated, from_json, rule
from .nn import (
    NO_GRAD_ROWS,
    NetworkSpec,
    ParamVector,
    block_norms,
    forward,
    init_params,
    loss_grad_logits,
    weight_norm,
)
from .optim import LrSchedule, OptimState, lr_at, sgd_step
from .reinit import ReinitSpec, apply_reinit, make_stage_plan, stage_seed
from .runio import MetricsRecord, best_record, emit_metrics, load_checkpoint, save_checkpoint, write_json, write_summary_csv

SETTINGS = ("none", "d", "dc", "dcw")
# the D / C / W composition: each setting-gated RunConfig key -> the settings that read it
SETTING_KEYS = {"augment": ("d", "dc", "dcw"), "eta_min": ("dc", "dcw"), "weight_decay": ("dcw",)}
SOURCES = ("synthetic", "idx", "csv")
# each source-gated DataConfig key -> the sources that read it
SOURCE_KEYS = {
    **dict.fromkeys(("num_classes", "dim", "per_class", "class_separation", "image_hw"), ("synthetic",)),
    **dict.fromkeys(("images_path", "labels_path", "test_images_path", "test_labels_path"), ("idx",)),
    **dict.fromkeys(("csv_path", "test_csv_path"), ("csv",)),
}

# fixed tags for deriving independent sub-seeds from the named seeds
TEST_SPLIT_TAG = 101
VAL_SPLIT_TAG = 102
CHUNK_TAG = 103
AUGMENT_TAG = 104


@dataclass(frozen=True)
class Seeds:
    """The four independent randomness owners of a run."""

    init: int = rule(0, "be >= 0", lambda v: v >= 0)
    data: int = rule(1, "be >= 0", lambda v: v >= 0)
    noise: int = rule(2, "be >= 0", lambda v: v >= 0)
    shuffle: int = rule(3, "be >= 0", lambda v: v >= 0)

    def __post_init__(self):
        check_fields(self, "seeds")


@dataclass(frozen=True)
class DistillConfig:
    """Self-distillation from the previous stage's teacher; only an enabled
    one reads beta, which a disabled one leaves at its default."""

    enabled: bool = False
    beta: float = rule(1.0, "be > 0", lambda v: v > 0)

    def __post_init__(self):
        check_fields(self, "distill")
        check_gated(self, "enabled", {"beta": (True,)}, "distill")


@dataclass(frozen=True)
class DataConfig:
    """Where training data comes from and how it is carved up.

    synthetic: a Gaussian-mixture task generated on the fly. idx: an
    MNIST-style image/label file pair, optionally with a separate test pair.
    csv: a `label,f0,...` table. Without explicit test files, test_fraction
    of the data is held out first; val_fraction of the remainder becomes the
    validation split. image_hw tags synthetic features as an image; idx
    images carry their own geometry and csv rows have none. A key that the
    source, or a held-out test file, leaves unread holds its default.
    """

    source: str = rule("synthetic", f"be one of {SOURCES}", lambda v: v in SOURCES)
    num_classes: int = rule(10, "be >= 2", lambda v: v >= 2)
    dim: int = rule(50, "be >= 1", lambda v: v >= 1)
    per_class: int = rule(500, "be >= 1", lambda v: v >= 1)
    class_separation: float = rule(2.5, "be >= 0", lambda v: v >= 0)
    image_hw: tuple[int, int] | None = rule(None, "be two integers >= 1", lambda v: min(v) >= 1)
    images_path: str | None = rule(None, "be a non-empty string", lambda v: v != "")
    labels_path: str | None = rule(None, "be a non-empty string", lambda v: v != "")
    test_images_path: str | None = rule(None, "be a non-empty string", lambda v: v != "")
    test_labels_path: str | None = rule(None, "be a non-empty string", lambda v: v != "")
    csv_path: str | None = rule(None, "be a non-empty string", lambda v: v != "")
    test_csv_path: str | None = rule(None, "be a non-empty string", lambda v: v != "")
    val_fraction: float = rule(0.1, "lie strictly in (0, 1)", lambda v: 0 < v < 1)
    test_fraction: float = rule(0.25, "lie strictly in (0, 1)", lambda v: 0 < v < 1)

    def __post_init__(self):
        check_fields(self, "data")
        check_gated(self, "source", SOURCE_KEYS, "data")
        check_gated(self, "held_out_test", {"test_fraction": (False,)}, "data")
        if self.source == "idx" and (self.images_path is None or self.labels_path is None):
            raise ConfigurationError("idx source needs images_path and labels_path")
        if self.source == "csv" and self.csv_path is None:
            raise ConfigurationError("csv source needs csv_path")
        if (self.test_images_path is None) != (self.test_labels_path is None):
            raise ConfigurationError("test_images_path and test_labels_path must be given together")
        if self.source == "synthetic" and self.num_classes * self.per_class * self.dim > np.iinfo(np.intp).max:
            raise ConfigurationError("synthetic data of num_classes x per_class x dim values is too large to shape")
        if self.image_hw is not None and math.prod(self.image_hw) != self.dim:
            raise ConfigurationError(f"data key image_hw {list(self.image_hw)} must flatten to dim {self.dim}")

    @property
    def held_out_test(self) -> bool:
        return self.test_images_path is not None or self.test_csv_path is not None


@dataclass(frozen=True)
class RunConfig:
    network: NetworkSpec
    data: DataConfig = DataConfig()
    setting: str = rule("none", f"be one of {SETTINGS}", lambda v: v in SETTINGS)
    lr: float = rule(0.05, "be > 0", lambda v: v > 0)
    weight_decay: float = rule(0.0, "be >= 0", lambda v: v >= 0)
    momentum: float = rule(0.9, "lie in [0, 1)", lambda v: 0 <= v < 1)
    epochs: int = rule(60, "be >= 1", lambda v: v >= 1)
    batch_size: int = rule(125, "be >= 1", lambda v: v >= 1)
    stages: int = rule(1, "be >= 1", lambda v: v >= 1)
    online: bool = False
    reinit: ReinitSpec = ReinitSpec("none")
    distill: DistillConfig = DistillConfig()
    noise_q: float = rule(0.0, "lie in [0, 1]", lambda v: 0 <= v <= 1)
    seeds: Seeds = Seeds()
    eta_min: float = rule(0.0, "be >= 0", lambda v: v >= 0)
    augment: AugmentSpec = AugmentSpec()
    run_name: str | None = None

    def __post_init__(self):
        check_fields(self, "run config")
        check_gated(self, "setting", SETTING_KEYS, "run config")
        check_gated(self, "staged", dict.fromkeys(("online", "reinit", "distill"), (True,)), "run config")
        if self.stages > self.epochs:
            raise ConfigurationError(f"{self.stages} stages cannot fit in {self.epochs} epochs")
        if self.eta_min > self.lr:
            raise ConfigurationError(f"run config key eta_min must be <= lr, got eta_min={self.eta_min}, lr={self.lr}")
        k = self.network.num_blocks
        if self.reinit.kind == "layer_wise" and self.stages % k != 0:
            raise ConfigurationError(
                f"layer_wise needs stages divisible by the {k} network blocks: "
                f"{self.stages} is not a multiple of {k}"
            )

    @property
    def augment_enabled(self) -> bool:
        return self.setting in SETTING_KEYS["augment"]

    @property
    def cosine_enabled(self) -> bool:
        return self.setting in SETTING_KEYS["eta_min"]

    @property
    def staged(self) -> bool:  # the run reaches a stage boundary, where online, reinit and distill act
        return self.stages >= 2

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        return from_json(RunConfig, d, "run config")

    @property
    def run_id(self) -> str:
        if self.run_name:
            return self.run_name
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class DataBundle:
    """Normalized splits, the training split holding the (possibly noisy)
    labels the run trains on, and the mask of the re-drawn ones. IDX splits
    hold uint8 pixels and share one normalized decode table."""

    train: Dataset
    noise_mask: np.ndarray
    val: Dataset
    test: Dataset


def prepare_data(cfg: RunConfig) -> DataBundle:
    """Load, carve test/val, normalize from train stats, inject label noise.
    Each split is gathered once from the loaded rows by index. Float splits
    are normalized in place; IDX splits stay uint8 pixels, and the decode
    table they share is normalized instead. A held-out test file must hold
    examples of the training file's shape."""
    dc = cfg.data
    test = None
    if dc.source == "synthetic":
        full = make_synthetic(
            dc.num_classes, dc.dim, dc.per_class, dc.class_separation, cfg.seeds.data, dc.image_hw
        )
    elif dc.source == "idx":
        full = read_idx(dc.images_path, dc.labels_path)
        if dc.test_images_path is not None:
            test = read_idx(dc.test_images_path, dc.test_labels_path)
    else:
        full = load_csv(dc.csv_path)
        if dc.test_csv_path is not None:
            test = load_csv(dc.test_csv_path)
    if test is None:
        test_seed = stage_seed(cfg.seeds.data, TEST_SPLIT_TAG)
        rest, test_idx = split_indices(full.labels, dc.test_fraction, test_seed, "data key test_fraction")
    elif (test.dim, test.image_shape) != (full.dim, full.image_shape):
        files = (dc.test_images_path, dc.images_path) if dc.source == "idx" else (dc.test_csv_path, dc.csv_path)
        shapes = [ds.image_shape or (ds.dim,) for ds in (test, full)]
        raise ShapeError(f"test file {files[0]} holds examples of shape {shapes[0]}, but {files[1]} {shapes[1]}")
    else:
        rest = np.arange(full.n)
    val_seed = stage_seed(cfg.seeds.data, VAL_SPLIT_TAG)
    train_idx, val_idx = split_indices(full.labels[rest], dc.val_fraction, val_seed, "data key val_fraction")
    # the largest split first, so its gather's temporaries come before the other splits
    train, val = subset(full, rest[train_idx]), subset(full, rest[val_idx])
    if test is None:
        test = subset(full, test_idx)
    del full  # the splits are copies; keep only them
    mean, std = compute_normalization(train)
    if train.decode is None:
        for ds in (train, val, test):
            normalize_in_place(ds, mean, std)
    else:
        table = normalized_table(train.decode, mean, std)
        train, val, test = (replace(ds, decode=table) for ds in (train, val, test))
    noisy, noise_mask = inject_label_noise(train, cfg.noise_q, cfg.seeds.noise)
    return DataBundle(replace(train, labels=noisy), noise_mask, val, test)


def evaluate_accuracy(params: ParamVector, ds: Dataset, rows=None) -> float:
    """Accuracy on the rows of ds an index array names (all rows when None),
    read and scored NO_GRAD_ROWS per forward pass."""
    n = ds.n if rows is None else rows.shape[0]
    hits = 0
    for start in range(0, n, NO_GRAD_ROWS):
        part = slice(start, start + NO_GRAD_ROWS) if rows is None else rows[start : start + NO_GRAD_ROWS]
        logits = forward(params, ds.rows(part))
        hits += int((logits.argmax(axis=1) == ds.labels[part]).sum())
    return hits / n


def _stage_rows(cfg: RunConfig, train: Dataset) -> list[np.ndarray | None]:
    """Each stage's training rows, None standing for the whole split: stage t
    of an online run trains on the first t of make_chunks' cfg.stages chunks."""
    if not cfg.online:
        return [None] * cfg.stages
    chunks = make_chunks(train, cfg.stages, stage_seed(cfg.seeds.data, CHUNK_TAG))
    arrived = np.concatenate(chunks)
    return [arrived[:end] for end in np.cumsum([c.shape[0] for c in chunks])]


@dataclass
class BoundaryEvent:
    """Weight-norm bookkeeping at one re-initialization boundary."""

    stage: int
    norm_before: float
    norm_after: float
    fresh_norm: float


@dataclass
class RunResult:
    """What a run cannot recompute; every other fact about it is a property
    read from these. best_params holds the epoch of ``best``."""

    config: RunConfig
    records: list[MetricsRecord]
    final_params: ParamVector | None
    best_params: ParamVector | None
    boundary_events: list[BoundaryEvent]
    counters: dict
    failure: str | None = None
    run_dir: Path | None = None

    @property
    def run_id(self) -> str:
        return self.config.run_id

    @property
    def failed(self) -> bool:
        return self.failure is not None

    @property
    def total_steps(self) -> int:
        return self.counters["optimizer_steps"]

    @property
    def best(self) -> MetricsRecord | None:
        """best_record of the records; None when no epoch finished."""
        return best_record(self.records)

    @property
    def best_val_acc(self) -> float:
        return -1.0 if self.best is None else self.best.val_acc

    @property
    def best_test_acc(self) -> float:
        return 0.0 if self.best is None else self.best.test_acc


def run_experiment(cfg: RunConfig, bundle: DataBundle | None = None, out_dir=None) -> RunResult:
    """Algorithm: T stages of floor(N/T) epochs with re-init at boundaries.

    Distillation snapshots a teacher at each stage end but the last and mixes
    beta * KL into the loss from stage 2 onward. Stage t of an online run
    trains on the first t of T chunks of the training split (_stage_rows).
    """
    if bundle is None:
        bundle = prepare_data(cfg)
    if cfg.augment_enabled:
        if bundle.train.image_shape is None:
            raise ConfigurationError("augmentation needs image geometry; this data has none")
        (h, w, ch), pad, rows = bundle.train.image_shape, cfg.augment.pad_pixels, min(cfg.batch_size, bundle.train.n)
        if rows * (h + 2 * pad) * (w + 2 * pad) * ch * 4 > np.iinfo(np.intp).max:  # the padded batch's float32 bytes
            raise ConfigurationError(f"augment key pad_pixels {pad} pads a batch of {rows} {h}x{w} images past np.intp")
    width = bundle.train.dim
    if width != cfg.network.input_dim:
        raise ConfigurationError(
            f"network input_dim {cfg.network.input_dim} does not match the data's {width} features"
        )
    classes = 1 + max(int(y.max()) for y in (bundle.train.labels, bundle.val.labels, bundle.test.labels))
    if classes > cfg.network.num_classes:
        raise ConfigurationError(
            f"data labels span {classes} classes but the network has num_classes {cfg.network.num_classes}"
        )
    stage_rows = _stage_rows(cfg, bundle.train)
    epochs_per_stage = make_stage_plan(cfg.epochs, cfg.stages)
    run_id = cfg.run_id

    params = init_params(cfg.network, cfg.seeds.init)
    # what the layer-wise rule reads at every boundary
    init_norms = tuple(block_norms(params))
    # the first rows stage 1 trains on: a view of the split unless the run is online
    stats_rows = slice(0, 256) if stage_rows[0] is None else stage_rows[0][:256]
    stats_batch = bundle.train.rows(stats_rows) if cfg.reinit.kind == "layer_wise" else None

    shuffle_rng = np.random.Generator(np.random.PCG64(cfg.seeds.shuffle))
    augment_rng = np.random.Generator(np.random.PCG64(stage_seed(cfg.seeds.shuffle, AUGMENT_TAG)))

    teacher: TeacherCache | None = None
    records: list[MetricsRecord] = []
    epoch_ms: list[float] = []  # each record's wall time, for summary.csv only
    boundary_events: list[BoundaryEvent] = []
    counters = {"teacher_reads": 0, "optimizer_steps": 0}
    best_params = None
    failure = None

    run_dir = None
    if out_dir is not None:
        run_dir = Path(out_dir) / run_id
        write_json(cfg.to_dict(), run_dir / "config.json")

    try:
        for stage, seen in enumerate(stage_rows, start=1):
            if stage > 1:
                norm_before = weight_norm(params.values)
                params, fresh_norm = apply_reinit(
                    cfg.reinit, params, cfg.seeds.init, stage - 1, init_norms, stats_batch, cfg.stages
                )
                if fresh_norm is not None:
                    boundary_events.append(BoundaryEvent(stage, norm_before, weight_norm(params.values), fresh_norm))
            # the stage owns a spare parameter vector: each step's gradient goes
            # into it, and sgd_step writes the update over that gradient, so a
            # failed step leaves params intact. The spare is the model after the
            # swap, so it carries params' frozen norm.
            spare = params.copy()
            opt = OptimState.fresh(params, cfg.momentum, cfg.weight_decay)
            n_train = bundle.train.n if seen is None else seen.shape[0]
            steps_per_epoch = math.ceil(n_train / cfg.batch_size)
            # without cosine, eta_min == eta_max holds the rate constant
            eta_min = cfg.eta_min if cfg.cosine_enabled else cfg.lr
            schedule = LrSchedule(cfg.lr, eta_min, epochs_per_stage * steps_per_epoch)
            for epoch_in_stage in range(epochs_per_stage):
                t0 = time.monotonic()
                perm = shuffle_rng.permutation(n_train)
                if seen is not None:
                    perm = seen[perm]
                epoch_loss = 0.0
                epoch_hits = 0
                for start in range(0, n_train, cfg.batch_size):
                    idx = perm[start : start + cfg.batch_size]
                    if cfg.augment_enabled:
                        x = augment_batch(bundle.train, idx, cfg.augment, augment_rng)
                    else:
                        x = bundle.train.rows(idx)
                    y = bundle.train.labels[idx]
                    rows = None
                    if teacher is not None:  # only from stage 2 of a distilling run
                        rows = distill_rows(teacher, idx)
                        counters["teacher_reads"] += 1
                    step_in_stage = epoch_in_stage * steps_per_epoch + (start // cfg.batch_size)
                    lr = lr_at(schedule, step_in_stage)
                    loss, logits = loss_grad_logits(params, x, y, spare.values, rows, cfg.distill.beta)
                    del x  # not held into the next batch's augmentation
                    if not np.isfinite(loss):
                        raise NumericalError(f"non-finite loss at step {counters['optimizer_steps']}")
                    sgd_step(params, spare, opt, lr, counters["optimizer_steps"])
                    params, spare = spare, params
                    counters["optimizer_steps"] += 1
                    epoch_loss += loss * len(idx)
                    epoch_hits += int((logits.argmax(axis=1) == y).sum())
                records.append(
                    MetricsRecord(
                        run_id=run_id,
                        stage=stage,
                        epoch=len(records) + 1,
                        step=counters["optimizer_steps"],
                        lr=lr_at(schedule, epoch_in_stage * steps_per_epoch),
                        train_loss=epoch_loss / n_train,
                        train_acc=epoch_hits / n_train,
                        val_acc=evaluate_accuracy(params, bundle.val),
                        test_acc=evaluate_accuracy(params, bundle.test),
                        weight_norm=weight_norm(params.values),
                    )
                )
                epoch_ms.append((time.monotonic() - t0) * 1000.0)
                if best_record(records) is records[-1]:
                    if run_dir is not None:  # the directory holds the best epoch, so memory keeps no copy
                        save_checkpoint(run_dir / "best.ckpt", params, cfg.seeds.init, stage, records[-1].epoch)
                    else:  # one best buffer per run, overwritten by each new best
                        values = np.empty_like(params.values) if best_params is None else best_params.values
                        np.copyto(values, params.values)
                        best_params = ParamVector(values, params.network, params.frozen_norm)
            del spare, opt  # freed before the teacher snapshot and the next fresh draw
            if cfg.distill.enabled and stage < cfg.stages:
                teacher = snapshot_teacher(params, bundle.train, source_stage=stage)
                if run_dir is not None:
                    save_teacher_cache(teacher, run_dir / f"teacher_stage{stage}.bin")
    except NumericalError as exc:
        failure = str(exc)

    if run_dir is not None:
        emit_metrics(records, run_dir / "metrics.jsonl")
        write_summary_csv(records, epoch_ms, run_dir / "summary.csv")
        if records:
            best_params = load_checkpoint(run_dir / "best.ckpt")[0]
    return RunResult(cfg, records, params, best_params, boundary_events, counters, failure, run_dir)


def _row(fields: dict, res: RunResult) -> dict:
    """A study row: the cell's own fields plus what its run reports."""
    return {
        **fields,
        "run_id": res.run_id,
        "failed": res.failed,
        "val_acc": res.best_val_acc,
        "test_acc": res.best_test_acc,
        "total_steps": res.total_steps,
    }


def _run_cells(groups, out_dir, extra=None) -> list[dict]:
    """Run each (data_cfg, cells) group's (fields, cfg) cells in order on
    prepare_data(data_cfg); a cell's row is _row(fields, result), plus
    extra(result, bundle) when given. One group's data is alive at a time.
    A study with no cell, or with two cells that would share a run
    directory, is an error raised before any data is prepared."""
    ids = [cfg.run_id for _, cells in groups for _, cfg in cells]
    if not ids:
        raise ConfigurationError("the study has no cells to run")
    repeated = sorted({run_id for run_id in ids if ids.count(run_id) > 1})
    if repeated:
        raise ConfigurationError(f"repeated cells: run ids {repeated} would share a run directory")
    rows = []
    for data_cfg, cells in groups:
        bundle = prepare_data(data_cfg)
        for fields, cfg in cells:
            res = run_experiment(cfg, bundle, out_dir)
            rows.append(_row(fields, res) | (extra(res, bundle) if extra else {}))
        del bundle
    return rows


def _study_file(kind: str, base_cfg: RunConfig, axes: dict, rows: list, out_dir, **derived) -> dict:
    """The study file as its JSON reads back, written to <out_dir>/<kind>.json first when out_dir is given."""
    study = {"study": kind, "base": base_cfg.to_dict(), "axes": axes, "rows": rows, **derived}
    study = json.loads(json.dumps(study, default=np.generic.item))  # numpy axis values as Python ones
    if out_dir is not None:
        write_json(study, Path(out_dir) / f"{kind}.json")
    return study


def _check_offline(base_cfg: RunConfig) -> None:
    if base_cfg.online:
        raise ConfigurationError("study base config key online must be false; online_sim makes its own cells online")


def grid_search(base_cfg: RunConfig, lr_grid, wd_grid, out_dir=None) -> dict:
    """One run per (lr, wd) cell, in order, over shared data; winner by validation accuracy.

    Returns what it writes to grid.json: rows, the cells sorted by (lr, wd),
    beside the chosen {lr, wd} and the robustness, the test-accuracy spread
    over the surviving cells. Ties prefer the smaller lr, then the smaller wd.
    Failed (diverged) cells stay in the table but never win; a grid with no
    surviving cell is an error.
    """
    _check_offline(base_cfg)
    axes = {"lrs": list(lr_grid), "wds": list(wd_grid)}
    cells = [
        ({"lr": lr, "wd": wd}, _cell_config(base_cfg, f"lr{lr}-wd{wd}", lr=lr, weight_decay=wd))
        for lr in axes["lrs"]
        for wd in axes["wds"]
    ]
    rows = sorted(_run_cells([(base_cfg, cells)], out_dir), key=lambda r: (r["lr"], r["wd"]))
    alive = [r for r in rows if not r["failed"]]
    if not alive:
        raise HarnessError("every grid cell diverged")
    chosen = min(alive, key=lambda r: (-r["val_acc"], r["lr"], r["wd"]))
    accs = [r["test_acc"] for r in alive]
    derived = {"chosen": {"lr": chosen["lr"], "wd": chosen["wd"]}, "robustness": max(accs) - min(accs)}
    return _study_file("grid", base_cfg, axes, rows, out_dir, **derived)


def stage_sweep(base_cfg: RunConfig, t_values, out_dir=None) -> dict:
    """Equal-compute comparison across stage counts over shared data; T=1, plain training, is the baseline."""
    _check_offline(base_cfg)
    axes = {"t_values": list(t_values)}
    cells = []
    for t in axes["t_values"]:
        boundary = {"reinit": ReinitSpec("none"), "distill": DistillConfig()} if t == 1 else {}
        cfg = _cell_config(base_cfg, f"T{t}", stages=t, **boundary)  # RunConfig checks t first
        if base_cfg.epochs % t != 0:
            raise ConfigurationError(
                f"stage count {t} does not divide {base_cfg.epochs} epochs; compute parity breaks"
            )
        cells.append(({"stages": t}, cfg))
    # compute parity: t divides the epochs and each offline stage trains on the whole split
    return _study_file("stage_sweep", base_cfg, axes, _run_cells([(base_cfg, cells)], out_dir), out_dir)


def _cell_config(base_cfg: RunConfig, cell: str, **changes) -> RunConfig:
    """A study cell's config. A named base run gets the cell appended to its
    name; unnamed cells have content-addressed ids."""
    if base_cfg.run_name:
        changes["run_name"] = f"{base_cfg.run_name}-{cell}"
    return replace(base_cfg, **changes)


def _rule(base_cfg: RunConfig, kind: str) -> ReinitSpec:
    """The base config's own re-init rule when it is of this kind, factors
    included; the default rule of the kind otherwise."""
    return base_cfg.reinit if base_cfg.reinit.kind == kind else ReinitSpec(kind)


# noise-study method -> (re-init kind, distill)
METHOD_TABLE = {
    "standard": ("none", False),
    "sp": ("shrink_perturb", False),
    "sp_distill": ("shrink_perturb", True),
    "full": ("full", False),
    "full_distill": ("full", True),
}


def _method_config(base_cfg: RunConfig, method: str) -> RunConfig:
    if method not in METHOD_TABLE:
        raise ConfigurationError(f"unknown method {method!r}; expected one of {sorted(METHOD_TABLE)}")
    kind, distill = METHOD_TABLE[method]
    dist = replace(base_cfg.distill, enabled=True) if distill else DistillConfig()
    stages = 1 if method == "standard" else base_cfg.stages
    return replace(base_cfg, reinit=_rule(base_cfg, kind), distill=dist, stages=stages)


def noise_study(base_cfg: RunConfig, q_values, methods, out_dir=None) -> dict:
    """Per (q, method) accuracy plus memorization of the corrupted subset.

    Memorization rate is the best checkpoint's accuracy against the noisy
    labels on the corrupted indices; the standard method also gets an arm
    with half the epochs, since shortening training is the classical
    defense against fitting noise. Every other method re-initializes between
    the base config's stages, so it needs a base of 2 or more stages.
    """
    _check_offline(base_cfg)
    axes = {"q_values": list(q_values), "methods": list(methods)}
    groups = []
    for q in axes["q_values"]:
        q_cfg = replace(base_cfg, noise_q=q)
        cells = []
        for method in axes["methods"]:
            method_cfg = _method_config(q_cfg, method)
            cfg = _cell_config(method_cfg, f"q{q}-{method}")
            cells.append(({"q": q, "method": method, "epochs": cfg.epochs}, cfg))
            if method == "standard" and cfg.epochs > 1:
                half = cfg.epochs // 2
                arm = f"standard@{half}ep"
                arm_cfg = _cell_config(method_cfg, f"q{q}-{arm}", epochs=half)
                cells.append(({"q": q, "method": arm, "epochs": half}, arm_cfg))
        groups.append((q_cfg, cells))
    return _study_file("noise_study", base_cfg, axes, _run_cells(groups, out_dir, _memorization), out_dir)


def _memorization(res: RunResult, bundle: DataBundle) -> dict:
    """The best checkpoint's accuracy against the noisy labels on the corrupted subset."""
    rows = np.flatnonzero(bundle.noise_mask)
    if rows.size == 0 or res.best_params is None:
        return {"memorization": None}
    return {"memorization": evaluate_accuracy(res.best_params, bundle.train, rows)}


# online method -> the re-init kind that maps one chunk's final parameters to the next start
ONLINE_METHODS = {"scratch": "full", "warm_start": "none", "shrink_perturb": "shrink_perturb"}


def online_sim(base_cfg: RunConfig, methods=tuple(ONLINE_METHODS), out_dir=None) -> dict:
    """Data arrives in base_cfg.stages equal chunks; each method trains on all data so far.

    Each method is one online run of the base's stages, epochs // stages
    epochs each: stage k trains on the first k chunks, and the boundary
    before it maps stage k-1's final parameters to its start by
    _rule(base_cfg, ONLINE_METHODS[method]). Chunk 1 is identical for all
    methods by construction. Each chunk's row reads that stage's records.
    The base config must be 2 or more stages without distillation.
    """
    if not base_cfg.staged:
        raise ConfigurationError(f"online_sim needs a base config of 2 or more stages, one per chunk, got {base_cfg.stages}")
    if base_cfg.distill.enabled:
        raise ConfigurationError("online chunks train without distillation, but the base config enables it")
    axes = {"methods": list(methods)}
    cells = []
    for m in axes["methods"]:
        if m not in ONLINE_METHODS:
            raise ConfigurationError(f"unknown online method {m!r}; expected one of {tuple(ONLINE_METHODS)}")
        cfg = _cell_config(base_cfg, m, online=True, reinit=_rule(base_cfg, ONLINE_METHODS[m]))
        cells.append(({"method": m}, cfg))
    return _study_file("online_sim", base_cfg, axes, _run_cells([(base_cfg, cells)], out_dir, _chunk_rows), out_dir)


def _chunk_rows(res: RunResult, bundle: DataBundle) -> dict:
    """An online run's row per chunk: _row of the run cut to that stage's
    records, steps and failure, with the stage's training size and last
    test accuracy."""
    cfg = res.config
    per_stage = make_stage_plan(cfg.epochs, cfg.stages)
    rows, start = [], 0
    for k, seen in enumerate(_stage_rows(cfg, bundle.train), start=1):
        records = res.records[(k - 1) * per_stage : k * per_stage]
        done = len(records) == per_stage
        end = records[-1].step if done else res.total_steps
        failure = None if done else res.failure
        stage = replace(res, records=records, counters={"optimizer_steps": end - start}, failure=failure)
        final = records[-1].test_acc if records else None
        rows.append(_row({"chunk": k, "train_size": seen.shape[0], "final_test_acc": final}, stage))
        start = end
    return {"chunks": rows}
