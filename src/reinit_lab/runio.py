"""Metrics logging and checkpoint files for training runs.

metrics.jsonl carries one record per epoch. Wall-clock time is kept on the
in-memory records only and never serialized there, so identical runs produce
byte-identical files; per-stage wall time goes to summary.csv instead, which
makes no byte-level promises.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .nn import FrozenNormLayer, NetworkSpec, ParamVector, build_layout

METRICS_FIELDS = (
    "run_id",
    "stage",
    "epoch",
    "step",
    "lr",
    "train_loss",
    "train_acc",
    "val_acc",
    "test_acc",
    "weight_norm",
)

SUMMARY_FIELDS = (
    "run_id",
    "stage",
    "epochs",
    "steps",
    "stage_val_acc",
    "stage_test_acc",
    "best_val_acc",
    "weight_norm",
    "wall_ms",
)


@dataclass
class MetricsRecord:
    """One epoch of telemetry. ``step`` counts optimizer steps so far."""

    run_id: str
    stage: int
    epoch: int
    step: int
    lr: float
    train_loss: float
    train_acc: float
    val_acc: float
    test_acc: float
    weight_norm: float
    wall_ms: float = 0.0

    def to_json_line(self) -> str:
        d = asdict(self)
        del d["wall_ms"]
        return json.dumps(d, sort_keys=True)


def emit_metrics(records, path) -> None:
    path = Path(path)
    try:
        with open(path, "w") as fh:
            for rec in records:
                fh.write(rec.to_json_line() + "\n")
    except OSError as exc:
        raise FormatError(f"cannot write metrics to {path}: {exc}") from exc


def read_metrics(path) -> list[dict]:
    out = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    except OSError as exc:
        raise FormatError(f"cannot read metrics from {path}: {exc}") from exc
    return out


def write_summary_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in SUMMARY_FIELDS})


def save_checkpoint(
    path,
    network: NetworkSpec,
    params: ParamVector,
    seed: int,
    stage: int,
    epoch: int,
    frozen_norm: FrozenNormLayer | None = None,
) -> None:
    """One JSON header line, then the parameters as little-endian float32."""
    layout = params.layout
    header = {
        "network": network.to_dict(),
        "layout": {"total_len": layout.total_len, "num_blocks": layout.num_blocks},
        "seed": seed,
        "stage": stage,
        "epoch": epoch,
        "frozen_norm": None
        if frozen_norm is None
        else {
            "insert_after_block": frozen_norm.insert_after_block,
            "mean": [float(v) for v in frozen_norm.mean],
            "std": [float(v) for v in frozen_norm.std],
        },
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(params.values, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[ParamVector, dict, FrozenNormLayer | None]:
    with open(path, "rb") as fh:
        raw = fh.readline()
        try:
            header = json.loads(raw)
            network = NetworkSpec.from_dict(header["network"])
            recorded = (header["layout"]["total_len"], header["layout"]["num_blocks"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad checkpoint header: {exc}") from exc
        body = fh.read()
    layout = build_layout(network)
    if recorded != (layout.total_len, layout.num_blocks):
        raise FormatError(
            f"{path}: header layout (total_len, num_blocks) = {recorded} does not match "
            f"{(layout.total_len, layout.num_blocks)} from its network"
        )
    want = layout.total_len * 4
    if len(body) != want:
        raise FormatError(f"{path}: expected {want} parameter bytes, found {len(body)}")
    values = np.frombuffer(body, dtype="<f4").copy()
    fn = None
    if header.get("frozen_norm"):
        f = header["frozen_norm"]
        fn = FrozenNormLayer(int(f["insert_after_block"]), np.array(f["mean"]), np.array(f["std"]))
    return ParamVector(values, layout), header, fn
