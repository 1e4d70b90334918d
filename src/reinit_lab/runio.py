"""Metrics logging, JSON files and checkpoint files for training runs.

metrics.jsonl carries one record per epoch, all of its fields and no
wall-clock time, so identical runs produce byte-identical files; per-stage
wall time goes to summary.csv instead, which makes no byte-level promises.
Binary files (checkpoints, teacher caches) are one JSON header line followed
by a little-endian float32 payload. Every writer goes through _replacing, so
no file under its final name is ever half written.
"""
from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import FormatError, ReinitLabError, check_fields, from_json, integer
from .nn import FrozenNormLayer, NetworkSpec, ParamVector

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

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@contextmanager
def _replacing(path, mode: str = "w", **kwargs):
    """The open file <name>.tmp beside path, moved onto path by os.replace
    once the block finishes; a block that raises leaves path as it was and
    no temporary behind."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def best_record(records: list[MetricsRecord]) -> MetricsRecord | None:
    """The first record of highest val_acc, or None when there are none."""
    return max(records, key=lambda r: r.val_acc, default=None)


def emit_metrics(records, path) -> None:
    with _replacing(path) as fh:
        for rec in records:
            fh.write(rec.to_json_line() + "\n")


def read_metrics(path) -> list[MetricsRecord]:
    """An emit_metrics file's records; FormatError naming the file, and the
    line of a bad record, when it is not UTF-8 JSON lines. An OSError of
    opening or reading the file passes through, as in read_json."""
    out = []
    with open(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                try:
                    rec = from_json(MetricsRecord, json.loads(line), "metrics line")
                    check_fields(rec, "metrics line")  # at the file boundary; the training loop needs no check
                    out.append(rec)
                except (ReinitLabError, json.JSONDecodeError) as exc:
                    raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not a UTF-8 file: {exc}") from exc
    return out


def read_json(path):
    """The JSON value in the file at path; FormatError naming it if it is not UTF-8 JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: not a JSON file: {exc}") from exc


def write_summary_csv(records: list[MetricsRecord], epoch_ms: list[float], path) -> None:
    """One row per stage of a run's records, in stage order: its epochs and
    optimizer steps, its last epoch's accuracies and weight norm, its best
    val_acc and its wall time, the sum of its epochs' epoch_ms (one per
    record)."""
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        header = "run_id stage epochs steps stage_val_acc stage_test_acc best_val_acc weight_norm wall_ms"
        writer.writerow(header.split())
        steps_before = 0
        for stage, group in groupby(zip(records, epoch_ms), key=lambda pair: pair[0].stage):
            recs, times = zip(*group)
            last = recs[-1]
            steps, best = last.step - steps_before, best_record(recs).val_acc
            wall_ms = round(sum(times), 3)
            writer.writerow(
                [last.run_id, stage, len(recs), steps, last.val_acc, last.test_acc, best, last.weight_norm, wall_ms]
            )
            steps_before = last.step


def write_json(obj, path) -> None:
    """obj as sorted, indented JSON; creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _replacing(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)


def write_framed(path, header: dict, values: np.ndarray) -> None:
    """One JSON header line, then values as little-endian float32, written
    from the array's own buffer when it already is that."""
    with _replacing(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(memoryview(np.ascontiguousarray(values, dtype="<f4")).cast("B"))


def read_framed(path, what: str, payload: str, build):
    """The object build(header, values) makes of a write_framed file, where
    values(n) is the payload as n read-only float32 values.

    The one place a loader's errors become FormatError naming the file: a
    payload of another length raises "expected 4n <payload>", and anything
    else that reading the header or building the object raises (other than a
    FormatError) raises "bad <what> header".
    """
    with open(path, "rb") as fh:
        raw, body = fh.readline(), fh.read()

    def values(count: int) -> np.ndarray:
        if len(body) != count * 4:
            raise FormatError(f"{path}: expected {count * 4} {payload}, found {len(body)}")
        return np.frombuffer(body, dtype="<f4")

    try:
        return build(json.loads(raw), values)
    except FormatError:
        raise
    except (ReinitLabError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad {what} header: {exc}") from exc


def save_checkpoint(path, params: ParamVector, seed: int, stage: int, epoch: int) -> None:
    """One JSON header line, then the parameters as little-endian float32."""
    network, fn = params.network, params.frozen_norm
    header = {
        "network": asdict(network),
        "layout": {"total_len": network.param_count, "num_blocks": network.num_blocks},
        "seed": seed,
        "stage": stage,
        "epoch": epoch,
        "frozen_norm": None
        if fn is None
        else {
            "insert_after_block": fn.insert_after_block,
            "mean": [float(v) for v in fn.mean],
            "std": [float(v) for v in fn.std],
        },
    }
    write_framed(path, header, params.values)


def load_checkpoint(path) -> tuple[ParamVector, dict]:
    """A save_checkpoint file's parameters (network and frozen norm included)
    and header; FormatError naming the file when the header does not fit."""

    def build(header, values):
        network = from_json(NetworkSpec, header["network"], "network")
        recorded = tuple(integer(header["layout"][k], f"layout key {k}") for k in ("total_len", "num_blocks"))
        derived = (network.param_count, network.num_blocks)
        if recorded != derived:
            raise FormatError(
                f"{path}: header layout (total_len, num_blocks) = {recorded} does not match "
                f"{derived} from its network"
            )
        f = header.get("frozen_norm")
        fn = FrozenNormLayer(f["insert_after_block"], np.array(f["mean"]), np.array(f["std"])) if f else None
        return ParamVector(values(network.param_count).copy(), network, fn), header

    return read_framed(path, "checkpoint", "parameter bytes", build)
