"""Teacher snapshotting and cached-prediction lookup for self-distillation.

At the end of a stage the model's class probabilities on the clean training
inputs are cached once; later stages read rows out of the cache instead of
re-running the teacher. Stage 1 has no previous stage, so the training loop
reads no cache there.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, check_fields, integer, rule
from .nn import NO_GRAD_ROWS, ParamVector, forward, softmax
from .runio import read_framed, write_framed


@dataclass
class TeacherCache:
    """Per-example probability table from the end of ``source_stage``.

    ``probs`` is read-only after construction.
    """

    probs: np.ndarray
    source_stage: int = rule(MISSING, "be >= 1", lambda v: v >= 1)

    def __post_init__(self):
        check_fields(self, "teacher cache")
        p = np.asarray(self.probs)
        if p.ndim != 2:
            raise DataError(f"teacher table must be 2-D, got shape {p.shape}")
        if not np.all(np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
            raise DataError("teacher probabilities must be finite and within [0, 1]")
        sums = p.sum(axis=1, dtype=np.float64)
        bad = np.abs(sums - 1.0) > 1e-6
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DataError(f"teacher row {i} sums to {float(sums[i])}, expected 1 within 1e-6")
        self.probs = p


def snapshot_teacher(params: ParamVector, train: Dataset, source_stage: int) -> TeacherCache:
    """One forward sweep over the clean training split, softmaxed and cached.

    Its rows are read normalized but never augmented, NO_GRAD_ROWS at a time;
    each cached row serves every augmented view of its example in later stages.
    """
    rows = []
    for start in range(0, train.n, NO_GRAD_ROWS):
        logits = forward(params, train.rows(slice(start, start + NO_GRAD_ROWS)))
        rows.append(softmax(logits.astype(np.float64)).astype(np.float32))
    return TeacherCache(np.concatenate(rows, axis=0), source_stage)


def distill_rows(cache: TeacherCache, batch_indices: np.ndarray) -> np.ndarray:
    """Teacher rows aligned with a training batch."""
    return cache.probs[batch_indices]


def save_teacher_cache(cache: TeacherCache, path) -> None:
    header = {
        "rows": int(cache.probs.shape[0]),
        "cols": int(cache.probs.shape[1]),
        "source_stage": cache.source_stage,
    }
    write_framed(path, header, cache.probs)


def load_teacher_cache(path) -> TeacherCache:
    def build(header, values):
        rows, cols = (integer(header[k], f"teacher cache key {k}") for k in ("rows", "cols"))
        probs = values(rows * cols).reshape(rows, cols)
        return TeacherCache(probs, header["source_stage"])

    return read_framed(path, "teacher cache", "payload bytes after header", build)
