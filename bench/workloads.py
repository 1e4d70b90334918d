"""The benchmark's workloads: the config each builds from the workload seed,
the one library call it times, and the checks every run it makes must pass.

Calls go through the ``reinit_lab.harness`` module attributes, so a tracer
that replaces those attributes sees them; untraced runs call the library's
own functions.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reinit_lab import DataConfig, NetworkSpec, ReinitLabError, ReinitSpec, RunConfig, Seeds, harness
from reinit_lab.harness import DistillConfig

import idxgen


def seeds(s: int) -> Seeds:
    """Four seed streams from one base seed, as the CLI's --seed derives them."""
    return Seeds(s, s + 1, s + 2, s + 3)


def desk_sp(seed: int, work: Path) -> RunConfig:
    return RunConfig(
        network=NetworkSpec(50, (256, 128), 10, block_boundaries=(1, 2)),
        data=DataConfig(num_classes=10, dim=50, per_class=600, class_separation=2.5),
        lr=0.01,
        epochs=60,
        stages=5,
        reinit=ReinitSpec("shrink_perturb", lam=0.25, gamma=0.45),
        seeds=seeds(seed),
    )


IMG_COUNT = 3000


def img_paths(work: Path) -> tuple[Path, Path]:
    return work / "images.idx", work / "labels.idx"


def img_inputs(seed: int, work: Path) -> None:
    images, labels = idxgen.make_images(seed, IMG_COUNT)
    idxgen.write_idx(images, labels, *img_paths(work))


def img_aug_distill(seed: int, work: Path) -> RunConfig:
    images, labels = img_paths(work)
    return RunConfig(
        network=NetworkSpec(784, (256, 128), 10, block_boundaries=(1, 2)),
        data=DataConfig(source="idx", images_path=str(images), labels_path=str(labels)),
        setting="dcw",
        lr=0.02,
        weight_decay=5e-4,
        epochs=20,
        stages=4,
        reinit=ReinitSpec("shrink_perturb"),
        distill=DistillConfig(enabled=True, beta=1.0),
        noise_q=0.2,
        seeds=seeds(seed),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, Path], RunConfig]
    expected_steps: int  # optimizer steps of every run
    acc_floor: float  # lowest acceptable best test accuracy of every run
    inputs: Callable[[int, Path], None] | None = None  # writes input files into the work dir

    def call(self, cfg: RunConfig, bundle, out_dir: Path):
        """The timed library call."""
        return harness.run_experiment(cfg, bundle, out_dir)

    def outcomes(self, result, out_dir: Path) -> list[dict]:
        """The record of a finished call's run, read back from its run directory."""
        run_dir, acc = out_dir / result.run_id, result.best_test_acc
        metrics = run_dir / "metrics.jsonl"
        lines = metrics.read_text().splitlines() if metrics.exists() else []
        steps = json.loads(lines[-1])["step"] if lines else 0
        problems = []
        if result.failed:
            problems.append("diverged")
        if steps != self.expected_steps:
            problems.append(f"{steps} optimizer steps, expected {self.expected_steps}")
        if acc < self.acc_floor:
            problems.append(f"best test accuracy {acc:.4f} below floor {self.acc_floor}")
        return [{
            "key": "run",
            "steps": steps,
            "best_test_acc": acc,
            "metrics_sha256": _sha256(metrics),
            "ckpt_sha256": _sha256(run_dir / "best.ckpt"),
            "problems": problems,
        }]

    def failed_call(self, exc: ReinitLabError) -> list[dict]:
        """The record of a call that raised: its run failed."""
        return [{"key": "run", "problems": [f"{type(exc).__name__}: {exc}"]}]


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance gate's desk run: 33 steps/epoch x 60 epochs
        Workload("desk_sp", desk_sp, expected_steps=1980, acc_floor=0.6),
        # 2,025 training images, 17 steps/epoch x 20 epochs
        Workload("img_aug_distill", img_aug_distill, expected_steps=340, acc_floor=0.6, inputs=img_inputs),
    )
}
