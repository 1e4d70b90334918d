"""Digest every file a fixed set of runs, studies and CLI commands writes.

    python tools/run_digests.py OUT > digests.json

Runs both benchmark workloads at seeds 0 and 7 (their configs are imported
from ``bench/workloads.py``), a layer-wise + distillation stage sweep, a
label-noise study and a grid over two LRs at weight decay 0, the one value
setting ``none`` allows (each unnamed and named), two online simulations,
the ``grid`` (at its default weight decay), ``stages``, ``noise`` and
``online`` CLI commands, two shrink-perturb CLI runs at the (lambda, gamma)
corners (1, 0) and (0, 1), and a ``train`` run built from flags, replayed
with ``--config`` on the ``config.json`` it wrote into a second directory
(``cli/train-flags-replay``), so the map itself shows that a replay writes
byte-identical files.
Everything is written under OUT, which must not exist yet or be empty; CLI
stdout goes to ``<command>.stdout`` files there. Prints a sorted
JSON map from each file's path relative to OUT to its sha256;
``summary.csv`` is hashed without its ``wall_ms`` column, the one timing in
the outputs. A ``*.tmp`` file left under OUT is a writer's temporary that
was never renamed into place: the script names each on stderr and exits 1.

A change that should leave every output as it was is checked by running this
script in a checkout of each commit with the same OUT (IDX run ids contain
the input path), emptying OUT in between, and diffing the two maps. A
change that migrates run ids or drops stored keys is checked by keeping
both OUT trees and comparing them with ``tools/migrate_ids.py``. BLAS runs
on one thread, so the maps do not depend on the host's core count.
"""
from __future__ import annotations

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads BLAS

import contextlib
import csv
import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from reinit_lab import (  # noqa: E402
    DataConfig,
    DistillConfig,
    NetworkSpec,
    ReinitSpec,
    RunConfig,
    Seeds,
    grid_search,
    noise_study,
    online_sim,
    run_experiment,
    stage_sweep,
)
from reinit_lab.cli import main as cli_main  # noqa: E402
from reinit_lab.runio import write_json  # noqa: E402

import workloads  # noqa: E402

BENCH_SEEDS = (0, 7)

SMALL = RunConfig(
    network=NetworkSpec(8, (10, 6), 4, block_boundaries=(1, 2)),
    data=DataConfig(num_classes=4, dim=8, per_class=40, class_separation=3.0),
    lr=0.05,
    epochs=6,
    batch_size=25,
    seeds=Seeds(1, 2, 3, 4),
)
LAYERWISE_DISTILL = replace(
    SMALL, stages=3, reinit=ReinitSpec("layer_wise"), distill=DistillConfig(enabled=True, beta=1.0)
)


def bench_runs(out: Path) -> None:
    for name, w in sorted(workloads.WORKLOADS.items()):
        for seed in BENCH_SEEDS:
            work = out / "bench" / f"{name}-s{seed}"
            work.mkdir(parents=True)
            if w.inputs is not None:
                w.inputs(seed, work)
            run_experiment(w.config(seed, work), out_dir=work)


def studies(out: Path) -> None:
    stage_sweep(LAYERWISE_DISTILL, (1, 3, 6), out_dir=out / "sweep")
    stage_sweep(replace(LAYERWISE_DISTILL, run_name="named"), (1, 3, 6), out_dir=out / "sweep-named")
    noise_study(
        replace(SMALL, epochs=4, stages=2),
        (0.0, 0.3),
        ("standard", "sp", "sp_distill", "full", "full_distill"),
        out_dir=out / "noise",
    )
    named_noise = replace(SMALL, epochs=4, stages=2, run_name="named")
    noise_study(named_noise, (0.0, 0.3), ("standard", "sp"), out_dir=out / "noise-named")
    online_sim(replace(SMALL, stages=3), out_dir=out / "online-default")
    online_sim(
        replace(SMALL, stages=2, reinit=ReinitSpec("shrink_perturb", lam=0.6, gamma=0.2)), out_dir=out / "online-sp"
    )
    grid_search(SMALL, (0.01, 0.05), (0.0,), out_dir=out / "grid")
    grid_search(replace(SMALL, run_name="named"), (0.01, 0.05), (0.0,), out_dir=out / "grid-named")


CLI_COMMANDS = {
    "grid": ["grid", "--lrs", "0.01,0.05"],
    "stages": ["stages", "--t-values", "1,2,3", "--reinit", "sp", "--stages", "2"],
    "noise": ["noise", "--q-values", "0,0.3", "--stages", "2", "--epochs", "4"],
    "online": ["online", "--stages", "2"],
    "train-sp-keep": ["train", "--reinit", "sp", "--stages", "2", "--lambda", "1", "--gamma", "0"],
    "train-sp-reset": ["train", "--reinit", "sp", "--stages", "2", "--lambda", "0", "--gamma", "1"],
    "train-flags": [
        "train", "--seed", "5", "--lr", "0.03", "--epochs", "4", "--stages", "2",
        "--reinit", "sp", "--lambda", "0.5", "--distill-beta", "0.5", "--noise-q", "0.1",
    ],
}


def cli(name: str, argv: list[str]) -> str:
    """The stdout of the CLI command argv, which must exit 0."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"CLI command {name} exited {code}")
    return stdout.getvalue()


def cli_runs(out: Path) -> None:
    config = out / "cli" / "config.json"
    write_json(SMALL.to_dict(), config)
    for name, argv in CLI_COMMANDS.items():
        stdout = cli(name, [*argv, "--config", str(config), "--out", str(out / "cli" / name)])
        (out / "cli" / f"{name}.stdout").write_text(stdout)
    run_dir = Path(json.loads((out / "cli" / "train-flags.stdout").read_text())["run_dir"])
    replay = ["train", "--config", str(run_dir / "config.json"), "--out", str(out / "cli" / "train-flags-replay")]
    cli("train-flags-replay", replay)


def digest(path: Path) -> str:
    if path.name != "summary.csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    with open(path, newline="") as fh:
        rows = [{k: v for k, v in row.items() if k != "wall_ms"} for row in csv.DictReader(fh)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/run_digests.py OUT", file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; digests of stale files would mix in", file=sys.stderr)
        return 2
    bench_runs(out)
    studies(out)
    cli_runs(out)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    left = [p for p in files if p.suffix == ".tmp"]
    if left:
        print(f"temporaries left under {out}: {[str(p.relative_to(out)) for p in left]}", file=sys.stderr)
        return 1
    print(json.dumps({str(p.relative_to(out)): digest(p) for p in files}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
