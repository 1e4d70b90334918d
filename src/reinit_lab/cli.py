"""Command-line entry points for training runs and studies.

Every subcommand prints one JSON value on stdout and exits 0; a study
command prints the study file its library call returns and writes. Domain
errors print a JSON object {"error", "message"} on stderr and exit nonzero,
so scripts can branch on the exit code and still parse the reason.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, HarnessError, ReinitLabError
from .harness import (
    SETTING_KEYS,
    SETTINGS,
    DistillConfig,
    RunConfig,
    Seeds,
    grid_search,
    noise_study,
    online_sim,
    run_experiment,
    stage_sweep,
)
from .nn import NetworkSpec
from .reinit import ReinitSpec
from .runio import best_record, read_json, read_metrics

DEFAULT_LR_GRID = (0.005, 0.01, 0.03, 0.05, 0.1)
DEFAULT_WD_GRID = (0.0, 0.0001, 0.0005, 0.001, 0.005)
DEFAULT_T_VALUES = (1, 2, 5, 10, 20, 30)  # each divides the default 60 epochs
NOISE_STAGES = 5  # noise's stage count unless --config or --stages gives one; divides the default 60 epochs

REINIT_TOKENS = {
    "none": "none",
    "sp": "shrink_perturb",
    "layerwise": "layer_wise",
    "full": "full",
}


def default_network() -> NetworkSpec:
    return NetworkSpec(input_dim=50, hidden_dims=(256, 128), num_classes=10, block_boundaries=(1, 2))


def add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file mirroring RunConfig")
    p.add_argument("--lr", type=float)
    p.add_argument("--wd", type=float, help="weight decay (setting dcw only)")
    p.add_argument("--stages", type=int, metavar="T")
    p.add_argument("--reinit", choices=sorted(REINIT_TOKENS))
    p.add_argument("--lambda", dest="lam", type=float, help="shrink factor for sp")
    p.add_argument("--gamma", type=float, help="perturb factor for sp")
    p.add_argument("--distill-beta", type=float, help="KL weight; 0 disables distillation")
    p.add_argument("--noise-q", type=float, help="label noise fraction on the train split")
    p.add_argument("--setting", choices=SETTINGS)
    p.add_argument("--seed", type=int, help="base seed; derives init/data/noise/shuffle")
    p.add_argument("--out", default="runs", help="output directory (default: runs)")
    p.add_argument("--epochs", type=int, help="total epoch budget N")


def build_config(args: argparse.Namespace) -> RunConfig:
    """The --config file's RunConfig (or the default one) with every given
    flag applied at once, so only the merged config is checked."""
    cfg = RunConfig.from_dict(read_json(args.config)) if args.config else RunConfig(network=default_network())
    flags = {
        "lr": args.lr,
        "weight_decay": args.wd,
        "epochs": args.epochs,
        "setting": args.setting,
        "noise_q": args.noise_q,
        "stages": args.stages,
    }
    if args.seed is not None:
        flags["seeds"] = Seeds(args.seed, args.seed + 1, args.seed + 2, args.seed + 3)
    if args.distill_beta is not None:
        flags["distill"] = DistillConfig(enabled=args.distill_beta > 0, beta=args.distill_beta)
    factors = {k: v for k, v in (("lam", args.lam), ("gamma", args.gamma)) if v is not None}
    if args.reinit is not None:
        # ReinitSpec rejects --lambda/--gamma with any other rule than sp
        flags["reinit"] = ReinitSpec(REINIT_TOKENS[args.reinit], **factors)
    elif factors:
        if cfg.reinit.kind != "shrink_perturb":
            raise ConfigurationError("--lambda/--gamma require --reinit sp")
        flags["reinit"] = replace(cfg.reinit, **factors)  # the config's other factor stays
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _numbers(text: str, kind=float) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ConfigurationError(f"expected comma-separated {what}, got {text!r}") from None


def cmd_train(args) -> dict:
    cfg = build_config(args)
    res = run_experiment(cfg, out_dir=args.out)
    if res.failed:
        raise HarnessError(f"run {res.run_id} diverged: {res.failure}")
    return {
        "run_id": res.run_id,
        "run_dir": str(res.run_dir),
        "best_val_acc": res.best_val_acc,
        "best_test_acc": res.best_test_acc,
        "best_epoch": res.best.epoch,
        "total_steps": res.total_steps,
        "failed": res.failed,
    }


def cmd_grid(args) -> dict:
    cfg = build_config(args)
    # a weight-decay grid only where the setting reads weight decay
    wds = DEFAULT_WD_GRID if cfg.setting in SETTING_KEYS["weight_decay"] else (0.0,)
    return grid_search(cfg, _numbers(args.lrs), wds if args.wds is None else _numbers(args.wds), out_dir=args.out)


def cmd_stages(args) -> list[dict]:
    return stage_sweep(build_config(args), _numbers(args.t_values, int), out_dir=args.out)


def cmd_noise(args) -> list[dict]:
    if args.config is None and args.stages is None:
        args.stages = NOISE_STAGES  # the default methods re-initialize between stages
    return noise_study(build_config(args), _numbers(args.q_values), args.methods.split(","), out_dir=args.out)


def cmd_online(args) -> dict:
    return online_sim(build_config(args), args.chunks, tuple(args.methods.split(",")), out_dir=args.out)


def cmd_inspect(args) -> dict:
    run_dir = Path(args.out) / args.run_id
    if not (run_dir / "config.json").exists():
        raise ConfigurationError(f"no run named {args.run_id!r} under {args.out}")
    records = read_metrics(run_dir / "metrics.jsonl")
    best = best_record(records)
    return {
        "run_id": args.run_id,
        "config": read_json(run_dir / "config.json"),
        "epochs_logged": len(records),
        "last": records[-1].to_json() if records else None,
        "best": best.to_json() if best else None,
    }


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reinit-lab",
        description="Staged training with re-initialization between stages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="one training run")
    add_common_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("grid", help="LR x WD grid search")
    add_common_flags(p)
    p.add_argument("--lrs", default=",".join(map(str, DEFAULT_LR_GRID)))
    p.add_argument("--wds", help=f"default: {','.join(map(str, DEFAULT_WD_GRID))} in setting dcw, else 0")
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("stages", help="stage-count sweep at equal compute")
    add_common_flags(p)
    p.add_argument("--t-values", default=",".join(map(str, DEFAULT_T_VALUES)))
    p.set_defaults(fn=cmd_stages)

    p = sub.add_parser("noise", help="label-noise study")
    add_common_flags(p)
    p.add_argument("--q-values", default="0,0.2,0.4")
    p.add_argument("--methods", default="standard,sp,sp_distill")
    p.set_defaults(fn=cmd_noise)

    p = sub.add_parser("online", help="sequential-chunk warm-start simulation")
    add_common_flags(p)
    p.add_argument("--chunks", type=int, default=5)
    p.add_argument("--methods", default="scratch,warm_start,shrink_perturb")
    p.set_defaults(fn=cmd_online)

    p = sub.add_parser("inspect", help="summarize a finished run")
    p.add_argument("run_id")
    p.add_argument("--out", default="runs")
    p.set_defaults(fn=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        # a diverging run overflows; stderr reports that as the one JSON error line, not as numpy's warnings
        with np.errstate(all="ignore"):
            result = args.fn(args)
    except ReinitLabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
