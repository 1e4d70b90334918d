"""Benchmark a base commit against the working tree in alternating pairs.

    python tools/ab.py BASE --out BENCH_27.json [--pairs 10 (at least 6)] [--seconds 45] [--seed 13]
                       [--workload desk_sp --workload img_aug_distill]

Checks BASE out in a detached ``git worktree`` under ``.perfbench/work/`` and
runs ``bench/run.py --trace 0`` there and in this working tree (uncommitted
edits included), one after the other, for each of ``--pairs`` pairs per
workload. The side that runs first alternates from pair to pair, so drift on
a shared host falls on both sides alike. Both sides run the same seed and
``--seconds``; each side's ``bench/`` is its own checkout's. The worktree is
removed afterwards, also when a run fails.

Writes one JSON file: per workload and end-to-end metric of
``BENCHMARK.json``, each side's per-pair values, median and quartiles
(``statistics.quantiles``, exclusive method), the pairs the change wins (it
reads better than the base, by the metric's direction; ties count for
neither), the exact two-sided sign-test p-value of those wins against the
losses (``p_sign``) and the difference of the medians; per pair, the order
and each side's count of timed calls (the resident peak creeps with it); and
the environment the bench children report. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` invocation in checkout: its result object, plus
    the number of timed calls from the detail file it writes."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited with {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    detail = json.loads((checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    calls = sum(1 for c in detail["calls"] if not c["warmup"] and not c["traced"])
    return {"result": result, "calls": calls, "env": detail["env"]}


def sign_p(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p-value of wins against losses (ties
    dropped): twice the chance that fair coin flips, one per pair, split at
    least this unevenly, at most 1."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2 * tail)


def summary(base: list[float], change: list[float], better: str) -> dict:
    wins = sum(1 for b, c in zip(base, change) if (c < b if better == "lower" else c > b))
    losses = sum(1 for b, c in zip(base, change) if (c > b if better == "lower" else c < b))
    stats = {}
    for side, values in zip(SIDES, (base, change)):
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        stats[side] = {"values": values, "median": median, "q1": q1, "q3": q3}
    stats["wins"] = wins
    stats["p_sign"] = sign_p(wins, losses)
    stats["pairs"] = len(base)
    stats["median_change_minus_base"] = stats["change"]["median"] - stats["base"]["median"]
    return stats


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="the commit to compare the working tree against")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--workload", action="append", choices=names, help="repeatable; all workloads when absent")
    args = p.parse_args(argv)
    if args.pairs < 6:
        # 6 pairs all one way give p_sign = 2/64 = 0.03125; fewer can never show a change
        p.error(
            f"--pairs must be >= 6: the smallest two-sided p_sign of {args.pairs} pairs is "
            f"{sign_p(max(args.pairs, 0), 0):g}, not below 0.05"
        )

    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    worktree = ROOT / ".perfbench" / "work" / f"ab-{base_commit[:12]}"
    if worktree.exists():  # left by an interrupted run
        git("worktree", "remove", "--force", str(worktree))
    git("worktree", "add", "--detach", str(worktree), base_commit)
    report = {
        "base": base_commit,
        "change": git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain") else ""),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    try:
        for workload in args.workload or names:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                runs = {}
                for side in order:
                    runs[side] = bench(worktree if side == "base" else ROOT, workload, args.seed, args.seconds)
                    result = json.dumps(runs[side]["result"])
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: {result}", file=sys.stderr)
                pairs.append({"order": list(order), **runs})
            metrics = {}
            for m in spec["end_to_end"]:
                base, change = ([pair[side]["result"]["metrics"][m["name"]]["value"] for pair in pairs] for side in SIDES)
                metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
                metrics[m["name"]].update(summary(base, change, m["better"]))
            report["workloads"][workload] = {
                "metrics": metrics,
                "correct": {side: all(pair[side]["result"]["correct"] for pair in pairs) for side in SIDES},
                "pairs": [
                    {"order": pair["order"], **{side: {"calls": pair[side]["calls"]} for side in SIDES}} for pair in pairs
                ],
            }
            # one host runs every workload; the file keeps the last workload's record of it
            report["env"] = {side: pairs[0][side]["env"] for side in SIDES}
    finally:
        git("worktree", "remove", "--force", str(worktree))
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
