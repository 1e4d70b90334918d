"""reinit-lab benchmark: times the library's public calls on fixed workloads.

    python3 bench/run.py --workload desk_sp --seed 1 --seconds 45 --trace 0

--seconds is how long the timed calls run; run_seconds in BENCHMARK.json is
the value that comparable measurements use. Run from the root of a source
checkout. This parent process only starts children one after another
(``bench/child.py``) with ``src`` on PYTHONPATH, and never imports numpy or
the library itself. Each child runs BLAS on one thread and has
REINIT_LAB_THREADS unset. On a few shared cores, BLAS's spinning threads
measure the scheduler, not the code: one busy neighbouring process made the
desk run four times slower at 2 BLAS threads and left it unchanged at 1.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the run time,
CPU time and peak memory of one child making a warm-up call and timed calls,
then set-up time as the median of several fresh children started after it,
when the host has settled under load. Run and CPU time are the mean over
the timed calls, i.e. the whole timed window divided by the calls made in
it: on a shared host one call can take up to twice as long as the next, in
spells of several seconds, and the per-call median jumps with the share of
slowed calls where the mean moves in proportion to it. --trace 1 reports
the per-layer metrics: one child alternates traced and plain calls, whose
outputs must be byte-identical.

Every run is checked (diverged, step count, accuracy floor, and digests of
metrics.jsonl and best.ckpt equal across all runs of one invocation). The
full record, environment included, goes to .perfbench/results/; the last line
on stdout is the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"

BLAS_THREADS = 1
SETUP_SAMPLES = 9  # measured set-up children, after one unmeasured warm-up child
TIME_LIMIT_S = 170.0  # the whole invocation, children included
ACCOUNTED_TOLERANCE = 0.01


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "reinit_lab" / "__init__.py").is_file():
        print(f"no reinit_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        detail = measure(args, spec, work, results)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (results / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(detail["result"]))
    return 0


def measure(args, spec: dict, work: Path, results: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    env = {k: v for k, v in os.environ.items() if k != "REINIT_LAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)

    def child(mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(BENCH / "child.py"), mode, "--workload", args.workload]
        cmd += ["--seed", str(args.seed), "--work", str(work), *extra]
        try:
            done = subprocess.run(
                cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=deadline - time.monotonic()
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child ran past the {TIME_LIMIT_S:.0f} s limit") from None
        if done.returncode != 0:
            raise BenchError(f"{mode} child exited with {done.returncode}: {done.stderr.strip()[-2000:]}")
        return json.loads(done.stdout.splitlines()[-1])

    child("gen")
    if args.trace:
        spans = results / f"spans-{args.workload}.json"
        run = child("run", "--seconds", str(args.seconds), "--trace", "1", "--spans", str(spans))
    else:
        run = child("run", "--seconds", str(args.seconds))
        setup_s = [child("setup")["setup_s"] for _ in range(SETUP_SAMPLES + 1)][1:]

    # every run of the child, the warm-up and traced ones included, is checked
    records = [r for call in run["calls"] for r in call["runs"]]
    check_digests(records)
    failed = sum(1 for r in records if r["problems"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": {**run["env"], "git_commit": git_commit(), "blas_threads_set": BLAS_THREADS},
        "calls": run["calls"],
        "problems": sorted({p for r in records for p in r["problems"]}),
    }
    timed = [c for c in run["calls"] if not c["warmup"] and not c["traced"]]
    run_s = [c["run_s"] for c in timed]
    detail["run_s_quartiles"] = statistics.quantiles(run_s, n=4)
    self_test_ok = True
    if args.trace:
        values, self_test_ok = layer_values(run, detail)
        names = spec["per_layer"]
    else:
        detail["setup_s_samples"] = setup_s
        values = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.fmean(run_s),
            "cpu_s": statistics.fmean(c["cpu_s"] for c in timed),
            "peak_rss_mb": run["peak_rss_mb"],
            "pass_share": (len(records) - failed) / len(records),
        }
        names = spec["end_to_end"]
    detail["result"] = {
        "correct": failed == 0 and self_test_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    return detail


def check_digests(records: list[dict]) -> None:
    """Fail every run whose output files differ from the first run of the same key."""
    first: dict[str, dict] = {}
    for r in records:
        if "metrics_sha256" not in r:
            continue
        ref = first.setdefault(r["key"], r)
        for f in ("metrics_sha256", "ckpt_sha256"):
            if r[f] != ref[f]:
                r["problems"].append(f"{f} differs from the first run of {r['key']}")


def layer_values(run: dict, detail: dict) -> tuple[dict, bool]:
    """Per-layer metrics of the traced calls, and whether their self-test holds."""
    calls = run["calls"][1:]
    traced = [c for c in calls if c["traced"]]
    values = {k: statistics.median_low(c["layers"][k] for c in traced) for k in traced[0]["layers"]}
    accounted = [c["layers"]["trace.accounted_share"] for c in traced]
    detail["trace_accounted_share"] = accounted
    ok = all(1 - ACCOUNTED_TOLERANCE <= a <= 1 + 1e-9 for a in accounted)
    if not ok:
        detail["problems"].append(f"traced self times account for {accounted} of the wall time")
    floor_us = run["matmul_floor_us"]
    # each traced call against the plain call right after it, so drift cancels
    ratios = [t["run_s"] / p["run_s"] for t, p in zip(calls[::2], calls[1::2])]
    values.update(
        {
            "data.prepare.ms": statistics.median(c["prepare_ms"] for c in traced),
            "runio.bytes": statistics.median(c["bytes"] for c in traced),
            "nn.matmul_floor.us_per_step": floor_us,
            "nn.loss_grad.floor_ratio": values["nn.loss_grad.us_per_call"] / floor_us,
            "trace.overhead_share": statistics.median(ratios) - 1,
        }
    )
    return values, ok


def git_commit() -> str | None:
    """HEAD, with "-dirty" if the worktree has changes; None unless ROOT is a git worktree's top."""

    def git(*cmd: str) -> str:
        return subprocess.run(
            ["git", "--no-optional-locks", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout

    try:
        top, head = git("rev-parse", "--show-toplevel", "HEAD").split()
        if Path(top).resolve() != ROOT:
            return None
        return head + ("-dirty" if git("status", "--porcelain").strip() else "")
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


if __name__ == "__main__":
    sys.exit(main())
