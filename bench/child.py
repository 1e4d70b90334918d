"""One benchmark child process; ``bench/run.py`` starts it and reads its stdout.

Modes:
  gen    write the workload's generated input files into the work directory
  setup  time ``import reinit_lab`` plus ``prepare_data`` in this fresh process
  run    one warm-up call, then timed calls of the workload's library call
         until --seconds have passed; with --trace 1 every other call is traced

The child prints one JSON object on stdout. It starts no threads of its own.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

MIN_TIMED_CALLS = 4
# what runio writes into a run directory; harness writes config.json
RUNIO_FILES = ("metrics.jsonl", "summary.csv", "best.ckpt", "teacher_stage*.bin")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("gen", "setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import workloads  # imports reinit_lab, so this is part of the set-up time

    _check_source(workloads)
    w = workloads.WORKLOADS[args.workload]
    if args.mode == "gen":
        if w.inputs:
            w.inputs(args.seed, args.work)
        report = {}
    elif args.mode == "setup":
        workloads.harness.prepare_data(w.config(args.seed, args.work))
        report = {"setup_s": time.perf_counter() - t0}
    else:
        report = run(w, args)
    print(json.dumps(report))
    return 0


def _check_source(workloads) -> None:
    """Refuse to measure a reinit_lab that is not this checkout's ``src``."""
    src = Path(__file__).resolve().parent.parent / "src"
    lib = Path(workloads.harness.__file__).resolve()
    if src not in lib.parents:
        raise SystemExit(f"reinit_lab was imported from {lib}, not from {src}")


def run(w, args) -> dict:
    """A plain warm-up call, then timed calls until --seconds have passed.

    With --trace 1 the timed calls alternate traced and plain, starting
    traced, so each traced call has a plain neighbour to compare against.
    """
    import workloads
    from reinit_lab import ReinitLabError

    harness = workloads.harness
    cfg = w.config(args.seed, args.work)
    tracer = None
    if args.trace:
        import floor
        import tracer as tracing

        tracer = tracing.Tracer()

    def traced(on: bool):
        return tracer.installed() if on else nullcontext()

    bundle = harness.prepare_data(cfg)

    def call(on: bool) -> dict:
        out = args.work / f"call{len(calls)}"
        with traced(on):
            p0 = time.perf_counter()
            if on:
                # a traced set-up of its own, outside the timed window
                harness.prepare_data(cfg)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result, error = w.call(cfg, bundle, out), None
            except ReinitLabError as exc:
                result, error = None, exc
            t1, c1 = time.perf_counter(), time.process_time()
        rec = {
            "warmup": not calls,
            "traced": on,
            "run_s": t1 - t0,
            "cpu_s": c1 - c0,
            "runs": w.failed_call(error) if error else w.outcomes(result, out),
            "bytes": sum(f.stat().st_size for pattern in RUNIO_FILES for f in out.rglob(pattern)),
        }
        if on:
            rec["layers"] = tracing.call_metrics(tracer.between(t0, t1), t1 - t0)
            prepared = [s for s in tracer.between(p0, t1) if s.name == "data.prepare"]
            rec["prepare_ms"] = sum(s.duration for s in prepared) * 1e3
        shutil.rmtree(out, ignore_errors=True)
        return rec

    calls = []
    calls.append(call(False))
    deadline = time.perf_counter() + args.seconds
    # with tracing, stop only after a plain call, so traced calls come in pairs
    while len(calls) <= MIN_TIMED_CALLS or time.perf_counter() < deadline or (tracer and len(calls) % 2 == 0):
        calls.append(call(tracer is not None and len(calls) % 2 == 1))

    report = {"env": environment(), "calls": calls}
    if tracer is not None:
        report["matmul_floor_us"] = floor.matmul_floor_us(cfg.network.layer_dims(), cfg.batch_size)
        if args.spans:
            args.spans.write_text(json.dumps(tracing.span_rows(tracer.spans)))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "REINIT_LAB_THREADS": os.environ.get("REINIT_LAB_THREADS"),
        "cpu_count": os.cpu_count(),
    }


if __name__ == "__main__":
    sys.exit(main())
