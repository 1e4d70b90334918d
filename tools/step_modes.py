"""Time ``loss_grad_logits`` at ``desk_sp`` shapes in blocks of calls, with
each block's minor page faults, context switches and process CPU time.

    python tools/step_modes.py [--operands]
    MALLOC_TRIM_THRESHOLD_=100000000 python tools/step_modes.py --operands

Prints one JSON line per block of CALLS calls (BLOCKS blocks): wall and
process-CPU microseconds per call, and the block's minor faults
(``ru_minflt``) and involuntary and voluntary context switches
(``ru_nivcsw``, ``ru_nvcsw``). A last line sums up the blocks after the
first and records the ``MALLOC_*`` variables and the BLAS
thread count of the process. ``--operands`` first allocates, and keeps, the
bare products' operands at these shapes (about 0.6 MB of float32, as
``bench/floor.py`` builds them): the allocation history under which the
step was first seen to run slow. Allocator settings take effect only when
they are set in the environment that starts this process. BLAS runs on one
thread unless the caller sets a count.
"""
from __future__ import annotations

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")  # before numpy loads BLAS

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from reinit_lab.nn import NetworkSpec, init_params, loss_grad_logits  # noqa: E402

NETWORK = NetworkSpec(50, (256, 128), 10, block_boundaries=(1, 2))  # desk_sp's network
BATCH = 125  # desk_sp's batch size, RunConfig's default
BLOCKS = 40
CALLS = 200  # per block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--operands", action="store_true", help="allocate the bare products' operands first")
    args = parser.parse_args(argv)
    rng = np.random.Generator(np.random.PCG64(0))
    kept = []
    if args.operands:
        for fan_in, fan_out in NETWORK.layer_dims():
            for shape in ((BATCH, fan_in), (fan_in, fan_out), (BATCH, fan_out)):
                kept.append(rng.standard_normal(shape, dtype=np.float32))
    params = init_params(NETWORK, 0)
    inputs = rng.standard_normal((BATCH, NETWORK.input_dim), dtype=np.float32)
    labels = rng.integers(0, NETWORK.num_classes, BATCH)
    grad = np.empty_like(params.values)
    blocks = []
    for block in range(BLOCKS):
        r0, c0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.process_time(), time.perf_counter()
        for _ in range(CALLS):
            loss_grad_logits(params, inputs, labels, grad)
        t1, c1, r1 = time.perf_counter(), time.process_time(), resource.getrusage(resource.RUSAGE_SELF)
        row = {
            "block": block,
            "wall_us": round((t1 - t0) / CALLS * 1e6, 1),
            "cpu_us": round((c1 - c0) / CALLS * 1e6, 1),
            "minflt": r1.ru_minflt - r0.ru_minflt,
            "nivcsw": r1.ru_nivcsw - r0.ru_nivcsw,
            "nvcsw": r1.ru_nvcsw - r0.ru_nvcsw,
        }
        blocks.append(row)
        print(json.dumps(row))
    later = blocks[1:] or blocks
    walls = [b["wall_us"] for b in later]
    print(
        json.dumps(
            {
                "operands_mb": round(sum(a.nbytes for a in kept) / 2**20, 2),
                "wall_us": {"min": min(walls), "median": round(statistics.median(walls), 1), "max": max(walls)},
                "cpu_over_wall": round(sum(b["cpu_us"] for b in later) / sum(walls), 3),
                "minflt_after_block_0": sum(b["minflt"] for b in later),
                "nivcsw_per_block": [min(b["nivcsw"] for b in later), max(b["nivcsw"] for b in later)],
                "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_") or k.endswith("NUM_THREADS")},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
