"""Bare-matmul floor for one optimizer step at a network's layer shapes.

A step of ``loss_grad_logits`` needs, per layer, the forward product, the
weight gradient and (below the top layer's input) the input gradient. Timing
those three products alone, on the same shapes and dtype, gives the speed a
step could reach if everything around the matmuls cost nothing.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

BLOCK_S = 0.05
BLOCKS = 7
SEED = 0  # the operands' values do not change the time


def matmul_floor_us(layer_dims: list[tuple[int, int]], batch: int) -> float:
    """Median microseconds for one step's bare forward, dW and dX matmuls."""
    rng = np.random.Generator(np.random.PCG64(SEED))
    layers = [
        (
            rng.standard_normal((batch, fan_in), dtype=np.float32),
            rng.standard_normal((fan_in, fan_out), dtype=np.float32),
            rng.standard_normal((batch, fan_out), dtype=np.float32),
        )
        for fan_in, fan_out in layer_dims
    ]

    def step():
        for layer_id, (x, w, dz) in enumerate(layers):
            x @ w
            x.T @ dz
            if layer_id > 0:
                dz @ w.T

    t0 = perf_counter()
    step()
    reps = max(1, int(BLOCK_S / max(perf_counter() - t0, 1e-7)))
    samples = []
    for _ in range(BLOCKS):
        t0 = perf_counter()
        for _ in range(reps):
            step()
        samples.append((perf_counter() - t0) / reps * 1e6)
    return statistics.median(samples)
