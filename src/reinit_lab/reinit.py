"""Re-initialization rules applied between training stages, plus the stage plan.

Every rule maps (current parameters, fresh-draw seed) to the starting
parameters of the next stage: keep them, shrink-and-perturb them, rebuild a
suffix of blocks, or discard them entirely. Fresh draws are seeded per stage
boundary so a run is reproducible while its stages stay independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, check_fields, check_gated, rule
from .nn import PIECE, FrozenNormLayer, NetworkSpec, ParamVector, forward, init_params, weight_norm

KINDS = ("none", "shrink_perturb", "layer_wise", "full")

FROZEN_NORM_STD_FLOOR = 1e-5


def make_stage_plan(total_epochs: int, num_stages: int) -> int:
    """Epochs per stage of an equal-compute split: T stages of floor(N/T)
    epochs; leftover epochs are dropped. RunConfig checks 1 <= T <= N."""
    return total_epochs // num_stages


@dataclass(frozen=True)
class ReinitSpec:
    """Which rule runs at each stage boundary, with its hyperparameters.

    ``none`` keeps parameters, ``shrink_perturb`` forms lam*theta +
    gamma*fresh, ``layer_wise`` rebuilds a block suffix, ``full`` discards
    everything. lam/gamma may only be set for shrink_perturb. layer_wise
    takes its K blocks from the network and its M = stages / K repeats from
    the run.
    """

    kind: str = rule("none", f"be one of {KINDS}", lambda v: v in KINDS)
    lam: float | None = rule(None, "lie in [0, 1]", lambda v: 0 <= v <= 1)
    gamma: float | None = rule(None, "lie in [0, 1]", lambda v: 0 <= v <= 1)

    def __post_init__(self):
        check_fields(self, "reinit")
        check_gated(self, "kind", {"lam": ("shrink_perturb",), "gamma": ("shrink_perturb",)}, "reinit")
        if self.kind == "shrink_perturb":
            object.__setattr__(self, "lam", 0.4 if self.lam is None else self.lam)
            object.__setattr__(self, "gamma", 0.1 if self.gamma is None else self.gamma)


def stage_seed(base_seed: int, stage: int) -> int:
    """Per-boundary fresh-draw seed: a splitmix64 mix of base seed and stage index."""
    mask = 0xFFFFFFFFFFFFFFFF
    x = (stage + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return (base_seed ^ x) & mask


def shrink_perturb(theta: ParamVector, theta_init: ParamVector, lam: float, gamma: float) -> ParamVector:
    """lam*theta + gamma*theta_init, elementwise, keeping theta's frozen norm;
    inputs untouched. theta_init is a draw for theta's network, and ReinitSpec
    checks that lam and gamma lie in [0, 1]."""
    values = lam * theta.values
    # gamma * theta_init a piece at a time, so no second whole vector is alive
    for start in range(0, values.shape[0], PIECE):
        values[start : start + PIECE] += gamma * theta_init.values[start : start + PIECE]
    return ParamVector(values.astype(theta.dtype, copy=False), theta.network, theta.frozen_norm)


def _rescale_kept_blocks(
    values: np.ndarray,
    network: NetworkSpec,
    kept_blocks: int,
    init_block_norms: Sequence[float],
) -> None:
    """Scale each kept block back to its own init norm in place: each value is
    multiplied in float64 and rounded back, PIECE values at a time."""
    for b in range(1, kept_blocks + 1):
        part = network.block_slice(b)
        cur = weight_norm(values[part])
        if cur == 0.0:
            raise NumericalError(f"block {b} has zero norm; cannot rescale")
        scale = init_block_norms[b - 1] / cur
        for start in range(part.start, part.stop, PIECE):
            piece = values[start : min(start + PIECE, part.stop)]
            x = piece.astype(np.float64)
            x *= scale
            piece[...] = x


def layerwise_reinit(
    theta: ParamVector,
    fresh: ParamVector,
    t: int,
    repeats: int,
    init_block_norms: Sequence[float],
    stats_batch: np.ndarray,
) -> None:
    """Turn ``fresh``, a draw for theta's network in theta's dtype, into the
    first ceil(t/repeats) blocks of theta followed by the rest of the draw;
    t lies in 1..K*repeats for a network of K blocks.

    Kept blocks are rescaled back to their recorded initialization norms, so
    only their direction survives the boundary. ``fresh`` then carries a new
    frozen layer, which standardizes the kept prefix's output on the
    nonempty ``stats_batch``.
    """
    network = theta.network
    kept_blocks = math.ceil(t / repeats)
    # the kept blocks are a prefix of the flat vector; the rest is the fresh draw
    stop = network.block_slice(kept_blocks).stop
    fresh.values[:stop] = theta.values[:stop]
    _rescale_kept_blocks(fresh.values, network, kept_blocks, init_block_norms)
    acts = forward(ParamVector(fresh.values, network), stats_batch, stop_block=kept_blocks)
    mean = acts.mean(axis=0).astype(np.float64)
    std = np.maximum(acts.std(axis=0).astype(np.float64), FROZEN_NORM_STD_FLOOR)
    fresh.frozen_norm = FrozenNormLayer(kept_blocks, mean, std)


def apply_reinit(
    rspec: ReinitSpec,
    theta_end: ParamVector,
    seed: int,
    t: int,
    init_block_norms: Sequence[float] | None = None,
    stats_batch: np.ndarray | None = None,
    stages: int | None = None,
) -> tuple[ParamVector, float | None]:
    """Produce stage t+1's starting parameters from stage t's final ones, t >= 1.

    The fresh draw at boundary t is init_params(theta_end.network,
    stage_seed(seed, t)), so it is independent of theta_end and of every other
    boundary. Only the layer-wise rule reads the run's init block norms, stats
    batch and stage count; it repeats each of the network's K blocks
    stages // K times and installs a new frozen norm layer. ``full`` returns
    the fresh draw, which has none; the other rules keep theta_end's. Returns
    the new parameters and the Euclidean norm of the fresh draw; ``none``
    draws nothing and returns theta_end itself with None.
    """
    if rspec.kind == "none":
        return theta_end, None
    network = theta_end.network
    fresh = init_params(network, stage_seed(seed, t), dtype=theta_end.dtype)
    fresh_norm = weight_norm(fresh.values)
    if rspec.kind == "full":
        return fresh, fresh_norm
    if rspec.kind == "shrink_perturb":
        return shrink_perturb(theta_end, fresh, rspec.lam, rspec.gamma), fresh_norm
    layerwise_reinit(theta_end, fresh, t, stages // network.num_blocks, init_block_norms, stats_batch)
    return fresh, fresh_norm
