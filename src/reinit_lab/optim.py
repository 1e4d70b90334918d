"""SGD with momentum, coupled weight decay, and per-stage learning-rate schedules.

The hyperparameters come from a RunConfig, which checks their ranges; nothing
here checks them again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .nn import ParamVector

STEP_BLOCK = 1 << 16  # values sgd_step updates per pass, so each block stays in cache across its passes


@dataclass
class OptimState:
    """Momentum buffer plus the fixed optimizer hyperparameters.

    Weight decay is coupled L2: it is added to the gradient before the
    momentum update, so the buffer accumulates the decay term too.
    """

    momentum_buffer: np.ndarray
    momentum: float = 0.9
    weight_decay: float = 0.0

    @staticmethod
    def fresh(params: ParamVector, momentum: float = 0.9, weight_decay: float = 0.0) -> "OptimState":
        return OptimState(np.zeros_like(params.values), momentum, weight_decay)


def sgd_step(params: ParamVector, spare: ParamVector, state: OptimState, lr: float, step: int) -> None:
    """One optimizer update: ``spare`` (a vector of the params' shape and
    dtype other than ``params``) holds the gradient, and the update is written
    over it, with the momentum buffer updated in place. Each STEP_BLOCK
    values go through the same float32 operations in one block-sized scratch
    buffer, which is checked and only then copied over the spare's block,
    once that block of the gradient has been read. A non-finite update raises
    NumericalError naming the step and leaves ``params`` intact. It names the
    gradient when a value of the blocks not yet copied is non-finite; one in
    a copied block would have made that block's update non-finite. lr == 0
    leaves the parameters unchanged while the momentum buffer still
    accumulates (a paused-but-running optimizer).
    """
    grad = spare.values
    n = grad.shape[0]
    scratch = np.empty(min(n, STEP_BLOCK), dtype=grad.dtype)
    for start in range(0, n, STEP_BLOCK):
        part = slice(start, start + STEP_BLOCK)
        buf, theta = state.momentum_buffer[part], params.values[part]
        new = scratch[: buf.shape[0]]
        buf *= state.momentum
        if state.weight_decay:
            np.multiply(theta, state.weight_decay, out=new)
            new += grad[part]
            buf += new
        else:
            buf += grad[part]
        np.multiply(buf, lr, out=new)
        np.subtract(theta, new, out=new)
        if not np.isfinite(new).all():
            what = "gradient" if not np.isfinite(grad[start:]).all() else "parameters after the update"
            raise NumericalError(f"non-finite {what} at step {step}")
        grad[part] = new


@dataclass(frozen=True)
class LrSchedule:
    """Learning rate as a function of the step index inside the current stage.

    Anneals from eta_max to eta_min across each stage by a cosine and snaps
    back to eta_max when the next stage starts, since the step index resets
    to 0. eta_min == eta_max is the constant rate: the span is 0.0, so every
    step returns eta_max exactly.
    """

    eta_max: float
    eta_min: float = 0.0
    steps_per_stage: int = 1


def lr_at(schedule: LrSchedule, step_in_stage: int) -> float:
    """Learning rate at a 0-based step index within the stage; index S is the end point."""
    s, total = step_in_stage, schedule.steps_per_stage
    span = schedule.eta_max - schedule.eta_min
    return schedule.eta_min + 0.5 * span * (1.0 + math.cos(math.pi * s / total))
