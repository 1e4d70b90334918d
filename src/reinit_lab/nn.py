"""Feedforward network engine over flat parameter vectors.

Dense ReLU networks whose parameters live in a single flat array, laid out
layer by layer in depth order; the NetworkSpec is the one description of that
layout and of its blocks. Forward passes, losses and exact gradients are
plain numpy. Everything here is a pure function of its inputs (apart from a
gradient buffer the caller passes in): identical inputs give bit-identical
outputs. Computation runs in the dtype of the parameter vector — float32 in
normal training, float64 when a caller needs oracle-grade precision.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError, check_fields, rule

NO_GRAD_ROWS = 256  # rows per forward pass that keeps no gradient: evaluation, teacher snapshots
PIECE = 8192  # values per float64 temporary of an exact sum or a parameter draw


@dataclass
class ParamVector:
    """The model a run trains: the flat parameters of one network and the
    frozen norm layer installed in it, if any. Checked when built; only
    sgd_step, the layer-wise rule turning its own draw into its result, and a
    run copying in its best epoch, write into one. A run's spare vector is
    the exception: it holds the step's gradient until sgd_step writes the
    update over it."""

    values: np.ndarray
    network: NetworkSpec
    frozen_norm: FrozenNormLayer | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 1:
            raise ShapeError(f"parameter vector must be 1-D, got shape {self.values.shape}")
        n, count = self.values.shape[0], self.network.param_count
        if n != count:
            raise ShapeError(f"parameter vector length {n} != the network's parameter count {count}")
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("parameter vector contains non-finite entries")
        fn = self.frozen_norm
        if fn is not None:
            width = self.network.layer_dims()[self.norm_layer][1]
            if fn.mean.shape[0] != width:
                raise ShapeError(
                    f"frozen norm after block {fn.insert_after_block} has {fn.mean.shape[0]} units, "
                    f"but that block outputs {width}"
                )

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def norm_layer(self) -> int:
        """The index of the layer whose output the frozen norm standardizes; -1 without one."""
        fn = self.frozen_norm
        return -1 if fn is None else self.network.block_layers(fn.insert_after_block)[-1]

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.network, self.frozen_norm)


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of a fully-connected ReLU classifier.

    ``block_boundaries`` lists the layer indices that start a new block, so
    boundaries (1, 2) on a three-layer net yield blocks {0}, {1}, {2}. An
    empty tuple means the whole network is one block. Layer l's weights
    (fan_in x fan_out, row-major) and then its biases follow layer l-1's in
    the flat parameter vector, so each block owns a contiguous run of it.
    """

    input_dim: int = rule(MISSING, "be >= 1", lambda v: v >= 1)
    hidden_dims: tuple[int, ...] = rule(MISSING, "be integers >= 1", lambda v: all(d >= 1 for d in v))
    num_classes: int = rule(MISSING, "be >= 1", lambda v: v >= 1)
    block_boundaries: tuple[int, ...] = ()

    def __post_init__(self):
        check_fields(self, "network")
        if self.param_count > np.iinfo(np.intp).max:
            raise ConfigurationError("a network of these dimensions has too many parameters to shape")
        bounds = self.block_boundaries
        n = self.num_layers
        if list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(f"block boundaries must be strictly increasing, got {bounds}")
        if bounds and (bounds[0] < 1 or bounds[-1] > n - 1):
            raise ConfigurationError(f"block boundaries {bounds} outside layer range 1..{n - 1}")

    @property
    def num_layers(self) -> int:
        return len(self.hidden_dims) + 1

    @property
    def num_blocks(self) -> int:
        return len(self.block_boundaries) + 1

    def layer_dims(self) -> list[tuple[int, int]]:
        ins = (self.input_dim, *self.hidden_dims)
        outs = (*self.hidden_dims, self.num_classes)
        return list(zip(ins, outs))

    @property
    def param_count(self) -> int:
        return _layer_slices(self)[-1][1].stop

    def block_layers(self, block: int) -> range:
        """The layer indices of a block, which must lie in 1..num_blocks."""
        if not 1 <= block <= self.num_blocks:
            raise ConfigurationError(f"block {block} outside 1..{self.num_blocks}")
        starts = (0, *self.block_boundaries, self.num_layers)
        return range(starts[block - 1], starts[block])

    def block_slice(self, block: int) -> slice:
        """The contiguous run of the flat vector that the given block owns."""
        layers = self.block_layers(block)
        slices = _layer_slices(self)
        return slice(slices[layers[0]][0].start, slices[layers[-1]][1].stop)


@dataclass(frozen=True)
class FrozenNormLayer:
    """Per-unit standardization inserted after a block; has no trainable parameters."""

    insert_after_block: int = rule(MISSING, "be >= 1", lambda v: v >= 1)
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        check_fields(self, "frozen norm")
        mean = np.asarray(self.mean)
        std = np.asarray(self.std)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ShapeError(f"mean/std must be matching 1-D vectors, got {mean.shape} and {std.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise NumericalError("frozen norm layer mean/std entries must be finite")
        if not np.all(std > 0):
            raise NumericalError("frozen norm layer std entries must be positive")


@lru_cache(maxsize=64)
def _layer_slices(spec: NetworkSpec) -> tuple[tuple[slice, slice, tuple[int, int]], ...]:
    """Per layer in depth order: its weight slice, bias slice and weight shape
    (fan_in, fan_out) in the flat vector. The one place offsets are computed."""
    layers = []
    offset = 0
    for fan_in, fan_out in spec.layer_dims():
        stop = offset + fan_in * fan_out
        layers.append((slice(offset, stop), slice(stop, stop + fan_out), (fan_in, fan_out)))
        offset = stop + fan_out
    return tuple(layers)


def init_params(spec: NetworkSpec, seed: int, dtype=np.float32) -> ParamVector:
    """Sample fresh parameters: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) for
    weights, zeros for biases. Bit-identical for identical (spec, seed, dtype)."""
    rng = np.random.Generator(np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF))
    values = np.empty(spec.param_count, dtype=dtype)
    for weights, biases, (fan_in, _) in _layer_slices(spec):
        bound = 1.0 / np.sqrt(fan_in)
        # PIECE draws at a time continue one stream, so they equal one whole draw
        for start in range(weights.start, weights.stop, PIECE):
            stop = min(start + PIECE, weights.stop)
            values[start:stop] = rng.uniform(-bound, bound, stop - start)
        values[biases] = 0.0
    return ParamVector(values, spec)


def _layer_views(values: np.ndarray, spec: NetworkSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views per layer into a flat vector, W shaped (fan_in, fan_out)."""
    return [(values[w].reshape(shape), values[b]) for w, b, shape in _layer_slices(spec)]


def forward(
    params: ParamVector,
    inputs: np.ndarray,
    stop_block: int | None = None,
    saved: list | None = None,
) -> np.ndarray:
    """Logits (batch, num_classes), or with ``stop_block`` the output of that
    block's last layer. ``saved`` receives (layer input, output before the
    params' frozen norm) per layer, for the backward pass."""
    spec, frozen_norm, norm_layer = params.network, params.frozen_norm, params.norm_layer
    h = np.asarray(inputs)
    if h.ndim != 2 or h.shape[1] != spec.input_dim:
        raise ShapeError(f"inputs must be (batch, {spec.input_dim}), got {h.shape}")
    h = h.astype(params.dtype, copy=False)
    stop = -1 if stop_block is None else spec.block_layers(stop_block)[-1]
    last = spec.num_layers - 1
    for layer_id, (w, b) in enumerate(_layer_views(params.values, spec)):
        z = h @ w
        z += b
        if layer_id != last:
            np.maximum(z, 0, out=z)
        if saved is not None:
            saved.append((h, z))
        h = z
        if layer_id == norm_layer:
            h = (z - frozen_norm.mean.astype(z.dtype, copy=False)) / frozen_norm.std.astype(z.dtype, copy=False)
        if layer_id == stop:
            break
    return h


def _shifted_exp(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row max m, exp(z - m) and its row sums; m shifts the rows so exp never overflows."""
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return m, e, e.sum(axis=1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    _, e, sums = _shifted_exp(np.asarray(logits))
    return e / sums


def _cross_entropy(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy, plus exp(z - rowmax) and its row sums for reuse."""
    m, e, sums = _shifted_exp(z)
    return float(np.mean(m[:, 0] + np.log(sums[:, 0]) - z[np.arange(z.shape[0]), y])), e, sums


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return max(float(np.mean(terms.sum(axis=1))), 0.0)


def loss_grad_logits(
    params: ParamVector,
    inputs: np.ndarray,
    labels: np.ndarray,
    grad: np.ndarray,
    teacher: np.ndarray | None = None,
    beta_distill: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Loss and the logits of the forward pass; the exact parameter gradient
    overwrites all of ``grad``, a contiguous vector of the parameters' shape
    and dtype.

    The loss is cross-entropy plus ``beta_distill`` times the mean
    KL(teacher || softmax(logits)) against the fixed teacher rows, with
    zero-probability teacher entries contributing 0; gradients flow only
    through the student. With no teacher or beta 0 this is the plain
    cross-entropy gradient. The labels lie in [0, num_classes), one per input
    row, and the teacher rows align with the logits: the run checks its data
    once, and a TeacherCache checks its rows when it is built or loaded.
    """
    spec, frozen_norm, norm_layer = params.network, params.frozen_norm, params.norm_layer
    last = spec.num_layers - 1
    saved = []
    logits = forward(params, inputs, saved=saved)
    batch = logits.shape[0]
    # one softmax shared by the cross-entropy, the KL term and the gradient
    loss, d, sums = _cross_entropy(logits, labels)
    d /= sums  # the softmax rows, turned into dlogits in place below
    pull = None
    if teacher is not None and beta_distill != 0.0:
        loss = loss + beta_distill * _kl(teacher, d)
        pull = (beta_distill / batch) * (d - teacher)
    d[np.arange(batch), labels] -= 1.0
    d /= batch
    if pull is not None:
        d += pull

    layers = _layer_views(params.values, spec)
    grads = _layer_views(grad, spec)
    for layer_id in range(last, -1, -1):
        h_in, act = saved[layer_id]
        if layer_id == norm_layer:
            d /= frozen_norm.std.astype(d.dtype, copy=False)
        if layer_id != last:
            # ReLU backward; the layer above has already used act as its input
            d *= np.greater(act, 0, out=act)
        gw, gb = grads[layer_id]
        np.matmul(h_in.T, d, out=gw)
        np.sum(d, axis=0, out=gb)
        if layer_id > 0:
            d = d @ layers[layer_id][0].T
    return float(loss), logits


def float64_sum(values: np.ndarray, center: float | None = None, read=None) -> np.float64:
    """``np.add.reduce`` of a 1-D array's float64 copy (with ``center``, of its
    squared distances from center) bit for bit, from PIECE-value float64 copies.
    numpy's pairwise sum splits n at n // 2 rounded down to a multiple of 8; so
    does this, down to pieces numpy then sums itself. ``read``, when given,
    maps each piece of values to the values summed, elementwise."""
    n = values.shape[0]
    if n > PIECE:
        half = n // 2
        half -= half % 8
        return float64_sum(values[:half], center, read) + float64_sum(values[half:], center, read)
    x = (values if read is None else read(values)).astype(np.float64)
    if center is not None:
        x -= center
        np.square(x, out=x)
    return np.add.reduce(x)


def weight_norm(values: np.ndarray) -> float:
    """Euclidean norm of a 1-D array, accumulated in float64: the one norm every
    weight and block norm goes through. numpy's pairwise sum, not a BLAS dot,
    so the value does not depend on the BLAS thread count."""
    return float(np.sqrt(float64_sum(values, 0.0)))


def block_norms(params: ParamVector) -> np.ndarray:
    """Euclidean norm of each block's parameters, float64, index b-1 for block b."""
    slices = map(params.network.block_slice, range(1, params.network.num_blocks + 1))
    return np.array([weight_norm(params.values[s]) for s in slices])
