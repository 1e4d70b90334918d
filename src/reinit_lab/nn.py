"""Feedforward network engine over flat parameter vectors.

Dense ReLU networks whose parameters live in a single flat array with an
explicit layer/block layout. Forward passes, losses and exact gradients are
plain numpy. Everything here is a pure function of its inputs (apart from a
gradient buffer the caller passes in): identical inputs give bit-identical
outputs. Computation runs in the dtype of the parameter vector — float32 in
normal training, float64 when a caller needs oracle-grade precision.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, DataError, NumericalError, ShapeError, check_fields, checked_keys, rule

ROLE_WEIGHT = "weight"
ROLE_BIAS = "bias"
NO_GRAD_ROWS = 256  # rows per forward pass that keeps no gradient: evaluation, teacher snapshots


@dataclass(frozen=True)
class Segment:
    """One contiguous run of the flat vector: a layer's weights or biases."""

    layer_id: int
    role: str
    offset: int
    length: int
    fan_in: int
    fan_out: int


@dataclass(frozen=True)
class LayerLayout:
    """Placement of each layer in the flat vector plus block ownership.

    ``block_assignment`` maps layer_id to a 1-based block index. Only
    build_layout makes layouts, from a validated NetworkSpec, so the segments
    tile the vector and every block in 1..K is non-empty and contiguous in
    depth.
    """

    segments: tuple[Segment, ...]
    block_assignment: Mapping[int, int]

    @property
    def total_len(self) -> int:
        last = self.segments[-1]
        return last.offset + last.length

    @property
    def num_blocks(self) -> int:
        return max(self.block_assignment.values())

    def last_layer_of_block(self, block: int) -> int:
        layers = [lid for lid, b in self.block_assignment.items() if b == block]
        if not layers:
            raise ConfigurationError(f"block {block} has no layers")
        return max(layers)

    def block_slice(self, block: int) -> slice:
        """The contiguous run of the flat vector that the given block owns."""
        segs = [seg for seg in self.segments if self.block_assignment[seg.layer_id] == block]
        if not segs:
            raise ConfigurationError(f"block {block} has no parameters")
        return slice(segs[0].offset, segs[-1].offset + segs[-1].length)


@dataclass
class ParamVector:
    """Flat parameter store tied to a layout, checked when built; only sgd_step writes into one."""

    values: np.ndarray
    layout: LayerLayout

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 1:
            raise ShapeError(f"parameter vector must be 1-D, got shape {self.values.shape}")
        if self.values.shape[0] != self.layout.total_len:
            raise ShapeError(
                f"parameter vector length {self.values.shape[0]} != layout length {self.layout.total_len}"
            )
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("parameter vector contains non-finite entries")

    @property
    def dtype(self):
        return self.values.dtype

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of a fully-connected ReLU classifier.

    ``block_boundaries`` lists the layer indices that start a new block, so
    boundaries (1, 2) on a three-layer net yield blocks {0}, {1}, {2}. An
    empty tuple means the whole network is one block.
    """

    input_dim: int = rule(MISSING, "be >= 1", lambda v: v >= 1)
    hidden_dims: tuple[int, ...] = rule(MISSING, "be integers >= 1", lambda v: all(d >= 1 for d in v))
    num_classes: int = rule(MISSING, "be >= 1", lambda v: v >= 1)
    activation: str = rule("relu", "be 'relu'", lambda v: v == "relu")
    block_boundaries: tuple[int, ...] = ()

    def __post_init__(self):
        check_fields(self, "network")
        if sum((i + 1) * o for i, o in self.layer_dims()) > np.iinfo(np.intp).max:
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

    def block_of_layer(self, layer_id: int) -> int:
        return 1 + sum(1 for b in self.block_boundaries if b <= layer_id)

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_dims": list(self.hidden_dims),
            "num_classes": self.num_classes,
            "activation": self.activation,
            "block_boundaries": list(self.block_boundaries),
        }

    @staticmethod
    def from_dict(d: Mapping) -> "NetworkSpec":
        return NetworkSpec(**checked_keys(NetworkSpec, d, "network"))


@dataclass(frozen=True)
class FrozenNormLayer:
    """Per-unit standardization inserted after a block; has no trainable parameters."""

    insert_after_block: int
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean)
        std = np.asarray(self.std)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ShapeError(f"mean/std must be matching 1-D vectors, got {mean.shape} and {std.shape}")
        if not np.all(std > 0):
            raise NumericalError("frozen norm layer std entries must be positive")


@lru_cache(maxsize=64)
def build_layout(spec: NetworkSpec) -> LayerLayout:
    """Lay the network's weights and biases out in depth order."""
    segments = []
    offset = 0
    assignment = {}
    for layer_id, (fan_in, fan_out) in enumerate(spec.layer_dims()):
        segments.append(Segment(layer_id, ROLE_WEIGHT, offset, fan_in * fan_out, fan_in, fan_out))
        offset += fan_in * fan_out
        segments.append(Segment(layer_id, ROLE_BIAS, offset, fan_out, fan_in, fan_out))
        offset += fan_out
        assignment[layer_id] = spec.block_of_layer(layer_id)
    return LayerLayout(tuple(segments), assignment)


def init_params(spec: NetworkSpec, seed: int, dtype=np.float32) -> ParamVector:
    """Sample fresh parameters: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) for
    weights, zeros for biases. Bit-identical for identical (spec, seed, dtype)."""
    layout = build_layout(spec)
    rng = np.random.Generator(np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF))
    values = np.empty(layout.total_len, dtype=dtype)
    for seg in layout.segments:
        sl = slice(seg.offset, seg.offset + seg.length)
        if seg.role == ROLE_WEIGHT:
            bound = 1.0 / np.sqrt(seg.fan_in)
            values[sl] = rng.uniform(-bound, bound, seg.length).astype(dtype)
        else:
            values[sl] = 0.0
    return ParamVector(values, layout)


def _check_forward_args(spec: NetworkSpec, params: ParamVector, inputs: np.ndarray) -> np.ndarray:
    x = np.asarray(inputs)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ShapeError(f"inputs must be (batch, {spec.input_dim}), got {x.shape}")
    if params.layout.total_len != build_layout(spec).total_len:
        raise ShapeError("parameter vector does not match the network spec")
    return x.astype(params.dtype, copy=False)


def _layer_views(values: np.ndarray, layout: LayerLayout) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views per layer into a flat vector, W shaped (fan_in, fan_out)."""
    segs = layout.segments
    flat = [values[s.offset : s.offset + s.length] for s in segs]
    return [(flat[i].reshape(segs[i].fan_in, segs[i].fan_out), flat[i + 1]) for i in range(0, len(segs), 2)]


def _last_layer(spec: NetworkSpec, block: int) -> int:
    """Index of the last layer of a block, which must lie in 1..num_blocks."""
    if not 1 <= block <= spec.num_blocks:
        raise ConfigurationError(f"block {block} outside 1..{spec.num_blocks}")
    return build_layout(spec).last_layer_of_block(block)


def forward(
    spec: NetworkSpec,
    params: ParamVector,
    inputs: np.ndarray,
    frozen_norm: FrozenNormLayer | None = None,
    stop_block: int | None = None,
    saved: list | None = None,
) -> np.ndarray:
    """Logits (batch, num_classes), or with ``stop_block`` the output of that
    block's last layer. ``saved`` receives (layer input, output before any
    frozen norm) per layer, for the backward pass."""
    h = _check_forward_args(spec, params, inputs)
    norm_layer = -1 if frozen_norm is None else _last_layer(spec, frozen_norm.insert_after_block)
    stop = -1 if stop_block is None else _last_layer(spec, stop_block)
    last = spec.num_layers - 1
    for layer_id, (w, b) in enumerate(_layer_views(params.values, params.layout)):
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


def _check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise DataError(f"labels must lie in [0, {num_classes}), got range [{y.min()}, {y.max()}]")
    return y.astype(np.int64, copy=False)


def _cross_entropy(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy, plus exp(z - rowmax) and its row sums for reuse."""
    m, e, sums = _shifted_exp(z)
    return float(np.mean(m[:, 0] + np.log(sums[:, 0]) - z[np.arange(z.shape[0]), y])), e, sums


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return max(float(np.mean(terms.sum(axis=1))), 0.0)


def loss_grad_logits(
    spec: NetworkSpec,
    params: ParamVector,
    inputs: np.ndarray,
    labels: np.ndarray,
    teacher: np.ndarray | None = None,
    beta_distill: float = 0.0,
    frozen_norm: FrozenNormLayer | None = None,
    grad_out: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss, exact parameter gradient, and the logits of the forward pass.

    The loss is cross-entropy plus ``beta_distill`` times the mean
    KL(teacher || softmax(logits)) against the fixed teacher rows, with
    zero-probability teacher entries contributing 0; gradients flow only
    through the student. With no teacher or beta 0 this is the plain
    cross-entropy gradient. Teacher rows come from a TeacherCache, whose
    construction checks them when a cache is built and when one is loaded;
    only their shape is checked here. The gradient overwrites all of
    ``grad_out`` when given, else fills a new array.
    """
    if beta_distill < 0:
        raise ConfigurationError(f"beta_distill must be >= 0, got {beta_distill}")
    y = _check_labels(labels, spec.num_classes)
    if grad_out is None:
        grad_out = np.empty_like(params.values)
    elif (grad_out.shape, grad_out.dtype, grad_out.flags.c_contiguous) != (params.values.shape, params.dtype, True):
        raise ShapeError("grad_out must be a contiguous vector of the parameters' shape and dtype")
    norm_layer = -1 if frozen_norm is None else _last_layer(spec, frozen_norm.insert_after_block)
    last = spec.num_layers - 1
    saved = []
    logits = forward(spec, params, inputs, frozen_norm, saved=saved)
    batch = logits.shape[0]
    if y.shape[0] != batch:
        raise ShapeError(f"{batch} inputs vs {y.shape[0]} labels")
    # one softmax shared by the cross-entropy, the KL term and the gradient
    loss, d, sums = _cross_entropy(logits, y)
    d /= sums  # the softmax rows, turned into dlogits in place below
    pull = None
    if teacher is not None and beta_distill != 0.0:
        p = np.asarray(teacher)
        if p.shape != logits.shape:
            raise ShapeError(f"teacher rows {p.shape} do not align with logits {logits.shape}")
        loss = loss + beta_distill * _kl(p, d)
        pull = (beta_distill / batch) * (d - p)
    d[np.arange(batch), y] -= 1.0
    d /= batch
    if pull is not None:
        d += pull

    layers = _layer_views(params.values, params.layout)
    grads = _layer_views(grad_out, params.layout)
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
    return float(loss), grad_out, logits


def weight_norm(params: ParamVector) -> float:
    """Euclidean norm of the full parameter vector, accumulated in float64."""
    return float(np.linalg.norm(params.values.astype(np.float64)))


def block_norms(params: ParamVector) -> np.ndarray:
    """Euclidean norm of each block's parameters, float64, index b-1 for block b."""
    slices = map(params.layout.block_slice, range(1, params.layout.num_blocks + 1))
    return np.array([np.linalg.norm(params.values[s].astype(np.float64)) for s in slices])
