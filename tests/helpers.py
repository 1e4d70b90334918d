"""Helpers that test modules import: gradient and KL oracles, an independent
layer count, a call spy, and IDX and CSV writers.

Test modules import them with ``from helpers import ...``; conftest.py keeps
only fixtures, so a second conftest.py elsewhere in one pytest session cannot
shadow these names.
"""
import math
import struct

import numpy as np

from reinit_lab.nn import NetworkSpec, ParamVector, loss_grad_logits


def central_diff_grad(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function, one coordinate at a time."""
    x0 = x0.astype(np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def relative_errors(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def kl_oracle(p: np.ndarray, z: np.ndarray) -> float:
    """Mean KL(p || softmax(z)), term by term; zero-probability entries of p add 0."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    q = e / e.sum(axis=1, keepdims=True)
    rows, cols = p.shape
    per_row = [sum(p[r, j] * math.log(p[r, j] / q[r, j]) for j in range(cols) if p[r, j] > 0) for r in range(rows)]
    return float(np.mean(per_row))


def fd_check(params: ParamVector, inputs, labels, teacher=None, beta=0.0):
    """Max relative error between the analytic gradient and central differences."""

    def loss_at(theta):
        pv = ParamVector(theta, params.network, params.frozen_norm)
        return loss_grad_logits(pv, inputs, labels, teacher, beta)[0]

    _, analytic, _ = loss_grad_logits(params, inputs, labels, teacher, beta)
    numeric = central_diff_grad(loss_at, params.values)
    return float(relative_errors(analytic, numeric).max())


def oracle_layers(spec: NetworkSpec) -> list[tuple[slice, slice, tuple[int, int], int]]:
    """Per layer: its weight slice, bias slice, weight shape and 1-based block,
    counted from layer_dims() and block_boundaries alone, so that tests check
    NetworkSpec's own offsets against an independent count."""
    layers, offset = [], 0
    for layer_id, (fan_in, fan_out) in enumerate(spec.layer_dims()):
        bias = offset + fan_in * fan_out
        block = 1 + sum(1 for start in spec.block_boundaries if start <= layer_id)
        layers.append((slice(offset, bias), slice(bias, bias + fan_out), (fan_in, fan_out), block))
        offset = bias + fan_out
    return layers


def spy(monkeypatch, module, name, note=lambda *args, **kwargs: None) -> list:
    """Wrap module.name for the test; each call first appends note(*args,
    **kwargs) to the returned list, so its length counts the calls."""
    calls, fn = [], getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(note(*args, **kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def write_idx(images_path, labels_path, images: np.ndarray, labels) -> None:
    """An IDX image/label pair: big-endian headers, then one byte per pixel or label."""
    n, rows, cols = images.shape
    images_path.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x00000801, len(labels)) + bytes(list(labels)))


def write_csv(path, labels, features: np.ndarray) -> None:
    """A `label,f0,...` table with one row per label."""
    header = ",".join(["label"] + [f"f{j}" for j in range(features.shape[1])])
    rows = [",".join([str(y)] + [repr(float(v)) for v in row]) for y, row in zip(labels, features)]
    path.write_text("\n".join([header, *rows]) + "\n")
