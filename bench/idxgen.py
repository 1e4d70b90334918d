"""Seeded MNIST-style IDX image/label pairs for the image workload.

Each class has one spatially smooth template (a few Gaussian blobs); an
example is its class template plus independent pixel noise, stored as one
byte per pixel. The templates must be smooth: a 4-pixel pad-crop shifts a
smooth blob a little, but it scrambles images whose pixels are independent
and drives accuracy to chance.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

BLOBS_PER_CLASS = 3
BLOB_SIGMA = (3.0, 5.0)
TEMPLATE_PEAK = 190.0
PIXEL_NOISE = 45.0
NUM_CLASSES = 10
HW = 28  # image height and width, as in MNIST


def make_images(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, HW, HW) uint8 images and (n,) uint8 labels, balanced and shuffled."""
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = np.arange(HW, dtype=np.float64)
    templates = np.zeros((NUM_CLASSES, HW, HW))
    for c in range(NUM_CLASSES):
        for _ in range(BLOBS_PER_CLASS):
            cy, cx = rng.uniform(HW * 0.2, HW * 0.8, size=2)
            sigma = rng.uniform(*BLOB_SIGMA)
            templates[c] += np.exp(
                -((grid[:, None] - cy) ** 2 + (grid[None, :] - cx) ** 2) / (2 * sigma**2)
            )
        templates[c] *= TEMPLATE_PEAK / templates[c].max()
    labels = rng.permutation(np.arange(n) % NUM_CLASSES)
    pixels = templates[labels] + rng.normal(0.0, PIXEL_NOISE, size=(n, HW, HW))
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8), labels.astype(np.uint8)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Big-endian IDX headers followed by the raw uint8 payload."""
    n, rows, cols = images.shape
    Path(images_path).write_bytes(
        struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols) + np.ascontiguousarray(images).tobytes()
    )
    Path(labels_path).write_bytes(
        struct.pack(">II", IDX_LABEL_MAGIC, n) + np.ascontiguousarray(labels).tobytes()
    )
