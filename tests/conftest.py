"""Shared test fixtures; the helpers that test modules import live in helpers.py.

BLAS is pinned to one thread before numpy loads, unless the caller set the
thread count: these networks are too small to gain from a second BLAS thread,
and on a shared host one that waits on a busy CPU can stall the suite.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS pin)
import pytest

from reinit_lab.nn import NetworkSpec, init_params


@pytest.fixture
def tiny_net():
    """A 4-5-3 float64 network small enough for exhaustive finite differences."""
    spec = NetworkSpec(input_dim=4, hidden_dims=(5,), num_classes=3)
    params = init_params(spec, 7, dtype=np.float64)
    return spec, params
