"""Golden run: the sha256 of one tiny distilled shrink-perturb run's files.

A change that alters any byte a run writes (a rounding, a reordered sum, a
new key) fails here, with no second checkout to compare against. The digests
hold for the numpy build recorded below, at one and two BLAS threads; under
another numpy or OpenBLAS build the test skips and names both.
"""
import hashlib

import numpy as np
import pytest

from reinit_lab.harness import DataConfig, DistillConfig, RunConfig, Seeds, run_experiment
from reinit_lab.nn import NetworkSpec
from reinit_lab.reinit import ReinitSpec

NUMPY_VERSION = "2.4.6"
OPENBLAS_CONFIG = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64"

DIGESTS = {
    "metrics.jsonl": "a4be81cfe0cc310e606f77316764f8bcd7e305a77cf10efcc9d708b23ebbd5b6",
    "best.ckpt": "65c3363f89d674eb92e75c048fe5fbf3f44a2e639ba88893b85d810b884e3805",
    "teacher_stage1.bin": "87934a5265d8f9ae7e9446024ba681176a3584fc75e232e0f79cd731bdc91bb5",
    "config.json": "eccc4716899f27d0958bba3a7f31104c405e71bcfae30687663507b4c0d1d654",
}


def openblas_config() -> str | None:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration")


def test_golden_run_files(tmp_path):
    build = (np.__version__, openblas_config())
    if build != (NUMPY_VERSION, OPENBLAS_CONFIG):
        pytest.skip(f"digests recorded under numpy {NUMPY_VERSION} with {OPENBLAS_CONFIG!r}; this is {build}")
    cfg = RunConfig(
        network=NetworkSpec(8, (10, 6), 4, block_boundaries=(1, 2)),
        data=DataConfig(num_classes=4, dim=8, per_class=40, class_separation=3.0),
        lr=0.05,
        epochs=6,
        batch_size=25,
        seeds=Seeds(1, 2, 3, 4),
        stages=2,
        reinit=ReinitSpec("shrink_perturb"),
        distill=DistillConfig(enabled=True),
        run_name="golden",
    )
    res = run_experiment(cfg, out_dir=tmp_path)
    assert not res.failed
    digests = {name: hashlib.sha256((res.run_dir / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert digests == DIGESTS
