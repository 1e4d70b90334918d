"""Golden runs: the sha256 of the files of tiny runs of four kinds, a
distilled shrink-perturb run, a 3-stage layer-wise run with distillation, an
online shrink-perturb run and a setting-dcw run on synthetic images, and of
the study file of one tiny study of each kind.

A change that alters any byte a run or a study writes (a rounding, a
reordered sum, a new key) fails here, with no second checkout to compare
against. The digests hold for the numpy build recorded below, at one and two
BLAS threads; under another numpy or OpenBLAS build the test skips and names
both.
"""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from reinit_lab.data import AugmentSpec
from reinit_lab.harness import (
    DataConfig,
    DistillConfig,
    RunConfig,
    Seeds,
    grid_search,
    noise_study,
    online_sim,
    run_experiment,
    stage_sweep,
)
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


BASE = RunConfig(
    network=NetworkSpec(8, (10, 6), 4, block_boundaries=(1, 2)),
    data=DataConfig(num_classes=4, dim=8, per_class=40, class_separation=3.0),
    lr=0.05,
    epochs=6,
    batch_size=25,
    seeds=Seeds(1, 2, 3, 4),
)

# run kind -> its config and the digests of the files it writes
RUN_KINDS = {
    # frozen norm in best.ckpt, a stats batch at each boundary, two teacher files
    "layer_wise_distill": (
        replace(
            BASE,
            stages=3,
            reinit=ReinitSpec("layer_wise"),
            distill=DistillConfig(enabled=True, beta=0.5),
            run_name="golden-lw",
        ),
        {
            "metrics.jsonl": "6d511bba3dababe652782e2a422da91f14b627e943c8f6557c20fc64792b6c0e",
            "best.ckpt": "e437d7a3f778b49b13a1487e287eca47d302d62cb8fa9bc6d2a8a0bcb779ab9f",
            "teacher_stage1.bin": "685de7733680b443e66c9b8b9bb88f0be4157e15f704e615a5d15d228523b81e",
            "teacher_stage2.bin": "76de1afc6bbc42624cd0cba149780f6535de41026d4450d8bbad9812c7a19802",
            "config.json": "7cef32371b2bc496d0cd0476193334b85b52ed2a9c56ccd5086cc5b41af7f7cb",
        },
    ),
    # stage 2 trains on both chunks after a shrink-perturb boundary
    "online_sp": (
        replace(
            BASE,
            stages=2,
            online=True,
            reinit=ReinitSpec("shrink_perturb", lam=0.6, gamma=0.2),
            run_name="golden-online",
        ),
        {
            "metrics.jsonl": "50e8903215c01889ff5f65e18e919829d537ce3e7bdfb7f1cf7d4231c06f1ecb",
            "best.ckpt": "18d62edf136a34cc94453807dff9e054ad6f6da553857001764f758e515e0e9f",
            "config.json": "f418ff13f57d5e41519837e5861561cb900de2e632aded531995f47af61bc984",
        },
    ),
    # augmentation of 2x4 synthetic images, a cosine rate and weight decay
    "dcw_image": (
        replace(
            BASE,
            data=replace(BASE.data, image_hw=(2, 4)),
            setting="dcw",
            weight_decay=0.001,
            eta_min=0.001,
            augment=AugmentSpec(pad_pixels=1),
            run_name="golden-dcw",
        ),
        {
            "metrics.jsonl": "167bde95d0fe9a31a8f77d885b30589aad8329b62488c31b447b11a128d6df3c",
            "best.ckpt": "751ef99db7eddd776702d81f89249904287553d4344e57705a5792aae59cb86d",
            "config.json": "522b96a7d1ba518f1fea27259126da8c34720a8c56bb5d982c2cc0a5db214b43",
        },
    ),
}


# study kind -> the study over STUDY_BASE, and the sha256 of the study file it writes
STUDY_BASE = replace(BASE, stages=2, reinit=ReinitSpec("shrink_perturb"))
STUDY_KINDS = {
    # lrs given out of order, so the rows' (lr, wd) sort shows
    "grid": (
        lambda out: grid_search(STUDY_BASE, (0.1, 0.02), (0.0,), out_dir=out),
        "665ec4a7d52ccc731ff685d39ee04e4eb8f72df314a84d538c21bdc9b6005a6c",
    ),
    "stage_sweep": (
        lambda out: stage_sweep(STUDY_BASE, (1, 2, 3), out_dir=out),
        "10307cd1f71a09a6116f264f3ef3a0e1d076205c360c07c49c2660fac4a17347",
    ),
    "noise_study": (
        lambda out: noise_study(STUDY_BASE, (0.0, 0.3), ("standard", "sp_distill"), out_dir=out),
        "abe9858767264d99073562535829752ed7602cd310f153921e5dc59b56af91fd",
    ),
    "online_sim": (
        lambda out: online_sim(STUDY_BASE, out_dir=out),
        "f05b87d3d25ad6bd2f117806153238a427f113033ed04f3fc85bead77ad4403f",
    ),
}


def skip_other_builds() -> None:
    build = (np.__version__, openblas_config())
    if build != (NUMPY_VERSION, OPENBLAS_CONFIG):
        pytest.skip(f"digests recorded under numpy {NUMPY_VERSION} with {OPENBLAS_CONFIG!r}; this is {build}")


def run_digests(cfg: RunConfig, names, out_dir) -> dict:
    """The sha256 of each named file cfg's run writes, skipping under another numpy or OpenBLAS build."""
    skip_other_builds()
    res = run_experiment(cfg, out_dir=out_dir)
    assert not res.failed
    return {name: hashlib.sha256((res.run_dir / name).read_bytes()).hexdigest() for name in names}


def test_golden_run_files(tmp_path):
    cfg = replace(
        BASE,
        stages=2,
        reinit=ReinitSpec("shrink_perturb"),
        distill=DistillConfig(enabled=True),
        run_name="golden",
    )
    assert run_digests(cfg, DIGESTS, tmp_path) == DIGESTS


@pytest.mark.parametrize("kind", sorted(RUN_KINDS))
def test_golden_run_kinds(kind, tmp_path):
    cfg, digests = RUN_KINDS[kind]
    assert run_digests(cfg, digests, tmp_path) == digests
    assert sorted(p.name for p in (tmp_path / cfg.run_id).iterdir()) == sorted([*digests, "summary.csv"])


@pytest.mark.parametrize("kind", sorted(STUDY_KINDS))
def test_golden_study_files(kind, tmp_path):
    skip_other_builds()
    study, digest = STUDY_KINDS[kind]
    study(tmp_path)
    assert hashlib.sha256((tmp_path / f"{kind}.json").read_bytes()).hexdigest() == digest
