"""Staged training for small feedforward nets with pluggable re-initialization.

The package root holds the configs, the run and study entry points, their
result, the data and checkpoint loaders and the errors. Everything else is
importable from its own module; those functions trust their caller to pass
values a config has already checked.
"""

from .data import AugmentSpec, Dataset, load_csv, load_idx
from .errors import (
    ConfigurationError,
    DataError,
    FormatError,
    HarnessError,
    NumericalError,
    ReinitLabError,
    ShapeError,
)
from .harness import (
    DataConfig,
    DistillConfig,
    RunConfig,
    RunResult,
    Seeds,
    grid_search,
    noise_study,
    online_sim,
    prepare_data,
    run_experiment,
    stage_sweep,
)
from .nn import NetworkSpec
from .reinit import ReinitSpec
from .runio import load_checkpoint

__all__ = [
    "AugmentSpec", "DataConfig", "DistillConfig", "NetworkSpec", "ReinitSpec", "RunConfig", "Seeds",
    "grid_search", "noise_study", "online_sim", "prepare_data", "run_experiment", "stage_sweep",
    "RunResult", "Dataset", "load_csv", "load_idx", "load_checkpoint",
    "ConfigurationError", "DataError", "FormatError", "HarnessError", "NumericalError", "ReinitLabError", "ShapeError",
]

__version__ = "0.1.0"
