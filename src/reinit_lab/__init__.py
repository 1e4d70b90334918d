"""Staged training for small feedforward nets with pluggable re-initialization."""

from .data import (
    AugmentSpec,
    Dataset,
    inject_label_noise,
    load_csv,
    load_idx,
    make_chunks,
    make_synthetic,
    split,
)
from .distill import TeacherCache, distill_rows, snapshot_teacher
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
from .nn import (
    FrozenNormLayer,
    NetworkSpec,
    ParamVector,
    forward,
    init_params,
    loss_grad_logits,
    softmax,
    weight_norm,
)
from .optim import LrSchedule, OptimState, lr_at, sgd_step
from .reinit import (
    ReinitSpec,
    apply_reinit,
    layerwise_reinit,
    make_stage_plan,
    shrink_perturb,
    stage_seed,
)
from .runio import MetricsRecord, emit_metrics, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
