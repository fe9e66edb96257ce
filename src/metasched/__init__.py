"""Meta-learned per-instance and per-class learning rates (and learnable
weight decay) for small dense classifiers, with a one-step-lookahead
meta-gradient, a temperature-scaled loss alternative, and a deterministic
experiment harness."""

from .config import RunConfig, load_config
from .datagen import LabeledDataset, corrupt_labels, make_blobs
from .errors import ConfigError, MetaschedError, NumericError, ShapeError
from .harness import kfold_collect, replay_train, run_training
from .meta import DataParamState, MetaStepReport, meta_train_step
from .nn import Batch, ParamVector, build_manifest, init_params
from .trajectory import TrajectoryLog

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "ConfigError",
    "DataParamState",
    "LabeledDataset",
    "MetaStepReport",
    "MetaschedError",
    "NumericError",
    "ParamVector",
    "RunConfig",
    "ShapeError",
    "TrajectoryLog",
    "__version__",
    "build_manifest",
    "corrupt_labels",
    "init_params",
    "kfold_collect",
    "load_config",
    "make_blobs",
    "meta_train_step",
    "replay_train",
    "run_training",
]
