"""SEAL framework adapted to link classification (paper §II-B, §III).

Pipeline: enclosing-subgraph extraction → DRNL labeling → node attribute
matrix → GNN (DGCNN / AM-DGCNN) → class logits.
"""

from repro.seal.dataset import (
    CacheInfo,
    LinkTask,
    SEALDataset,
    sample_negative_pairs,
    train_test_split_indices,
)
from repro.seal.cross_validation import (
    CrossValidationResult,
    CVResult,
    cross_validate,
    kfold_indices,
)
from repro.seal.evaluator import EvalResult, evaluate, predict_proba
from repro.seal.results import TrainResult
from repro.seal.tasks import make_link_classification_task, make_link_prediction_task
from repro.seal.features import (
    FeatureConfig,
    assemble_node_features,
    build_node_features,
)
from repro.seal.labeling import (
    DEFAULT_MAX_LABEL,
    drnl_labels,
    drnl_labels_from_distances,
    drnl_one_hot,
    drnl_value,
)
from repro.seal.trainer import (
    NonFiniteLossError,
    TrainConfig,
    TrainHistory,
    train,
)
from repro.seal.checkpoint import (
    Checkpoint,
    CheckpointConfig,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "LinkTask",
    "SEALDataset",
    "CacheInfo",
    "train_test_split_indices",
    "sample_negative_pairs",
    "FeatureConfig",
    "build_node_features",
    "assemble_node_features",
    "drnl_value",
    "drnl_labels",
    "drnl_labels_from_distances",
    "drnl_one_hot",
    "DEFAULT_MAX_LABEL",
    "TrainConfig",
    "TrainHistory",
    "TrainResult",
    "train",
    "NonFiniteLossError",
    "Checkpoint",
    "CheckpointConfig",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "EvalResult",
    "evaluate",
    "predict_proba",
    "kfold_indices",
    "cross_validate",
    "CVResult",
    "CrossValidationResult",
    "make_link_prediction_task",
    "make_link_classification_task",
]
