"""Multi-task networks with task-adaptive piecewise-linear activations.

All hidden weights are shared across tasks; each task owns only the hinge
coordinates of its activation functions (plus an output head).  Closed-form
Gaussian moments turn activation similarity into exact inner products and
distances, which coordinate-matrix regularizers then shape during training.
"""

from taan.apl import BasisGrid, apl_eval, apl_eval_batch, apl_grad_coords, apl_grad_x
from taan.data import (
    CsvSchema,
    SplitDatasets,
    SyntheticSpec,
    TaskDataset,
    generate,
    load_csv,
    save_csv,
)
from taan.metrics import (
    GaussianMixture,
    GramCache,
    build_gram,
    cosine_similarity,
    distance_matrix,
    distance_sq,
    inner_product,
    norm,
)
from taan.moments import (
    GaussianParams,
    QuadratureError,
    moment_b0_sq,
    moment_b0b,
    moment_bb,
    oracle_moment,
)
from taan.network import (
    ArchitectureSpec,
    TaanModel,
    backward,
    build_model,
    forward,
    load_checkpoint,
    save_checkpoint,
    tie_heads,
    to_hard_sharing,
)
from taan.regularizers import RegConfig, RegKind, regularizer_value, reg_grad
from taan.training import AdamState, TrainConfig, adam_step, evaluate, map_at_k, train
from taan.analysis import (
    BoundCheckReport,
    LayerDistanceReport,
    check_l1_bounds,
    cluster_separation,
    export_heatmap,
    layer1_unit_gaussians,
    layer_distances,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # activations
    "BasisGrid",
    "apl_eval",
    "apl_eval_batch",
    "apl_grad_coords",
    "apl_grad_x",
    # moments
    "GaussianParams",
    "QuadratureError",
    "moment_b0_sq",
    "moment_b0b",
    "moment_bb",
    "oracle_moment",
    # metrics
    "GaussianMixture",
    "GramCache",
    "build_gram",
    "cosine_similarity",
    "distance_matrix",
    "distance_sq",
    "inner_product",
    "norm",
    # regularizers
    "RegConfig",
    "RegKind",
    "regularizer_value",
    "reg_grad",
    # network
    "ArchitectureSpec",
    "TaanModel",
    "backward",
    "build_model",
    "forward",
    "load_checkpoint",
    "save_checkpoint",
    "tie_heads",
    "to_hard_sharing",
    # training
    "AdamState",
    "TrainConfig",
    "adam_step",
    "evaluate",
    "map_at_k",
    "train",
    # data
    "CsvSchema",
    "SplitDatasets",
    "SyntheticSpec",
    "TaskDataset",
    "generate",
    "load_csv",
    "save_csv",
    # analysis
    "BoundCheckReport",
    "LayerDistanceReport",
    "check_l1_bounds",
    "cluster_separation",
    "export_heatmap",
    "layer1_unit_gaussians",
    "layer_distances",
]
