# pottscluster
"""Graph clustering by training a graph-conv encoder against a Potts objective.

The objective is the Potts Hamiltonian under the configuration null model
with a trainable resolution gamma, plus collapse and gamma regularizers.
Fixed-resolution (dmon) and normalized-cut (mincut_ortho) baselines share
the same encoder and trainer.
"""
from .dataset import (
    DatasetFormatError,
    adjacency_features,
    load_dataset,
    one_hot_degree_features,
    save_dataset,
)
from .graph import (
    Graph,
    from_edge_list,
    normalized_adjacency,
    ring_of_cliques,
    sbm,
    spmm,
)
from .losses import (
    LossBreakdown,
    collapse_reg,
    evaluate_objective,
    gamma_reg,
    mincut_loss,
    ortho_reg,
    potts_loss,
)
from .metrics import (
    MetricsReport,
    conductance,
    evaluate_partition,
    hard_assign,
    modularity,
    nmi,
    pairwise_f1,
)
from .model import ModelParams, backward, forward, selu, softmax_rows
from .trainer import (
    RunTrace,
    SeedSweep,
    TrainConfig,
    TrainDivergedError,
    run_seeds,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "from_edge_list",
    "normalized_adjacency",
    "ring_of_cliques",
    "sbm",
    "spmm",
    "ModelParams",
    "forward",
    "backward",
    "selu",
    "softmax_rows",
    "LossBreakdown",
    "potts_loss",
    "collapse_reg",
    "gamma_reg",
    "mincut_loss",
    "ortho_reg",
    "evaluate_objective",
    "MetricsReport",
    "hard_assign",
    "modularity",
    "conductance",
    "nmi",
    "pairwise_f1",
    "evaluate_partition",
    "TrainConfig",
    "TrainDivergedError",
    "RunTrace",
    "SeedSweep",
    "train",
    "run_seeds",
    "DatasetFormatError",
    "load_dataset",
    "save_dataset",
    "one_hot_degree_features",
    "adjacency_features",
    "__version__",
]
