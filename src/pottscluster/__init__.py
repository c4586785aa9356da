# pottscluster
"""Graph clustering by training a graph-conv encoder against a Potts objective.

The objective is the Potts Hamiltonian under the configuration null model
with a trainable resolution gamma, plus collapse and gamma regularizers.
Fixed-resolution (dmon) and normalized-cut (mincut_ortho) baselines share
the same encoder and trainer.

The package exports every name in each library module's ``__all__``; the
command-line front end stays in ``pottscluster.cli``.
"""
from . import dataset, graph, losses, metrics, model, trainer
from .dataset import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .losses import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .trainer import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name for module in (dataset, graph, losses, metrics, model, trainer) for name in module.__all__
] + ["__version__"]
