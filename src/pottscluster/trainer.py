# pottscluster/trainer.py
"""Training loop for the clustering encoder.

A run is a pure function of (graph, features, config): weight init draws
from ``default_rng(seed)`` and the dropout stream from
``default_rng([seed, 1])``, one n x l block of uniforms per epoch whatever
the sparsity of the features, so repeating a run reproduces every float bit
for bit. Optimization is plain Adam over one vector holding the three weight
matrices and the scalar resolution gamma, which is clamped to
[0, gamma_max] after each step.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

from .dataset import feature_matrix
from .graph import Graph, normalized_adjacency
from .losses import COLLAPSE_SCALINGS, DMON_GAMMA, LOSS_KINDS, LossBreakdown, evaluate_objective
from .metrics import MetricsReport, evaluate_partition, hard_assign
from .model import ModelParams, backward, forward

__all__ = [
    "TrainConfig",
    "TrainDivergedError",
    "EpochRecord",
    "RunTrace",
    "AdamState",
    "FeatureDropout",
    "init_params",
    "adam_step",
    "train",
    "SeedRun",
    "SeedSweep",
    "run_seeds",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# accepted value types per TrainConfig annotation; bool is rejected separately
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    seed: int = 0
    k: int = 16
    hidden: int = 64
    dropout_keep: float = 0.5
    learning_rate: float = 1e-3
    epochs: int = 1000
    gamma_init: float = 1.0
    gamma_max: float = 5.0
    w_collapse: float = 1.0
    w_gamma: float = 0.01
    loss: str = "potts"
    collapse_scaling: str = "sqrtk_over_n"

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # no coercion: metrics.json echoes each value as given
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be positive, got {self.hidden}")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError(f"dropout_keep must be in (0, 1], got {self.dropout_keep}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.gamma_max <= 0:
            raise ValueError(f"gamma_max must be positive, got {self.gamma_max}")
        if not 0.0 <= self.gamma_init <= self.gamma_max:
            raise ValueError(
                f"gamma_init must lie in [0, gamma_max={self.gamma_max}], got {self.gamma_init}"
            )
        if self.w_collapse < 0 or self.w_gamma < 0:
            raise ValueError("regularizer weights must be non-negative")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}, expected one of {LOSS_KINDS}")
        if self.loss == "dmon" and self.gamma_max < DMON_GAMMA:
            raise ValueError(
                f"loss 'dmon' fixes gamma at {DMON_GAMMA}, outside [0, gamma_max={self.gamma_max}];"
                f" set gamma_max to at least {DMON_GAMMA}"
            )
        if self.collapse_scaling not in COLLAPSE_SCALINGS:
            raise ValueError(
                f"unknown collapse_scaling {self.collapse_scaling!r},"
                f" expected one of {COLLAPSE_SCALINGS}"
            )

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**raw)


class TrainDivergedError(RuntimeError):
    """Raised when the objective becomes non-finite during training."""

    def __init__(self, epoch: int, breakdown: LossBreakdown):
        super().__init__(f"objective became non-finite at epoch {epoch}: total={breakdown.total}")
        self.epoch = epoch
        self.breakdown = breakdown


@dataclass(frozen=True)
class EpochRecord:
    """One trace row: loss terms at the epoch's evaluation, gamma after its update."""

    epoch: int
    total: float
    potts: float
    collapse: float
    gamma_reg: float
    gamma: float

    @classmethod
    def of(cls, epoch: int, loss: LossBreakdown, gamma: float) -> "EpochRecord":
        return cls(epoch, loss.total, loss.potts, loss.collapse, loss.gamma_reg, gamma)


@dataclass(frozen=True)
class RunTrace:
    """Full result of one training run."""

    records: list[EpochRecord]
    final_params: ModelParams
    final_assignment: np.ndarray  # eval-mode soft assignment, shape (n, k)

    @property
    def gamma_final(self) -> float:
        return self.final_params.gamma


@dataclass
class AdamState:
    """First/second moment accumulators over the flat parameter vector, and the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def init_params(num_features: int, config: TrainConfig) -> ModelParams:
    """Standard-normal weight init; draw order is w, w_skip, w_out."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(num_features, config.hidden, config.k)
    for view in (params.w, params.w_skip, params.w_out):
        view[...] = rng.standard_normal(view.shape)
    params.flat[-1] = config.gamma_init
    return params


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    learning_rate: float,
    gamma_max: float,
) -> None:
    """One Adam update of ``params`` and ``state`` in place, then gamma clamped to [0, gamma_max].

    Each element goes through the textbook per-parameter operations in the
    textbook order, so the result is bitwise equal to updating every weight
    matrix and gamma on its own.
    """
    state.t += 1
    m, v, g = state.m, state.v, grads.flat
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    denom = np.sqrt(v / (1.0 - ADAM_BETA2**state.t))
    denom += ADAM_EPS
    params.flat -= learning_rate * (m / (1.0 - ADAM_BETA1**state.t)) / denom
    params.flat[-1] = min(max(params.flat[-1], 0.0), gamma_max)


class FeatureDropout:
    """Inverted dropout on the stored entries of a CSR feature matrix.

    Each draw takes uniforms for all n x l entries from ``rng``, as a dense
    mask would, and keeps those at the stored positions. Masking a zero is a
    no-op, so the stored values come out bit for bit as the dense
    ``x * mask`` on the same stream. The dropped-out matrix and its
    transpose, a CSC view sharing its ``.data``, are built once and each
    draw overwrites ``.data`` in place: building both costs about 45 us,
    a tenth of a sub-millisecond epoch on a small graph.
    """

    def __init__(self, x: sp.csr_matrix, keep: float, rng: np.random.Generator):
        self.x, self.keep, self.rng = x, keep, rng
        self.uniforms = np.empty(x.shape)
        rows = np.repeat(np.arange(x.shape[0], dtype=np.int64), np.diff(x.indptr))
        self.stored = rows * x.shape[1] + x.indices  # row-major positions of x.data
        self.dropped = x.copy()
        self.dropped_t = self.dropped.T

    def draw(self) -> sp.csr_matrix:
        """Apply a fresh mask to x, returning ``dropped``; ``dropped_t`` follows it."""
        self.rng.random(out=self.uniforms)
        mask = (self.uniforms.take(self.stored) < self.keep).astype(np.float64) / self.keep
        np.multiply(self.x.data, mask, out=self.dropped.data)
        return self.dropped


def train(g: Graph, x: np.ndarray | sp.spmatrix, config: TrainConfig) -> RunTrace:
    """Train the encoder on (g, x) and return the epoch trace.

    ``x`` is dense or scipy sparse; training works on a float64 CSR copy,
    so the caller's matrix is never modified. Record 0 holds the eval-mode
    loss of the freshly initialized model. Record e (1-based) holds the
    training-mode loss the optimizer saw at epoch e, together with gamma as
    it stands after that epoch's update, so the trace has epochs + 1
    records.
    """
    x = feature_matrix(x, g.n)
    x_t = x.T
    abar = normalized_adjacency(g)
    params = init_params(x.shape[1], config)
    if config.loss == "dmon":
        # the baseline pins the resolution; its gamma gradient is zero
        params.flat[-1] = DMON_GAMMA
    state = AdamState.zeros(params)
    dropout = None
    if config.dropout_keep < 1.0:
        dropout = FeatureDropout(x, config.dropout_keep, np.random.default_rng([config.seed, 1]))
    objective_kw = dict(
        w_collapse=config.w_collapse,
        w_gamma=config.w_gamma,
        gamma_max=config.gamma_max,
        collapse_scaling=config.collapse_scaling,
    )

    c0, _ = forward(abar, x, params, x_t)
    first, _, _ = evaluate_objective(g, c0, params.gamma, config.loss, **objective_kw)
    records = [EpochRecord.of(0, first, params.gamma)]
    if not np.isfinite(first.total):
        raise TrainDivergedError(0, first)

    for epoch in range(1, config.epochs + 1):
        if dropout is None:
            c, cache = forward(abar, x, params, x_t)
        else:
            c, cache = forward(abar, dropout.draw(), params, dropout.dropped_t)
        breakdown, d_c, d_gamma = evaluate_objective(
            g, c, params.gamma, config.loss, **objective_kw
        )
        if not np.isfinite(breakdown.total):
            raise TrainDivergedError(epoch, breakdown)
        grads = backward(cache, d_c, d_gamma)
        adam_step(params, grads, state, config.learning_rate, config.gamma_max)
        records.append(EpochRecord.of(epoch, breakdown, params.gamma))

    c_final, _ = forward(abar, x, params, x_t)
    return RunTrace(records=records, final_params=params, final_assignment=c_final)


@dataclass(frozen=True)
class SeedRun:
    """One seed's trace plus the scores of its final hard partition."""

    seed: int
    trace: RunTrace
    report: MetricsReport

    def summary(self) -> dict[str, Any]:
        """The seed's row of scalars, in the order metrics.json lists them."""
        return {
            "seed": self.seed,
            "gamma_final": self.trace.gamma_final,
            "total": self.trace.records[-1].total,
            **dataclasses.asdict(self.report),
        }


@dataclass(frozen=True)
class SeedSweep:
    """Results over consecutive seeds with per-metric mean and std."""

    runs: list[SeedRun]
    mean: dict[str, float | None] = field(default_factory=dict)
    std: dict[str, float | None] = field(default_factory=dict)


_SWEEP_KEYS = ("modularity", "conductance", "nmi", "pairwise_f1", "gamma_final", "total")


def run_seeds(
    g: Graph,
    x: np.ndarray | sp.spmatrix,
    config: TrainConfig,
    num_seeds: int,
    labels: np.ndarray | None = None,
) -> SeedSweep:
    """Train with seeds config.seed .. config.seed + num_seeds - 1 and aggregate."""
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be positive, got {num_seeds}")
    runs = []
    for i in range(num_seeds):
        cfg = dataclasses.replace(config, seed=config.seed + i)
        trace = train(g, x, cfg)
        pred = hard_assign(trace.final_assignment)
        report = evaluate_partition(g, pred, labels)
        runs.append(SeedRun(seed=cfg.seed, trace=trace, report=report))
    rows = [r.summary() for r in runs]
    mean: dict[str, float | None] = {}
    std: dict[str, float | None] = {}
    for key in _SWEEP_KEYS:
        vals = [row[key] for row in rows]
        if any(v is None for v in vals):
            mean[key] = None
            std[key] = None
        else:
            arr = np.asarray(vals, dtype=np.float64)
            mean[key] = float(arr.mean())
            std[key] = float(arr.std())
    return SeedSweep(runs=runs, mean=mean, std=std)
