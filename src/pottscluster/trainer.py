# pottscluster/trainer.py
"""Training loop for the clustering encoder.

A run is a pure function of (graph, features, config): weight init draws
from ``default_rng(seed)`` and dropout from ``default_rng([seed, 1])``, one
uniform per stored feature entry and epoch (see FeatureDropout). So
repeating a run reproduces every float bit for bit, and dense and sparse
features of the same values train alike.
Optimization is plain Adam over one vector holding the three weight
matrices and the scalar resolution gamma, which is clamped to
[0, gamma_max] after each step.

Training computes in one dtype, DTYPE (float32): ``train`` converts the
features, Abar, the unit adjacency and degrees the objective reads once,
``init_params`` stores its weights in DTYPE, and every buffer and kernel
of an epoch is float32. The random streams draw in float64 as before, so
every dropout mask and initial weight is the float64 one, rounded.
Every epoch writes into buffers made once per ``train`` call (a
ForwardCache, dL/dC, Adam's and dropout's scratch), with the operations,
order and kernels of allocating code, so no float depends on them.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

from .dataset import feature_matrix
from .graph import Graph, normalized_adjacency
from .losses import DMON_GAMMA, LOSS_KINDS, LossBreakdown, evaluate_objective
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
ADAM_BLOCK = 32768  # entries per adam_step pass: 128 KB float32 rows, so a block stays in cache
DTYPE = np.float32  # the one training dtype: every objective term is a sum of bounded products


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
        if not self.weights_fit(1):
            raise ValueError(f"hidden={self.hidden} and k={self.k} are too large: one feature's weights exceed the address space")
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

    def weights_fit(self, num_features: int) -> bool:
        """Whether the DTYPE weights for ``num_features`` features fit in the address space."""
        return ModelParams.size(num_features, self.hidden, self.k) * np.dtype(DTYPE).itemsize <= sys.maxsize

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**raw)


class TrainDivergedError(RuntimeError):
    """Raised when the objective, or the final assignment (``breakdown`` None), becomes non-finite."""

    def __init__(self, epoch: int, breakdown: LossBreakdown | None = None):
        super().__init__(f"final assignment became non-finite after epoch {epoch}" if breakdown is None
                         else f"objective became non-finite at epoch {epoch}: total={breakdown.total}")
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
    """Adam's moments over the flat parameter vector, its step count, and adam_step's scratch, made by ``zeros``."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray = field(repr=False)
    t: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        size, dtype = params.flat.size, params.flat.dtype
        scratch = np.empty((2, min(size, ADAM_BLOCK)), dtype)
        return cls(m=np.zeros(size, dtype), v=np.zeros(size, dtype), scratch=scratch)


def init_params(num_features: int, config: TrainConfig) -> ModelParams:
    """LeCun-normal DTYPE weights and the starting gamma.

    w, w_skip and w_out get standard normals, drawn in that order, times
    1/sqrt(fan_in) (l, l and h): the variance SeLU's self-normalizing
    argument assumes, which keeps the softmax unsaturated at epoch 0.
    Each float64 draw is rounded to DTYPE as it is stored, gamma toward zero.
    """
    rng = np.random.default_rng(config.seed)
    params = ModelParams(num_features, config.hidden, config.k, DTYPE)
    for view in (params.w, params.w_skip, params.w_out):
        view[...] = rng.standard_normal(view.shape) / math.sqrt(view.shape[0])
    params.gamma = DMON_GAMMA if config.loss == "dmon" else config.gamma_init
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
    matrix and gamma on its own, block by block into ``state.scratch``.
    """
    state.t += 1
    for lo in range(0, params.flat.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        p, m, v, g = params.flat[block], state.m[block], state.v[block], grads.flat[block]
        a, b = state.scratch[:, : p.size]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        a *= g
        v += a
        denom = np.divide(v, 1.0 - ADAM_BETA2**state.t, out=a)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step = np.divide(m, 1.0 - ADAM_BETA1**state.t, out=b)
        step *= learning_rate
        step /= denom
        p -= step
    params.gamma = min(max(params.gamma, 0.0), gamma_max)


class FeatureDropout:
    """Inverted dropout on the stored entries of a CSR feature matrix.

    Each draw takes one uniform per stored entry, in storage order, from
    ``default_rng(seed)`` and keeps, times 1/keep, the entries whose uniform
    is below ``keep``. At ``keep == 1.0`` nothing is drawn and ``dropped`` equals x.

    ``dropped`` stores only the kept entries. That changes no float of the
    feature products: a dropped entry would only add ``+0 * w`` to scipy's
    sequential sums. It and its CSC view ``dropped_t`` are built once and
    each draw reassigns their arrays; building new matrices would cost
    37-60 us, a tenth of a sub-millisecond epoch on a small graph. Each
    draw's uniforms and mask go into two buffers of length nnz, made once.
    """

    def __init__(self, x: sp.csr_matrix, keep: float, seed: int | list[int]):
        self.x, self.keep = x, keep
        self.rng = np.random.default_rng(seed) if keep < 1.0 else None
        self.dropped = sp.csr_matrix(x)  # x's arrays until a draw replaces them, never written
        self.dropped_t = self.dropped.T
        if self.rng is not None:
            self.uniforms, self.mask = np.empty(x.nnz), np.empty(x.nnz, dtype=bool)

    def draw(self) -> sp.csr_matrix:
        """Apply a fresh mask to x, returning ``dropped``; ``dropped_t`` follows it."""
        if self.rng is not None:
            x = self.x
            self.rng.random(out=self.uniforms)
            kept = np.flatnonzero(np.less(self.uniforms, self.keep, out=self.mask))
            data = x.data.take(kept) * (1.0 / self.keep)
            indices = x.indices.take(kept)
            indptr = np.searchsorted(kept, x.indptr).astype(x.indptr.dtype)
            for m in (self.dropped, self.dropped_t):
                m.data, m.indices, m.indptr = data, indices, indptr
        return self.dropped


def _values_as(a: sp.csr_matrix, dtype) -> sp.csr_matrix:
    """``a`` with its stored values cast to ``dtype``, sharing its index arrays."""
    return sp.csr_matrix((a.data.astype(dtype), a.indices, a.indptr), shape=a.shape)


def train(g: Graph, x: np.ndarray | sp.spmatrix, config: TrainConfig) -> RunTrace:
    """Train the encoder on (g, x) and return the epoch trace.

    ``x`` is dense or scipy sparse; training works on a DTYPE CSR copy,
    so the caller's matrix is never modified, and a value past DTYPE's
    range becomes +-inf there and diverges. Record 0 holds the eval-mode
    loss of the freshly initialized model. Record e (1-based) holds the
    training-mode loss the optimizer saw at epoch e, together with gamma as
    it stands after that epoch's update, so the trace has epochs + 1
    records.
    """
    x = feature_matrix(x, g.n)
    abar = normalized_adjacency(g)
    # a diverging run overflows to inf and nan, as a feature past DTYPE's range
    # does in its cast; the check on each total reports it
    with np.errstate(over="ignore", invalid="ignore"):
        x, abar = _values_as(x, DTYPE), _values_as(abar, DTYPE)
        g = dataclasses.replace(g, adj=_values_as(g.adj, DTYPE))  # the objective reads adj and float_degrees
        params = init_params(x.shape[1], config)
        state = AdamState.zeros(params)
        dropout = FeatureDropout(x, config.dropout_keep, [config.seed, 1])

        c, cache = forward(abar, x, params)
        objective_kw = {key: getattr(config, key) for key in ("w_collapse", "w_gamma", "gamma_max")}
        objective_kw["out"] = np.empty_like(c)
        first, _, _ = evaluate_objective(g, c, params.gamma, config.loss, **objective_kw)
        records = [EpochRecord.of(0, first, params.gamma)]
        if not math.isfinite(first.total):
            raise TrainDivergedError(0, first)

        for epoch in range(1, config.epochs + 1):
            c, cache = forward(abar, dropout.draw(), params, dropout.dropped_t, cache)
            breakdown, d_c, d_gamma = evaluate_objective(g, c, params.gamma, config.loss, **objective_kw)
            if not math.isfinite(breakdown.total):
                raise TrainDivergedError(epoch, breakdown)
            grads = backward(cache, d_c, d_gamma)
            adam_step(params, grads, state, config.learning_rate, config.gamma_max)
            records.append(EpochRecord.of(epoch, breakdown, params.gamma))

        c_final, _ = forward(abar, x, params, cache=cache)  # the cache ends here: C can be the result
        if not np.isfinite(c_final).all():  # the last Adam step can overflow it with no objective after it
            raise TrainDivergedError(config.epochs)
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
