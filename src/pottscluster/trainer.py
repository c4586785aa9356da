# pottscluster/trainer.py
"""Training loop for the clustering encoder.

A run is a pure function of (graph, features, config): weight init draws
from ``default_rng(seed)``, and epoch e's dropout mask reads the uniforms
at positions (e - 1) n l + p of the ``PCG64([seed, 1])`` stream, where p
is the row-major position of a stored feature entry (no uniform at
``dropout_keep`` 1.0). So repeating a run reproduces every float bit for
bit, and dense and sparse features of the same values train alike.
Optimization is plain Adam over one vector holding the three weight
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
    """Standard-normal weight init, drawn in the order w, w_skip, w_out, and the starting gamma."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(num_features, config.hidden, config.k)
    for view in (params.w, params.w_skip, params.w_out):
        view[...] = rng.standard_normal(view.shape)
    params.flat[-1] = DMON_GAMMA if config.loss == "dmon" else config.gamma_init
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


# numpy's PCG64 steps its 128-bit state s <- a*s + inc (mod 2^128), then
# outputs the XSL-RR of the new state; random() is (output >> 11) * 2^-53.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# uint64 operands for the limb arithmetic: a Python int operand costs a
# conversion on every call, about a quarter of a small draw's time
_U16, _U32, _U58, _U63, _U64 = (np.uint64(v) for v in (16, 32, 58, 63, 64))
_LIMB = np.uint64(0xFFFF)
# stored entries composed at a time: bounds the build's transient to a few MB
_BUILD_BLOCK = 1 << 13


def _limbs(*values: int, bits: int = 16) -> np.ndarray:
    """The little-endian ``bits``-bit limbs of 128-bit integers.

    Returns uint64 of shape (128 // bits, len(values)).
    """
    raw = b"".join(v.to_bytes(16, "little") for v in values)
    return np.frombuffer(raw, dtype=f"<u{bits // 8}").reshape(len(values), -1).T.astype(np.uint64)


def _mul_add(x: np.ndarray, y: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """acc <- x * y + acc mod 2^128, elementwise over uint64 limb arrays; returns ``acc``.

    ``x`` has 32-bit limbs (4, ...); ``y`` and ``acc`` have 16-bit limbs
    (8, ...), and ``acc`` has the full broadcast shape. A position sums at
    most four limb products below 2^48, so nothing overflows before the
    carry.
    """
    prod = np.empty_like(acc)
    for i in range(4):
        rows = 8 - 2 * i
        np.multiply(x[i], y[:rows], out=prod[:rows])
        acc[2 * i :] += prod[:rows]
    for t in range(7):
        acc[t + 1] += acc[t] >> _U16
    acc &= _LIMB
    return acc


def _affine_powers(a: int, c: int, count: int) -> tuple[list[int], list[int]]:
    """The coefficients of T^0 ... T^count for T(s) = a s + c (mod 2^128).

    Returns the lists (A_m) and (C_m), where T^m(s) = A_m s + C_m.
    """
    powers_a, powers_c = [1], [0]
    for _ in range(count):
        powers_a.append(powers_a[-1] * a & _MASK128)
        powers_c.append((powers_c[-1] * a + c) & _MASK128)
    return powers_a, powers_c


def _state_basis() -> np.ndarray:
    """(9, 48): the 16-bit limbs of a state s, then a constant 1, times this give m (4, 12).

    ``m @ column`` for a table column (A's eight 16-bit limbs, C's four
    32-bit chunks) gives the pre-carry 32-bit chunks of A*s + C: chunk c
    gathers limb i of A times limbs 2c-i and, weighted 2^16, 2c+1-i of s,
    and adds C's chunk c. Every chunk stays below 2^52, so float64 sums
    are exact in any order.
    """
    basis = np.zeros((9, 4, 12))
    for c in range(4):
        basis[8, c, 8 + c] = 1.0
        for i in range(8):
            for k, weight in ((2 * c - i, 1.0), (2 * c + 1 - i, 65536.0)):
                if 0 <= k < 8:
                    basis[k, c, i] = weight
    return basis.reshape(9, 48)


_STATE_BASIS = _state_basis()


def _pcg64_outputs(table: np.ndarray, state: int) -> np.ndarray:
    """PCG64 outputs at the columns of ``table`` (see FeatureDropout) from the draw's start."""
    limbs = np.frombuffer((state | 1 << 128).to_bytes(18, "little"), dtype="<u2")
    u = ((limbs @ _STATE_BASIS).reshape(4, 12) @ table).astype(np.uint64)
    lo, hi = u[0::2] + (u[1::2] << _U32)
    hi += ((u[0] >> _U32) + u[1]) >> _U32  # the carry out of lo
    xored, rot = hi ^ lo, hi >> _U58
    return (xored >> rot) | (xored << ((_U64 - rot) & _U63))


class FeatureDropout:
    """Inverted dropout on the stored entries of a CSR feature matrix.

    Draw e (from 0) keeps the entry at row-major position p where the
    uniform at position e n l + p of the ``PCG64(seed)`` stream is below
    ``keep``, as a dense n x l block of uniforms per draw would, but
    computes only the uniforms at stored positions. Masking a zero is a
    no-op, so dense and sparse features of the same values train bit for
    bit alike; at ``keep == 1.0`` a draw leaves x untouched.

    That uniform comes from the PCG64 state T^{p+1}(s) = A_{p+1} s + C_{p+1}
    (mod 2^128), where s is the state before the draw, T(s) = a s + inc is
    the generator's step, and A_j and C_j do not depend on s. The
    constructor composes (A, C) for each stored entry from tables of T's
    powers at the low and high halves of j's bits, a bounded block of
    entries at a time, in O(nnz + sqrt(n l)) time; a draw is then one exact
    float64 matmul of 16-bit limbs and a few integer operations per entry,
    and ``state`` steps by T^{n l} in Python ints. The table holds 96 bytes
    per stored entry (A in eight 16-bit limbs, C in four 32-bit chunks, all
    float64), so features denser than 1/12 hold more than the dense block
    of 8-byte uniforms would. The constructor checks the first, a middle
    and the last stored uniform, and the state after one draw, against
    copies of ``PCG64(seed)`` and raises ``RuntimeError`` on a mismatch.

    The dropped-out matrix and its transpose, a CSC view sharing its
    ``.data``, are built once and each draw overwrites ``.data`` in place:
    building both costs about 45 us, a tenth of a sub-millisecond epoch on
    a small graph.
    """

    def __init__(self, x: sp.csr_matrix, keep: float, seed: int | list[int]):
        self.x, self.keep = x, keep
        self.dropped = x.copy()
        self.dropped_t = self.dropped.T
        if keep == 1.0:
            return
        block = x.shape[0] * x.shape[1]
        # a uniform u = (out >> 11) * 2^-53 is below keep iff out < ceil(keep * 2^53) << 11
        self.threshold = np.uint64(math.ceil(keep * 2.0**53) << 11)
        start = np.random.PCG64(seed).state["state"]
        self.state = start["state"]  # the PCG64 state before the next draw
        b = (block.bit_length() + 1) // 2
        low_a, low_c = _affine_powers(_PCG64_MULT, start["inc"], 1 << b)
        high_a, high_c = _affine_powers(low_a[-1], low_c[-1], block >> b)  # powers of T^(2^b)
        # T^j = T^(high part) after T^(low part): A = A_h A_l and C = A_h C_l + C_h
        h, l = divmod(block, 1 << b)
        self.step = high_a[h] * low_a[l] & _MASK128, (high_a[h] * low_c[l] + high_c[h]) & _MASK128
        low = _limbs(*low_a, *low_c).reshape(8, 2, -1)
        a_high, c_high = _limbs(*high_a, bits=32), _limbs(*high_c)
        rows = np.repeat(np.arange(x.shape[0], dtype=np.int64), np.diff(x.indptr))
        j = rows * x.shape[1] + x.indices + 1  # steps from the draw's start to each stored uniform
        self.table = np.empty((12, j.size))
        for i in range(0, j.size, _BUILD_BLOCK):
            part = slice(i, i + _BUILD_BLOCK)
            hi, lo = j[part] >> b, j[part] & ((1 << b) - 1)
            ac = np.zeros((8, 2, hi.size), dtype=np.uint64)
            ac[:, 1] = c_high.take(hi, axis=1)
            _mul_add(a_high.take(hi, axis=1)[:, None], low.take(lo, axis=2), ac)
            self.table[:8, part] = ac[:, 0]
            self.table[8:, part] = ac[1::2, 1] << _U16 | ac[0::2, 1]
        # the kernel rests on numpy internals: check it against copies of the generator
        picked = [0, j.size // 2, j.size - 1] if j.size else []
        ours = (_pcg64_outputs(self.table[:, picked], self.state) >> 11) * 2.0**-53
        for steps, value in zip(j[picked].tolist(), ours):
            copy = np.random.PCG64(seed)
            copy.advance(steps - 1)
            if np.random.Generator(copy).random() != value:
                raise RuntimeError(
                    f"dropout uniform at position {steps - 1} does not match numpy's PCG64 stream"
                )
        copy = np.random.PCG64(seed)
        copy.advance(block)
        a, c = self.step
        if copy.state["state"]["state"] != (a * self.state + c) & _MASK128:
            raise RuntimeError(f"dropout state after {block} steps does not match numpy's PCG64")

    def draw(self) -> sp.csr_matrix:
        """Apply a fresh mask to x, returning ``dropped``; ``dropped_t`` follows it."""
        if self.keep < 1.0:
            outputs = _pcg64_outputs(self.table, self.state)
            mask = (outputs < self.threshold).astype(np.float64) / self.keep
            np.multiply(self.x.data, mask, out=self.dropped.data)
            a, c = self.step
            self.state = (a * self.state + c) & _MASK128
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
    abar = normalized_adjacency(g)
    params = init_params(x.shape[1], config)
    state = AdamState.zeros(params)
    dropout = FeatureDropout(x, config.dropout_keep, [config.seed, 1])
    objective_kw = dict(
        w_collapse=config.w_collapse,
        w_gamma=config.w_gamma,
        gamma_max=config.gamma_max,
    )

    c0, _ = forward(abar, x, params)
    first, _, _ = evaluate_objective(g, c0, params.gamma, config.loss, **objective_kw)
    records = [EpochRecord.of(0, first, params.gamma)]
    if not np.isfinite(first.total):
        raise TrainDivergedError(0, first)

    for epoch in range(1, config.epochs + 1):
        c, cache = forward(abar, dropout.draw(), params, dropout.dropped_t)
        breakdown, d_c, d_gamma = evaluate_objective(
            g, c, params.gamma, config.loss, **objective_kw
        )
        if not np.isfinite(breakdown.total):
            raise TrainDivergedError(epoch, breakdown)
        grads = backward(cache, d_c, d_gamma)
        adam_step(params, grads, state, config.learning_rate, config.gamma_max)
        records.append(EpochRecord.of(epoch, breakdown, params.gamma))

    c_final, _ = forward(abar, x, params)
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
