# tests/test_trainer.py
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (
    reference_adam_step,
    reference_backward,
    reference_forward,
    reference_objective,
    textbook_adam_slot,
)
from pottscluster import TrainConfig, TrainDivergedError, hard_assign, nmi, sbm, train, trainer
from pottscluster.dataset import adjacency_features
from pottscluster.model import ModelParams
from pottscluster.trainer import AdamState, FeatureDropout, adam_step, init_params, run_seeds


class TestTrainConfig:
    def test_defaults_match_reference_setup(self):
        cfg = TrainConfig()
        assert cfg.k == 16
        assert cfg.hidden == 64
        assert cfg.dropout_keep == 0.5
        assert cfg.gamma_init == 1.0
        assert cfg.gamma_max == 5.0
        assert cfg.w_collapse == 1.0
        assert cfg.w_gamma == 0.01
        assert cfg.loss == "potts"
        assert cfg.epochs == 1000
        assert cfg.learning_rate == 1e-3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"k": 1},
            {"hidden": 0},
            {"dropout_keep": 0.0},
            {"dropout_keep": 1.5},
            {"learning_rate": 0.0},
            {"epochs": -1},
            {"gamma_max": 0.0},
            {"gamma_init": -0.5},
            {"gamma_init": 9.0},
            {"w_collapse": -1.0},
            {"w_gamma": -0.1},
            {"loss": "nope"},
            {"epochs": 5.5},
            {"epochs": True},
            {"seed": "a"},
            {"k": 2.0},
            {"hidden": False},
            {"dropout_keep": "0.5"},
            {"learning_rate": True},
            {"gamma_max": None},
            {"loss": 1},
            {"learning_rate": float("nan")},
            {"gamma_max": float("inf")},
            {"loss": "dmon", "gamma_max": 0.5, "gamma_init": 0.2},
            {"hidden": 2**62},  # one feature's weights alone exceed the address space
            {"k": 2**62},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_dmon_accepts_gamma_max_of_one(self):
        # dmon records gamma 1, which must lie inside the clamp [0, gamma_max]
        assert TrainConfig(loss="dmon", gamma_max=1.0, gamma_init=0.2).gamma_max == 1.0

    def test_int_accepted_for_float_fields_without_coercion(self):
        cfg = TrainConfig(gamma_init=0, learning_rate=1)
        assert type(cfg.gamma_init) is int and type(cfg.learning_rate) is int

    def test_from_dict_roundtrip(self):
        cfg = TrainConfig(seed=3, k=4, epochs=10)
        assert TrainConfig.from_dict(dataclasses.asdict(cfg)) == cfg

    def test_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config keys: momentum"):
            TrainConfig.from_dict({"momentum": 0.9})


class TestInitParams:
    def test_deterministic_per_seed(self):
        cfg = TrainConfig(seed=11)
        p1 = init_params(5, cfg)
        p2 = init_params(5, cfg)
        assert np.array_equal(p1.w, p2.w)
        assert np.array_equal(p1.w_skip, p2.w_skip)
        assert np.array_equal(p1.w_out, p2.w_out)
        p3 = init_params(5, TrainConfig(seed=12))
        assert not np.array_equal(p1.w, p3.w)

    def test_gamma_starts_at_init(self):
        assert init_params(3, TrainConfig()).gamma == 1.0
        assert init_params(3, TrainConfig(gamma_init=2.5)).gamma == 2.5

    @pytest.mark.parametrize("gamma_init", [0.2, 2.0])
    def test_dmon_gamma_starts_pinned(self, gamma_init):
        assert init_params(3, TrainConfig(loss="dmon", gamma_init=gamma_init)).gamma == 1.0

    def test_standard_normal_statistics(self):
        # LeCun normal: standard normals scaled by 1/sqrt(fan_in), l for w and w_skip, h for w_out
        p = init_params(400, TrainConfig(seed=0, hidden=64, k=50))
        for view, fan_in in ((p.w, 400), (p.w_skip, 400), (p.w_out, 64)):
            assert -0.2 < view.mean() * math.sqrt(fan_in) < 0.2
            assert 0.9 < view.var() * fan_in < 1.1

    def test_draws_in_order_scaled_by_fan_in(self):
        p = init_params(7, TrainConfig(seed=3, hidden=5, k=4))
        rng = np.random.default_rng(3)
        for view, fan_in in ((p.w, 7), (p.w_skip, 7), (p.w_out, 5)):
            assert np.array_equal(view, rng.standard_normal(view.shape) / math.sqrt(fan_in))

    def test_shapes(self):
        p = init_params(7, TrainConfig(k=5, hidden=9))
        assert p.w.shape == (7, 9)
        assert p.w_skip.shape == (7, 9)
        assert p.w_out.shape == (9, 5)


def random_params(rng, l=3, h=4, k=2, gamma=1.0):
    params = ModelParams(l, h, k)
    params.flat[:-1] = rng.standard_normal(params.flat.size - 1)
    params.flat[-1] = gamma
    return params


def make_params_and_grads(seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    grads = ModelParams(3, 4, 2)
    sign = np.where(rng.random(grads.flat.size) < 0.5, -1.0, 1.0)
    grads.flat[:] = sign * (0.1 + rng.random(grads.flat.size)) * scale
    grads.flat[-1] = 0.7 * scale
    return params, grads


class TestModelParams:
    def test_slots_are_views_of_flat(self):
        p = ModelParams(3, 4, 2)
        assert p.flat.shape == (3 * 4 * 2 + 4 * 2 + 1,)
        assert p.w.shape == (3, 4) and p.w_skip.shape == (3, 4) and p.w_out.shape == (4, 2)
        assert p.w_in.shape == (3, 8)
        p.flat[:] = np.arange(p.flat.size)
        # row i of w_in is [w[i] | w_skip[i]]
        assert p.w[0, 0] == 0.0 and p.w_skip[0, 0] == 4.0 and p.w[1, 0] == 8.0 and p.w_out[0, 0] == 24.0
        assert np.array_equal(p.w_in, np.hstack([p.w, p.w_skip]))
        assert p.gamma == 32.0
        p.w_out[...] = -1.0
        assert np.all(p.flat[24:32] == -1.0)
        p.w_skip[...] = -2.0
        assert np.all(p.flat[:24].reshape(3, 8)[:, 4:] == -2.0)


class TestAdamStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        params, _ = make_params_and_grads()
        before = params.flat.copy()
        state = AdamState.zeros(params)
        adam_step(params, ModelParams(3, 4, 2), state, 1e-3, 5.0)
        assert np.array_equal(params.flat, before)
        assert state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        params, grads = make_params_and_grads(seed=1)
        before = params.flat.copy()
        lr = 1e-3
        adam_step(params, grads, AdamState.zeros(params), lr, 5.0)
        assert np.allclose(params.flat - before, -lr * np.sign(grads.flat), atol=lr * 1e-6)
        assert params.gamma - before[-1] == pytest.approx(-lr, abs=lr * 1e-6)

    def test_gamma_clamped_at_max(self):
        params, grads = make_params_and_grads(seed=2)
        params.flat[-1] = 4.9999
        grads.flat[-1] = -1.0
        adam_step(params, grads, AdamState.zeros(params), 1e-3, 5.0)
        assert params.gamma == 5.0

    def test_gamma_clamped_at_zero(self):
        params, grads = make_params_and_grads(seed=3)
        params.flat[-1] = 1e-4
        grads.flat[-1] = 1.0
        adam_step(params, grads, AdamState.zeros(params), 1e-3, 5.0)
        assert params.gamma == 0.0

    def test_bitwise_equal_to_textbook_adam(self):
        # the flat in-place step must reproduce per-slot Adam bit for bit,
        # including steps where gamma is pushed past either clamp
        rng = np.random.default_rng(4)
        params = random_params(rng, l=5, h=3, k=4, gamma=0.2)
        slots = ("w", "w_skip", "w_out", "gamma")
        ref = {name: np.copy(getattr(params, name)) for name in slots}
        moments = {name: (np.zeros_like(ref[name]), np.zeros_like(ref[name])) for name in slots}
        state = AdamState.zeros(params)
        lr, gamma_max = 0.3, 1.0
        gammas = []
        for t in range(1, 21):
            grads = ModelParams(5, 3, 4)
            grads.flat[:] = rng.standard_normal(grads.flat.size) * 10.0 ** rng.integers(-3, 3)
            grads.flat[-1] = 5.0 if t <= 4 else -5.0  # drive gamma down to 0, then up to max
            adam_step(params, grads, state, lr, gamma_max)
            for name in slots:
                ref[name], *moments[name] = textbook_adam_slot(
                    ref[name], np.copy(getattr(grads, name)), *moments[name], t, lr
                )
            ref["gamma"] = min(max(ref["gamma"], 0.0), gamma_max)
            for name in slots:
                assert np.array_equal(getattr(params, name), ref[name]), (t, name)
            gammas.append(params.gamma)
        assert state.t == 20
        assert 0.0 in gammas and gamma_max in gammas

    @pytest.mark.parametrize("block", [1, 7, 10**6])
    def test_blocks_equal_one_allocating_pass(self, monkeypatch, block):
        # 91 entries in blocks of 1 (91 passes), of 7 (a short last block) and of one block
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        rng = np.random.default_rng(5)
        params = random_params(rng, l=5, h=6, k=4, gamma=0.5)
        ref_params = random_params(np.random.default_rng(5), l=5, h=6, k=4, gamma=0.5)
        state, ref_state = AdamState.zeros(params), AdamState.zeros(params)
        for _ in range(5):
            grads = ModelParams(5, 6, 4)
            grads.flat[:] = rng.standard_normal(grads.flat.size)
            adam_step(params, grads, state, 0.01, 5.0)
            reference_adam_step(ref_params, grads, ref_state, 0.01, 5.0)
            assert np.array_equal(params.flat, ref_params.flat)
            assert np.array_equal(state.m, ref_state.m) and np.array_equal(state.v, ref_state.v)
        assert state.scratch.shape == (2, min(block, params.flat.size))


def zero_masked(x, keep, rng):
    """A dense copy of x with each stored entry times (u < keep) / keep, u drawn from ``rng``."""
    masked = x.copy()
    masked.data = x.data * ((rng.random(x.nnz) < keep) / keep)
    return masked.toarray()


class TestFeatureDropout:
    @pytest.mark.parametrize("keep", [0.5, 0.3])
    def test_stored_values_equal_dense_mask_on_same_stream(self, keep):
        x = sp.random(30, 40, density=0.1, format="csr", random_state=np.random.default_rng(0))
        x.data = np.random.default_rng(1).standard_normal(x.nnz)
        dense = x.toarray()
        ref = np.random.default_rng(2)
        dropout = FeatureDropout(x, keep, 2)
        for _ in range(3):
            dropped = dropout.draw()
            expected = zero_masked(x, keep, ref)
            assert np.array_equal(dropped.toarray(), expected)
            assert np.array_equal(dropout.dropped_t.toarray(), expected.T)
            # only the kept entries are stored, row by row in column order
            rows, cols = np.nonzero(expected)
            assert np.array_equal(dropped.indices, cols)
            assert np.array_equal(dropped.indptr, np.searchsorted(rows, np.arange(31)))
            assert dropped.indices.dtype == dropped.indptr.dtype == x.indptr.dtype
            assert dropped.nnz < x.nnz
        assert np.array_equal(x.toarray(), dense)

    def test_deterministic_per_seed(self):
        x = sp.random(20, 30, density=0.2, format="csr", random_state=np.random.default_rng(0))
        a, b, c = (FeatureDropout(x, 0.5, seed) for seed in ([4, 1], [4, 1], [5, 1]))
        for _ in range(2):
            da, db, dc = (d.draw().toarray() for d in (a, b, c))
            assert np.array_equal(da, db)
            assert not np.array_equal(da, dc)

    @pytest.mark.parametrize("keep", [0.2, 0.5, 0.9])
    def test_kept_fraction(self, keep):
        x = sp.random(200, 500, density=0.1, format="csr", random_state=np.random.default_rng(0))
        dropout = FeatureDropout(x, keep, 0)
        kept = sum(dropout.draw().nnz for _ in range(4)) / (4 * x.nnz)
        assert abs(kept - keep) < 0.01  # 40k Bernoulli draws: the std is at most 0.0025

    def test_keep_one_draws_nothing(self, monkeypatch):
        x = sp.random(30, 40, density=0.1, format="csr", random_state=np.random.default_rng(0))
        monkeypatch.setattr(np.random, "default_rng", None)  # building a generator would fail
        dropout = FeatureDropout(x, 1.0, 2)
        for _ in range(2):
            dropped = dropout.draw()
            assert np.array_equal(dropped.toarray(), x.toarray())
            assert np.array_equal(dropout.dropped_t.toarray(), x.toarray().T)

    def test_empty_features_draw_empty(self):
        x = sp.csr_matrix((4, 5))
        dropout = FeatureDropout(x, 0.5, 2)
        for _ in range(2):
            assert dropout.draw().nnz == 0
            assert dropout.dropped_t.shape == (5, 4)

    def test_uniform_equal_to_keep_is_dropped(self):
        # u < keep decides: a uniform exactly at keep drops and the next double up keeps
        x = sp.random(6, 9, density=0.4, format="csr", random_state=np.random.default_rng(0))
        x.data += 1.0  # every stored value nonzero
        rows, cols = x.nonzero()
        u = np.random.default_rng(5).random(x.nnz)
        i = int(np.argmin(u))
        for keep, kept in ((u[i], False), (np.nextafter(u[i], 1.0), True)):
            dropped = FeatureDropout(x, float(keep), 5).draw()
            assert (dropped[rows[i], cols[i]] != 0) == kept
            assert dropped.nnz == int(kept)

    def test_huge_sparse_shape_draws_without_dense_block(self):
        n, l = 3, 2**31  # n * l > 2^32: a dense block of uniforms would need 48 GiB
        rows, cols = np.array([0, 0, 1, 2, 2]), np.array([0, 7, 2**30 + 3, 5, l - 1])
        x = sp.csr_matrix((np.arange(1.0, 6.0), (rows, cols)), shape=(n, l))
        tracemalloc.start()
        dropout = FeatureDropout(x, 0.5, 4)
        draws = [dropout.draw().copy() for _ in range(2)]
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**26
        ref = np.random.default_rng(4)
        for dropped in draws:
            expected = x.data * ((ref.random(x.nnz) < 0.5) / 0.5)
            assert np.array_equal(np.asarray(dropped[rows, cols]).ravel(), expected)


class ZeroMaskDropout:
    """Reference dropout on the same stream: every entry stays stored, the dropped ones zeroed."""

    def __init__(self, x, keep, seed):
        self.x, self.keep, self.rng = x, keep, np.random.default_rng(seed)
        self.dropped = x.copy()
        self.dropped_t = self.dropped.T

    def draw(self):
        mask = (self.rng.random(self.x.nnz) < self.keep) / self.keep
        np.multiply(self.x.data, mask, out=self.dropped.data)
        return self.dropped


def test_kept_only_dropout_trains_like_dense_draw(monkeypatch, two_k4s):
    # skipping a dropped entry removes a +0 * w term from the products' sums: no float moves
    x = sp.random(8, 40, density=0.15, format="csr", random_state=np.random.default_rng(6))
    x.data += 0.5
    cfg = TrainConfig(seed=3, epochs=20, dropout_keep=0.5)
    assert not (np.random.default_rng([3, 1]).random(x.nnz) < 0.5).all()  # epoch 1 drops some
    ours = train(two_k4s, x, cfg)
    monkeypatch.setattr(trainer, "FeatureDropout", ZeroMaskDropout)
    masked = train(two_k4s, x, cfg)
    assert ours.records == masked.records
    assert np.array_equal(ours.final_assignment, masked.final_assignment)


@pytest.fixture
def k4_setup(two_k4s):
    return two_k4s, adjacency_features(two_k4s), np.array([0] * 4 + [1] * 4)


class TestTrain:
    def test_zero_epochs_single_record(self, k4_setup):
        g, x, _ = k4_setup
        trace = train(g, x, TrainConfig(epochs=0))
        assert len(trace.records) == 1
        assert trace.records[0].epoch == 0
        assert trace.final_assignment.shape == (8, 16)

    def test_record_count_and_gamma_range(self, k4_setup):
        g, x, _ = k4_setup
        cfg = TrainConfig(epochs=40, gamma_max=5.0)
        trace = train(g, x, cfg)
        assert len(trace.records) == 41
        assert [r.epoch for r in trace.records] == list(range(41))
        for r in trace.records:
            assert 0.0 <= r.gamma <= 5.0
            assert np.isfinite(r.total)

    def test_bitwise_determinism(self, k4_setup):
        g, x, _ = k4_setup
        cfg = TrainConfig(seed=5, epochs=60)
        t1 = train(g, x, cfg)
        t2 = train(g, x, cfg)
        assert t1.records == t2.records
        assert np.array_equal(t1.final_assignment, t2.final_assignment)
        assert np.array_equal(t1.final_params.w, t2.final_params.w)

    def test_dmon_gamma_pinned_at_one(self, k4_setup):
        g, x, _ = k4_setup
        trace = train(g, x, TrainConfig(epochs=30, loss="dmon", gamma_init=2.0))
        assert all(r.gamma == 1.0 for r in trace.records)
        assert all(r.gamma_reg == 0.0 for r in trace.records)

    def test_breakdown_identity_along_trace(self, k4_setup):
        g, x, _ = k4_setup
        cfg = TrainConfig(epochs=25, w_collapse=0.8, w_gamma=0.02)
        trace = train(g, x, cfg)
        for r in trace.records:
            assert r.total == pytest.approx(
                r.potts + 0.8 * r.collapse + 0.02 * r.gamma_reg, abs=1e-12
            )

    def test_separable_recovery_k2(self, k4_setup):
        g, x, truth = k4_setup
        trace = train(g, x, TrainConfig(seed=0, k=2, epochs=500))
        pred = hard_assign(trace.final_assignment)
        assert nmi(pred, truth) == 100.0

    def test_divergence_aborts_with_diagnostic(self, k4_setup):
        g, x, _ = k4_setup
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainDivergedError) as err:
            train(g, x * 1e308, TrainConfig(epochs=5))  # feature sums overflow to inf
        assert err.value.epoch >= 0
        assert not np.isfinite(err.value.breakdown.total)

    def test_dense_and_csr_features_train_identically(self, two_k4s):
        x = np.where(np.random.default_rng(3).random((8, 12)) < 0.3, 1.5, 0.0)
        cfg = TrainConfig(seed=2, epochs=30, dropout_keep=0.6)
        t_dense = train(two_k4s, x, cfg)
        t_sparse = train(two_k4s, sp.csr_matrix(x), cfg)
        assert t_dense.records == t_sparse.records
        assert np.array_equal(t_dense.final_assignment, t_sparse.final_assignment)

    def test_caller_csr_left_unchanged(self, k4_setup):
        g, x, _ = k4_setup
        # row 7 gets a second (7, 7) and an explicit zero at (7, 1), out of column order;
        # training sums and drops these on its own copy
        data, indices = np.r_[x.data, 0.5, 0.0], np.r_[x.indices, 7, 1]
        x = sp.csr_matrix((data, indices, np.r_[x.indptr[:-1], x.nnz + 2]), shape=x.shape)
        before = [a.copy() for a in (x.data, x.indices, x.indptr)]
        train(g, x, TrainConfig(epochs=5))
        for a, old in zip((x.data, x.indices, x.indptr), before):
            assert np.array_equal(a, old)

    def test_feature_shape_mismatch(self, k4_setup):
        g, x, _ = k4_setup
        with pytest.raises(ValueError):
            train(g, x[:-1], TrainConfig(epochs=1))


def csbm_features(labels, num_features, density, signal, rng):
    """Binary features correlated with the blocks: each block owns a slice of the columns.

    A node draws Binomial(num_features, density) words, each from its
    block's slice with probability ``signal`` and from all columns otherwise.
    """
    n, k = labels.size, int(labels.max()) + 1
    bounds = np.linspace(0, num_features, k + 1).astype(np.int64)
    node = np.repeat(np.arange(n), rng.binomial(num_features, density, size=n))
    own = rng.random(node.size) < signal
    lo, hi = bounds[labels[node]], bounds[labels[node] + 1]
    topic = lo + (rng.random(node.size) * (hi - lo)).astype(np.int64)
    x = np.zeros((n, num_features))
    x[node, np.where(own, topic, rng.integers(0, num_features, size=node.size))] = 1.0
    return x


def test_default_init_learns_a_contextual_sbm():
    # 5 blocks of 100, mean degree 4, 80% of edges inside blocks; the planted
    # partition scores modularity 60.2. An init that saturates the softmax at
    # epoch 0 (unit-variance weights) ends near 4.
    edges, intra_pairs = 4 * 500 / 2, 5 * 100 * 99 / 2
    p_in, p_out = 0.8 * edges / intra_pairs, 0.2 * edges / (500 * 499 / 2 - intra_pairs)
    g, labels = sbm([100] * 5, p_in, p_out, 7)
    x = csbm_features(labels, 300, 0.03, 0.3, np.random.default_rng(7))
    sweep = run_seeds(g, x, TrainConfig(k=8, epochs=300), 3, labels)
    assert sweep.mean["modularity"] >= 45.0


class TestRunSeeds:
    def test_single_seed_equals_train(self, k4_setup):
        g, x, truth = k4_setup
        cfg = TrainConfig(seed=7, epochs=50)
        sweep = run_seeds(g, x, cfg, 1, truth)
        solo = train(g, x, cfg)
        assert sweep.runs[0].trace.records == solo.records
        assert np.array_equal(sweep.runs[0].trace.final_assignment, solo.final_assignment)
        assert sweep.mean["nmi"] == sweep.runs[0].report.nmi
        assert sweep.std["nmi"] == 0.0

    def test_seed_sequence_and_counts(self, k4_setup):
        g, x, truth = k4_setup
        sweep = run_seeds(g, x, TrainConfig(seed=4, epochs=20), 3, truth)
        assert [r.seed for r in sweep.runs] == [4, 5, 6]
        assert len(sweep.runs) == 3
        vals = [r.report.modularity for r in sweep.runs]
        assert sweep.mean["modularity"] == pytest.approx(np.mean(vals))
        assert sweep.std["modularity"] == pytest.approx(np.std(vals))

    def test_no_labels_gives_null_aggregates(self, k4_setup):
        g, x, _ = k4_setup
        sweep = run_seeds(g, x, TrainConfig(epochs=10), 2)
        assert sweep.mean["nmi"] is None and sweep.std["nmi"] is None
        assert sweep.mean["pairwise_f1"] is None
        assert sweep.mean["modularity"] is not None

    def test_k4_ten_seeds_perfect(self, k4_setup):
        g, x, truth = k4_setup
        sweep = run_seeds(g, x, TrainConfig(), 10, truth)
        assert sweep.mean["nmi"] == 100.0
        assert sweep.std["nmi"] == 0.0

    def test_later_seeds_leave_earlier_assignments_alone(self, k4_setup):
        g, x, truth = k4_setup
        cfg = TrainConfig(seed=2, epochs=15)
        sweep = run_seeds(g, x, cfg, 3, truth)
        for run in sweep.runs:
            solo = train(g, x, dataclasses.replace(cfg, seed=run.seed))
            assert np.array_equal(run.trace.final_assignment, solo.final_assignment)
        firsts = [run.trace.final_assignment for run in sweep.runs]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(firsts) for b in firsts[i + 1 :])

    def test_num_seeds_validated(self, k4_setup):
        g, x, _ = k4_setup
        with pytest.raises(ValueError):
            run_seeds(g, x, TrainConfig(epochs=1), 0)


def small_csbm(num_features=60, seed=0):
    g, labels = sbm([30] * 3, 0.3, 0.02, seed)
    rng = np.random.default_rng(seed)
    x = sp.random(g.n, num_features, density=0.15, format="csr", random_state=rng)
    x.data = 1.0 + rng.random(x.nnz)
    return g, x


@pytest.mark.parametrize("loss", ["potts", "dmon", "mincut_ortho"])
@pytest.mark.parametrize("keep", [0.3, 1.0])
@pytest.mark.parametrize("dense", [False, True], ids=["csr", "dense"])
def test_buffered_epoch_equals_allocating_reference(monkeypatch, loss, keep, dense):
    # the per-train buffers change no float: records, assignment and weights match bit for bit
    g, x = small_csbm()
    cfg = TrainConfig(seed=4, k=4, hidden=6, epochs=15, dropout_keep=keep, loss=loss)
    features = x.toarray() if dense else x
    ours = train(g, features, cfg)
    for name, ref in (
        ("forward", reference_forward),
        ("backward", reference_backward),
        ("evaluate_objective", reference_objective),
        ("adam_step", reference_adam_step),
    ):
        monkeypatch.setattr(trainer, name, ref)
    reference = train(g, features, cfg)
    assert ours.records == reference.records
    assert np.array_equal(ours.final_assignment, reference.final_assignment)
    assert np.array_equal(ours.final_params.flat, reference.final_params.flat)


def test_one_hidden_unit_equals_allocating_reference(monkeypatch):
    # one column: scipy's product takes its one-vector kernel, the buffers its multi-vector one
    g, x = small_csbm(seed=1)
    cfg = TrainConfig(seed=1, k=3, hidden=1, epochs=10)
    ours = train(g, x, cfg)
    monkeypatch.setattr(trainer, "forward", reference_forward)
    monkeypatch.setattr(trainer, "backward", reference_backward)
    reference = train(g, x, cfg)
    assert ours.records == reference.records
    assert np.array_equal(ours.final_params.flat, reference.final_params.flat)


def test_epoch_allocates_nothing_layer_sized(monkeypatch):
    # after the first epoch, the transient peak of an epoch stays below one (n, h) array;
    # allocating every intermediate afresh peaks near six of them
    g, _ = sbm([100] * 4, 0.1, 0.01, 1)
    x = sp.random(g.n, 50, density=0.1, format="csr", random_state=np.random.default_rng(1))
    cfg = TrainConfig(k=8, hidden=64, epochs=6)
    step, peaks = trainer.adam_step, []

    def traced_step(*args):
        step(*args)
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak - current)
        tracemalloc.reset_peak()

    monkeypatch.setattr(trainer, "adam_step", traced_step)
    tracemalloc.start()
    try:
        train(g, x, cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == cfg.epochs
    assert max(peaks[1:]) < g.n * cfg.hidden * 8, peaks
