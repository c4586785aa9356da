# tests/test_model.py
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import fd_gradient, fd_scalar, max_rel_err, objective_kw, random_edge_list
from pottscluster import from_edge_list, normalized_adjacency
from pottscluster.losses import evaluate_objective
from pottscluster.model import (
    SELU_ALPHA,
    SELU_LAMBDA,
    ModelParams,
    backward,
    forward,
    selu,
    selu_grad,
    softmax_rows,
)


class TestSelu:
    def test_zero(self):
        assert selu(np.array(0.0)) == 0.0

    def test_one_is_lambda(self):
        assert selu(np.array(1.0)) == pytest.approx(1.0507009873554805, abs=1e-15)

    def test_deep_negative_approaches_limit(self):
        assert selu(np.array(-20.0)) == pytest.approx(-1.7580993408473766, abs=1e-7)

    def test_no_overflow_on_large_negative(self):
        assert np.isfinite(selu(np.array(-1e6)))
        assert np.isfinite(selu_grad(np.array(-1e6)))

    def test_grad_matches_fd(self):
        xs = np.array([-3.0, -0.5, -1e-3, 1e-3, 0.7, 4.0])
        fd = np.array([fd_scalar(lambda v: float(selu(np.array(v))), x, 1e-6) for x in xs])
        assert np.allclose(selu_grad(xs), fd, atol=1e-8)

    def test_grad_at_exact_zero_uses_negative_branch(self):
        assert selu_grad(np.array(0.0)) == pytest.approx(SELU_LAMBDA * SELU_ALPHA, abs=1e-15)

    def test_equal_to_branch_form_bit_for_bit(self):
        # the np.where forms selu and selu_grad replaced, compared on the int64 view
        def selu_branch(x):
            neg = SELU_LAMBDA * SELU_ALPHA * np.expm1(np.minimum(x, 0.0))
            return np.where(x > 0, SELU_LAMBDA * x, neg)

        def selu_grad_branch(x):
            neg = SELU_LAMBDA * SELU_ALPHA * np.exp(np.minimum(x, 0.0))
            return np.where(x > 0, SELU_LAMBDA, neg)

        tiny = np.finfo(np.float64).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310, 800.0, -800.0, np.nan]
        rng = np.random.default_rng(0)
        for scale in (1e-3, 1.0, 30.0):
            x = np.concatenate([scale * rng.standard_normal(10**6), special])
            for ours, branch in ((selu, selu_branch), (selu_grad, selu_grad_branch)):
                expected = branch(x).view(np.int64)
                assert np.array_equal(ours(x).view(np.int64), expected)
                # the buffered call forward and backward make
                out, scratch = np.full_like(x, 7.0), np.full_like(x, -3.0)
                assert ours(x, out=out, scratch=scratch) is out
                assert np.array_equal(out.view(np.int64), expected)


class TestSoftmaxRows:
    def test_symmetry(self):
        assert softmax_rows(np.array([[0.0, 0.0]])).tolist() == [[0.5, 0.5]]

    def test_stability_under_large_logits(self):
        assert softmax_rows(np.array([[1000.0, 1000.0]])).tolist() == [[0.5, 0.5]]

    def test_exact_ratio(self):
        c = softmax_rows(np.array([[math.log(1.0), math.log(3.0)]]))
        assert np.allclose(c, [[0.25, 0.75]], atol=1e-15)

    def test_rows_sum_to_one_many_trials(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((1000, 7))
        c = softmax_rows(logits)
        assert np.allclose(c.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(c > 0) and np.all(c < 1)
        # extreme logits: rows still normalized, entries can round to 0 or 1
        c_wide = softmax_rows(logits * 50)
        assert np.allclose(c_wide.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((5, 4))
        shifted = logits + rng.standard_normal((5, 1)) * 30
        assert np.allclose(softmax_rows(logits), softmax_rows(shifted), atol=1e-12)

    def test_buffers_give_the_allocated_result(self):
        logits = np.random.default_rng(2).standard_normal((7, 5)) * 20
        out, row = np.full((7, 5), 9.0), np.full((7, 1), 9.0)
        assert softmax_rows(logits, out=out, row=row) is out
        assert np.array_equal(out, softmax_rows(logits))


def make_instance(seed, n=6, l=3, h=4, k=3, p=0.5):
    rng = np.random.default_rng(seed)
    g = from_edge_list(random_edge_list(rng, n, p), n)
    abar = normalized_adjacency(g)
    x = rng.standard_normal((n, l))
    params = ModelParams(l, h, k)
    for view in (params.w, params.w_skip, params.w_out):
        view[...] = rng.standard_normal(view.shape)
    params.flat[-1] = rng.uniform(0.3, 3.0)
    return g, abar, x, params


def with_slot(params, name, value):
    """A copy of ``params`` with one weight matrix replaced."""
    l, h = params.w.shape
    p = ModelParams(l, h, params.w_out.shape[1])
    p.flat[:] = params.flat
    getattr(p, name)[...] = value
    return p


class TestForward:
    def test_zero_params_give_uniform(self):
        _, abar, x, params = make_instance(2)
        zero = ModelParams(*params.w.shape, params.w_out.shape[1])
        c, _ = forward(abar, x, zero)
        assert np.all(c == 1.0 / c.shape[1])

    def test_edgeless_uses_skip_path_only(self):
        g = from_edge_list([], 3)
        abar = normalized_adjacency(g)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 2))
        params = ModelParams(2, 4, 2)
        params.w[...] = rng.standard_normal((2, 4)) * 100  # would explode if mixed in
        params.w_skip[...] = rng.standard_normal((2, 4))
        params.w_out[...] = rng.standard_normal((4, 2))
        c, cache = forward(abar, x, params)
        expected = selu(x @ params.w_skip)
        assert np.allclose(cache.h, expected, atol=1e-12)

    def test_two_node_hand_unrolled(self):
        g = from_edge_list([(0, 1)], 2)
        abar = normalized_adjacency(g)
        x = np.eye(2)
        w0, w1 = 0.3, -0.7
        s0, s1 = 0.5, -0.2
        o0, o1 = 1.1, -0.4
        params = ModelParams(2, 1, 2)
        params.w[...] = [[w0], [w1]]
        params.w_skip[...] = [[s0], [s1]]
        params.w_out[...] = [[o0, o1]]
        c, _ = forward(abar, x, params)
        # hand algebra: abar swaps the two rows of X W; X I keeps W_skip rows
        h0 = SELU_LAMBDA * SELU_ALPHA * (math.exp(w1 + s0) - 1.0)  # w1+s0 = -0.2 <= 0
        h1 = SELU_LAMBDA * (w0 + s1)  # 0.1 > 0
        def row(hval):
            z0, z1 = hval * o0, hval * o1
            mx = max(z0, z1)
            e0, e1 = math.exp(z0 - mx), math.exp(z1 - mx)
            return [e0 / (e0 + e1), e1 / (e0 + e1)]
        expected = np.array([row(h0), row(h1)])
        assert np.allclose(c, expected, atol=1e-12)

    def test_dropout_mask_applied_to_input(self):
        g, abar, x, params = make_instance(4)
        rng = np.random.default_rng(9)
        x_drop = x * ((rng.random(x.shape) < 0.5) / 0.5)
        x_sparse = sp.csr_matrix(x_drop)
        x_t = x_sparse.T
        c_sparse, cache = forward(abar, x_sparse, params, x_t)
        c_dense, dense_cache = forward(abar, x_drop, params)
        assert np.allclose(c_sparse, c_dense, rtol=0, atol=1e-15)
        assert cache.x_t is x_t
        assert np.array_equal(dense_cache.x_t, x_drop.T)
        b_sparse = backward(cache, np.ones_like(c_sparse) + c_sparse, 0.0)
        b_dense = backward(dense_cache, np.ones_like(c_dense) + c_dense, 0.0)
        assert np.allclose(b_sparse.flat, b_dense.flat, rtol=1e-12, atol=1e-15)

    def test_eval_mode_deterministic(self):
        _, abar, x, params = make_instance(5)
        c1, _ = forward(abar, x, params)
        c2, _ = forward(abar, x, params)
        assert np.array_equal(c1, c2)

    def test_reused_cache_matches_fresh_caches(self):
        # a cache passed back in is overwritten whole: nothing of the first call leaks
        g, abar, x, params = make_instance(14, n=9, l=4, h=5, k=3)
        other = with_slot(params, "w", params.w * -2.0)
        other.w_out[...] *= 0.5
        r = np.random.default_rng(15).standard_normal((g.n, 3))
        c1, cache = forward(abar, x, params)
        c1, grad1 = c1.copy(), backward(cache, r, 0.5).flat.copy()
        c2, reused = forward(abar, sp.csr_matrix(x), other, cache=cache)
        assert reused is cache and c2 is cache.c
        grad2 = backward(cache, r, 0.5)
        assert grad2 is cache.grad
        fresh_c1, fresh1 = forward(abar, x, params)
        fresh_c2, fresh2 = forward(abar, sp.csr_matrix(x), other)
        assert np.array_equal(c1, fresh_c1) and np.array_equal(c2, fresh_c2)
        assert np.array_equal(grad1, backward(fresh1, r, 0.5).flat)
        assert np.array_equal(grad2.flat, backward(fresh2, r, 0.5).flat)

    def test_shape_mismatch_rejected(self):
        _, abar, x, params = make_instance(6)
        with pytest.raises(ValueError):
            forward(abar, x[:-1], params)
        with pytest.raises(ValueError, match="columns"):
            forward(abar, x[:, :-1], params)


class TestBackward:
    def test_zero_upstream_gives_zero_bundle(self):
        _, abar, x, params = make_instance(7)
        c, cache = forward(abar, x, params)
        b = backward(cache, np.zeros_like(c), 0.0)
        assert not b.w.any() and not b.w_skip.any() and not b.w_out.any()
        assert b.gamma == 0.0

    def test_gradient_has_params_layout(self):
        _, abar, x, params = make_instance(7)
        c, cache = forward(abar, x, params)
        b = backward(cache, np.ones_like(c), 0.25)
        assert b.flat.shape == params.flat.shape
        assert b.w.shape == params.w.shape and b.w_out.shape == params.w_out.shape
        assert b.gamma == 0.25

    def test_row_sum_loss_has_vanishing_gradient(self):
        _, abar, x, params = make_instance(8)
        c, cache = forward(abar, x, params)
        b = backward(cache, np.ones_like(c), 0.0)
        for grad in (b.w, b.w_skip, b.w_out):
            assert np.max(np.abs(grad)) < 1e-12

    def test_matches_fd_on_linear_probe(self):
        # loss = sum(R * C) for a fixed random R isolates the model derivative
        g, abar, x, params = make_instance(10)
        rng = np.random.default_rng(11)
        r = rng.standard_normal((g.n, params.w_out.shape[1]))
        c, cache = forward(abar, x, params)
        b = backward(cache, r, 0.0)

        def loss_with(name, value):
            return float(np.sum(r * forward(abar, x, with_slot(params, name, value))[0]))

        for name in ("w", "w_skip", "w_out"):
            fd = fd_gradient(lambda t, nm=name: loss_with(nm, t), getattr(params, name))
            assert max_rel_err(getattr(b, name), fd) <= 1e-4

    def test_full_objective_gradient_matches_fd(self):
        g, abar, x, params = make_instance(12)
        c, cache = forward(abar, x, params)
        _, d_c, d_gamma = evaluate_objective(g, c, params.gamma, "potts", **objective_kw())
        b = backward(cache, d_c, d_gamma)

        def total_with(p: ModelParams) -> float:
            cc, _ = forward(abar, x, p)
            return evaluate_objective(g, cc, p.gamma, "potts", **objective_kw())[0].total

        for name in ("w", "w_skip", "w_out"):
            fd = fd_gradient(
                lambda t, nm=name: total_with(with_slot(params, nm, t)), getattr(params, name)
            )
            assert max_rel_err(getattr(b, name), fd) <= 1e-4
        fd_g = fd_scalar(
            lambda v: evaluate_objective(g, c, v, "potts", **objective_kw())[0].total, params.gamma
        )
        assert abs(b.gamma - fd_g) <= 1e-6 * max(1.0, abs(fd_g))

    def test_shape_mismatch_rejected(self):
        _, abar, x, params = make_instance(13)
        c, cache = forward(abar, x, params)
        with pytest.raises(ValueError):
            backward(cache, c[:, :-1], 0.0)
