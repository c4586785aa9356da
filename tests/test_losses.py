# tests/test_losses.py
from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import (
    dense_adjacency,
    fd_gradient,
    fd_scalar,
    hard_c,
    max_rel_err,
    objective_kw,
    potts_double_sum,
    random_edge_list,
    random_row_stochastic,
)
from pottscluster import from_edge_list
from pottscluster.losses import (
    LossBreakdown,
    collapse_reg,
    evaluate_objective,
    gamma_reg,
    mincut_loss,
    ortho_reg,
    potts_loss,
)


def potts_value(g, c, gamma):
    return potts_loss(g, c, gamma)[0]


def collapse_value(c):
    return collapse_reg(c)[0]


class TestPottsLoss:
    def test_two_disjoint_edges_gamma_one(self, two_disjoint_edges):
        c = hard_c([0, 0, 1, 1], 2)
        assert potts_value(two_disjoint_edges, c, 1.0) == pytest.approx(-0.5, abs=1e-12)

    def test_two_disjoint_edges_gamma_zero(self, two_disjoint_edges):
        c = hard_c([0, 0, 1, 1], 2)
        assert potts_value(two_disjoint_edges, c, 0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_uniform_c_gamma_one_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(3, 20))
            g = from_edge_list(random_edge_list(rng, n, 0.4), n)
            k = int(rng.integers(2, 6))
            c = np.full((n, k), 1.0 / k)
            assert abs(potts_value(g, c, 1.0)) < 1e-12

    def test_edgeless_rejected(self):
        g = from_edge_list([], 3)
        with pytest.raises(ValueError, match="m=0"):
            potts_loss(g, np.full((3, 2), 0.5), 1.0)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 31))
            g = from_edge_list(random_edge_list(rng, n, 0.3), n)
            c = random_row_stochastic(rng, n, int(rng.integers(2, 7)))
            gamma = float(rng.uniform(0.0, 5.0))
            expected = potts_double_sum(dense_adjacency(g), c, gamma)
            assert potts_value(g, c, gamma) == pytest.approx(expected, abs=1e-9)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(2)
        g = from_edge_list(random_edge_list(rng, 12, 0.4), 12)
        c = random_row_stochastic(rng, 12, 5)
        perm = rng.permutation(5)
        assert potts_value(g, c, 1.7) == pytest.approx(potts_value(g, c[:, perm], 1.7), abs=1e-12)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(3)
        g = from_edge_list(random_edge_list(rng, 9, 0.5), 9)
        c = random_row_stochastic(rng, 9, 4)
        gamma = 1.3
        _, d_c, d_gamma = potts_loss(g, c, gamma)
        fd_c = fd_gradient(lambda t: potts_value(g, t, gamma), c)
        assert max_rel_err(d_c, fd_c) <= 1e-6
        fd_g = fd_scalar(lambda v: potts_value(g, c, v), gamma)
        assert d_gamma == pytest.approx(fd_g, rel=1e-6)


class TestCollapseReg:
    def test_balanced_is_zero(self):
        c = np.full((10, 4), 0.25)
        assert collapse_value(c) == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_hits_upper_bound(self):
        c = hard_c([0] * 6, 4)
        assert collapse_value(c) == pytest.approx(math.sqrt(4) - 1.0, abs=1e-12)

    def test_one_node_per_cluster_is_zero(self):
        c = np.eye(4)
        assert collapse_value(c) == pytest.approx(0.0, abs=1e-12)

    def test_range_bound_default_scaling(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n, k = int(rng.integers(2, 30)), int(rng.integers(2, 8))
            c = random_row_stochastic(rng, n, k)
            v = collapse_value(c)
            assert -1e-12 <= v <= math.sqrt(k) - 1.0 + 1e-12

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(5)
        c = random_row_stochastic(rng, 7, 3)
        _, analytic = collapse_reg(c)
        fd = fd_gradient(collapse_value, c)
        assert max_rel_err(analytic, fd) <= 1e-6

    def test_grad_zero_matrix_guard(self):
        value, d_c = collapse_reg(np.zeros((3, 2)))
        assert value == -1.0
        assert d_c.shape == (1, 2) and not d_c.any()


class TestGammaReg:
    def test_values(self):
        assert gamma_reg(5.0, 5.0)[0] == 0.0
        assert gamma_reg(1.0, 5.0)[0] == 4.0
        assert gamma_reg(6.0, 5.0)[0] == 1.0

    def test_grad_is_sign(self):
        assert gamma_reg(1.0, 5.0)[1] == -1.0
        assert gamma_reg(6.0, 5.0)[1] == 1.0
        assert gamma_reg(5.0, 5.0)[1] == 0.0

    def test_gamma_max_must_be_positive(self):
        with pytest.raises(ValueError):
            gamma_reg(1.0, 0.0)


class TestPottsObjectiveTotal:
    def test_potts_only_weights(self, two_disjoint_edges):
        c = hard_c([0, 0, 1, 1], 2)
        b, _, _ = evaluate_objective(
            two_disjoint_edges, c, 1.0, "potts", **objective_kw(w_collapse=0.0, w_gamma=0.0)
        )
        assert b.total == pytest.approx(b.potts, abs=1e-15)
        assert b.total == pytest.approx(-0.5, abs=1e-12)

    def test_uniform_balanced_at_gamma_max_is_zero(self, two_k4s):
        # potts vanishes for uniform C only at gamma=1, so pin gamma_max there
        c = np.full((8, 4), 0.25)
        b, _, _ = evaluate_objective(two_k4s, c, 1.0, "potts", **objective_kw(gamma_max=1.0))
        assert b.total == pytest.approx(0.0, abs=1e-12)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            g = from_edge_list(random_edge_list(rng, n, 0.4), n)
            c = random_row_stochastic(rng, n, 4)
            w_c, w_g = rng.uniform(0.1, 2.0, size=2)
            b, _, _ = evaluate_objective(
                g, c, float(rng.uniform(0, 5)), "potts", **objective_kw(w_collapse=w_c, w_gamma=w_g)
            )
            recomputed = b.potts + w_c * b.collapse + w_g * b.gamma_reg
            assert b.total == pytest.approx(recomputed, abs=1e-12)


def dmon_structural(g, c):
    return evaluate_objective(g, c, 3.0, "dmon", **objective_kw())[0].potts


class TestDmonObjective:
    def test_equals_potts_at_gamma_one(self):
        rng = np.random.default_rng(7)
        g = from_edge_list(random_edge_list(rng, 10, 0.4), 10)
        c = random_row_stochastic(rng, 10, 3)
        assert dmon_structural(g, c) == potts_value(g, c, 1.0)

    def test_two_disjoint_edges_true_partition(self, two_disjoint_edges):
        value = dmon_structural(two_disjoint_edges, hard_c([0, 0, 1, 1], 2))
        assert value == pytest.approx(-0.5, abs=1e-12)

    def test_uniform_is_zero(self, two_k3s):
        assert abs(dmon_structural(two_k3s, np.full((6, 3), 1 / 3))) < 1e-12


class TestMinCutOrtho:
    def test_two_k3s_no_cut(self, two_k3s):
        c = hard_c([0, 0, 0, 1, 1, 1], 2)
        assert mincut_loss(two_k3s, c)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            mincut_loss(from_edge_list([], 2), np.full((2, 2), 0.5))

    def test_zero_assignment_rejected(self, two_k3s):
        with pytest.raises(ValueError, match=r"Tr\(C\^T D C\) is zero"):
            mincut_loss(two_k3s, np.zeros((6, 2)))

    def test_mincut_grad_matches_fd(self):
        rng = np.random.default_rng(8)
        g = from_edge_list(random_edge_list(rng, 8, 0.5), 8)
        c = random_row_stochastic(rng, 8, 3)
        _, d_c = mincut_loss(g, c)
        fd = fd_gradient(lambda t: mincut_loss(g, t)[0], c)
        assert max_rel_err(d_c, fd) <= 1e-6

    def test_ortho_single_cluster_closed_form(self):
        c = hard_c([0, 0, 0], 2)
        expected = math.sqrt((1.0 - 1.0 / math.sqrt(2)) ** 2 + 0.5)
        assert ortho_reg(c)[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.7653668647301796, abs=1e-15)

    def test_ortho_balanced_orthogonal_columns_is_zero(self):
        c = hard_c([0, 0, 1, 1], 2)
        assert ortho_reg(c)[0] == pytest.approx(0.0, abs=1e-12)

    def test_ortho_grad_matches_fd(self):
        rng = np.random.default_rng(9)
        c = random_row_stochastic(rng, 7, 3)
        _, d_c = ortho_reg(c)
        fd = fd_gradient(lambda t: ortho_reg(t)[0], c)
        assert max_rel_err(d_c, fd) <= 1e-6

    def test_ortho_grad_zero_at_target(self):
        c = hard_c([0, 0, 1, 1], 2)
        value, d_c = ortho_reg(c)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert not d_c.any()


class TestEvaluateObjective:
    def test_unknown_kind_rejected(self, two_k3s):
        with pytest.raises(ValueError, match="kind"):
            evaluate_objective(two_k3s, np.full((6, 2), 0.5), 1.0, "banana", **objective_kw())

    def test_dmon_has_no_gamma_terms(self, two_k3s):
        c = np.full((6, 2), 0.5)
        b, d_c, d_gamma = evaluate_objective(two_k3s, c, 3.0, "dmon", **objective_kw())
        assert b.gamma_reg == 0.0
        assert d_gamma == 0.0
        # structural term ignores the gamma argument entirely
        assert b.potts == potts_value(two_k3s, c, 1.0)

    def test_mincut_ortho_slots(self, two_k3s):
        c = hard_c([0, 0, 0, 1, 1, 1], 2)
        b, _, _ = evaluate_objective(two_k3s, c, 2.0, "mincut_ortho", **objective_kw())
        assert b.potts == pytest.approx(mincut_loss(two_k3s, c)[0], abs=1e-15)
        assert b.collapse == pytest.approx(ortho_reg(c)[0], abs=1e-15)
        assert b.gamma_reg == 0.0

    def test_potts_grads_compose_weights(self, two_k4s):
        rng = np.random.default_rng(10)
        c = random_row_stochastic(rng, 8, 3)
        w_c, w_g = 0.7, 0.02
        b, d_c, d_gamma = evaluate_objective(
            two_k4s, c, 2.0, "potts", **objective_kw(w_collapse=w_c, w_gamma=w_g)
        )
        _, d_c_potts, d_g_potts = potts_loss(two_k4s, c, 2.0)
        expected_dc = d_c_potts + w_c * collapse_reg(c)[1]
        assert np.allclose(d_c, expected_dc, atol=1e-15)
        assert d_gamma == pytest.approx(d_g_potts + w_g * gamma_reg(2.0, 5.0)[1], abs=1e-15)

    def test_full_gradient_matches_fd(self):
        rng = np.random.default_rng(11)
        g = from_edge_list(random_edge_list(rng, 8, 0.5), 8)
        kw = objective_kw()
        for kind in ("potts", "dmon", "mincut_ortho"):
            c = random_row_stochastic(rng, 8, 4)
            b, d_c, d_gamma = evaluate_objective(g, c, 1.4, kind, **kw)
            fd = fd_gradient(lambda t: evaluate_objective(g, t, 1.4, kind, **kw)[0].total, c)
            assert max_rel_err(d_c, fd) <= 1e-6, kind
            fd_g = fd_scalar(lambda v: evaluate_objective(g, c, v, kind, **kw)[0].total, 1.4)
            assert d_gamma == pytest.approx(fd_g, abs=1e-7)

    def test_breakdown_dataclass_fields(self, two_disjoint_edges):
        c = hard_c([0, 0, 1, 1], 2)
        b, d_c, d_gamma = evaluate_objective(two_disjoint_edges, c, 1.0, "potts", **objective_kw())
        assert isinstance(b, LossBreakdown)
        # default weights: w_collapse 1.0, w_gamma 0.01
        assert b.total == b.potts + 1.0 * b.collapse + 0.01 * b.gamma_reg
        assert d_c.shape == c.shape and isinstance(d_gamma, float)
