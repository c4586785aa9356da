# tests/test_metrics.py
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oracles import (
    conductance_oracle,
    dense_adjacency,
    dense_table_scores,
    f1_oracle,
    modularity_double_sum,
    modularity_tally,
    nmi_oracle,
    random_edge_list,
    set_partitions,
)
from pottscluster import (
    conductance,
    evaluate_partition,
    from_edge_list,
    hard_assign,
    modularity,
    nmi,
    pairwise_f1,
    ring_of_cliques,
    save_dataset,
    softmax_rows,
)


class TestHardAssign:
    def test_plain_argmax(self):
        assert hard_assign(np.array([[0.2, 0.5, 0.3]])).tolist() == [1]

    def test_tie_breaks_low(self):
        assert hard_assign(np.array([[0.5, 0.5]])).tolist() == [0]

    def test_uniform_all_zero(self):
        assert hard_assign(np.full((4, 3), 1 / 3)).tolist() == [0, 0, 0, 0]

    def test_logit_shift_never_changes_argmax(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((20, 5))
        base = hard_assign(softmax_rows(logits))
        shifted = hard_assign(softmax_rows(logits + rng.standard_normal((20, 1)) * 40))
        assert np.array_equal(base, shifted)

    def test_rejects_vectors(self):
        with pytest.raises(ValueError):
            hard_assign(np.array([0.5, 0.5]))


class TestModularity:
    def test_single_cluster_zero(self, two_k4s):
        assert modularity(two_k4s, np.zeros(8, dtype=int)) == pytest.approx(0.0, abs=1e-12)

    def test_two_disjoint_edges(self, two_disjoint_edges):
        assert modularity(two_disjoint_edges, np.array([0, 0, 1, 1])) == pytest.approx(50.0, abs=1e-12)

    def test_ring_of_cliques_vs_oracle(self):
        g, labels = ring_of_cliques(3, 3)
        a = dense_adjacency(g)
        v = modularity(g, labels)
        assert v == pytest.approx(modularity_tally(a, labels.tolist()), abs=1e-9)
        assert v == pytest.approx(modularity_double_sum(a, labels.tolist()), abs=1e-9)

    def test_random_graphs_vs_both_oracles(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            n = int(rng.integers(2, 31))
            g = from_edge_list(random_edge_list(rng, n, 0.3), n)
            labels = rng.integers(0, 4, size=n)
            a = dense_adjacency(g)
            v = modularity(g, labels)
            assert v == pytest.approx(modularity_tally(a, labels.tolist()), abs=1e-9)
            assert v == pytest.approx(modularity_double_sum(a, labels.tolist()), abs=1e-9)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            modularity(from_edge_list([], 2), np.zeros(2, dtype=int))

    def test_non_contiguous_labels_ok(self, two_disjoint_edges):
        assert modularity(two_disjoint_edges, np.array([5, 5, 9, 9])) == pytest.approx(50.0, abs=1e-12)


class TestConductance:
    def test_single_cluster_zero(self, two_k4s):
        assert conductance(two_k4s, np.zeros(8, dtype=int)) == 0.0

    def test_path_split(self, path4):
        assert conductance(path4, np.array([0, 0, 1, 1])) == pytest.approx(100.0 / 3.0, abs=1e-9)

    def test_two_k4s_true_partition(self, two_k4s):
        labels = np.array([0] * 4 + [1] * 4)
        assert conductance(two_k4s, labels) == 0.0

    def test_empty_and_zero_volume_clusters(self):
        # labels 1, 2, 4, 5, 6 are empty and skipped; cluster 7 is an isolated node with
        # zero volume and counts as 0
        g = from_edge_list([(0, 1), (1, 2), (2, 3)], 5)
        v = conductance(g, np.array([0, 0, 3, 3, 7]))
        assert v == 100.0 * float(np.mean([1.0 / 3.0, 1.0 / 3.0, 0.0]))

    def test_random_vs_oracle_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(2, 25))
            g = from_edge_list(random_edge_list(rng, n, 0.3), n)
            labels = rng.integers(0, 3, size=n)
            v = conductance(g, labels)
            assert v == pytest.approx(conductance_oracle(dense_adjacency(g), labels.tolist()), abs=1e-9)
            assert 0.0 <= v <= 100.0

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            conductance(from_edge_list([], 2), np.zeros(2, dtype=int))


class TestNmi:
    def test_relabeling_is_perfect(self):
        truth = np.array([0, 0, 1, 1, 2])
        assert nmi(np.array([2, 2, 0, 0, 1]), truth) == pytest.approx(100.0, abs=1e-12)

    def test_independent_partitions_zero(self):
        assert nmi(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_example_vs_oracle(self):
        pred, truth = [0, 0, 1, 2], [0, 0, 1, 1]
        assert nmi(np.array(pred), np.array(truth)) == pytest.approx(nmi_oracle(pred, truth), abs=1e-9)

    def test_both_single_cluster(self):
        assert nmi(np.zeros(5, dtype=int), np.zeros(5, dtype=int)) == 100.0

    def test_one_side_single_cluster(self):
        assert nmi(np.zeros(4, dtype=int), np.array([0, 0, 1, 1])) == 0.0

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 3, size=n)
            assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
            perm = rng.permutation(4)
            assert nmi(perm[a], b) == pytest.approx(nmi(a, b), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nmi(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


class TestPairwiseF1:
    def test_identical_is_perfect(self):
        assert pairwise_f1(np.array([1, 1, 0, 2]), np.array([1, 1, 0, 2])) == 100.0

    def test_pairs_vs_all_in_one(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.zeros(4, dtype=int)
        assert pairwise_f1(pred, truth) == pytest.approx(50.0, abs=1e-12)

    def test_singleton_truth_convention(self):
        truth = np.array([0, 1, 2, 3])
        pred = np.zeros(4, dtype=int)
        assert pairwise_f1(pred, truth) == 0.0

    def test_both_all_singletons(self):
        labels = np.arange(5)
        assert pairwise_f1(labels, labels) == 0.0  # no positive pairs on either side

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 3, size=n)
            assert pairwise_f1(a, b) == pytest.approx(f1_oracle(a.tolist(), b.tolist()), abs=1e-9)
            assert pairwise_f1(a, b) == pytest.approx(pairwise_f1(b, a), abs=1e-12)


class TestExhaustiveSmall:
    def test_all_partition_pairs_up_to_n5(self):
        for n in (2, 3, 4, 5):
            parts = list(set_partitions(n))
            for p in parts:
                pa = np.array(p)
                for q in parts:
                    qa = np.array(q)
                    assert nmi(pa, qa) == pytest.approx(nmi_oracle(p, q), abs=1e-9)
                    assert pairwise_f1(pa, qa) == pytest.approx(f1_oracle(p, q), abs=1e-9)


class TestContingencyScale:
    def test_equal_to_dense_table_on_gapped_labels(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            pred = rng.choice(rng.integers(0, 1000, size=int(rng.integers(1, 9))), size=n)
            truth = rng.choice(rng.integers(0, 200, size=int(rng.integers(1, 9))), size=n)
            assert (nmi(pred, truth), pairwise_f1(pred, truth)) == dense_table_scores(pred, truth)

    @pytest.mark.parametrize("score", ["nmi", "pairwise_f1", "evaluate_partition"])
    def test_singletons_need_linear_memory(self, score):
        # a dense 3000 x 3000 count table alone would take 72 MB
        n = 3000
        ids = np.arange(n)
        path = from_edge_list(np.stack([ids[:-1], ids[1:]], axis=1), n)
        calls = {
            "nmi": lambda: nmi(ids, ids),
            "pairwise_f1": lambda: pairwise_f1(ids, ids),
            "evaluate_partition": lambda: evaluate_partition(path, ids, ids),
        }
        tracemalloc.start()
        try:
            calls[score]()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("score", [modularity, conductance])
    def test_large_ids_need_no_large_tally(self, score):
        # tallies sized by the largest id would take 8 MB per array here
        path = from_edge_list([(0, 1), (1, 2)], 3)
        tracemalloc.start()
        try:
            gapped = score(path, np.array([0, 1, 10**6]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert gapped == score(path, np.array([0, 1, 2]))


class TestEvaluatePartition:
    def test_with_truth(self, two_k4s):
        labels = np.array([0] * 4 + [1] * 4)
        r = evaluate_partition(two_k4s, labels, labels)
        assert r.nmi == 100.0 and r.pairwise_f1 == 100.0
        assert r.num_clusters == 2
        assert r.conductance == 0.0
        assert r.modularity == pytest.approx(50.0, abs=1e-12)

    def test_without_truth(self, two_k4s):
        r = evaluate_partition(two_k4s, np.array([0] * 4 + [1] * 4))
        assert r.nmi is None and r.pairwise_f1 is None

    def test_label_shape_check(self, two_k4s):
        with pytest.raises(ValueError):
            evaluate_partition(two_k4s, np.zeros(5, dtype=int))


@pytest.mark.parametrize(
    "labels",
    [[0, 0.9, 1.2, 1.7, 0, 0, 1, 1], ["0", "0", "1", "1", "0", "0", "1", "1"], [0.0] * 8, [True] * 8],
)
def test_non_integer_labels_rejected(two_k4s, labels, tmp_path):
    # a float or string label is not cast: 0.9 and 1.2 are not one cluster
    with pytest.raises(ValueError, match="integer"):
        save_dataset(tmp_path, two_k4s, np.eye(8), labels)
    for score in (evaluate_partition, modularity, conductance):
        with pytest.raises(ValueError, match="integer"):
            score(two_k4s, labels)
    for score in (nmi, pairwise_f1):
        with pytest.raises(ValueError, match="integer"):
            score(labels, [0] * 8)
        with pytest.raises(ValueError, match="integer"):
            score([0] * 8, labels)
    truth = np.array([0] * 4 + [1] * 4)
    with pytest.raises(ValueError, match="integer"):
        evaluate_partition(two_k4s, truth, labels)


@pytest.mark.parametrize("entry", ["modularity", "conductance", "nmi", "pairwise_f1", "evaluate_partition"])
def test_negative_ids_rejected_by_every_entry_point(two_k4s, entry):
    labels = np.array([0] * 4 + [1] * 4)
    shifted = labels - 5  # ranks like labels, but no id may be negative
    calls = {
        "modularity": [lambda: modularity(two_k4s, shifted)],
        "conductance": [lambda: conductance(two_k4s, shifted)],
        "nmi": [lambda: nmi(shifted, labels), lambda: nmi(labels, shifted)],
        "pairwise_f1": [lambda: pairwise_f1(shifted, labels), lambda: pairwise_f1(labels, shifted)],
        "evaluate_partition": [lambda: evaluate_partition(two_k4s, shifted, labels),
                               lambda: evaluate_partition(two_k4s, labels, shifted)],
    }
    for call in calls[entry]:
        with pytest.raises(ValueError, match="-5 is negative"):
            call()


def test_ids_past_int64_score_by_their_value(two_k4s):
    # uint64 ids at 2**63 and beyond are ranked as they are, never cast to int64
    truth = np.array([0] * 4 + [1] * 4)
    big = truth.astype(np.uint64) + np.uint64(2**63)
    pred = np.array([0, 0, 0, 1, 1, 1, 1, 2])
    assert nmi(pred, big) == nmi(pred, truth) and nmi(big, pred) == nmi(truth, pred)
    assert pairwise_f1(pred, big) == pairwise_f1(pred, truth) and pairwise_f1(big, pred) == pairwise_f1(truth, pred)
    assert evaluate_partition(two_k4s, pred, big) == evaluate_partition(two_k4s, pred, truth)
    assert evaluate_partition(two_k4s, big, big) == evaluate_partition(two_k4s, truth, truth)


@pytest.mark.parametrize("big", [2**63, 2**64], ids=["2**63", "2**64"])
def test_list_ids_past_int64_score_by_their_value(two_k4s, big):
    # a list of Python ints is scored by value, as README promises for "any
    # non-negative integers, however large"; np.asarray alone makes it float64 or object
    truth = [0] * 4 + [1] * 4
    listed = [big * t for t in truth]
    pred = [0, 0, 0, 1, 1, 1, 1, 2]
    assert nmi(pred, listed) == nmi(pred, truth) and nmi(listed, pred) == nmi(truth, pred)
    assert pairwise_f1(listed, pred) == pairwise_f1(truth, pred)
    assert evaluate_partition(two_k4s, listed, listed) == evaluate_partition(two_k4s, truth, truth)
    with pytest.raises(ValueError, match=r"^cluster labels out of bounds: -1 is negative$"):
        nmi([-1] + listed[1:], pred)


def test_integer_labels_of_any_width_accepted(two_k4s):
    labels = [0] * 4 + [1] * 4
    for dtype in (np.int8, np.uint16, np.int32, np.int64):
        r = evaluate_partition(two_k4s, np.array(labels, dtype=dtype), np.array(labels, dtype=dtype))
        assert r.nmi == 100.0 and r.num_clusters == 2
