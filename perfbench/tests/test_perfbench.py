"""Tests of the benchmark's own logic: generators, span arithmetic, checks, spec."""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from pottscluster import cli, save_dataset
from pottscluster.graph import ring_of_cliques
from pottscluster.dataset import one_hot_degree_features


# ---- generators -------------------------------------------------------------

def edge_set(g):
    src = g.arc_sources()
    keep = src < g.col_idx
    return set(zip(src[keep].tolist(), g.col_idx[keep].tolist()))


def test_sbm_complete_blocks_decode_every_pair():
    # p=1 inside and across blocks: every pair must be drawn exactly once
    g, labels = workloads.sample_sbm([4, 3, 5], 1.0, 1.0, np.random.default_rng(0))
    n = 12
    assert g.m == n * (n - 1) // 2
    assert labels.tolist() == [0] * 4 + [1] * 3 + [2] * 5


def test_sbm_no_cross_edges_when_p_out_zero():
    g, labels = workloads.sample_sbm([30, 20], 1.0, 0.0, np.random.default_rng(1))
    assert g.m == 30 * 29 // 2 + 20 * 19 // 2
    assert all(labels[u] == labels[v] for u, v in edge_set(g))


def test_sbm_deterministic_per_seed():
    a, _ = workloads.sample_sbm([50, 50], 0.2, 0.02, np.random.default_rng(7))
    b, _ = workloads.sample_sbm([50, 50], 0.2, 0.02, np.random.default_rng(7))
    c, _ = workloads.sample_sbm([50, 50], 0.2, 0.02, np.random.default_rng(8))
    assert edge_set(a) == edge_set(b)
    assert edge_set(a) != edge_set(c)


def test_sbm_edge_density_matches_probabilities():
    sizes = [200] * 5
    g, labels = workloads.sample_sbm(sizes, 0.05, 0.005, np.random.default_rng(3))
    pairs = np.array(sorted(edge_set(g)))
    intra = int((labels[pairs[:, 0]] == labels[pairs[:, 1]]).sum())
    intra_pairs = 5 * 200 * 199 // 2
    inter_pairs = 1000 * 999 // 2 - intra_pairs
    assert abs(intra - 0.05 * intra_pairs) < 5 * np.sqrt(0.05 * intra_pairs)
    assert abs((g.m - intra) - 0.005 * inter_pairs) < 5 * np.sqrt(0.005 * inter_pairs)


def test_sbm_rejects_bad_parameters():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        workloads.sample_sbm([3, 0], 0.5, 0.1, rng)
    with pytest.raises(ValueError):
        workloads.sample_sbm([3, 3], 0.1, 0.5, rng)


def test_csbm_features_binary_dense_enough_and_block_correlated():
    labels = np.repeat(np.arange(4), 500)
    x = workloads.sample_csbm_features(labels, 400, 0.05, 0.5, np.random.default_rng(0))
    assert x.shape == (2000, 400)
    assert set(np.unique(x)) == {0.0, 1.0}
    assert 0.04 < x.mean() <= 0.05
    own = sum(x[labels == b, b * 100:(b + 1) * 100].sum() for b in range(4))
    assert own / x.sum() > 0.5  # well above the 1/4 a block-blind draw gives


def test_csbm_cora_shape():
    g, x, labels = workloads.make_csbm_cora(np.random.default_rng(0))
    assert g.n == 2708 and x.shape == (2708, 1433)
    assert np.bincount(labels).tolist() == list(workloads.CORA_CLASS_SIZES)
    assert 5000 < g.m < 5800
    assert 0.011 < (x != 0).mean() < 0.0135


def test_sbm_100k_shape():
    g, x, labels = workloads.make_sbm_100k(np.random.default_rng(0))
    assert g.n == 100_000 and np.bincount(labels).tolist() == [2000] * 50
    assert 9.8 < 2 * g.m / g.n < 10.2
    assert np.array_equal(x, one_hot_degree_features(g))


def test_dataset_dir_cached_per_seed(tmp_path):
    w = workloads.WORKLOADS["csbm-cora"]
    first = workloads.dataset_dir(tmp_path, w, 5)
    stamp = (first / "edges.tsv").stat().st_mtime_ns
    assert workloads.dataset_dir(tmp_path, w, 5) == first
    assert (first / "edges.tsv").stat().st_mtime_ns == stamp
    other = workloads.dataset_dir(tmp_path, w, 6)
    assert other != first
    assert (first / "edges.tsv").read_bytes() != (other / "edges.tsv").read_bytes()
    again = workloads.dataset_dir(tmp_path / "fresh", w, 5)
    assert (again / "features.tsv").read_bytes() == (first / "features.tsv").read_bytes()


def test_training_seeds_disjoint_across_benchmark_seeds():
    w = workloads.WORKLOADS["ring-10x5"]
    seeds = [set(range(w.train_config(s)["seed"], w.train_config(s)["seed"] + w.seeds)) for s in range(5)]
    assert all(not (seeds[i] & seeds[j]) for i in range(5) for j in range(i + 1, 5))


# ---- span arithmetic --------------------------------------------------------

def test_self_time_of_nested_spans():
    # root [0,10] > a [1,4] > leaf [2,3]; root > b [5,9]
    rows = np.array([
        [0, -1, 0.0, 10.0],
        [1, 0, 1.0, 4.0],
        [2, 1, 2.0, 3.0],
        [1, 0, 5.0, 9.0],
    ])
    assert spans.self_times(rows).tolist() == [3.0, 2.0, 1.0, 4.0]


def synthetic_train(epochs: int):
    """Rows shaped like one traced train call, with whole-number timestamps."""
    names = ["trainer.train", "model.forward", "losses.objective", "model.backward",
             "trainer.adam_step", "graph.spmm"]
    rows = []

    def span(name, parent, start, end):
        rows.append([names.index(name), parent, start, end])
        return len(rows) - 1

    train = span("trainer.train", -1, 0.0, 0.0)
    span("model.forward", train, 1.0, 2.0)           # eval-mode record 0
    span("losses.objective", train, 2.0, 3.0)
    t = 3.0
    for _ in range(epochs):
        t += 1.0                                      # dropout mask: train self time
        f = span("model.forward", train, t, t + 3.0)
        span("graph.spmm", f, t + 1.0, t + 2.0)
        span("losses.objective", train, t + 3.0, t + 4.0)
        b = span("model.backward", train, t + 4.0, t + 6.0)
        span("graph.spmm", b, t + 4.5, t + 5.0)
        span("trainer.adam_step", train, t + 6.0, t + 7.0)
        t += 7.0
    span("model.forward", train, t, t + 2.0)          # final eval forward
    rows[train][3] = t + 3.0
    return names, np.array(rows)


def test_split_epochs_attributes_self_time():
    names, rows = synthetic_train(3)
    layer_s, calls, train_self, epochs = spans.split_epochs(names, rows)
    assert epochs == [8.0, 8.0, 8.0]
    assert train_self == 3.0
    assert layer_s == {"model.forward": 6.0, "graph.spmm": 4.5, "losses.objective": 3.0,
                       "model.backward": 4.5, "trainer.adam_step": 3.0}
    assert calls["graph.spmm"] == 6 and calls["model.forward"] == 3
    assert sum(layer_s.values()) + train_self == sum(epochs)


def test_split_epochs_without_epochs():
    names, rows = synthetic_train(0)
    assert spans.split_epochs(names, rows) == ({}, {}, 0.0, [])


@pytest.mark.parametrize("count, pct", [
    (5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_beyond(count, pct):
    assert spans.tail_percentile(count) == pct


def test_tail_value():
    samples = np.arange(1, 101, dtype=float)
    assert spans.tail(samples) == (90.0, pytest.approx(np.percentile(samples, 90)))
    assert spans.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_tracer_only_observes(tmp_path, monkeypatch):
    g, labels = ring_of_cliques(4, 3)
    save_dataset(tmp_path / "data", g, one_hot_degree_features(g), labels)
    (tmp_path / "cfg.json").write_text(json.dumps({"epochs": 6, "k": 4}))
    args = ["train", "--data", str(tmp_path / "data"), "--config", str(tmp_path / "cfg.json"), "--seeds", "2"]

    assert cli.main(args + ["--out", str(tmp_path / "plain")]) == 0
    tracer = spans.Tracer()
    for mod, attr, _ in spans.FULL:  # monkeypatch restores every wrapped attribute
        module = __import__(f"pottscluster.{mod}", fromlist=[attr])
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer.install(spans.FULL)
    assert tracer.missing == []
    code = tracer.call(tracer.name_id(spans.ROOT), cli.main, args + ["--out", str(tmp_path / "traced")])
    assert code == 0
    tracer.save(tmp_path / "spans.npz")

    for name in ("trace.csv", "assignment.tsv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    names, rows, missing = spans.load(tmp_path / "spans.npz")
    assert missing == []
    layer_s, calls, train_self, epochs = spans.split_epochs(names, rows)
    assert len(epochs) == 12
    assert calls["trainer.adam_step"] == 12 and calls["graph.spmm"] == 36
    assert sum(layer_s.values()) + train_self == pytest.approx(sum(epochs))


# ---- output checks ----------------------------------------------------------

GOOD_TRACE = (
    "epoch,total,potts,collapse,gamma_reg,gamma\n"
    "0,0.5,-0.5,0.96,4,1\n"
    "1,0.4,-0.6,0.96,4,1.001\n"
)


def test_check_trace_accepts_weighted_sum():
    assert checks.check_trace(GOOD_TRACE, 1, 1.0, 0.01, 5.0) == 0.4


@pytest.mark.parametrize("text, match", [
    (GOOD_TRACE.replace("0,0.5,", "0,0.7,"), "weighted sum"),
    (GOOD_TRACE.replace("1.001", "5.5"), "gamma"),
    (GOOD_TRACE.replace("0.4,", "nan,"), "finite"),
    (GOOD_TRACE.rsplit("1,", 1)[0], "rows"),
])
def test_check_trace_rejects(text, match):
    with pytest.raises(checks.OutputError, match=match):
        checks.check_trace(text, 1, 1.0, 0.01, 5.0)


def test_check_assignment():
    checks.check_assignment("0\t1\n1\t0\n", 2, 2)
    for bad in ("0\t1\n", "0\t1\n1\t2\n", "1\t0\n0\t1\n"):
        with pytest.raises(checks.OutputError):
            checks.check_assignment(bad, 2, 2)


# ---- spec -------------------------------------------------------------------

def test_benchmark_json_matches_spec():
    on_disk = json.loads((Path(run.REPO) / "BENCHMARK.json").read_text())
    assert on_disk == run.spec()


def test_spec_within_contract_limits():
    s = run.spec()
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in s["workloads"]] + [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert all(name_re.match(n) for n in names) and len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 for w in s["workloads"])
    assert all(unit_re.match(m["unit"]) for m in s["end_to_end"] + s["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in s["end_to_end"])
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])
