"""Acceptance gate: one test per criterion, each timed against its budget.

Run with -v to get a single PASSED/FAILED line per criterion.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cliquedist import (
    ConceptTag,
    Document,
    EmbeddingStore,
    NBow,
    Sentence,
    WmdConfig,
    feature_difference_counts,
    graph_distortion,
    load_distance_matrix,
    load_feature_table,
    main,
    normalize_matrix,
    permutation_stats,
    random_baseline,
    solve_ot,
    split_related,
    wmd,
)
from cliquedist.textprep import RelatednessConfig, RelatednessMode
from conftest import Budget, make_matrix, random_symmetric
from ot_oracle import oracle_min_cost

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA = REPO_ROOT / "data"


def test_criterion_1_feature_counts_and_normalization(data_dir):
    with Budget(1.0):
        table = load_feature_table(data_dir / "expert_features.csv")
        counts = feature_difference_counts(table)
        expected_counts = load_distance_matrix(data_dir / "expert_diff_counts.csv")
        assert counts.labels == expected_counts.labels
        assert np.array_equal(counts.values, expected_counts.values)

        norm = normalize_matrix(counts)
        expected_norm = load_distance_matrix(data_dir / "expert_distances.csv")
        assert np.abs(norm.values - expected_norm.values).max() < 5e-5


def test_criterion_2_distortion_value(data_dir):
    with Budget(1.0):
        expert = load_distance_matrix(data_dir / "expert_distances.csv")
        wmd_m = load_distance_matrix(data_dir / "wmd_distances.csv")
        assert graph_distortion(expert, wmd_m) == pytest.approx(
            0.313933661, abs=1e-6)


def test_criterion_3_permutation_statistics(data_dir):
    with Budget(5.0):
        expert = load_distance_matrix(data_dir / "expert_distances.csv")
        wmd_m = load_distance_matrix(data_dir / "wmd_distances.csv")
        report = permutation_stats(expert, wmd_m)
        assert report.permutation_count == math.factorial(7)
        assert report.baseline_mean == pytest.approx(0.381378177, abs=1e-6)
        assert report.baseline_std == pytest.approx(0.009017982, abs=1e-6)
        assert report.z_score == pytest.approx(7.48, abs=0.02)


def test_criterion_4_random_baseline(data_dir):
    with Budget(30.0):
        expert = load_distance_matrix(data_dir / "expert_distances.csv")
        mean, std = random_baseline(expert, trials=10000, seed=0)
        assert mean == pytest.approx(0.523, abs=0.05)
        assert std > 0
        again = random_baseline(expert, trials=10000, seed=0)
        assert (mean, std) == again  # bit-reproducible


def test_criterion_5_ot_solver_vs_enumeration():
    with Budget(30.0):
        rng = np.random.default_rng(20240915)
        worst = 0.0
        for _ in range(200):
            m, n = rng.integers(1, 5, size=2)
            wa = rng.random(m) + 0.05
            wb = rng.random(n) + 0.05
            wa, wb = wa / wa.sum(), wb / wb.sum()
            pa = rng.normal(size=(m, 3))
            pb = rng.normal(size=(n, 3))
            costs = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))
            a = NBow(tuple(f"w{i}" for i in range(m)), wa)
            b = NBow(tuple(f"x{j}" for j in range(n)), wb)
            got = solve_ot(a, b, costs).cost
            want = oracle_min_cost(wa, wb, costs)
            worst = max(worst, abs(got - want))
        assert worst < 1e-9


def _random_word_doc(rng, doc_id, vocab, max_words=4):
    k = int(rng.integers(1, max_words + 1))
    words = [vocab[i] for i in rng.integers(0, len(vocab), size=k)]
    return Document(doc_id, (Sentence(" ".join(words) + ".", tuple(words)),))


def test_criterion_6_property_suites(data_dir):
    with Budget(60.0):
        rng = np.random.default_rng(7777)

        # distortion is a scale-invariant pseudometric (1000 random triples)
        for _ in range(1000):
            n = int(rng.integers(3, 8))
            a = random_symmetric(rng, n)
            b = random_symmetric(rng, n)
            c = random_symmetric(rng, n)
            dab = graph_distortion(a, b)
            assert abs(dab - graph_distortion(b, a)) <= 1e-12
            assert graph_distortion(a, a) == 0.0
            assert 0.0 <= dab <= 2.0
            assert dab <= graph_distortion(a, c) + graph_distortion(c, b) + 1e-12
            scaled = make_matrix(3.7 * b.values, labels=b.labels)
            assert abs(dab - graph_distortion(a, scaled)) <= 1e-12

        # WMD is a metric over nBOW documents (500 random triples)
        vocab = [f"word{i}" for i in range(8)]
        store = EmbeddingStore(4, {
            w: rng.normal(size=4) for w in vocab})
        cfg = WmdConfig(remove_stopwords=False)
        for t in range(500):
            d1 = _random_word_doc(rng, "a", vocab)
            d2 = _random_word_doc(rng, "b", vocab)
            d3 = _random_word_doc(rng, "c", vocab)
            d12 = wmd(d1, d2, store, cfg)
            d21 = wmd(d2, d1, store, cfg)
            assert abs(d12 - d21) <= 1e-9
            assert d12 >= -1e-12
            assert d12 <= wmd(d1, d3, store, cfg) + wmd(d3, d2, store, cfg) + 1e-9
            assert wmd(d1, d1, store, cfg) <= 1e-9

        # split_related partitions and is threshold-monotone (randomized)
        pool = [f"C{i}" for i in range(6)]
        for _ in range(200):
            n_sent = int(rng.integers(1, 6))
            sentences = tuple(
                Sentence(f"s{i}.", (f"s{i}",), frozenset(
                    ConceptTag(c, "dsyn")
                    for c in rng.choice(pool, size=rng.integers(0, 5),
                                        replace=False)))
                for i in range(n_sent))
            doc = Document("d", sentences)
            statements = [frozenset(
                rng.choice(pool, size=rng.integers(1, 5), replace=False))
                for _ in range(int(rng.integers(1, 4)))]
            for mode in RelatednessMode:
                prev_related = None
                for k in (1, 2, 3):
                    related, unrelated = split_related(
                        doc, statements, RelatednessConfig(mode, k))
                    assert len(related) + len(unrelated) == n_sent
                    texts = [s.text for s in related] + [s.text for s in unrelated]
                    assert sorted(texts) == sorted(s.text for s in sentences)
                    if prev_related is not None:
                        assert {s.text for s in related} <= prev_related
                    prev_related = {s.text for s in related}

        # Monte Carlo permutation means converge on the exact mean; a
        # histogram is sampled only above 9! relabelings, so use 10 labels
        a = random_symmetric(np.random.default_rng(99), 10)
        b = random_symmetric(np.random.default_rng(100), 10)
        exact = permutation_stats(a, b)  # closed form over all 10! relabelings
        mc = permutation_stats(a, b, samples=50000, seed=0, keep_distortions=True)
        assert mc.permutation_count == 50000
        se = mc.distortions.std() / math.sqrt(len(mc.distortions))
        assert abs(mc.baseline_mean - exact.baseline_mean) <= 3 * se


def test_criterion_7_pipeline_reproducibility(tmp_path, monkeypatch):
    with Budget(10.0):
        monkeypatch.chdir(REPO_ROOT)
        blobs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = main(["pipeline", "--config", "data/toy_config.toml",
                         "--out", str(out)])
            assert code == 0
            matrix = load_distance_matrix(out / "distances.csv")
            assert matrix.n == 7
            report = json.loads((out / "report.json").read_text())
            assert report["permutation_count"] == 5040
            assert {"distortion", "baseline_mean", "baseline_std",
                    "z_score"} <= set(report)
            dot = (out / "graph.dot").read_text()
            assert dot.count(" -- ") == 21
            blobs.append(tuple(
                (out / f).read_bytes()
                for f in ("distances.csv", "report.json", "graph.dot")))
        assert blobs[0] == blobs[1]
