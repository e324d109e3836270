import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliquedist import (
    Corpus,
    Document,
    EmbeddingStore,
    FeatureTable,
    Sentence,
    SimilarityTransform,
    cosine_model,
    cosine_similarity,
    document_vector,
    feature_difference_counts,
    load_distance_matrix,
    load_feature_table,
    normalize_matrix,
    pairwise_distances,
    sim_to_distance,
    wmd_model,
)
from cliquedist.wmd import WmdConfig
from cliquedist.errors import (
    CorpusError,
    DomainError,
    EmptyVectorError,
    ZeroGraph,
    ZeroNorm,
)
from conftest import make_matrix

METRICS_MODULE = importlib.import_module("cliquedist.metrics")
WMD_MODULE = importlib.import_module("cliquedist.wmd")

ONE_MINUS = SimilarityTransform.ONE_MINUS_SIM
RECIP = SimilarityTransform.RECIPROCAL_MINUS_ONE


def _word_doc(doc_id, *words):
    return Document(doc_id, (Sentence(" ".join(words) + ".", tuple(words)),))


# -- feature difference counts ---------------------------------------------------

def test_feature_difference_counts_inline():
    table = FeatureTable(
        ("AAFP", "ACOG", "ACP"),
        ("f1", "f2", "f3", "f4", "f5"),
        (("b", "r", "b", "b", "N"),
         ("r", "r", "b", "b", "r"),
         ("b", "r", "r", "N", "b")))
    counts = feature_difference_counts(table)
    i = counts.index
    assert counts.values[i("AAFP"), i("ACOG")] == 2.0
    assert counts.values[i("ACOG"), i("ACP")] == 4.0
    assert counts.values[i("AAFP"), i("ACP")] == 3.0
    assert np.array_equal(np.diag(counts.values), np.zeros(3))


def test_feature_difference_counts_bundled(data_dir):
    table = load_feature_table(data_dir / "expert_features.csv")
    counts = feature_difference_counts(table)
    expected = load_distance_matrix(data_dir / "expert_diff_counts.csv")
    assert counts.labels == expected.labels
    assert np.array_equal(counts.values, expected.values)


def test_feature_difference_counts_strings_compared_exactly():
    table = FeatureTable(("A", "B"), ("f",), (("0",), ("0.0",)))
    assert feature_difference_counts(table).values[0, 1] == 1.0


# -- normalization ----------------------------------------------------------------

def test_normalize_matrix_golden(data_dir):
    counts = feature_difference_counts(
        load_feature_table(data_dir / "expert_features.csv"))
    norm = normalize_matrix(counts)
    i = norm.index
    assert norm.values.sum() == pytest.approx(1.0, abs=1e-15)
    assert norm.values[i("AAFP"), i("USPSTF")] == pytest.approx(1 / 84)
    assert norm.values[i("ACOG"), i("ACP")] == pytest.approx(4 / 84)


def test_normalize_matrix_scale_equivariant():
    m = make_matrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    m10 = make_matrix(10.0 * m.values)
    assert np.allclose(normalize_matrix(m).values, normalize_matrix(m10).values,
                       rtol=0, atol=1e-16)


def test_normalize_matrix_zero_graph():
    with pytest.raises(ZeroGraph):
        normalize_matrix(make_matrix([[0.0, 0.0], [0.0, 0.0]]))


# -- pooled document vectors -------------------------------------------------------

STORE = EmbeddingStore(2, {
    "a": np.array([1.0, 0.0]),
    "b": np.array([0.0, 1.0]),
    "c": np.array([1.0, 1.0]),
})


def test_document_vector_mean_pooling():
    assert np.array_equal(
        document_vector(_word_doc("d", "a", "b"), STORE), [0.5, 0.5])
    assert np.array_equal(
        document_vector(_word_doc("d", "a"), STORE), [1.0, 0.0])
    # repetition shifts the mean
    assert np.allclose(
        document_vector(_word_doc("d", "a", "a", "b"), STORE), [2 / 3, 1 / 3])


def test_document_vector_unique_tokens():
    v = document_vector(_word_doc("d", "a", "a", "b"), STORE, unique_tokens=True)
    assert np.array_equal(v, [0.5, 0.5])


def test_document_vector_skips_oov():
    v = document_vector(_word_doc("d", "a", "zzz"), STORE)
    assert np.array_equal(v, [1.0, 0.0])


def test_document_vector_all_oov():
    with pytest.raises(EmptyVectorError):
        document_vector(_word_doc("d", "zzz"), STORE)


# -- cosine and the similarity transforms ------------------------------------------

def test_cosine_similarity_values():
    assert cosine_similarity([1, 0], [2, 0]) == 1.0
    assert cosine_similarity([1, 0], [0, 3]) == 0.0
    assert cosine_similarity([1, 0], [1, 1]) == pytest.approx(
        0.7071067811865475, abs=1e-15)


def test_cosine_similarity_zero_norm():
    with pytest.raises(ZeroNorm):
        cosine_similarity([0, 0], [1, 0])


def test_cosine_similarity_shape_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity([1, 0], [1, 0, 0])


def test_sim_to_distance_examples():
    assert sim_to_distance(1.0, ONE_MINUS) == 0.0
    assert sim_to_distance(0.25, ONE_MINUS) == 0.75
    assert sim_to_distance(1.0, RECIP) == 0.0
    assert sim_to_distance(0.25, RECIP) == 3.0


def test_sim_to_distance_domains():
    assert sim_to_distance(0.0, ONE_MINUS) == 1.0  # zero allowed here
    with pytest.raises(DomainError):
        sim_to_distance(0.0, RECIP)                # but not here
    for bad in (-0.1, 1.1):
        with pytest.raises(DomainError):
            sim_to_distance(bad, ONE_MINUS)
        with pytest.raises(DomainError):
            sim_to_distance(bad, RECIP)


# Rounding to nearest is monotone, so both transforms are weakly decreasing
# in float64. Strict decrease needs the inputs apart by more than ulp(1.0):
# - 1 - s: the exact results differ by hi - lo and lie in [0, 1), where
#   doubles are at most ulp(1.0) / 2 apart, so they cannot round together.
# - 1/s - 1: the exact quotients differ by (hi - lo) / (lo * hi), which is
#   at least (hi - lo) / lo > ulp(1.0) / lo, the spacing of doubles near
#   1/lo, the larger quotient; subtracting 1 from a double >= 1 is exact.
# Closer inputs can collapse: 1 - 0.010000000000000002 == 1 - 0.01 == 0.99.
@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
@example(0.010000000000000002, 0.01)
def test_sim_to_distance_strictly_decreasing(s1, s2):
    lo, hi = min(s1, s2), max(s1, s2)
    for t in (ONE_MINUS, RECIP):
        assert sim_to_distance(lo, t) >= sim_to_distance(hi, t)
        if hi - lo > math.ulp(1.0):
            assert sim_to_distance(lo, t) > sim_to_distance(hi, t)


# -- pairwise assembly --------------------------------------------------------------

def test_pairwise_distances_cosine():
    corpus = Corpus((_word_doc("A", "a"), _word_doc("B", "b"),
                     _word_doc("C", "a", "b")))
    m = pairwise_distances(corpus, cosine_model(STORE))
    i = m.index
    assert m.values[i("A"), i("B")] == pytest.approx(1.0)
    assert m.values[i("A"), i("C")] == pytest.approx(1 - 0.7071067811865475)
    assert np.array_equal(m.values, m.values.T)


def test_pairwise_distances_identical_documents_zero():
    corpus = Corpus((_word_doc("A", "a", "b"), _word_doc("B", "a", "b")))
    m = pairwise_distances(corpus, cosine_model(STORE))
    assert m.values[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_pairwise_distances_one_word_docs_reduce_to_ground_metric():
    corpus = Corpus((_word_doc("A", "a"), _word_doc("B", "b"),
                     _word_doc("C", "c")))
    m = pairwise_distances(
        corpus, wmd_model(STORE, WmdConfig(remove_stopwords=False)))
    i = m.index
    assert m.values[i("A"), i("B")] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert m.values[i("A"), i("C")] == pytest.approx(1.0, abs=1e-12)
    assert m.values[i("B"), i("C")] == pytest.approx(1.0, abs=1e-12)


def test_pairwise_distances_error_names_pair():
    corpus = Corpus((_word_doc("A", "a"), _word_doc("BAD", "zzz")))
    with pytest.raises(EmptyVectorError, match=r"pair \(A, BAD\)"):
        pairwise_distances(corpus, cosine_model(STORE))


def test_pairwise_distances_needs_two_documents():
    with pytest.raises(CorpusError):
        pairwise_distances(Corpus((_word_doc("A", "a"),)), cosine_model(STORE))


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of document ids it saw."""
    real, seen = getattr(module, name), []

    def wrapper(doc, *args, **kwargs):
        seen.append(doc.id)
        return real(doc, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return seen


POOLING_CORPUS = Corpus((_word_doc("A", "a", "b", "a"), _word_doc("B", "b"),
                         _word_doc("C", "c", "a"), _word_doc("D", "c", "c", "b"),
                         _word_doc("E", "a", "zzz", "c")))


@pytest.mark.parametrize("transform", [ONE_MINUS, RECIP])
@pytest.mark.parametrize("unique", [False, True])
def test_cosine_model_pools_each_document_once(monkeypatch, transform, unique):
    docs = POOLING_CORPUS.documents
    reference = np.zeros((len(docs), len(docs)))
    for i, a in enumerate(docs):
        for j, b in enumerate(docs):
            if i != j:
                sim = cosine_similarity(document_vector(a, STORE, unique),
                                        document_vector(b, STORE, unique))
                reference[i, j] = sim_to_distance(sim, transform)
    seen = _counting(monkeypatch, METRICS_MODULE, "document_vector")
    m = pairwise_distances(POOLING_CORPUS, cosine_model(STORE, transform, unique))
    assert sorted(seen) == list(POOLING_CORPUS.ids)
    assert m.values.tobytes() == reference.tobytes()


def test_wmd_model_builds_each_bag_once(monkeypatch):
    config = WmdConfig(remove_stopwords=False)
    docs = POOLING_CORPUS.documents
    reference = np.zeros((len(docs), len(docs)))
    for i, a in enumerate(docs):
        for j, b in enumerate(docs):
            if i < j:
                reference[i, j] = reference[j, i] = WMD_MODULE.wmd(a, b, STORE, config)
    seen = _counting(monkeypatch, WMD_MODULE, "nbow")
    m = pairwise_distances(POOLING_CORPUS, wmd_model(STORE, config))
    assert sorted(seen) == list(POOLING_CORPUS.ids)
    assert m.values.tobytes() == reference.tobytes()
