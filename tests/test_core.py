import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedist import (
    Corpus,
    Document,
    EmbeddingStore,
    FeatureTable,
    Sentence,
    load_distance_matrix,
    load_embeddings,
    load_feature_table,
    save_distance_matrix,
)
from cliquedist.errors import (
    AsymmetricMatrix,
    CorpusError,
    DuplicateLabel,
    LabelMismatch,
    MalformedEmbedding,
    MalformedMatrix,
    MalformedTable,
    NegativeDistance,
    NonzeroDiagonal,
)
from conftest import make_matrix

GUIDELINE_LABELS = ("AAFP", "ACOG", "ACP", "ACR", "ACS", "IARC", "USPSTF")


# -- feature table -------------------------------------------------------------

def test_load_feature_table_bundled(data_dir):
    table = load_feature_table(data_dir / "expert_features.csv")
    assert table.labels == GUIDELINE_LABELS
    assert len(table.feature_names) == 5
    assert table.rows[0] == ("b", "r", "b", "b", "N")
    assert table.cell("ACOG", "age_40_49") == "r"


def test_load_feature_table_minimal(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("label,f1\nX,v\n")
    table = load_feature_table(p)
    assert table.labels == ("X",)
    assert table.cell("X", "f1") == "v"


def test_load_feature_table_duplicate_label(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("label,f1\nACR,a\nACR,b\n")
    with pytest.raises(DuplicateLabel):
        load_feature_table(p)


def test_load_feature_table_missing_cell(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("label,f1,f2\nX,a\n")
    with pytest.raises(MalformedTable):
        load_feature_table(p)


def test_load_feature_table_empty_cell(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("label,f1,f2\nX,a,\n")
    with pytest.raises(MalformedTable):
        load_feature_table(p)


def test_load_feature_table_no_features(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("label\nX\n")
    with pytest.raises(MalformedTable):
        load_feature_table(p)


def test_feature_table_tokens_are_opaque():
    table = FeatureTable(("A", "B"), ("f",), (("0",), ("0.0",)))
    assert table.cell("A", "f") != table.cell("B", "f")  # exact string equality


# -- embeddings ----------------------------------------------------------------

def test_load_embeddings_basic(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("2 2\na 1 0\nb 0 1\n")
    store = load_embeddings(p)
    assert store.dimension == 2
    assert np.array_equal(store.vector("a"), [1.0, 0.0])
    assert np.array_equal(store.vector("b"), [0.0, 1.0])
    assert "c" not in store


def test_load_embeddings_arity_violation(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("3 2\na 1 0\nb 0 1\nc 1 2 3\n")
    with pytest.raises(MalformedEmbedding,
                       match=re.escape(f"{p}:4: 'c' has 3 components, expected 2")):
        load_embeddings(p)


def test_load_embeddings_count_mismatch_warns(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("3 2\na 1 0\nb 0 1\n")
    with pytest.warns(UserWarning, match="declares 3"):
        store = load_embeddings(p)
    assert len(store) == 2


def test_load_embeddings_bad_header(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("not a header\na 1 0\n")
    with pytest.raises(MalformedEmbedding):
        load_embeddings(p)


def test_load_embeddings_nonfinite(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("1 2\na nan 0\n")
    with pytest.raises(MalformedEmbedding,
                       match=re.escape(f"{p}:2: non-finite component for 'a'")):
        load_embeddings(p)


@pytest.mark.parametrize("body, found", [
    ("a 1 0 5\nb 0 1 5\n", 3),  # every line agrees; only the header's 2 catches it
    ("a 1\nb 0 1\n", 1),
])
def test_load_embeddings_wrong_count_on_first_line(tmp_path, body, found):
    p = tmp_path / "e.txt"
    p.write_text("2 2\n" + body)
    with pytest.raises(MalformedEmbedding,
                       match=re.escape(f"{p}:2: 'a' has {found} components, expected 2")):
        load_embeddings(p)


def test_load_embeddings_non_numeric_names_line_and_word(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("2 2\na 1 0\n\nb 0 one\n")
    with pytest.raises(MalformedEmbedding,
                       match=re.escape(f"{p}:4: non-numeric component for 'b'")):
        load_embeddings(p)


def test_load_embeddings_skips_blank_lines(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("2 2\n\na 1 0\n   \n\nb 0 1\n\n")
    store = load_embeddings(p)
    assert len(store) == 2
    assert np.array_equal(store.vector("a"), [1.0, 0.0])
    assert np.array_equal(store.vector("b"), [0.0, 1.0])


def test_load_embeddings_duplicate_word_keeps_last_line(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("3 2\na 1 0\nb 0 1\na 2 3\n")
    with pytest.warns(UserWarning, match="declares 3 vectors, file has 2"):
        store = load_embeddings(p)
    assert len(store) == 2
    assert np.array_equal(store.vector("a"), [2.0, 3.0])
    assert np.array_equal(store.get("b"), [0.0, 1.0])


def test_load_embeddings_header_only(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0 3\n")
    store = load_embeddings(p)
    assert len(store) == 0
    assert store.dimension == 3


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda d: st.lists(
           st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=d, max_size=d), min_size=1, max_size=6)),
       four_decimals=st.booleans())
def test_load_embeddings_matches_float_bit_for_bit(tmp_path_factory, rows, four_decimals):
    fmt = "{:+.4f}" if four_decimals else "{!r}"
    words = [f"w{i}" for i in range(len(rows))]
    text = [[fmt.format(x) for x in row] for row in rows]
    p = tmp_path_factory.mktemp("emb") / "e.txt"
    p.write_text(f"{len(rows)} {len(rows[0])}\n" + "".join(
        " ".join([w] + comps) + "\n" for w, comps in zip(words, text)))
    store = load_embeddings(p)
    for w, comps in zip(words, text):
        expected = np.array([float(c) for c in comps])
        assert store.vector(w).tobytes() == expected.tobytes()


def test_embedding_store_rows_are_read_only(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("2 2\na 1 0\nb 0 1\n")
    built = EmbeddingStore(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
    for store in (load_embeddings(p), built):
        assert np.array_equal(store.rows(["b", "a", "b"]),
                              [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert store.get("c") is None
        for word in ("a", "b"):
            with pytest.raises(ValueError):
                store.vector(word)[0] = 9.0


def test_embedding_store_rejects_nonfinite():
    with pytest.raises(MalformedEmbedding, match="'b' is not finite"):
        EmbeddingStore(2, {"a": np.zeros(2), "b": np.array([0.0, np.nan])})


def test_embedding_store_rejects_wrong_length():
    with pytest.raises(MalformedEmbedding):
        EmbeddingStore(3, {"a": np.array([1.0, 2.0])})


# -- distance matrices ---------------------------------------------------------

def test_load_distance_matrix_bundled(data_dir):
    m = load_distance_matrix(data_dir / "wmd_distances.csv")
    assert m.labels == GUIDELINE_LABELS
    assert m.values[m.index("AAFP"), m.index("ACOG")] == 1.83395352


def test_load_distance_matrix_singleton(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("X\n0\n")
    m = load_distance_matrix(p)
    assert m.labels == ("X",)
    assert m.values[0, 0] == 0.0


def test_load_distance_matrix_asymmetric(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("A,B\nA,0,1\nB,2,0\n")
    with pytest.raises(AsymmetricMatrix):
        load_distance_matrix(p)


def test_load_distance_matrix_nonzero_diagonal(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("A,B\nA,1,2\nB,2,0\n")
    with pytest.raises(NonzeroDiagonal):
        load_distance_matrix(p)


def test_load_distance_matrix_negative(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("A,B\nA,0,-1\nB,-1,0\n")
    with pytest.raises(NegativeDistance):
        load_distance_matrix(p)


def test_load_distance_matrix_rejects_nan(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("A,B\nA,0,nan\nB,nan,0\n")
    with pytest.raises(MalformedMatrix):
        load_distance_matrix(p)


def test_load_distance_matrix_row_label_mismatch(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("A,B\nB,0,1\nA,1,0\n")
    with pytest.raises(MalformedMatrix):
        load_distance_matrix(p)


def test_load_distance_matrix_wrong_row_count(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("A,B\nA,0,1\n")
    with pytest.raises(MalformedMatrix):
        load_distance_matrix(p)


def test_matrix_symmetry_tolerance():
    # asymmetry at 1e-13 is within ingestion tolerance, 1e-9 is not
    make_matrix([[0.0, 1.0 + 1e-13], [1.0, 0.0]])
    with pytest.raises(AsymmetricMatrix):
        make_matrix([[0.0, 1.0 + 1e-9], [1.0, 0.0]])


def test_matrix_values_read_only():
    m = make_matrix([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        m.values[0, 1] = 5.0


def test_aligned_to_reorders_by_name():
    m = make_matrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]], labels=("A", "B", "C"))
    r = m.aligned_to(("C", "A", "B"))
    assert r.labels == ("C", "A", "B")
    assert r.values[0, 1] == 2.0  # (C, A)
    with pytest.raises(LabelMismatch):
        m.aligned_to(("A", "B", "X"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       log_scale=st.integers(-150, 150))
def test_save_load_round_trip_bit_exact(tmp_path_factory, seed, n, log_scale):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) * 10.0**log_scale
    values = (a + a.T) / 2.0
    np.fill_diagonal(values, 0.0)
    m = make_matrix(values)
    path = tmp_path_factory.mktemp("rt") / "m.csv"
    save_distance_matrix(m, path)
    again = load_distance_matrix(path)
    assert again.labels == m.labels
    assert np.array_equal(again.values, m.values)


# -- corpus types --------------------------------------------------------------

def test_document_requires_sentences():
    with pytest.raises(CorpusError):
        Document("d", ())


def test_corpus_rejects_duplicate_ids():
    s = Sentence("x.", ("x",))
    with pytest.raises(DuplicateLabel):
        Corpus((Document("d", (s,)), Document("d", (s,))))


def test_sentence_concept_sets_are_frozen():
    s = Sentence("x.", ("x",))
    assert s.concepts == frozenset()
    assert s.cuis() == frozenset()
