import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedist import (
    ConceptLexicon,
    RelatednessMode,
    load_concept_annotations,
    load_concept_lexicon,
    load_corpus,
    load_summary_statements,
    merge_concepts,
    split_related,
    split_sentences,
    tokenize,
)
from cliquedist.core import Document, Sentence
from cliquedist.errors import AnnotationMismatch, CorpusError, MalformedTable
from cliquedist.textprep import (
    DEFAULT_SEMANTIC_TYPES,
    filter_sentences_by_keyword,
)

WHOLE = RelatednessMode.AGAINST_WHOLE_SUMMARY
ANY = RelatednessMode.AGAINST_ANY_STATEMENT


# -- tokenization --------------------------------------------------------------

def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Screening for Breast Cancer.") == [
        "screening", "for", "breast", "cancer"]


def test_tokenize_keeps_digits():
    assert tokenize("women aged 40-49 years") == [
        "women", "aged", "40", "49", "years"]


def test_tokenize_empty_and_symbols():
    assert tokenize("") == []
    assert tokenize("--- !!! ---") == []


def test_split_sentences():
    assert split_sentences("First rule. Second rule! Third?") == [
        "First rule.", "Second rule!", "Third?"]
    # a newline without terminal punctuation does not end a sentence
    assert split_sentences("one\ntwo. three.") == ["one\ntwo.", "three."]


# -- concept merging -----------------------------------------------------------

def test_merge_concepts_bigram():
    lex = ConceptLexicon({("breast", "cancer"): "breast-neoplasms"})
    assert merge_concepts(["screening", "for", "breast", "cancer"], lex) == [
        "screening", "for", "breast-neoplasms"]


def test_merge_concepts_no_match_is_identity():
    lex = ConceptLexicon({("breast", "cancer"): "breast-neoplasms"})
    toks = ["no", "relevant", "terms"]
    assert merge_concepts(toks, lex) == toks


def test_merge_concepts_bigram_beats_unigram():
    lex = ConceptLexicon({("magnetic",): "m", ("magnetic", "resonance"): "mr"})
    assert merge_concepts(["magnetic", "resonance"], lex) == ["mr"]
    assert merge_concepts(["magnetic", "field"], lex) == ["m", "field"]


def test_merge_concepts_consumed_tokens_not_reused():
    lex = ConceptLexicon({("a", "b"): "ab", ("b", "c"): "bc"})
    assert merge_concepts(["a", "b", "c"], lex) == ["ab", "c"]


@settings(max_examples=100, deadline=None)
@given(tokens=st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=12))
def test_merge_concepts_never_lengthens(tokens):
    lex = ConceptLexicon({("a", "b"): "x", ("c", "d"): "y"})
    merged = merge_concepts(tokens, lex)
    assert len(merged) <= len(tokens)
    # replacement tokens are not lexicon keys, so merging is idempotent
    assert merge_concepts(merged, lex) == merged


def test_load_concept_lexicon(data_dir):
    lex = load_concept_lexicon(data_dir / "toy_lexicon.tsv")
    assert merge_concepts(["breast", "cancer"], lex) == ["breast-neoplasms"]
    assert merge_concepts(["mammogram"], lex) == ["mammography"]


def test_load_concept_lexicon_rejects_bad_row(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("only-one-column\n")
    with pytest.raises(MalformedTable):
        load_concept_lexicon(p)


def test_load_concept_lexicon_rejects_trigram_key(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("three word phrase\treplacement\n")
    with pytest.raises(MalformedTable):
        load_concept_lexicon(p)


def test_concept_lexicon_validates_keys():
    with pytest.raises(ValueError):
        ConceptLexicon({("Upper",): "x"})
    with pytest.raises(ValueError):
        ConceptLexicon({("ok",): ""})


# -- corpus loading ------------------------------------------------------------

def test_load_corpus_sorted_ids(data_dir):
    corpus = load_corpus(data_dir / "toy_corpus")
    assert corpus.ids == ("AAFP", "ACOG", "ACP", "ACR", "ACS", "IARC", "USPSTF")
    assert len(corpus.document("AAFP").sentences) == 4


def test_load_corpus_applies_lexicon(data_dir):
    lex = load_concept_lexicon(data_dir / "toy_lexicon.tsv")
    corpus = load_corpus(data_dir / "toy_corpus", lex)
    assert "breast-neoplasms" in corpus.document("AAFP").tokens()
    plain = load_corpus(data_dir / "toy_corpus")
    assert "breast-neoplasms" not in plain.document("AAFP").tokens()


def test_load_corpus_empty_dir(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path)


def test_load_corpus_blank_document(tmp_path):
    (tmp_path / "empty.txt").write_text("   \n")
    with pytest.raises(CorpusError):
        load_corpus(tmp_path)


# -- annotations ---------------------------------------------------------------

def _all_cuis(corpus):
    cuis = set()
    for doc in corpus.documents:
        for sent in doc.sentences:
            cuis |= sent.concepts
    return cuis


def test_load_concept_annotations_attaches(data_dir):
    corpus = load_corpus(data_dir / "toy_corpus")
    annotated = load_concept_annotations(
        data_dir / "toy_annotations.jsonl", corpus)
    cuis = _all_cuis(annotated)
    assert "C0006142" in cuis   # neop
    assert "C0282416" in cuis   # gngm kept when no filter is given
    # the source corpus is untouched
    assert _all_cuis(corpus) == set()


def test_load_concept_annotations_semantic_filter(data_dir):
    corpus = load_corpus(data_dir / "toy_corpus")
    annotated = load_concept_annotations(
        data_dir / "toy_annotations.jsonl", corpus, DEFAULT_SEMANTIC_TYPES)
    cuis = _all_cuis(annotated)
    assert "C0006142" in cuis       # neop is in the default allow-list
    assert "C0282416" not in cuis   # gngm is not


def test_load_concept_annotations_unknown_document(tmp_path, data_dir):
    corpus = load_corpus(data_dir / "toy_corpus")
    p = tmp_path / "ann.jsonl"
    p.write_text(json.dumps({
        "doc_id": "NOPE", "sent_index": 0,
        "concepts": [{"cui": "C1", "semtype": "dsyn"}]}) + "\n")
    with pytest.raises(AnnotationMismatch):
        load_concept_annotations(p, corpus)


def test_load_concept_annotations_bad_sentence_index(tmp_path, data_dir):
    corpus = load_corpus(data_dir / "toy_corpus")
    p = tmp_path / "ann.jsonl"
    p.write_text(json.dumps({
        "doc_id": "AAFP", "sent_index": 99,
        "concepts": [{"cui": "C1", "semtype": "dsyn"}]}) + "\n")
    with pytest.raises(AnnotationMismatch):
        load_concept_annotations(p, corpus)


def test_load_concept_annotations_malformed_line(tmp_path, data_dir):
    corpus = load_corpus(data_dir / "toy_corpus")
    p = tmp_path / "ann.jsonl"
    p.write_text('{"doc_id": "AAFP"}\n')
    with pytest.raises(AnnotationMismatch):
        load_concept_annotations(p, corpus)


_CONCEPTS = [{"cui": "C1", "semtype": "dsyn"}]


@pytest.mark.parametrize("record, message", [
    ({"doc_id": "AAFP", "sent_index": 0, "concepts": 5}, "'concepts' must be a list"),
    ({"doc_id": ["AAFP"], "sent_index": 0, "concepts": _CONCEPTS},
     r"unknown doc_id \['AAFP'\]"),
    ({"doc_id": "AAFP", "sent_index": 0.7, "concepts": _CONCEPTS},
     "sent_index must be an integer"),
    ({"doc_id": "AAFP", "sent_index": True, "concepts": _CONCEPTS},
     "sent_index must be an integer"),
    ({"doc_id": "AAFP", "sent_index": "0", "concepts": _CONCEPTS},
     "sent_index must be an integer"),
    ({"doc_id": "AAFP", "sent_index": 0, "concepts": [{"semtype": "dsyn"}]},
     "bad concept entry"),
    ({"doc_id": "AAFP", "sent_index": 0, "concepts": [{"cui": "", "semtype": "dsyn"}]},
     "bad concept entry"),
    ({"doc_id": "AAFP", "sent_index": 0, "concepts": ["C1"]}, "bad concept entry"),
], ids=["concepts-int", "doc-id-list", "sent-index-float", "sent-index-bool",
        "sent-index-string", "cui-missing", "cui-empty", "entry-string"])
def test_load_concept_annotations_rejects_wrong_types(tmp_path, data_dir,
                                                      record, message):
    corpus = load_corpus(data_dir / "toy_corpus")
    p = tmp_path / "ann.jsonl"
    p.write_text(json.dumps(record) + "\n")
    with pytest.raises(AnnotationMismatch, match=rf"ann\.jsonl:1: {message}"):
        load_concept_annotations(p, corpus)


def test_empty_cui_is_rejected_even_when_filtered_out(tmp_path):
    p = tmp_path / "summary.jsonl"
    p.write_text(json.dumps({"concepts": [{"cui": "", "semtype": "gngm"}]}) + "\n")
    with pytest.raises(AnnotationMismatch, match=r"summary\.jsonl:1: bad concept entry"):
        load_summary_statements(p, DEFAULT_SEMANTIC_TYPES)


def test_default_semantic_types():
    assert {"diap", "neop", "fndg"} <= DEFAULT_SEMANTIC_TYPES
    assert "gngm" not in DEFAULT_SEMANTIC_TYPES
    assert len(DEFAULT_SEMANTIC_TYPES) == 11


# -- relatedness split ---------------------------------------------------------

def _doc(sent_cuis):
    """Synthetic document whose i-th sentence carries the given CUIs."""
    sentences = tuple(
        Sentence(f"s{i}.", (f"s{i}",), frozenset(cuis))
        for i, cuis in enumerate(sent_cuis))
    return Document("doc", sentences)


def _texts(sentences):
    return [s.text for s in sentences]


def test_split_related_whole_summary_pools_statements():
    # sentence shares one concept with each of two statements; pooled
    # overlap reaches 2, per-statement overlap never does.
    doc = _doc([{"C1", "C2"}, {"C9"}])
    statements = [{"C1"}, {"C2"}]
    related, unrelated = split_related(doc, statements, WHOLE, min_mutual=2)
    assert _texts(related) == ["s0."]
    assert _texts(unrelated) == ["s1."]
    related, unrelated = split_related(doc, statements, ANY, min_mutual=2)
    assert _texts(related) == []
    assert _texts(unrelated) == ["s0.", "s1."]


def test_split_related_any_statement_single_overlap():
    doc = _doc([{"C1", "C3"}, {"C4"}])
    related, unrelated = split_related(doc, [{"C1"}, {"C2"}], ANY, min_mutual=1)
    assert _texts(related) == ["s0."]
    assert _texts(unrelated) == ["s1."]


def test_split_related_threshold():
    doc = _doc([{"C1", "C2"}, {"C1"}])
    statements = [{"C1", "C2", "C3"}]
    related, unrelated = split_related(doc, statements, ANY, min_mutual=2)
    assert _texts(related) == ["s0."]
    assert _texts(unrelated) == ["s1."]


def test_split_related_no_statements():
    doc = _doc([{"C1"}])
    related, unrelated = split_related(doc, [], WHOLE, min_mutual=1)
    assert related == ()
    assert _texts(unrelated) == ["s0."]


def test_split_related_rejects_threshold_below_one():
    with pytest.raises(ValueError, match="min_mutual must be >= 1, got 0"):
        split_related(_doc([{"C1"}]), [{"C1"}], ANY, min_mutual=0)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_split_related_partition_and_monotonicity(data):
    pool = [f"C{i}" for i in range(6)]
    n_sent = data.draw(st.integers(1, 6))
    doc = _doc([data.draw(st.sets(st.sampled_from(pool), max_size=4))
                for _ in range(n_sent)])
    statements = [data.draw(st.sets(st.sampled_from(pool), max_size=4))
                  for _ in range(data.draw(st.integers(1, 3)))]
    k = data.draw(st.integers(1, 4))
    results = {}
    for mode in RelatednessMode:
        related, unrelated = split_related(
            doc, statements, mode, min_mutual=k)
        # exact order-preserving partition
        assert sorted(_texts(related) + _texts(unrelated)) == sorted(
            _texts(doc.sentences))
        assert _texts(related) + _texts(unrelated) != []  # doc is nonempty
        # raising the threshold never adds related sentences
        looser, _ = split_related(
            doc, statements, mode, min_mutual=max(1, k - 1))
        assert set(_texts(related)) <= set(_texts(looser))
        results[mode] = set(_texts(related))
    # per-statement overlap implies pooled overlap
    assert results[ANY] <= results[WHOLE]


def test_load_summary_statements(data_dir):
    stmts = load_summary_statements(data_dir / "toy_summary.jsonl")
    assert len(stmts) == 3
    assert frozenset({"C0024671", "C0036525", "C0034394"}) in stmts
    assert frozenset({"C0205082", "C0041618", "C0282416"}) in stmts
    filtered = load_summary_statements(
        data_dir / "toy_summary.jsonl", DEFAULT_SEMANTIC_TYPES)
    assert frozenset({"C0205082", "C0041618"}) in filtered  # gngm dropped


@pytest.mark.parametrize("line, message", [
    ('{"concepts": 5}', "'concepts' must be a list"),
    pytest.param('{"concepts": [], "n": ' + "1" * 5000 + "}", "malformed statement line",
                 marks=pytest.mark.skipif(
                     getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                     reason="this interpreter has no int-to-string digit limit")),
], ids=["concepts-int", "int-too-long"])
def test_load_summary_statements_rejects_malformed_lines(tmp_path, line, message):
    p = tmp_path / "summary.jsonl"
    p.write_text(json.dumps({"concepts": _CONCEPTS}) + "\n" + line + "\n")
    with pytest.raises(AnnotationMismatch, match=rf"summary\.jsonl:2: {message}"):
        load_summary_statements(p)


# -- keyword filter ------------------------------------------------------------

def test_filter_sentences_by_keyword(data_dir):
    corpus = load_corpus(data_dir / "toy_corpus")
    doc = corpus.document("AAFP")
    kept = filter_sentences_by_keyword(doc, "screening")
    assert all("screening" in s.text.lower() for s in kept.sentences)
    assert 0 < len(kept.sentences) <= len(doc.sentences)
    with pytest.raises(CorpusError):
        filter_sentences_by_keyword(doc, "zzznope")
