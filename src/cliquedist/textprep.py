"""Tokenization, concept merging, annotation ingestion, and the
related/unrelated sentence split.

All functions are pure over immutable inputs.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .core import Corpus, Document, Sentence, open_text
from .errors import AnnotationMismatch, CorpusError, MalformedTable

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SENT_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")

# Semantic-type codes kept by default: diagnosis/prevention-oriented
# categories (findings, diagnostic/therapeutic procedures, quantities,
# timings, geography, lab procedures). Everything else is dropped.
DEFAULT_SEMANTIC_TYPES = frozenset({
    "diap", "hlca", "dsyn", "neop", "qnco", "qlco",
    "tmco", "fndg", "geoa", "topp", "lbpr",
})


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; digit tokens kept."""
    return _TOKEN_RE.findall(text.lower())


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation followed by whitespace."""
    return [s.strip() for s in _SENT_SPLIT_RE.split(text) if s.strip()]


@dataclass(frozen=True)
class ConceptLexicon:
    """Maps 1- and 2-token tuples onto replacement concept tokens."""

    mapping: dict[tuple[str, ...], str]

    def __post_init__(self):
        for key, repl in self.mapping.items():
            if not 1 <= len(key) <= 2:
                raise ValueError(f"lexicon keys must be 1- or 2-grams, got {key!r}")
            if any(tok != tok.lower() or not tok for tok in key):
                raise ValueError(f"lexicon key {key!r} must be lowercase tokens")
            if not repl:
                raise ValueError(f"lexicon key {key!r} maps to empty replacement")


def load_concept_lexicon(path) -> ConceptLexicon:
    """Read a TSV lexicon: `token[ token]<TAB>replacement` per line."""
    mapping = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise MalformedTable(
                    f"{path}:{lineno}: expected `ngram<TAB>replacement`")
            key = tuple(parts[0].split())
            mapping[key] = parts[1].strip()
    try:
        return ConceptLexicon(mapping)
    except ValueError as exc:
        raise MalformedTable(f"{path}: {exc}") from exc


def merge_concepts(tokens, lexicon: ConceptLexicon) -> list[str]:
    """Greedy left-to-right replacement, longest match first, single pass."""
    mapping = lexicon.mapping
    out = []
    i = 0
    n = len(tokens)
    while i < n:
        if i + 1 < n and (tokens[i], tokens[i + 1]) in mapping:
            out.append(mapping[(tokens[i], tokens[i + 1])])
            i += 2
        elif (tokens[i],) in mapping:
            out.append(mapping[(tokens[i],)])
            i += 1
        else:
            out.append(tokens[i])
            i += 1
    return out


class RelatednessMode(Enum):
    AGAINST_WHOLE_SUMMARY = "whole-summary"
    AGAINST_ANY_STATEMENT = "any-statement"


# -- corpus construction ------------------------------------------------------


def document_from_text(doc_id: str, text: str, lexicon: ConceptLexicon | None = None
                       ) -> Document:
    sentences = []
    for sent in split_sentences(text):
        tokens = tokenize(sent)
        if lexicon is not None:
            tokens = merge_concepts(tokens, lexicon)
        sentences.append(Sentence(sent, tuple(tokens)))
    if not sentences:
        raise CorpusError(f"document {doc_id!r} has no sentences")
    return Document(doc_id, tuple(sentences))


def load_corpus(corpus_dir, lexicon: ConceptLexicon | None = None) -> Corpus:
    """Read every *.txt in the directory (sorted by name; stem = document id)."""
    paths = sorted(Path(corpus_dir).glob("*.txt"))
    if not paths:
        raise CorpusError(f"no *.txt documents in {corpus_dir}")
    docs = []
    for p in paths:
        with open_text(p) as fh:
            docs.append(document_from_text(p.stem, fh.read(), lexicon))
    return Corpus(tuple(docs))


def _parse_concepts(raw, where: str, semantic_types: frozenset[str] | None
                    ) -> list[str]:
    """The CUIs of the entries whose semantic type is allowed (all of them
    when semantic_types is None)."""
    if not isinstance(raw, list):
        raise AnnotationMismatch(f"{where}: 'concepts' must be a list, got {raw!r}")
    cuis = []
    for entry in raw:
        try:
            cui, semtype = str(entry["cui"]), str(entry.get("semtype", ""))
        except (TypeError, KeyError) as exc:
            raise AnnotationMismatch(f"{where}: bad concept entry {entry!r}") from exc
        if not cui:
            raise AnnotationMismatch(f"{where}: bad concept entry {entry!r}")
        if semantic_types is None or semtype in semantic_types:
            cuis.append(cui)
    return cuis


def load_concept_annotations(path, corpus: Corpus,
                             semantic_types: frozenset[str] | None = None) -> Corpus:
    """Attach per-sentence concept CUIs from a JSONL file.

    Each line is {"doc_id":…, "sent_index":…, "concepts":[{"cui":…, "semtype":…}]}.
    Concepts whose semantic type is not in semantic_types are dropped (None
    keeps all); concepts attach additively (union with anything already
    present).
    """
    extra: dict[str, dict[int, set[str]]] = {d.id: {} for d in corpus.documents}
    sentence_counts = {d.id: len(d.sentences) for d in corpus.documents}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
                doc_id, sent_index = rec["doc_id"], rec["sent_index"]
                concepts = rec["concepts"]
            except (KeyError, TypeError, ValueError) as exc:
                raise AnnotationMismatch(f"{where}: malformed annotation line") from exc
            if not isinstance(doc_id, str) or doc_id not in extra:
                raise AnnotationMismatch(f"{where}: unknown doc_id {doc_id!r}")
            if not isinstance(sent_index, int) or isinstance(sent_index, bool):
                raise AnnotationMismatch(
                    f"{where}: sent_index must be an integer, got {sent_index!r}")
            n_sent = sentence_counts[doc_id]
            if not 0 <= sent_index < n_sent:
                raise AnnotationMismatch(
                    f"{where}: sent_index {sent_index} out of range for "
                    f"{doc_id!r} ({n_sent} sentences)")
            cuis = _parse_concepts(concepts, where, semantic_types)
            extra[doc_id].setdefault(sent_index, set()).update(cuis)
    docs = []
    for doc in corpus.documents:
        sentences = []
        for i, s in enumerate(doc.sentences):
            added = extra[doc.id].get(i)
            if added:
                s = Sentence(s.text, s.tokens, s.concepts | frozenset(added))
            sentences.append(s)
        docs.append(Document(doc.id, tuple(sentences)))
    return Corpus(tuple(docs))


def load_summary_statements(path, semantic_types: frozenset[str] | None = None
                            ) -> list[frozenset[str]]:
    """Read summary statements (JSONL, {"concepts":[…]} per line) as CUI sets.

    The same semantic-type filter used for document sentences applies here.
    Statements whose concepts are all filtered away yield empty sets.
    """
    statements = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
                concepts = rec["concepts"]
            except (KeyError, TypeError, ValueError) as exc:
                raise AnnotationMismatch(f"{where}: malformed statement line") from exc
            cuis = _parse_concepts(concepts, where, semantic_types)
            statements.append(frozenset(cuis))
    return statements


def split_related(doc: Document, summary_statements, mode: RelatednessMode,
                  min_mutual: int = 1
                  ) -> tuple[tuple[Sentence, ...], tuple[Sentence, ...]]:
    """Partition sentences by concept overlap with summary statements.

    AGAINST_WHOLE_SUMMARY pools all statement concepts into one set;
    AGAINST_ANY_STATEMENT requires the overlap with a single statement.
    A sentence is related when at least min_mutual CUIs are shared.
    """
    if min_mutual < 1:
        raise ValueError(f"min_mutual must be >= 1, got {min_mutual}")
    statements = [frozenset(s) for s in summary_statements]
    union = frozenset().union(*statements) if statements else frozenset()

    def is_related(sent: Sentence) -> bool:
        if mode is RelatednessMode.AGAINST_WHOLE_SUMMARY:
            return len(sent.concepts & union) >= min_mutual
        return any(len(sent.concepts & s) >= min_mutual for s in statements)

    related, unrelated = [], []
    for sent in doc.sentences:
        (related if is_related(sent) else unrelated).append(sent)
    return tuple(related), tuple(unrelated)


def filter_sentences_by_keyword(doc: Document, phrase: str) -> Document:
    """Keep only sentences containing the phrase (case-insensitive substring)."""
    needle = phrase.lower()
    kept = tuple(s for s in doc.sentences if needle in s.text.lower())
    if not kept:
        raise CorpusError(
            f"keyword filter {phrase!r} removed every sentence of {doc.id!r}")
    return Document(doc.id, kept)
