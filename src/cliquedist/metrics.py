"""Document-distance models: feature-table difference counts and cosine
distance over mean-pooled embeddings, assembled into labeled matrices.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .core import (
    Corpus,
    Document,
    EmbeddingStore,
    FeatureTable,
    LabeledDistanceMatrix,
    per_document,
)
from .errors import (
    CliqueDistError,
    CorpusError,
    DomainError,
    EmptyVectorError,
    ZeroGraph,
    ZeroNorm,
)


class SimilarityTransform(Enum):
    ONE_MINUS_SIM = "one-minus-sim"
    RECIPROCAL_MINUS_ONE = "reciprocal-minus-one"


def feature_difference_counts(table: FeatureTable) -> LabeledDistanceMatrix:
    """Entry (i, j) = number of features on which rows i and j disagree."""
    rows = np.array(table.rows, dtype=object)
    counts = (rows[:, None, :] != rows[None, :, :]).sum(axis=2)
    return LabeledDistanceMatrix(table.labels, counts.astype(float))


def normalize_matrix(m: LabeledDistanceMatrix) -> LabeledDistanceMatrix:
    """Divide every entry by the sum over the full square matrix.

    The result's entries sum to 1, so any positive rescaling of the input
    yields the same output.
    """
    total = float(m.values.sum())
    if total <= 0:
        raise ZeroGraph("matrix sums to zero; cannot normalize")
    return LabeledDistanceMatrix(m.labels, m.values / total)


def document_vector(doc: Document, store: EmbeddingStore,
                    unique_tokens: bool = False) -> np.ndarray:
    """Mean of the embeddings of all in-vocabulary token occurrences.

    With unique_tokens=True each distinct in-vocabulary word contributes
    once, regardless of its frequency.
    """
    tokens = doc.tokens()
    if unique_tokens:
        tokens = sorted(set(tokens))
    known = [t for t in tokens if t in store]
    if not known:
        raise EmptyVectorError(f"document {doc.id!r} has no in-vocabulary tokens")
    return np.mean(store.rows(known), axis=0)


def cosine_similarity(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ZeroNorm("cosine similarity undefined for zero-norm vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def sim_to_distance(sim: float, transform: SimilarityTransform) -> float:
    """Map a similarity in (0, 1] (or [0, 1] for ONE_MINUS_SIM) to a distance."""
    if transform is SimilarityTransform.ONE_MINUS_SIM:
        if not 0.0 <= sim <= 1.0:
            raise DomainError(f"similarity {sim} outside [0, 1]")
        return 1.0 - sim
    if not 0.0 < sim <= 1.0:
        raise DomainError(f"similarity {sim} outside (0, 1]")
    return 1.0 / sim - 1.0


def cosine_model(store: EmbeddingStore,
                 transform: SimilarityTransform = SimilarityTransform.ONE_MINUS_SIM,
                 unique_tokens: bool = False):
    """Document-distance function: transformed cosine of pooled vectors.

    Each document is pooled once, on its first pair; the cosine and the
    transform are evaluated per pair.
    """
    pooled = per_document(lambda doc: document_vector(doc, store, unique_tokens))

    def model(a: Document, b: Document) -> float:
        sim = cosine_similarity(pooled(a), pooled(b))
        return sim_to_distance(sim, transform)

    return model


def pairwise_distances(corpus: Corpus, model) -> LabeledDistanceMatrix:
    """Evaluate the model once per unordered document pair and mirror it.

    Self-distances are 0 by definition, never computed. Model errors are
    re-raised as the same class with the offending pair prepended.
    """
    docs = corpus.documents
    n = len(docs)
    if n < 2:
        raise CorpusError(f"need at least 2 documents, got {n}")
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            try:
                d = float(model(docs[i], docs[j]))
            except CliqueDistError as exc:
                raise type(exc)(f"pair ({docs[i].id}, {docs[j].id}): {exc}") from exc
            values[i, j] = values[j, i] = d
    return LabeledDistanceMatrix(corpus.ids, values)
