"""Shared domain types, validation, and file ingestion.

All types are immutable after construction. Distance matrices are stored
as full square arrays (both triangles); the unordered-edge view is always
derived, never stored.
"""
from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AsymmetricMatrix,
    CorpusError,
    DataError,
    DuplicateLabel,
    LabelMismatch,
    MalformedEmbedding,
    MalformedMatrix,
    MalformedTable,
    NegativeDistance,
    NonzeroDiagonal,
)

SYMMETRY_TOL = 1e-12
FLOAT_FMT = "%.17g"  # round-trips float64 exactly


def _check_unique(labels, what="label"):
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel(f"duplicate {what}: {lab!r}")
        seen.add(lab)


@dataclass(frozen=True)
class LabeledDistanceMatrix:
    """Symmetric nonnegative distances over a fixed ordered label set."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        _check_unique(labels)
        if not labels:
            raise MalformedMatrix("matrix needs at least one label")
        values = np.array(self.values, dtype=float)
        n = len(labels)
        if values.shape != (n, n):
            raise MalformedMatrix(
                f"expected {n}x{n} values for {n} labels, got {values.shape}")
        if not np.isfinite(values).all():
            raise MalformedMatrix("matrix contains NaN or infinite entries")
        if (values < 0).any():
            i, j = np.argwhere(values < 0)[0]
            raise NegativeDistance(
                f"negative distance at ({labels[i]}, {labels[j]}): {values[i, j]}")
        if (np.diag(values) != 0).any():
            i = int(np.argwhere(np.diag(values) != 0)[0, 0])
            raise NonzeroDiagonal(f"nonzero self-distance for {labels[i]}")
        asym = np.abs(values - values.T)
        if asym.max() > SYMMETRY_TOL:
            i, j = np.unravel_index(int(asym.argmax()), asym.shape)
            raise AsymmetricMatrix(
                f"asymmetry {asym[i, j]:.3g} at ({labels[i]}, {labels[j]}) "
                f"exceeds {SYMMETRY_TOL}")
        values.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def aligned_to(self, labels) -> "LabeledDistanceMatrix":
        """Reorder rows/columns to match another label ordering by name."""
        labels = tuple(labels)
        if set(labels) != set(self.labels) or len(labels) != self.n:
            raise LabelMismatch(
                f"label sets differ: {sorted(self.labels)} vs {sorted(labels)}")
        idx = np.array([self.labels.index(lab) for lab in labels])
        return LabeledDistanceMatrix(labels, self.values[np.ix_(idx, idx)])


@dataclass(frozen=True)
class FeatureTable:
    """Per-label categorical feature assignments; tokens are opaque strings."""

    labels: tuple[str, ...]
    feature_names: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]  # rows[i][k] = token of labels[i], feature k

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        _check_unique(self.labels)
        _check_unique(self.feature_names, "feature name")
        if not self.labels or not self.feature_names:
            raise MalformedTable("feature table needs at least one row and one feature")
        k = len(self.feature_names)
        for lab, row in zip(self.labels, self.rows):
            if len(row) != k:
                raise MalformedTable(f"row {lab!r} has {len(row)} cells, expected {k}")
            if any(tok == "" for tok in row):
                raise MalformedTable(f"row {lab!r} has an empty cell")
        if len(self.rows) != len(self.labels):
            raise MalformedTable("row count does not match label count")

    def cell(self, label: str, feature: str) -> str:
        return self.rows[self.labels.index(label)][self.feature_names.index(feature)]


@dataclass(frozen=True)
class ConceptTag:
    """A concept identifier with its semantic-type code."""

    cui: str
    semtype: str

    def __post_init__(self):
        if not self.cui:
            raise ValueError("cui must be nonempty")


@dataclass(frozen=True)
class Sentence:
    text: str
    tokens: tuple[str, ...]
    concepts: frozenset[ConceptTag] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "concepts", frozenset(self.concepts))

    def cuis(self) -> frozenset[str]:
        return frozenset(t.cui for t in self.concepts)


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        if not self.id:
            raise CorpusError("document id must be nonempty")
        if not self.sentences:
            raise CorpusError(f"document {self.id!r} has no sentences")

    def tokens(self) -> list[str]:
        out = []
        for s in self.sentences:
            out.extend(s.tokens)
        return out


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]

    def __post_init__(self):
        object.__setattr__(self, "documents", tuple(self.documents))
        _check_unique((d.id for d in self.documents), "document id")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.documents)

    def document(self, doc_id: str) -> Document:
        for d in self.documents:
            if d.id == doc_id:
                return d
        raise KeyError(doc_id)


def per_document(fn):
    """fn(doc), computed once per Document object and reused after that.

    Pairwise models use it to build each document's representation once
    rather than once per pair. Failures are not cached.
    """
    done = {}

    def cached(doc):
        key = id(doc)
        if key not in done:
            done[key] = (doc, fn(doc))  # holding doc keeps its id unique
        return done[key][1]

    return cached


class EmbeddingStore:
    """word -> dense vector mapping with a fixed dimension.

    The vectors are the rows of one read-only (V, dimension) float64 matrix,
    found through a word -> row index; `vector` and `get` return read-only
    views of those rows.
    """

    def __init__(self, dimension: int, vectors: dict[str, np.ndarray]):
        if dimension < 1:
            raise MalformedEmbedding(f"dimension must be positive, got {dimension}")
        rows = []
        for word, vec in vectors.items():
            v = np.asarray(vec, dtype=float)
            if v.shape != (dimension,):
                raise MalformedEmbedding(
                    f"vector for {word!r} has length {v.shape}, expected {dimension}")
            if not np.isfinite(v).all():
                raise MalformedEmbedding(f"vector for {word!r} is not finite")
            rows.append(v)
        self._attach(list(vectors), np.array(rows).reshape(len(rows), int(dimension)))

    @classmethod
    def _from_rows(cls, words: list[str], rows: np.ndarray) -> "EmbeddingStore":
        """Store over finite float64 rows that the caller has checked."""
        store = cls.__new__(cls)
        store._attach(words, rows)
        return store

    def _attach(self, words, rows):
        # words[i] names rows[i]; a repeated word keeps its last row.
        rows.setflags(write=False)
        self.dimension = rows.shape[1]
        self._rows = rows
        self._index = {word: i for i, word in enumerate(words)}

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __len__(self) -> int:
        return len(self._index)

    def vector(self, word: str) -> np.ndarray:
        return self._rows[self._index[word]]

    def get(self, word: str):
        i = self._index.get(word)
        return None if i is None else self._rows[i]

    def rows(self, words) -> np.ndarray:
        """(len(words), dimension) block of the words' vectors, in order."""
        return self._rows[[self._index[w] for w in words]]


# -- file ingestion -----------------------------------------------------------


@contextmanager
def open_text(path, **kwargs):
    """open(path) for reading UTF-8 text; bytes that are not UTF-8 raise
    DataError naming the path, which UnicodeDecodeError does not."""
    with open(path, encoding="utf-8", **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None


def load_feature_table(path) -> FeatureTable:
    """Read a `label,<f1>,...,<fK>` CSV into a FeatureTable (file order kept)."""
    with open_text(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise MalformedTable(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2:
        raise MalformedTable(f"{path}: header has no feature columns")
    features = tuple(header[1:])
    labels, cells = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        row = [c.strip() for c in row]
        if len(row) != len(header):
            raise MalformedTable(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        labels.append(row[0])
        cells.append(tuple(row[1:]))
    if not labels:
        raise MalformedTable(f"{path}: no data rows")
    return FeatureTable(tuple(labels), features, tuple(cells))


def load_embeddings(path) -> EmbeddingStore:
    """Read a word2vec-text file: header `<count> <dim>`, then one word per line.

    The vector body is parsed in one pass by numpy's C reader into a single
    (V, dim+1) float64 array whose first column stands in for the words;
    the words are collected by that column's converter, so they line up with
    the rows. Blank lines are skipped, and a repeated word keeps its last
    line. A count that disagrees with the number of distinct words is
    tolerated with a warning. A line with too few or too many components, a
    component that does not parse as a decimal float, or a non-finite one
    is an error; its message names `path:lineno` and the word, found by
    rescanning the file.
    """
    words = []

    def keep_word(word):
        words.append(word)
        return 0.0

    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise MalformedEmbedding(f"{path}: malformed header {header!r}")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise MalformedEmbedding(f"{path}: malformed header {header!r}") from None
        if dim < 1:
            raise MalformedEmbedding(f"{path}: dimension must be positive, got {dim}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                body = np.loadtxt(fh, converters={0: keep_word}, comments=None,
                                  ndmin=2, encoding="utf-8")
        except ValueError as exc:
            raise MalformedEmbedding(_first_bad_line(path, dim, str(exc))) from None
    if not words:
        body = np.empty((0, dim + 1))
    if body.shape[1] != dim + 1 or not np.isfinite(body).all():
        raise MalformedEmbedding(
            _first_bad_line(path, dim, f"expected {dim} finite components per line"))
    store = EmbeddingStore._from_rows(words, body[:, 1:])
    if len(store) != count:
        warnings.warn(
            f"{path}: header declares {count} vectors, file has {len(store)}",
            stacklevel=2)
    return store


def _first_bad_line(path, dim, detail):
    """Message for the first vector line with a wrong component count, a
    component float() rejects, or a non-finite component.

    If no line fails these checks (numpy's parser is stricter than float(),
    e.g. about `1_000`), the message is `detail`, the reader's own complaint.
    """
    with open_text(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            word, comps = parts[0], parts[1:]
            if len(comps) != dim:
                return (f"{path}:{lineno}: {word!r} has {len(comps)} components, "
                        f"expected {dim}")
            try:
                values = [float(c) for c in comps]
            except ValueError:
                return f"{path}:{lineno}: non-numeric component for {word!r}"
            if not all(map(math.isfinite, values)):
                return f"{path}:{lineno}: non-finite component for {word!r}"
    return f"{path}: {detail}"


def load_distance_matrix(path) -> LabeledDistanceMatrix:
    """Read a distance-matrix CSV: header row of labels, square numeric body.

    Body rows may carry the row label as a leading field (the layout this
    package writes) or consist of bare values.
    """
    with open_text(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise MalformedMatrix(f"{path}: empty file")
    labels = tuple(c.strip() for c in rows[0])
    n = len(labels)
    body = rows[1:]
    if len(body) != n:
        raise MalformedMatrix(f"{path}: expected {n} data rows, got {len(body)}")
    values = np.empty((n, n))
    for i, row in enumerate(body):
        row = [c.strip() for c in row]
        if len(row) == n + 1:
            if row[0] != labels[i]:
                raise MalformedMatrix(
                    f"{path}: row {i + 1} labeled {row[0]!r}, expected {labels[i]!r}")
            row = row[1:]
        if len(row) != n:
            raise MalformedMatrix(
                f"{path}: row {i + 1} has {len(row)} values, expected {n}")
        try:
            values[i] = [float(c) for c in row]
        except ValueError:
            raise MalformedMatrix(f"{path}: non-numeric value in row {i + 1}") from None
    return LabeledDistanceMatrix(labels, values)


def save_distance_matrix(m: LabeledDistanceMatrix, path) -> None:
    """Write the CSV layout read back by load_distance_matrix, bit-exactly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(m.labels)
        for lab, row in zip(m.labels, m.values):
            w.writerow([lab] + [FLOAT_FMT % x for x in row])
