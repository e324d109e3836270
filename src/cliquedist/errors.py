"""Exception taxonomy.

Three families, mirrored by the CLI exit codes: configuration problems
(exit 2), malformed or mismatched data (exit 3), and numeric failures
(exit 4). Every exception takes a single message argument so callers can
re-raise the same class with added context.
"""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class CliqueDistError(Exception):
    """Base class for all package errors."""


class ConfigError(CliqueDistError):
    """Invalid, missing, or contradictory configuration."""

    exit_code = EXIT_CONFIG


class DataError(CliqueDistError):
    """Malformed input data or mismatched identifiers."""

    exit_code = EXIT_DATA


class NumericError(CliqueDistError):
    """Numerically undefined or infeasible computation."""

    exit_code = EXIT_NUMERIC


# -- data family ------------------------------------------------------------

class DuplicateLabel(DataError):
    """The same label appears twice where uniqueness is required."""


class MalformedTable(DataError):
    """Feature-table CSV is structurally invalid (missing cells, no rows...)."""


class MalformedMatrix(DataError):
    """Distance-matrix CSV is structurally invalid or contains non-finite values."""


class MalformedEmbedding(DataError):
    """Embedding file violates the declared vector dimension."""


class AsymmetricMatrix(DataError):
    """Distance matrix asymmetric beyond tolerance."""


class NonzeroDiagonal(DataError):
    """Distance matrix has a nonzero self-distance."""


class NegativeDistance(DataError):
    """Distance matrix has a negative entry."""


class AnnotationMismatch(DataError):
    """Concept annotation points at an unknown document or sentence."""


class LabelMismatch(DataError):
    """Two matrices do not share the same label set."""


class CorpusError(DataError):
    """Corpus violates structural requirements (empty, too small, ...)."""


# -- numeric family ----------------------------------------------------------

class ZeroGraph(NumericError):
    """Matrix sums to zero; normalization undefined."""


class EmptyVectorError(NumericError):
    """Document has no in-vocabulary tokens; pooling undefined."""


class ZeroNorm(NumericError):
    """Zero-norm vector passed to cosine similarity."""


class DomainError(NumericError):
    """Similarity value outside the transform's domain."""


class InfeasibleMarginals(NumericError):
    """Transport marginals do not balance."""


class SolverError(NumericError):
    """The exact transport solver hit its pivot limit or broke a marginal."""
