"""Distortion between two labeled distance cliques, with permutation-based
significance statistics and a random-matrix baseline.

Distortion is the L1 distance between the sum-normalized edge structures of
two complete graphs over the same labels. Its significance is calibrated by
relabeling one graph under all node permutations (sampled for large histograms).
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import LabeledDistanceMatrix
from .errors import ConfigError, MalformedMatrix, NumericError
from .metrics import normalize_matrix

# Relabelings are evaluated in blocks of about this many conjugated cells.
_BLOCK_CELLS = 65536
# Largest relabeling histogram that is enumerated rather than sampled.
MAX_ENUMERATED = math.factorial(9)


def _normalized_pair(m1: LabeledDistanceMatrix, m2: LabeledDistanceMatrix):
    """Sum-normalized values of m1 and of m2 aligned to m1's label order."""
    if m1.n < 2:
        raise MalformedMatrix("distortion needs at least 2 labels")
    m2 = m2.aligned_to(m1.labels)
    return normalize_matrix(m1).values, normalize_matrix(m2).values


def graph_distortion(m1: LabeledDistanceMatrix, m2: LabeledDistanceMatrix) -> float:
    """Sum of |differences| between the two sum-normalized matrices.

    Equals twice the sum over unordered edges; always in [0, 2]. Labels are
    aligned by name first, so row order differences between inputs are
    irrelevant.
    """
    n1, n2 = _normalized_pair(m1, m2)
    return float(np.abs(n1 - n2).sum())


class BaselineMode(Enum):
    EXACT_ENUMERATION = "exact_enumeration"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class DistortionReport:
    distortion: float
    baseline_mean: float
    baseline_std: float
    z_score: float | None
    permutation_count: int
    mode: BaselineMode
    sample_seed: int | None = None
    distortions: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.distortion <= 2.0 + 1e-12:
            raise NumericError(f"distortion {self.distortion} outside [0, 2]")
        if self.baseline_std < 0:
            raise NumericError("baseline_std must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "distortion": self.distortion,
            "baseline_mean": self.baseline_mean,
            "baseline_std": self.baseline_std,
            "z_score": self.z_score,
            "permutation_count": self.permutation_count,
            "mode": self.mode.value,
            "seed": self.sample_seed,
        }

    def to_json(self) -> str:
        try:
            return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        except ValueError:  # n! is longer than sys.get_int_max_str_digits()
            n = next(k for k in itertools.count(2)
                     if math.factorial(k) >= self.permutation_count)
            raise NumericError(f"permutation_count {n}! has too many digits to "
                               "write as an integer") from None


def _relabeling_mean(n1: np.ndarray, n2: np.ndarray) -> float:
    """Exact mean of the distortion over all n! relabelings of n2.

    For i != j the pair (pi(i), pi(j)) is uniform over ordered distinct
    pairs, so by linearity of expectation the mean is
    sum_{i!=j} mean_{k!=l} |n1[i, j] - n2[k, l]|. The double sum of
    |x - y| is taken over the sorted union of both cell sets: each gap
    between neighbouring values is crossed by every (x, y) pair that it
    separates. All terms are nonnegative, so nothing cancels and the
    result is never below 0.
    """
    off = ~np.eye(len(n1), dtype=bool)
    x, y = n1[off], n2[off]
    cells = np.concatenate([x, y])
    order = np.argsort(cells, kind="stable")
    cx = np.cumsum(order < len(x))[:-1]  # x cells below each gap
    cy = np.arange(1, len(cells)) - cx   # y cells below each gap
    crossings = cx * (len(y) - cy) + (len(x) - cx) * cy
    return float(np.diff(cells[order]) @ crossings / len(y))


def _relabeled_distortions(n1: np.ndarray, n2: np.ndarray, perms) -> np.ndarray:
    """Distortion of n1 against n2 relabeled by each permutation in perms.

    Permutations are evaluated serially in blocks of about _BLOCK_CELLS
    conjugated cells, so a block's working set stays small at any n.
    """
    size = max(1, _BLOCK_CELLS // n1.size)
    values = []
    for block in iter(lambda: list(itertools.islice(perms, size)), []):
        p = np.array(block)
        conj = n2[p[:, :, None], p[:, None, :]]
        # in place: a block-sized temporary per step costs more than the math
        np.abs(np.subtract(n1, conj, out=conj), out=conj)
        values.append(conj.sum(axis=(1, 2)))
    return np.concatenate(values)


def permutation_stats(m1: LabeledDistanceMatrix, m2: LabeledDistanceMatrix,
                      samples: int = 10000, seed: int = 0,
                      keep_distortions: bool = False) -> DistortionReport:
    """Calibrate graph_distortion(m1, m2) against relabelings of m2.

    The baseline covers all n! permutations: baseline_mean is their exact
    mean, computed in closed form without enumerating them. Only
    keep_distortions enumerates them, in lexicographic order (identity
    first), up to MAX_ENUMERATED of them; above that it keeps `samples`
    seeded random ones, and baseline_mean is their sample mean (Monte Carlo
    mode). baseline_std is the population dispersion of the normalized
    comparison matrix's cells — a relabeling-invariant scale for how much
    edge structure m2 has to disagree by — and the z-score is
    (baseline_mean - distortion) / baseline_std, or None when that
    dispersion is zero.
    """
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    n1, n2 = _normalized_pair(m1, m2)
    n = m1.n
    distortion = float(np.abs(n1 - n2).sum())
    baseline_std = float(n2.std())

    values = None
    count = math.factorial(n)
    if keep_distortions and count > MAX_ENUMERATED:
        mode = BaselineMode.MONTE_CARLO
        count = samples
        sample_seed = seed
        rng = np.random.Generator(np.random.PCG64(seed))
        values = _relabeled_distortions(
            n1, n2, (rng.permutation(n) for _ in range(samples)))
        mean = float(values.mean())
    else:
        mode = BaselineMode.EXACT_ENUMERATION
        sample_seed = None
        if keep_distortions:
            values = _relabeled_distortions(n1, n2, itertools.permutations(range(n)))
        mean = _relabeling_mean(n1, n2)
    z_score = (mean - distortion) / baseline_std if baseline_std > 0 else None
    return DistortionReport(distortion, mean, baseline_std, z_score, count,
                            mode, sample_seed, values)


def random_baseline(reference: LabeledDistanceMatrix, trials: int, seed: int
                    ) -> tuple[float, float]:
    """Mean/std of distortion between the reference and random cliques.

    Each trial symmetrizes an iid uniform(0,1) matrix by averaging with its
    transpose and zeroes the diagonal. Both outputs are population statistics
    over the `trials` distortion values; fixed seeds give bit-identical
    results.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    n = reference.n
    if n < 2:
        raise MalformedMatrix("distortion needs at least 2 labels")
    ref = normalize_matrix(reference).values
    rng = np.random.Generator(np.random.PCG64(seed))
    diag = np.arange(n)
    chunks = []
    remaining = trials
    while remaining > 0:
        k = min(2048, remaining)
        draws = rng.random((k, n, n))
        sym = (draws + draws.transpose(0, 2, 1)) / 2.0
        sym[:, diag, diag] = 0.0
        totals = sym.sum(axis=(1, 2), keepdims=True)
        chunks.append(np.abs(ref - sym / totals).sum(axis=(1, 2)))
        remaining -= k
    values = np.concatenate(chunks)
    return float(values.mean()), float(values.std())
