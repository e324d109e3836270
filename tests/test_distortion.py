import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedist import (
    BaselineMode,
    DistortionReport,
    graph_distortion,
    load_distance_matrix,
    permutation_stats,
    permute_labels,
    random_baseline,
)
from cliquedist.distortion import MAX_ENUMERATED
from cliquedist.errors import (
    ConfigError,
    InvalidPermutation,
    LabelMismatch,
    MalformedMatrix,
    NumericError,
    ZeroGraph,
)
from conftest import make_matrix, random_symmetric


def edge_sum_distortion(m1, m2):
    """Reference for graph_distortion in the unordered-edge convention: each
    triangle is normalized by its edge total and |differences| are summed
    over edges only."""
    m2 = m2.aligned_to(m1.labels)
    iu = np.triu_indices(m1.n, k=1)
    e1, e2 = m1.values[iu], m2.values[iu]
    return float(np.abs(e1 / e1.sum() - e2 / e2.sum()).sum())


def tied_integer_symmetric(rng, n):
    """Symmetric clique of small integers: many equal cells, some zero."""
    upper = np.triu(rng.integers(0, 3, size=(n, n)).astype(float), k=1)
    upper[0, 1] += 1.0  # keep the total positive
    return make_matrix(upper + upper.T)

GOLDEN_DISTORTION = 0.313933661
GOLDEN_BASELINE_MEAN = 0.381378177
GOLDEN_BASELINE_STD = 0.009017982
GOLDEN_Z = 7.48


@pytest.fixture(scope="module")
def expert(data_dir):
    return load_distance_matrix(data_dir / "expert_distances.csv")


@pytest.fixture(scope="module")
def wmd_matrix(data_dir):
    return load_distance_matrix(data_dir / "wmd_distances.csv")


# -- graph_distortion ------------------------------------------------------------

def test_graph_distortion_golden(expert, wmd_matrix):
    assert graph_distortion(expert, wmd_matrix) == pytest.approx(
        GOLDEN_DISTORTION, abs=1e-6)


def test_graph_distortion_counts_match_published_rounding(data_dir, wmd_matrix):
    # the integer-count matrix and its 4-decimal normalized rendering give
    # the same distortion because normalization is scale-invariant
    counts = load_distance_matrix(data_dir / "expert_diff_counts.csv")
    expert = load_distance_matrix(data_dir / "expert_distances.csv")
    assert graph_distortion(counts, wmd_matrix) == pytest.approx(
        graph_distortion(expert, wmd_matrix), abs=1e-12)


def test_graph_distortion_self_is_zero(expert):
    assert graph_distortion(expert, expert) == 0.0


def test_graph_distortion_scale_invariant(expert):
    doubled = make_matrix(2.0 * expert.values, labels=expert.labels)
    assert graph_distortion(expert, doubled) == 0.0


def test_graph_distortion_aligns_labels(expert):
    shuffled = expert.aligned_to(tuple(reversed(expert.labels)))
    assert graph_distortion(expert, shuffled) == pytest.approx(0.0, abs=1e-15)


def test_graph_distortion_label_mismatch(expert):
    other = make_matrix([[0, 1], [1, 0]], labels=("X", "Y"))
    with pytest.raises(LabelMismatch):
        graph_distortion(expert, other)


def test_graph_distortion_needs_two_labels():
    m = make_matrix([[0.0]], labels=("X",))
    with pytest.raises(MalformedMatrix):
        graph_distortion(m, m)


def test_graph_distortion_zero_graph(expert):
    zero = make_matrix(np.zeros((7, 7)), labels=expert.labels)
    with pytest.raises(ZeroGraph):
        graph_distortion(expert, zero)


def test_graph_distortion_range():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        a = random_symmetric(rng, n)
        b = random_symmetric(rng, n)
        d = graph_distortion(a, b)
        assert 0.0 <= d <= 2.0


def test_edge_sum_convention_agrees_exactly_on_dyadic_fixtures():
    # each edge appears twice in the square sum and the normalizer doubles
    # with it, so the two conventions compute the same number; dyadic edge
    # totals (16, 32) make the agreement bit-for-bit
    a = make_matrix([[0, 2, 6], [2, 0, 8], [6, 8, 0]])
    b = make_matrix([[0, 16, 4], [16, 0, 12], [4, 12, 0]])
    assert graph_distortion(a, b) == edge_sum_distortion(a, b)


def test_edge_sum_convention_golden(expert, wmd_matrix):
    assert edge_sum_distortion(expert, wmd_matrix) == pytest.approx(
        GOLDEN_DISTORTION, abs=1e-6)
    assert edge_sum_distortion(expert, wmd_matrix) == pytest.approx(
        graph_distortion(expert, wmd_matrix), abs=1e-14)


# -- permute_labels ----------------------------------------------------------------

def test_permute_labels_identity(expert):
    same = permute_labels(expert, range(7))
    assert np.array_equal(same.values, expert.values)
    assert same.labels == expert.labels


def test_permute_labels_three_node_example():
    m = make_matrix([[0, 3, 1], [3, 0, 2], [1, 2, 0]])
    p = permute_labels(m, [2, 0, 1])
    # new (0,1) edge = old (perm[0], perm[1]) = old (2, 0) = 1
    assert p.values[0, 1] == 1.0
    assert p.values[0, 2] == 2.0
    assert p.values[1, 2] == 3.0


def test_permute_labels_involution():
    m = make_matrix([[0, 3, 1], [3, 0, 2], [1, 2, 0]])
    swap = [1, 0, 2]
    assert np.array_equal(
        permute_labels(permute_labels(m, swap), swap).values, m.values)


def test_permute_labels_rejects_non_permutation():
    m = make_matrix([[0, 1], [1, 0]])
    for bad in ([0, 0], [0], [0, 2], [1, 0, 1]):
        with pytest.raises(InvalidPermutation):
            permute_labels(m, bad)


def test_permute_labels_preserves_distortion_distribution(expert, wmd_matrix):
    rng = np.random.default_rng(5)
    perm = rng.permutation(7)
    relabeled = permute_labels(wmd_matrix, perm)
    direct = graph_distortion(expert, relabeled)
    # the same value appears in the enumerated distribution
    report = permutation_stats(expert, wmd_matrix, keep_distortions=True)
    assert np.isclose(report.distortions, direct, atol=1e-12).any()


# -- permutation_stats ---------------------------------------------------------------

def test_permutation_stats_golden(expert, wmd_matrix):
    report = permutation_stats(expert, wmd_matrix)
    assert report.mode is BaselineMode.EXACT_ENUMERATION
    assert report.permutation_count == math.factorial(7)
    assert report.distortion == pytest.approx(GOLDEN_DISTORTION, abs=1e-6)
    assert report.baseline_mean == pytest.approx(GOLDEN_BASELINE_MEAN, abs=1e-6)
    assert report.baseline_std == pytest.approx(GOLDEN_BASELINE_STD, abs=1e-6)
    assert report.z_score == pytest.approx(GOLDEN_Z, abs=0.02)
    assert report.sample_seed is None


def test_permutation_stats_identity_first(expert, wmd_matrix):
    rng = np.random.default_rng(11)
    cases = [(expert, wmd_matrix)]
    for n in range(2, 9):
        cases.append((random_symmetric(rng, n), random_symmetric(rng, n)))
        cases.append((tied_integer_symmetric(rng, n), tied_integer_symmetric(rng, n)))
    for a, b in cases:
        report = permutation_stats(a, b, keep_distortions=True)
        assert len(report.distortions) == math.factorial(a.n)
        # lexicographic enumeration starts at the identity permutation
        assert report.distortions[0] == report.distortion
        # the closed-form mean is the mean of the enumerated relabelings
        assert report.baseline_mean == pytest.approx(
            report.distortions.mean(), abs=1e-12)
        assert report.baseline_mean >= 0.0


def test_permutation_stats_self_comparison(expert):
    report = permutation_stats(expert, expert, keep_distortions=True)
    assert report.distortion == 0.0
    assert report.distortions.min() == 0.0
    assert report.baseline_mean > 0.0


def test_permutation_stats_monte_carlo_mode():
    rng = np.random.default_rng(21)
    a, b = random_symmetric(rng, 10), random_symmetric(rng, 10)
    r = permutation_stats(a, b, samples=2000, seed=3, keep_distortions=True)
    assert r.mode is BaselineMode.MONTE_CARLO
    assert r.permutation_count == 2000
    assert r.sample_seed == 3
    # the reported mean is the mean of the histogram it comes with
    assert r.baseline_mean == float(r.distortions.mean())
    again = permutation_stats(a, b, samples=2000, seed=3, keep_distortions=True)
    assert r.baseline_mean == again.baseline_mean  # bit-equal for the same seed
    other = permutation_stats(a, b, samples=2000, seed=4, keep_distortions=True)
    assert r.baseline_mean != other.baseline_mean
    # sampled mean lands near the exact mean, which needs no histogram
    exact = permutation_stats(a, b, samples=2000, seed=3)
    assert exact.mode is BaselineMode.EXACT_ENUMERATION
    assert exact.permutation_count == math.factorial(10)
    assert exact.sample_seed is None and exact.distortions is None
    se = r.distortions.std() / math.sqrt(2000)
    assert abs(r.baseline_mean - exact.baseline_mean) <= 4 * se


def test_permutation_stats_enumerates_histograms_up_to_nine_labels():
    rng = np.random.default_rng(22)
    a, b = random_symmetric(rng, 9), random_symmetric(rng, 9)
    report = permutation_stats(a, b, keep_distortions=True)
    assert report.mode is BaselineMode.EXACT_ENUMERATION
    assert len(report.distortions) == math.factorial(9) == MAX_ENUMERATED
    assert report.baseline_mean == pytest.approx(report.distortions.mean(), abs=1e-12)


@pytest.mark.parametrize("samples", [0, -1])
def test_permutation_stats_rejects_too_few_samples(expert, wmd_matrix, samples):
    with pytest.raises(ConfigError, match="samples must be >= 1"):
        permutation_stats(expert, wmd_matrix, samples=samples)


def test_permutation_stats_uniform_graph_unmoved_by_relabeling():
    # complete graph with all edges equal: every relabeling is identical,
    # so mean distortion and the z numerator are exactly 0 (the cell
    # dispersion itself stays positive because the diagonal is 0)
    ones = np.ones((3, 3)) - np.eye(3)
    a = make_matrix(ones)
    report = permutation_stats(a, make_matrix(ones))
    assert report.baseline_mean == 0.0
    assert report.baseline_std > 0.0
    assert report.z_score == 0.0


def test_report_serializes_none_z():
    report = DistortionReport(0.5, 0.5, 0.0, None, 6,
                              BaselineMode.EXACT_ENUMERATION)
    assert json.loads(report.to_json())["z_score"] is None


def test_report_json_round_trip(expert, wmd_matrix):
    report = permutation_stats(expert, wmd_matrix)
    payload = json.loads(report.to_json())
    assert set(payload) == {"distortion", "baseline_mean", "baseline_std",
                            "z_score", "permutation_count", "mode", "seed"}
    assert payload["mode"] == "exact_enumeration"
    assert payload["seed"] is None
    assert payload["permutation_count"] == 5040
    assert payload["distortion"] == report.distortion


def test_report_validation():
    with pytest.raises(NumericError, match="outside"):
        DistortionReport(3.0, 0.1, 0.1, None, 10, BaselineMode.EXACT_ENUMERATION)
    with pytest.raises(NumericError, match="baseline_std"):
        DistortionReport(0.5, 0.1, -0.1, None, 10, BaselineMode.EXACT_ENUMERATION)


# -- invariance properties -------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7))
def test_distortion_pseudometric_properties(seed, n):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n)
    b = random_symmetric(rng, n)
    c = random_symmetric(rng, n)
    dab = graph_distortion(a, b)
    dba = graph_distortion(b, a)
    assert dab == pytest.approx(dba, abs=1e-12)          # symmetry
    assert graph_distortion(a, a) == 0.0                 # identity
    dac = graph_distortion(a, c)
    dcb = graph_distortion(c, b)
    assert dab <= dac + dcb + 1e-12                      # triangle inequality


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7),
       scale=st.sampled_from([1e-6, 0.5, 3.0, 1e6]))
def test_distortion_scale_and_relabel_invariance(seed, n, scale):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n)
    b = random_symmetric(rng, n)
    base = graph_distortion(a, b)
    scaled = make_matrix(scale * b.values, labels=b.labels)
    assert graph_distortion(a, scaled) == pytest.approx(base, abs=1e-12)
    perm = rng.permutation(n)
    assert graph_distortion(
        permute_labels(a, perm), permute_labels(b, perm)) == pytest.approx(
            base, abs=1e-12)


# -- random baseline ---------------------------------------------------------------

def test_random_baseline_deterministic(expert):
    r1 = random_baseline(expert, 500, seed=0)
    r2 = random_baseline(expert, 500, seed=0)
    assert r1 == r2
    r3 = random_baseline(expert, 500, seed=1)
    assert r1 != r3


def test_random_baseline_two_labels_zero():
    # a 2-clique has a single edge; sum-normalization sends every positive
    # matrix to the same object, so distortion against any random draw is 0
    m = make_matrix([[0.0, 5.0], [5.0, 0.0]])
    mean, std = random_baseline(m, 200, seed=0)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert std == pytest.approx(0.0, abs=1e-12)


def test_random_baseline_rejects_bad_trials(expert):
    with pytest.raises(ConfigError):
        random_baseline(expert, 0, seed=0)
