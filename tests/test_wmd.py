import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedist import (
    Document,
    EmbeddingStore,
    NBow,
    Sentence,
    WmdConfig,
    ground_costs,
    nbow,
    rwmd_lower_bound,
    solve_ot,
    wmd,
)
from cliquedist.errors import EmptyVectorError, InfeasibleMarginals, SolverError
from ot_oracle import oracle_min_cost

# By import path: the package attribute `cliquedist.wmd` is the function.
WMD_MODULE = importlib.import_module("cliquedist.wmd")
SRC = Path(__file__).resolve().parents[1] / "src"

NO_STOP = WmdConfig(remove_stopwords=False)

VECTORS = {
    "alpha": np.array([1.0, 0.0, 0.0]),
    "beta": np.array([0.0, 1.0, 0.0]),
    "gamma": np.array([0.0, 0.0, 1.0]),
    "delta": np.array([1.0, 1.0, 0.0]),
}
STORE = EmbeddingStore(3, VECTORS)


def _doc(doc_id, *words):
    return Document(doc_id, (Sentence(" ".join(words) + ".", tuple(words)),))


def _nbow_from(weights, words=None):
    words = words or [f"w{i}" for i in range(len(weights))]
    return NBow(tuple(words), np.asarray(weights, dtype=float))


# -- nbow ------------------------------------------------------------------------

def test_nbow_counts_and_order():
    bag = nbow(_doc("d", "beta", "alpha", "beta"), STORE, NO_STOP)
    assert bag.support == ("beta", "alpha")  # first occurrence order
    assert np.allclose(bag.weights, [2 / 3, 1 / 3])
    assert bag.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_nbow_drops_oov():
    bag = nbow(_doc("d", "alpha", "unknown"), STORE, NO_STOP)
    assert bag.support == ("alpha",)
    assert bag.weights[0] == 1.0


def test_nbow_stopword_removal():
    doc = _doc("d", "the", "alpha")
    with_stop = nbow(doc, STORE, NO_STOP)
    without = nbow(doc, STORE, WmdConfig(remove_stopwords=True))
    assert with_stop.support == without.support == ("alpha",)  # "the" is OOV anyway
    custom = EmbeddingStore(3, {"the": np.zeros(3), "alpha": np.ones(3)})
    assert nbow(doc, custom, NO_STOP).support == ("the", "alpha")
    assert nbow(doc, custom, WmdConfig()).support == ("alpha",)


def test_nbow_empty_raises():
    with pytest.raises(EmptyVectorError):
        nbow(_doc("d", "unknown"), STORE, NO_STOP)
    with pytest.raises(EmptyVectorError):
        nbow(_doc("d", "the", "of"),
             EmbeddingStore(3, {"the": np.zeros(3), "of": np.ones(3)}),
             WmdConfig(remove_stopwords=True))


def test_nbow_validation():
    with pytest.raises(ValueError):
        NBow(("a", "a"), np.array([0.5, 0.5]))       # duplicate support
    with pytest.raises(ValueError):
        NBow(("a", "b"), np.array([0.5]))            # length mismatch
    with pytest.raises(ValueError):
        NBow(("a", "b"), np.array([1.5, -0.5]))      # negative weight
    with pytest.raises(ValueError):
        NBow(("a", "b"), np.array([0.5, 0.6]))       # does not sum to 1


# -- ground costs ------------------------------------------------------------------

def test_ground_costs_euclidean():
    a = nbow(_doc("a", "alpha", "beta"), STORE, NO_STOP)
    b = nbow(_doc("b", "alpha", "gamma"), STORE, NO_STOP)
    C = ground_costs(a, b, STORE, NO_STOP)
    assert C.shape == (2, 2)
    assert C[0, 0] == 0.0                                  # shared word
    assert C[0, 1] == pytest.approx(np.sqrt(2), abs=1e-15)  # orthonormal pair
    assert C[1, 0] == pytest.approx(np.sqrt(2), abs=1e-15)


def test_ground_costs_cosine():
    cfg = WmdConfig(remove_stopwords=False, ground_metric="cosine")
    a = nbow(_doc("a", "alpha"), STORE, cfg)
    b = nbow(_doc("b", "alpha", "beta", "delta"), STORE, cfg)
    C = ground_costs(a, b, STORE, cfg)
    assert C[0, 0] == 0.0
    assert C[0, 1] == pytest.approx(1.0, abs=1e-15)
    assert C[0, 2] == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-15)


def test_wmd_config_rejects_unknown_metric():
    with pytest.raises(ValueError):
        WmdConfig(ground_metric="manhattan")


# -- the OT solver -------------------------------------------------------------------

def test_solve_ot_identity_when_costs_vanish_on_diagonal():
    a = _nbow_from([0.3, 0.7])
    b = _nbow_from([0.3, 0.7])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan = solve_ot(a, b, C)
    assert plan.cost == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(plan.matrix, np.diag([0.3, 0.7]), atol=1e-15)


def test_solve_ot_point_mass():
    a = _nbow_from([1.0])
    b = _nbow_from([0.25, 0.75], ["x", "y"])
    C = np.array([[2.0, 4.0]])
    plan = solve_ot(a, b, C)
    assert np.allclose(plan.matrix, [[0.25, 0.75]])
    assert plan.cost == pytest.approx(0.25 * 2 + 0.75 * 4, abs=1e-15)


def test_solve_ot_forced_cross_shipment():
    # moving mass 0.5 at cost 1 each way, plus nothing on the diagonal
    a = _nbow_from([1.0, 0.0])
    b = _nbow_from([0.0, 1.0], ["x", "y"])
    C = np.array([[0.0, 2.0], [5.0, 0.0]])
    plan = solve_ot(a, b, C)
    assert plan.cost == pytest.approx(2.0, abs=1e-15)


def test_solve_ot_rejects_unbalanced_marginals():
    # NBow construction forbids weights away from sum 1, so imbalance is
    # forced past validation to prove the solver still rejects it.
    b = _nbow_from([0.25, 0.75], ["x", "y"])
    bad = NBow(("z",), np.array([1.0]))
    object.__setattr__(bad, "weights", np.array([0.9]))
    with pytest.raises(InfeasibleMarginals):
        solve_ot(bad, b, np.ones((1, 2)))


def test_solve_ot_shape_check():
    a = _nbow_from([0.5, 0.5])
    b = _nbow_from([1.0], ["x"])
    with pytest.raises(ValueError):
        solve_ot(a, b, np.ones((3, 3)))


def test_solve_ot_marginals_and_cost_consistent():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m, n = rng.integers(1, 6, size=2)
        wa = rng.random(m) + 0.01
        wb = rng.random(n) + 0.01
        a = _nbow_from(wa / wa.sum())
        b = _nbow_from(wb / wb.sum(), [f"x{i}" for i in range(n)])
        C = rng.random((m, n)) * rng.choice([0.1, 1.0, 10.0])
        plan = solve_ot(a, b, C)
        assert np.abs(plan.matrix.sum(axis=1) - a.weights).max() < 1e-9
        assert np.abs(plan.matrix.sum(axis=0) - b.weights).max() < 1e-9
        assert plan.cost == pytest.approx((plan.matrix * C).sum(), abs=1e-12)
        _assert_basic(plan)


def _assert_basic(plan):
    """A vertex of the transport polytope has at most m+n-1 positive cells."""
    m, n = plan.matrix.shape
    assert np.count_nonzero(plan.matrix > 0) <= m + n - 1


def _random_instances(rng, count, low, high):
    """(wa, wb, C) with positive weights and uniform random costs."""
    for _ in range(count):
        m, n = rng.integers(low, high, size=2)
        wa = rng.random(m) + 0.05
        wb = rng.random(n) + 0.05
        yield wa / wa.sum(), wb / wb.sum(), rng.random((m, n))


def _degenerate_instances(rng, count, low, high):
    """Instances whose pivots tie and go degenerate: uniform marginals on a
    square support, then small integer weights, both with costs in {0, 1, 2}."""
    for _ in range(count):
        m = int(rng.integers(low, high))
        w = np.full(m, 1.0 / m)
        yield w, w.copy(), rng.integers(0, 3, size=(m, m)).astype(float)
    for _ in range(count):
        m, n = rng.integers(low, high, size=2)
        wa = rng.integers(1, 4, size=m).astype(float)
        wb = rng.integers(1, 4, size=n).astype(float)
        yield (wa / wa.sum(), wb / wb.sum(),
               rng.integers(0, 3, size=(m, n)).astype(float))


def _solve(wa, wb, C):
    plan = solve_ot(_nbow_from(wa), _nbow_from(wb, [f"x{i}" for i in range(len(wb))]), C)
    _assert_basic(plan)
    return plan


def test_solve_ot_matches_enumeration_oracle():
    instances = [*_random_instances(np.random.default_rng(404), 50, 1, 5),
                 *_degenerate_instances(np.random.default_rng(406), 10, 1, 5)]
    worst = 0.0
    for wa, wb, C in instances:
        got = _solve(wa, wb, C).cost
        worst = max(worst, abs(got - oracle_min_cost(wa, wb, C)))
    assert worst < 1e-9


def test_solve_ot_matches_scipy_linprog():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(407)
    # One pair at the benchmark's scale: word-count weights over supports of
    # 60 and 140 words, Euclidean costs between 50-dimensional vectors.
    va, vb = rng.normal(size=(60, 50)), rng.normal(size=(140, 50))
    wa = rng.integers(1, 9, size=60).astype(float)
    wb = rng.integers(1, 9, size=140).astype(float)
    large = (wa / wa.sum(), wb / wb.sum(),
             np.sqrt(((va[:, None, :] - vb[None, :, :]) ** 2).sum(axis=2)))
    instances = [*_random_instances(np.random.default_rng(405), 25, 2, 6),
                 *_degenerate_instances(np.random.default_rng(408), 15, 2, 12),
                 large]
    for wa, wb, C in instances:
        m, n = C.shape
        rows = np.kron(np.eye(m), np.ones(n))
        cols = np.kron(np.ones(m), np.eye(n))
        res = linprog(C.ravel(), A_eq=np.vstack([rows, cols]),
                      b_eq=np.concatenate([wa, wb]), method="highs")
        assert res.success
        assert _solve(wa, wb, C).cost == pytest.approx(res.fun, abs=1e-9)


def test_solve_ot_pivot_limit_is_solver_error(monkeypatch):
    # The north-west corner start ships along the diagonal at cost 1; the
    # optimum needs one pivot and then one more optimality check.
    a = _nbow_from([0.5, 0.5])
    b = _nbow_from([0.5, 0.5], ["x", "y"])
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    monkeypatch.setattr(WMD_MODULE, "MAX_PIVOTS", 1)
    with pytest.raises(SolverError, match="pivots"):
        solve_ot(a, b, C)
    monkeypatch.setattr(WMD_MODULE, "MAX_PIVOTS", 2)
    assert solve_ot(a, b, C).cost == 0.0


def test_solving_wmd_imports_no_scipy():
    # scipy is a test-only dependency; importing it would add to the start-up
    # time and peak memory of every command-line run.
    code = (
        "import sys, numpy as np, cliquedist as cd\n"
        "store = cd.EmbeddingStore(2, {'alpha': np.array([1.0, 0.0]),"
        " 'beta': np.array([0.0, 1.0])})\n"
        "doc = lambda i, *w: cd.Document(i, (cd.Sentence(' '.join(w), w),))\n"
        "d = cd.wmd(doc('x', 'alpha', 'beta'), doc('y', 'beta'), store)\n"
        "assert abs(d - 0.5 * 2 ** 0.5) < 1e-12, d\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


# -- document-level WMD ----------------------------------------------------------------

def test_wmd_identical_documents_zero():
    d1 = _doc("a", "alpha", "beta")
    d2 = _doc("b", "alpha", "beta")
    assert wmd(d1, d2, STORE, NO_STOP) == pytest.approx(0.0, abs=1e-12)


def test_wmd_symmetry_and_triangle():
    docs = [_doc("a", "alpha", "beta"), _doc("b", "beta", "gamma"),
            _doc("c", "alpha", "delta", "gamma")]
    d = {(i, j): wmd(docs[i], docs[j], STORE, NO_STOP)
         for i in range(3) for j in range(3) if i != j}
    assert d[0, 1] == pytest.approx(d[1, 0], abs=1e-12)
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_wmd_single_word_reduces_to_ground_distance():
    assert wmd(_doc("a", "alpha"), _doc("b", "beta"), STORE, NO_STOP) == \
        pytest.approx(np.sqrt(2), abs=1e-12)


def test_rwmd_lower_bound_never_exceeds_wmd():
    rng = np.random.default_rng(42)
    words = list(VECTORS)
    for _ in range(30):
        w1 = [words[k] for k in rng.integers(0, len(words), size=rng.integers(1, 5))]
        w2 = [words[k] for k in rng.integers(0, len(words), size=rng.integers(1, 5))]
        d1, d2 = _doc("a", *w1), _doc("b", *w2)
        lower = rwmd_lower_bound(d1, d2, STORE, NO_STOP)
        full = wmd(d1, d2, STORE, NO_STOP)
        assert lower <= full + 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_solve_ot_value_invariant_under_support_permutation(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 5, size=2)
    wa = rng.random(m) + 0.05
    wb = rng.random(n) + 0.05
    wa, wb = wa / wa.sum(), wb / wb.sum()
    C = rng.random((m, n))
    a = _nbow_from(wa)
    b = _nbow_from(wb, [f"x{i}" for i in range(n)])
    base = solve_ot(a, b, C).cost
    pi = rng.permutation(m)
    sigma = rng.permutation(n)
    a2 = _nbow_from(wa[pi], [f"w{i}" for i in pi])
    b2 = _nbow_from(wb[sigma], [f"x{i}" for i in sigma])
    permuted = solve_ot(a2, b2, C[np.ix_(pi, sigma)]).cost
    assert permuted == pytest.approx(base, abs=1e-10)
