"""Exact Word Mover's Distance as a small optimal-transport problem.

The solver is a transportation network simplex (the algorithm behind POT's
`emd`, Bonneel et al. 2011) in pure Python and numpy: a north-west corner
start, a basis spanning tree that is kept across pivots and updated in
place, the most-negative entering cell chosen by one numpy `argmin` over the
reduced costs C - u - v, a first-negative fallback against degenerate
cycling, and a pivot limit. Each pivot re-hangs only the subtree cut off by
the leaving cell and recomputes dual potentials only inside it. Plans are
basic (at most m+n-1 positive cells) and exact within float tolerance; the
test suite checks them against brute-force enumeration of basic solutions
and against the HiGHS LP solver.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import Document, EmbeddingStore, per_document
from .errors import EmptyVectorError, InfeasibleMarginals, SolverError, ZeroNorm

DEFAULT_STOPWORDS = frozenset("""
a about above after again against all am an and any are as at be because been
before being below between both but by can could did do does doing down during
each few for from further had has have having he her here hers herself him
himself his how i if in into is it its itself just me more most my myself no
nor not now of off on once only or other our ours ourselves out over own same
she should so some such than that the their theirs them themselves then there
these they this those through to too under until up very was we were what when
where which while who whom why will with would you your yours yourself
yourselves
""".split())

MARGINAL_TOL = 1e-9
MAX_PIVOTS = 200_000
GROUND_METRICS = ("euclidean", "cosine")


@dataclass(frozen=True)
class NBow:
    """Normalized bag of words: unique support with probability weights."""

    support: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        weights = np.array(self.weights, dtype=float)
        if len(set(support)) != len(support):
            raise ValueError("support words must be unique")
        if weights.shape != (len(support),):
            raise ValueError("weights length must match support length")
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        weights.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class TransportPlan:
    matrix: np.ndarray
    cost: float

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        if (matrix < -MARGINAL_TOL).any():
            raise ValueError("transport plan has negative mass")
        matrix[matrix < 0] = 0.0
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "cost", float(self.cost))


def nbow(doc: Document, store: EmbeddingStore, remove_stopwords: bool = True) -> NBow:
    """Occurrence-normalized bag of in-vocabulary words.

    DEFAULT_STOPWORDS (if remove_stopwords) and out-of-vocabulary tokens are
    dropped before counting; support order is first occurrence.
    """
    tokens = doc.tokens()
    if remove_stopwords:
        tokens = [t for t in tokens if t not in DEFAULT_STOPWORDS]
    tokens = [t for t in tokens if t in store]
    if not tokens:
        raise EmptyVectorError(f"document {doc.id!r} has no in-vocabulary tokens")
    counts = Counter(tokens)
    support = tuple(counts)  # Counter preserves first-occurrence order
    weights = np.array([counts[w] for w in support], dtype=float)
    return NBow(support, weights / weights.sum())


def ground_costs(va: np.ndarray, vb: np.ndarray, ground_metric: str = "euclidean"
                 ) -> np.ndarray:
    """Pairwise transport costs between two support embedding blocks, one
    row per support word in support order, under one of GROUND_METRICS."""
    if ground_metric == "euclidean":
        diff = va[:, None, :] - vb[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))
    if ground_metric != "cosine":
        raise ValueError(f"unknown ground metric {ground_metric!r}")
    norms_a = np.linalg.norm(va, axis=1)
    norms_b = np.linalg.norm(vb, axis=1)
    if (norms_a == 0).any() or (norms_b == 0).any():
        raise ZeroNorm("cosine ground metric undefined for zero-norm embedding")
    cos = (va @ vb.T) / np.outer(norms_a, norms_b)
    return np.maximum(1.0 - cos, 0.0)


def _network_simplex(a, b, C):
    """Optimal basic transport plan for weights a, b and costs C.

    Rows are tree nodes 0..m-1 and columns m..m+n-1. The basis is a spanning
    tree rooted at row 0, kept across pivots as parent, depth and adjacency
    lists; flow[x] is the mass on the cell joining node x to its parent and
    pot[x] its dual potential (u for rows, v for columns). A pivot walks the
    entering cell's endpoints up to their common ancestor to find the cycle,
    re-hangs only the subtree cut off by the leaving cell, and recomputes
    potentials only inside it. Every potential is its cell's cost minus the
    parent's potential, so it equals what solving u_i + v_j = C_ij over the
    whole tree from the root would give.
    """
    m, n = C.shape
    cost = C.tolist()
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    flow = [0.0] * (m + n)
    pot = [0.0] * (m + n)
    adj = [[] for _ in range(m + n)]

    def cell(x):
        """(row, column) of the cell joining node x to its parent."""
        return (x, parent[x] - m) if x < m else (parent[x], x - m)

    def hang(x, above):
        parent[x] = above
        depth[x] = depth[above] + 1
        i, j = cell(x)
        pot[x] = cost[i][j] - pot[above]

    def link(x, above, mass):
        hang(x, above)
        flow[x] = mass
        adj[x].append(above)
        adj[above].append(x)

    # North-west corner start: a staircase of m+n-1 cells, each adding one
    # new row or column to the tree.
    ra, rb = list(a), list(b)
    i = j = 0
    t = min(ra[0], rb[0])
    link(m, 0, t)
    while True:
        ra[i] -= t
        rb[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if j == n - 1 or (i < m - 1 and ra[i] <= rb[j]):
            i += 1
            t = min(ra[i], rb[j])
            link(i, m + j, t)
        else:
            j += 1
            t = min(ra[i], rb[j])
            link(m + j, i, t)

    tol = 1e-11 * max(1.0, float(np.abs(C).max()))
    bland_after = max(200, 20 * m * n)
    red = np.empty((m, n))
    for pivot in range(MAX_PIVOTS):
        np.subtract(C, np.array(pot[:m])[:, None], out=red)
        red -= np.array(pot[m:])
        if pivot < bland_after:
            k = int(red.argmin())
        else:
            k = int((red < -tol).argmax())
        if red.flat[k] >= -tol:
            break
        ei, ej = divmod(k, n)
        # The cycle is the entering cell plus the tree path between its
        # endpoints. Going up from either endpoint its cells alternate
        # -theta, +theta, so the cells of columns on the column side and of
        # rows on the row side give up mass.
        x, y = m + ej, ei
        col_side, row_side = [], []
        while depth[x] > depth[y]:
            col_side.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            row_side.append(y)
            y = parent[y]
        while x != y:
            col_side.append(x)
            x = parent[x]
            row_side.append(y)
            y = parent[y]
        minus = [x for x in col_side if x >= m] + [y for y in row_side if y < m]
        theta = min(flow[x] for x in minus)
        leave = min((x for x in minus if flow[x] == theta), key=cell)
        for x in col_side:
            flow[x] = flow[x] - theta if x >= m else flow[x] + theta
        for y in row_side:
            flow[y] = flow[y] - theta if y < m else flow[y] + theta
        # Cut the leaving cell. The entering endpoint below it becomes the
        # root of the cut-off subtree, which is hung from the other endpoint.
        if leave in col_side:
            inner, outer, side = m + ej, ei, col_side
        else:
            inner, outer, side = ei, m + ej, row_side
        adj[leave].remove(parent[leave])
        adj[parent[leave]].remove(leave)
        # Reverse the parent links from `leave` down to `inner`; each cell's
        # flow moves with it to its new lower endpoint.
        chain = side[:side.index(leave) + 1]
        for s in range(len(chain) - 1, 0, -1):
            parent[chain[s]] = chain[s - 1]
            flow[chain[s]] = flow[chain[s - 1]]
        flow[inner] = theta
        adj[inner].append(outer)
        adj[outer].append(inner)
        hang(inner, outer)
        # Depths and potentials below `inner`, parents first. Inlined: this
        # loop is most of the solve time.
        stack = [inner]
        while stack:
            above = stack.pop()
            up, d, p = parent[above], depth[above] + 1, pot[above]
            row = cost[above] if above < m else None
            j = above - m
            for x in adj[above]:
                if x != up:
                    depth[x] = d
                    pot[x] = (cost[x][j] if row is None else row[x - m]) - p
                    stack.append(x)
    else:
        raise SolverError(f"transport simplex exceeded {MAX_PIVOTS} pivots")
    X = np.zeros((m, n))
    for x in range(1, m + n):
        X[cell(x)] = flow[x]
    return X


def solve_ot(a: NBow, b: NBow, costs) -> TransportPlan:
    """Minimize sum(T*costs) over transport plans between the two weights."""
    costs = np.asarray(costs, dtype=float)
    m, n = len(a.support), len(b.support)
    if costs.shape != (m, n):
        raise ValueError(f"cost matrix shape {costs.shape}, expected {(m, n)}")
    if abs(a.weights.sum() - b.weights.sum()) > MARGINAL_TOL:
        raise InfeasibleMarginals(
            f"marginal sums differ: {a.weights.sum()!r} vs {b.weights.sum()!r}")
    X = _network_simplex(a.weights.tolist(), b.weights.tolist(), costs)
    resid = max(np.abs(X.sum(axis=1) - a.weights).max(),
                np.abs(X.sum(axis=0) - b.weights).max())
    if resid > MARGINAL_TOL:
        raise SolverError(f"solver violated marginals by {resid:.3g}")
    return TransportPlan(X, float((X * costs).sum()))


def wmd(doc_a: Document, doc_b: Document, store: EmbeddingStore,
        remove_stopwords: bool = True, ground_metric: str = "euclidean") -> float:
    """Exact Word Mover's Distance between two documents."""
    na = nbow(doc_a, store, remove_stopwords)
    nb = nbow(doc_b, store, remove_stopwords)
    costs = ground_costs(store.rows(na.support), store.rows(nb.support), ground_metric)
    return solve_ot(na, nb, costs).cost


def wmd_model(store: EmbeddingStore, remove_stopwords: bool = True,
              ground_metric: str = "euclidean"):
    """Document-distance function for pairwise_distances.

    Each document's nBOW and embedding block are built once, on its first
    pair; the ground costs and the transport problem are solved per pair.
    """

    def bag(doc):
        bow = nbow(doc, store, remove_stopwords)
        return bow, store.rows(bow.support)

    bags = per_document(bag)

    def model(a: Document, b: Document) -> float:
        (na, va), (nb, vb) = bags(a), bags(b)
        return solve_ot(na, nb, ground_costs(va, vb, ground_metric)).cost

    return model
