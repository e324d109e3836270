"""Independent checks of the program's output files.

Each check returns a list of error strings (empty when the output is right).
The references are computed here from the generated data with numpy and
scipy, not with the package under test.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from gen import VECTOR_SCALE

# Published numbers for the bundled expert vs WMD matrices.
HEADLINE = {"distortion": (0.313933661, 1e-6), "baseline_mean": (0.381378177, 1e-6),
            "baseline_std": (0.009017982, 1e-9), "z_score": (7.48, 0.02)}
EXACT_TOL = 1e-12     # distortion, dispersion and exact baseline mean
DISTANCE_RTOL = 1e-9  # document distances against the LP / pooling oracles
MC_SIGMAS = 4.0       # Monte Carlo mean vs the closed form, in standard errors


def read_matrix(path):
    """(labels, values) from a distance CSV with a label header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    labels = rows[0]
    values = np.array([[float(c) for c in r[-len(labels):]] for r in rows[1:]])
    return labels, values


def _aligned(path, labels):
    own, values = read_matrix(path)
    idx = [own.index(lab) for lab in labels]
    return values[np.ix_(idx, idx)]


def closed_form_mean(n1: np.ndarray, n2: np.ndarray) -> float:
    """Mean distortion over all relabelings of n2:
    sum over i != j of the mean over k != l of |n1[i, j] - n2[k, l]|."""
    off = ~np.eye(len(n1), dtype=bool)
    x, y = n1[off], np.sort(n2[off])
    below = np.searchsorted(y, x)
    prefix = np.concatenate([[0.0], np.cumsum(y)])
    total = (x * below - prefix[below]) + (prefix[-1] - prefix[below] - x * (len(y) - below))
    return float(total.sum() / len(y))


def _close(got, want, tol, rel=False):
    scale = max(abs(want), 1e-300) if rel else 1.0
    return got is not None and abs(got - want) <= tol * scale


def check_headline(report_path) -> list[str]:
    report = json.loads(Path(report_path).read_text())
    return [f"headline {key} = {report.get(key)}, expected {want} +- {tol}"
            for key, (want, tol) in HEADLINE.items()
            if not _close(report.get(key), want, tol)]


def check_report(report_path, reference_path, comparison_path, histogram_path=None
                 ) -> list[str]:
    """report.json of `permtest reference comparison` against numpy."""
    report = json.loads(Path(report_path).read_text())
    labels, ref = read_matrix(reference_path)
    cmp_ = _aligned(comparison_path, labels)
    n1, n2 = ref / ref.sum(), cmp_ / cmp_.sum()
    n = len(labels)
    errors = []
    distortion = float(np.abs(n1 - n2).sum())
    dispersion = float(n2.std())
    mean = closed_form_mean(n1, n2)
    for key, want in (("distortion", distortion), ("baseline_std", dispersion)):
        if not _close(report[key], want, EXACT_TOL):
            errors.append(f"{report_path}: {key} {report[key]!r} != {want!r}")
    if histogram_path is None:
        if report["mode"] != "exact_enumeration" or \
                report["permutation_count"] != math.factorial(n):
            errors.append(f"{report_path}: expected exact enumeration of {n}! relabelings")
        if not _close(report["baseline_mean"], mean, EXACT_TOL):
            errors.append(f"{report_path}: baseline_mean {report['baseline_mean']!r} "
                          f"!= closed form {mean!r}")
    else:
        with open(histogram_path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh]
        samples = np.array([float(v) for _, v in rows[1:]])
        if rows[0] != ["index", "distortion"] or \
                [int(i) for i, _ in rows[1:]] != list(range(report["permutation_count"])):
            errors.append(f"{histogram_path}: not one row per sample")
        if report["mode"] != "monte_carlo":
            errors.append(f"{report_path}: expected Monte Carlo mode")
        if not _close(float(samples.mean()), report["baseline_mean"], 1e-9, rel=True):
            errors.append(f"{histogram_path}: mean disagrees with the report")
        se = float(samples.std()) / math.sqrt(len(samples))
        if abs(report["baseline_mean"] - mean) > MC_SIGMAS * se:
            errors.append(f"{report_path}: Monte Carlo mean {report['baseline_mean']!r} is "
                          f"more than {MC_SIGMAS} SE ({se:.3g}) from {mean!r}")
    z = (report["baseline_mean"] - report["distortion"]) / report["baseline_std"]
    if not _close(report["z_score"], z, 1e-9, rel=True):
        errors.append(f"{report_path}: z_score {report['z_score']!r} != {z!r}")
    return errors


_EDGE = re.compile(r'^  "([^"]+)" -- "([^"]+)" \[label="([0-9.]+)"\];$')


def check_graph(dot_path, distances_path) -> list[str]:
    """graph.dot holds every unordered edge with weight 2 * normalized cell."""
    labels, values = read_matrix(distances_path)
    norm = values / values.sum()
    want = {(labels[i], labels[j]): f"{2.0 * norm[i, j]:.4f}"
            for i in range(len(labels)) for j in range(i + 1, len(labels))}
    got = {}
    for line in Path(dot_path).read_text(encoding="utf-8").splitlines():
        m = _EDGE.match(line)
        if m:
            got[(m.group(1), m.group(2))] = m.group(3)
    return [] if got == want else [f"{dot_path}: edges disagree with {distances_path}"]


def check_wmd_distances(distances_path, oracle) -> list[str]:
    """Re-solve every pair as a linear program with HiGHS, from the
    generator's own token counts and the vectors as written."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix
    from scipy.spatial.distance import cdist

    labels, values = read_matrix(distances_path)
    vectors = oracle["ints"] / VECTOR_SCALE
    errors = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            ca, cb = oracle["counts"][labels[i]], oracle["counts"][labels[j]]
            a = np.array(list(ca.values()), float)
            b = np.array(list(cb.values()), float)
            a, b = a / a.sum(), b / b.sum()
            cost = cdist(vectors[list(ca)], vectors[list(cb)])
            m, n = cost.shape
            rows = np.concatenate([np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)])
            cols = np.concatenate([np.arange(m * n), np.arange(m * n)])
            a_eq = coo_matrix((np.ones(2 * m * n), (rows, cols)), shape=(m + n, m * n))
            res = linprog(cost.ravel(), A_eq=a_eq.tocsr(), b_eq=np.concatenate([a, b]),
                          bounds=(0, None), method="highs")
            if res.status != 0:
                errors.append(f"HiGHS failed on ({labels[i]}, {labels[j]}): {res.message}")
            elif not _close(values[i, j], res.fun, DISTANCE_RTOL, rel=True):
                errors.append(f"wmd({labels[i]}, {labels[j]}) = {float(values[i, j])!r}, "
                              f"HiGHS gives {res.fun!r}")
    return errors


def check_cosine_distances(distances_path, oracle) -> list[str]:
    """1 - cosine of mean-pooled vectors over the in-vocabulary tokens (after
    phrase merging) of the sentences the generator made summary-related."""
    labels, values = read_matrix(distances_path)
    ints = oracle["ints"]
    pooled = np.stack([(ints[oracle["kept_tokens"][lab]] / VECTOR_SCALE).mean(axis=0)
                       for lab in labels])
    unit = pooled / np.linalg.norm(pooled, axis=1, keepdims=True)
    want = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(want, 0.0)
    bad = np.abs(values - want) > DISTANCE_RTOL * np.abs(want)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return [f"cosine({labels[i]}, {labels[j]}) = {float(values[i, j])!r}, "
                f"expected {float(want[i, j])!r}"]
    return []


def digest(base, paths) -> dict[str, str]:
    """sha256 of each file, keyed by its path relative to `base`."""
    return {str(Path(p).relative_to(base)): hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths}
