import time
from pathlib import Path

import numpy as np
import pytest

from cliquedist import LabeledDistanceMatrix

DATA = Path(__file__).resolve().parents[1] / "data"


class Budget:
    """Wall-clock guard: the block must finish within `seconds`."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, (
                f"block exceeded its {self.seconds}s budget: {elapsed:.2f}s")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


def make_matrix(values, labels=None) -> LabeledDistanceMatrix:
    values = np.asarray(values, dtype=float)
    if labels is None:
        labels = tuple(f"n{i}" for i in range(values.shape[0]))
    return LabeledDistanceMatrix(tuple(labels), values)


def random_symmetric(rng, n, scale=1.0) -> LabeledDistanceMatrix:
    """Random nonnegative symmetric clique with zero diagonal, positive total."""
    a = rng.random((n, n)) * scale
    sym = (a + a.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    return make_matrix(sym)
