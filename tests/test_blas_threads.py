"""The package caps OpenBLAS at one thread, and its outputs do not depend on it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

# Loaded by the child interpreter at start-up: it records the value of
# OPENBLAS_NUM_THREADS at the moment numpy is first imported, which is when
# OpenBLAS reads it, and prints that value last when the process exits.
SPY = '''
import atexit, os, sys

class NumpyImportSpy:
    seen = "numpy never imported"

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and NumpyImportSpy.seen == "numpy never imported":
            NumpyImportSpy.seen = os.environ.get("OPENBLAS_NUM_THREADS")
        return None

sys.meta_path.insert(0, NumpyImportSpy())
atexit.register(lambda: print(f"SPY {NumpyImportSpy.seen!r}", file=sys.stderr))
'''


def _child_env(extra_path=None, threads=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    paths = (extra_path, REPO_ROOT / "src", env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths if p)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _threads_at_numpy_import(tmp_path, args, preset):
    (tmp_path / "sitecustomize.py").write_text(SPY)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_child_env(tmp_path, preset), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.strip().splitlines()[-1]


@pytest.mark.parametrize("args", [["-c", "import cliquedist"],
                                  ["-m", "cliquedist", "--help"]],
                         ids=["import", "module-help"])
@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")],
                         ids=["unset", "preset"])
def test_blas_threads_capped_before_numpy_loads(tmp_path, args, preset, expected):
    assert _threads_at_numpy_import(tmp_path, args, preset) == f"SPY {expected!r}"


def _toy_inputs(tmp_path):
    toy = (REPO_ROOT / "data" / "toy_config.toml").read_text()
    assert "model = wmd\n" in toy and "ground_metric = euclidean\n" in toy
    return toy.replace("ground_metric = euclidean", "ground_metric = cosine")


def _threaded_gemm_inputs(tmp_path):
    # The toy product is at most about 20 x 8 x 20, far too small for
    # OpenBLAS to use a second thread. Here it is 150 x 50 x 150; OpenBLAS
    # 0.3 runs a 140 x 50 x 127 product on two threads (CPU twice its wall time).
    rng = np.random.default_rng(0)
    vocab = ["".join(chr(97 + int(c)) for c in f"{i:03d}") for i in range(300)]
    with open(tmp_path / "emb.txt", "w") as fh:
        fh.write(f"{len(vocab)} 50\n")
        for word, row in zip(vocab, rng.standard_normal((len(vocab), 50))):
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in row) + "\n")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for doc in "ABC":
        words = list(np.repeat(rng.choice(vocab, 150, replace=False),
                               rng.integers(1, 4, 150)))
        rng.shuffle(words)
        text = ". ".join(" ".join(words[i:i + 12]) for i in range(0, len(words), 12))
        (corpus / f"{doc}.txt").write_text(text + ".\n")
    return (f"corpus_dir = {corpus}\nembeddings_path = {tmp_path / 'emb.txt'}\n"
            "model = wmd\nground_metric = cosine\n")


@pytest.mark.parametrize("inputs", [_toy_inputs, _threaded_gemm_inputs],
                         ids=["toy", "threaded-gemm"])
def test_distances_do_not_depend_on_blas_threads(tmp_path, inputs):
    # wmd with the cosine ground metric is the one path that calls GEMM.
    cfg = tmp_path / "cfg"
    cfg.write_text(inputs(tmp_path))
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "cliquedist", "distances",
             "--config", str(cfg), "--out", str(out)],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env=_child_env(threads=threads), timeout=120)
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "distances.csv").read_bytes())
    assert blobs[0] == blobs[1]
