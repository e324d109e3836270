"""Metamorphic properties of the whole pipeline: input changes whose effect
on the outputs is known exactly, so no oracle is needed."""
import json
from pathlib import Path

import numpy as np
import pytest

from cliquedist import (
    LabeledDistanceMatrix,
    load_distance_matrix,
    main,
    save_distance_matrix,
)

DATA = Path(__file__).resolve().parents[1] / "data"
# Reverses the sorted document order, so the corpus loads in a new order.
RENAME = {old: f"{chr(ord('z') - i)}_{old.lower()}" for i, old in enumerate(
    sorted(p.stem for p in (DATA / "toy_corpus").glob("*.txt")))}


def run_toy_pipeline(out: Path, model: str, rename=None, repeat=1):
    """The toy pipeline with every document id mapped through `rename` (in
    the corpus, the annotations and the expert matrix) and every document's
    text written `repeat` times. Returns the distance matrix, with the
    original ids, and the report."""
    rename = rename or {}
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    for path in (DATA / "toy_corpus").glob("*.txt"):
        doc_id = rename.get(path.stem, path.stem)
        (corpus / f"{doc_id}.txt").write_text(path.read_text() * repeat)
    with open(DATA / "toy_annotations.jsonl") as src, \
            open(out / "annotations.jsonl", "w") as dst:
        for line in src:
            rec = json.loads(line)
            rec["doc_id"] = rename.get(rec["doc_id"], rec["doc_id"])
            dst.write(json.dumps(rec) + "\n")
    expert = load_distance_matrix(DATA / "expert_distances.csv")
    save_distance_matrix(LabeledDistanceMatrix(
        tuple(rename.get(lab, lab) for lab in expert.labels), expert.values),
        out / "expert.csv")
    cfg = out / "cfg"
    cfg.write_text((DATA / "toy_config.toml").read_text().replace("data/", f"{DATA}/")
                   + f"corpus_dir = {corpus}\n"
                   + f"annotations_path = {out / 'annotations.jsonl'}\n"
                   + f"expert_matrix_path = {out / 'expert.csv'}\n"
                   + f"model = {model}\n")
    assert main(["pipeline", "--config", str(cfg), "--out", str(out / "run")]) == 0
    matrix = load_distance_matrix(out / "run" / "distances.csv")
    original = {new: old for old, new in rename.items()}
    matrix = LabeledDistanceMatrix(
        tuple(original.get(lab, lab) for lab in matrix.labels), matrix.values)
    report = json.loads((out / "run" / "report.json").read_text())
    return matrix, report


@pytest.mark.parametrize("model", ["wmd", "cosine"])
def test_renaming_documents_permutes_distances_and_keeps_distortion(tmp_path, model):
    base, base_report = run_toy_pipeline(tmp_path / "base", model)
    renamed, report = run_toy_pipeline(tmp_path / "renamed", model, rename=RENAME)
    assert renamed.labels == tuple(reversed(base.labels))
    moved = renamed.aligned_to(base.labels).values
    if model == "cosine":
        assert np.array_equal(moved, base.values)
    else:
        # solve_ot(a, b) and solve_ot(b, a) may differ in the last ulp
        assert np.abs(moved - base.values).max() <= 1e-15
    for key in ("distortion", "baseline_mean", "baseline_std"):
        assert report[key] == pytest.approx(base_report[key], abs=1e-15)
    assert report["permutation_count"] == base_report["permutation_count"]


@pytest.mark.parametrize("model", ["wmd", "cosine"])
def test_repeating_each_text_keeps_distances(tmp_path, model):
    base, base_report = run_toy_pipeline(tmp_path / "base", model)
    doubled, report = run_toy_pipeline(tmp_path / "doubled", model, repeat=2)
    assert doubled.labels == base.labels
    if model == "wmd":
        # nBOW weights are count ratios, which doubling leaves unchanged
        assert np.array_equal(doubled.values, base.values)
        assert report == base_report
    else:
        change = np.abs(doubled.values - base.values)
        assert change.max() <= 1e-15
        # Normalizing by the total can magnify that change: the distortion
        # moves by at most sum|change in normalized cells| <= 2 sum|change| / total.
        bound = 2 * change.sum() / doubled.values.sum() + 1e-15
        assert abs(report["distortion"] - base_report["distortion"]) <= bound
