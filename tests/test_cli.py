import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from cliquedist import load_distance_matrix, main, save_distance_matrix
from cliquedist.cli import (
    CHOICES,
    _load_pipeline_corpus,
    build_config,
    make_parser,
    parse_config_file,
)
from cliquedist.errors import ConfigError
from conftest import Budget, make_matrix, random_symmetric

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main([str(a) for a in argv])


# -- config file parsing -----------------------------------------------------------

def test_parse_config_file_types_and_comments(tmp_path):
    p = tmp_path / "cfg"
    p.write_text(
        "# comment\n"
        "\n"
        "model = wmd\n"
        "seed = 17\n"
        "remove_stopwords = false\n"
        "output_dir = \"quoted dir\"\n"
        "corpus_dir = 'single'\n")
    cfg = parse_config_file(p)
    assert cfg == {"model": "wmd", "seed": 17, "remove_stopwords": False,
                   "output_dir": "quoted dir", "corpus_dir": "single"}


def test_parse_config_file_unknown_key(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("no_such_key = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_file(p)


def test_parse_config_file_bad_values(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("seed = soon\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_config_file(p)
    p.write_text("unique_pooling = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_file(p)
    p.write_text("just a line\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(p)


def test_parse_config_file_missing():
    with pytest.raises(ConfigError, match="not found"):
        parse_config_file("/nonexistent/cfg")


def test_bundled_example_config_parses():
    cfg = parse_config_file(REPO_ROOT / "data" / "toy_config.toml")
    assert cfg["model"] == "wmd"


def test_readme_config_block_is_a_valid_config(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text()
    block = readme.split("Common keys", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "cfg"
    p.write_text(block)
    args = make_parser().parse_args(["pipeline", "--config", str(p)])
    cfg = build_config(args)
    for key, allowed in CHOICES.items():
        assert getattr(cfg, key) in allowed
        for value in allowed:
            assert value in block, f"README does not list {key} = {value}"


def test_flags_override_config_file(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("seed = 17\nmodel = WMD\ntransform = One_Minus_Sim\n"
                 "output_dir = from_file\n")
    args = make_parser().parse_args(
        ["distances", "--config", str(p), "--seed", "99", "--out", "from_flag"])
    cfg = build_config(args)
    assert cfg.seed == 99                  # flag wins
    assert cfg.model == "wmd"              # file survives where no flag given
    assert cfg.transform == "one-minus-sim"  # choices stored canonical
    assert cfg.output_dir == "from_flag"


def test_build_config_validates_ranges(tmp_path):
    for flags in (["--min-mutual", "0"], ["--samples", "0"]):
        args = make_parser().parse_args(["distances", *flags])
        with pytest.raises(ConfigError):
            build_config(args)


@pytest.mark.parametrize("command", [
    ["distances"], ["pipeline"], ["filter"],
    ["permtest", "missing_a.csv", "missing_b.csv"],
    ["export-graph", "missing.csv"],
])
@pytest.mark.parametrize("key, model", [
    ("model", None),
    ("transform", "wmd"),               # ignored by wmd
    ("ground_metric", "cosine"),        # ignored by cosine
    ("relatedness_mode", "feature-table"),
])
def test_bad_choice_exits_2_before_any_input_is_read(tmp_path, capsys, monkeypatch,
                                                     command, key, model):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg"
    cfg.write_text(f"corpus_dir = {tmp_path / 'missing'}\n"
                   + (f"model = {model}\n" if model else "")
                   + f"{key} = bogus\n")
    assert run([command[0], "--config", cfg, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "'bogus'" in err
    assert "corpus_dir" not in err and "missing" not in err


# -- distances command -------------------------------------------------------------

def test_distances_feature_table(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"feature_table_path = {REPO_ROOT / 'data' / 'expert_features.csv'}\n")
    code = run(["distances", "--config", cfg, "--model", "feature-table",
                "--out", tmp_path])
    assert code == 0
    out_path = tmp_path / "distances.csv"
    assert f"wrote {out_path}" in capsys.readouterr().out
    got = load_distance_matrix(out_path)
    want = load_distance_matrix(REPO_ROOT / "data" / "expert_diff_counts.csv")
    assert got.labels == want.labels
    assert np.array_equal(got.values, want.values)


def test_distances_wmd_missing_embeddings_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"corpus_dir = {REPO_ROOT / 'data' / 'toy_corpus'}\n")
    code = run(["distances", "--config", cfg, "--model", "wmd", "--out", tmp_path])
    assert code == 2
    assert "embeddings_path" in capsys.readouterr().err


def test_distances_wmd_pivot_limit_is_numeric_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    # By import path: the package attribute `cliquedist.wmd` is the function.
    monkeypatch.setattr(importlib.import_module("cliquedist.wmd"), "MAX_PIVOTS", 1)
    code = run(["distances", "--config", "data/toy_config.toml", "--out", tmp_path])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: pair (") and "pivots" in err
    assert "Traceback" not in err


def test_distances_feature_table_requires_path(tmp_path, capsys):
    code = run(["distances", "--model", "feature-table", "--out", tmp_path])
    assert code == 2
    assert "feature_table_path" in capsys.readouterr().err


# -- permtest command ----------------------------------------------------------------

def test_permtest_golden_report(tmp_path):
    code = run(["permtest",
                REPO_ROOT / "data" / "expert_distances.csv",
                REPO_ROOT / "data" / "wmd_distances.csv",
                "--out", tmp_path])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["permutation_count"] == 5040
    assert report["mode"] == "exact_enumeration"
    assert report["distortion"] == pytest.approx(0.313933661, abs=1e-6)
    assert report["baseline_mean"] == pytest.approx(0.381378177, abs=1e-6)
    assert report["baseline_std"] == pytest.approx(0.009017982, abs=1e-6)
    assert report["z_score"] == pytest.approx(7.48, abs=0.02)
    assert report["seed"] is None


def test_permtest_histogram(tmp_path):
    hist = tmp_path / "hist.csv"
    code = run(["permtest",
                REPO_ROOT / "data" / "expert_distances.csv",
                REPO_ROOT / "data" / "wmd_distances.csv",
                "--out", tmp_path, "--histogram", hist])
    assert code == 0
    lines = hist.read_text().splitlines()
    assert lines[0] == "index,distortion"
    assert len(lines) == 5041
    report = json.loads((tmp_path / "report.json").read_text())
    first = float(lines[1].split(",")[1])
    assert first == report["distortion"]  # identity permutation comes first
    values = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert values.mean() == pytest.approx(report["baseline_mean"], abs=1e-12)


def test_permtest_disjoint_labels_is_data_error(tmp_path, capsys):
    other = tmp_path / "other.csv"
    save_distance_matrix(make_matrix([[0, 1], [1, 0]], labels=("X", "Y")), other)
    code = run(["permtest", REPO_ROOT / "data" / "expert_distances.csv",
                other, "--out", tmp_path])
    assert code == 3
    assert "label" in capsys.readouterr().err.lower()


def test_permtest_zero_matrix_is_numeric_error(tmp_path, capsys):
    zero = tmp_path / "zero.csv"
    labels = ("AAFP", "ACOG", "ACP", "ACR", "ACS", "IARC", "USPSTF")
    save_distance_matrix(make_matrix(np.zeros((7, 7)), labels=labels), zero)
    code = run(["permtest", REPO_ROOT / "data" / "expert_distances.csv",
                zero, "--out", tmp_path])
    assert code == 4
    assert "zero" in capsys.readouterr().err.lower()


def exact_relabeling_mean(reference_path, comparison_path):
    """Mean distortion over all n! relabelings: sum over reference cells x of
    mean over comparison cells y of |x - y|, by prefix sums over sorted y."""
    ref = load_distance_matrix(reference_path)
    cmp_ = load_distance_matrix(comparison_path).aligned_to(ref.labels)
    off = ~np.eye(ref.n, dtype=bool)
    x = (ref.values / ref.values.sum())[off]
    y = np.sort((cmp_.values / cmp_.values.sum())[off])
    prefix = np.concatenate([[0.0], np.cumsum(y)])
    below = np.searchsorted(y, x)
    total = (x * below - prefix[below]
             + (prefix[-1] - prefix[below]) - x * (len(y) - below))
    return float(total.sum() / len(y))


def labeled_pair(tmp_path, n, seed):
    rng = np.random.default_rng(seed)
    paths = [tmp_path / f"a{n}.csv", tmp_path / f"b{n}.csv"]
    for path in paths:
        save_distance_matrix(random_symmetric(rng, n), path)
    return paths


@pytest.fixture
def twelve_label_pair(tmp_path):
    return labeled_pair(tmp_path, 12, 12)


def test_permtest_monte_carlo_flags(twelve_label_pair, tmp_path):
    hist = tmp_path / "hist.csv"
    code = run(["permtest", *twelve_label_pair, "--out", tmp_path,
                "--histogram", hist, "--samples", "500", "--seed", "11"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mode"] == "monte_carlo"
    assert report["permutation_count"] == 500
    assert report["seed"] == 11
    lines = hist.read_text().splitlines()
    assert lines[0] == "index,distortion" and len(lines) == 501
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert values.mean() == pytest.approx(report["baseline_mean"], rel=1e-12)
    se = values.std() / np.sqrt(len(values))
    exact = exact_relabeling_mean(*twelve_label_pair)
    assert abs(report["baseline_mean"] - exact) <= 4 * se


def test_permtest_exact_mean_needs_no_enumeration(tmp_path):
    for n in (12, 60):
        pair = labeled_pair(tmp_path, n, n)
        out = tmp_path / f"out{n}"
        with Budget(1.0):
            code = run(["permtest", *pair, "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "exact_enumeration"
        assert report["permutation_count"] == math.factorial(n)
        assert report["seed"] is None
        assert report["baseline_mean"] == pytest.approx(
            exact_relabeling_mean(*pair), abs=1e-12)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no integer string limit")
def test_permtest_count_too_long_for_json_is_numeric_error(tmp_path, capsys):
    pair = labeled_pair(tmp_path, 311, 0)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # 311! has 642 digits
    try:
        code = run(["permtest", *pair, "--out", tmp_path])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 4
    assert "311!" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_max_exact_n_flag_is_gone(twelve_label_pair, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["permtest", *twelve_label_pair, "--max-exact-n", "12", "--out", tmp_path])
    assert exc.value.code == 2


def test_max_exact_n_config_key_is_gone(twelve_label_pair, tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("max_exact_n = 12\n")
    assert run(["permtest", *twelve_label_pair, "--config", cfg, "--out", tmp_path]) == 2
    assert "unknown config key 'max_exact_n'" in capsys.readouterr().err


# -- paths that cannot be read or written ----------------------------------------

def test_permtest_missing_matrix_is_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = run(["permtest", missing, REPO_ROOT / "data" / "wmd_distances.csv",
                "--out", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_export_graph_missing_matrix_is_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert run(["export-graph", missing, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_embeddings_path_directory_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    config = tmp_path / "cfg"
    config.write_text((REPO_ROOT / "data" / "toy_config.toml").read_text()
                      + "embeddings_path = data\n")
    assert run(["distances", "--config", config, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'data'" in err


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("x")
    code = run(["permtest", REPO_ROOT / "data" / "expert_distances.csv",
                REPO_ROOT / "data" / "wmd_distances.csv", "--out", blocker])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err


def test_undecodable_corpus_file_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "A.txt").write_text("Screen every year.\n", encoding="utf-8")
    bad = corpus / "B.txt"
    bad.write_bytes(b"Screen every other year.\xff\n")
    cfg = tmp_path / "cfg"
    cfg.write_text(f"corpus_dir = {corpus}\n"
                   f"embeddings_path = {REPO_ROOT / 'data' / 'toy_embeddings.txt'}\n")
    assert run(["distances", "--config", cfg, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "UTF-8" in err


# -- export-graph command ---------------------------------------------------------------

def test_export_graph_dot(tmp_path):
    out = tmp_path / "g.dot"
    code = run(["export-graph", REPO_ROOT / "data" / "expert_distances.csv",
                "--format", "dot", "--out", out])
    assert code == 0
    text = out.read_text()
    assert text.startswith("graph distances {")
    assert text.rstrip().endswith("}")
    assert text.count(" -- ") == 21          # complete graph on 7 nodes
    assert '"AAFP";' in text
    assert '"AAFP" -- "USPSTF" [label="0.0238"];' in text  # 2 * 1/84


def test_export_graph_two_nodes(tmp_path):
    m = tmp_path / "m.csv"
    save_distance_matrix(make_matrix([[0, 5], [5, 0]], labels=("A", "B")), m)
    out = tmp_path / "g.dot"
    assert run(["export-graph", m, "--out", out]) == 0
    assert '"A" -- "B" [label="1.0000"];' in out.read_text()


def test_export_graph_json(tmp_path):
    out = tmp_path / "g.json"
    code = run(["export-graph", REPO_ROOT / "data" / "expert_distances.csv",
                "--format", "json", "--out", out])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["nodes"]) == 7
    assert len(payload["edges"]) == 21
    weights = {(e["source"], e["target"]): e["weight"] for e in payload["edges"]}
    assert weights[("AAFP", "USPSTF")] == pytest.approx(0.0238, abs=5e-5)


def test_export_graph_deterministic(tmp_path):
    outs = []
    for name in ("a.dot", "b.dot"):
        out = tmp_path / name
        assert run(["export-graph", REPO_ROOT / "data" / "expert_distances.csv",
                    "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_export_graph_json_default_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(["export-graph", REPO_ROOT / "data" / "expert_distances.csv",
                "--format", "json"])
    assert code == 0
    assert len(json.loads((tmp_path / "graph.json").read_text())["nodes"]) == 7
    assert not (tmp_path / "graph.dot").exists()


def test_export_graph_into_directory(tmp_path):
    code = run(["export-graph", REPO_ROOT / "data" / "expert_distances.csv",
                "--out", tmp_path])
    assert code == 0
    assert (tmp_path / "graph.dot").exists()


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_export_graph_trailing_separator_makes_directory(tmp_path, fmt):
    out = tmp_path / "newdir"
    code = run(["export-graph", REPO_ROOT / "data" / "expert_distances.csv",
                "--format", fmt, "--out", f"{out}/"])
    assert code == 0
    assert out.is_dir()
    assert (out / f"graph.{fmt}").read_text().count("AAFP") > 1


def test_export_graph_escapes_quotes_in_dot(tmp_path):
    m = tmp_path / "m.csv"
    m.write_text('"A""B",C\n"A""B",0,2\nC,2,0\n')
    out = tmp_path / "g.dot"
    assert run(["export-graph", m, "--out", out]) == 0
    assert out.read_text() == ('graph distances {\n  "A\\"B";\n  "C";\n'
                               '  "A\\"B" -- "C" [label="1.0000"];\n}\n')


# -- filter command --------------------------------------------------------------------


@pytest.fixture()
def mini_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "A.txt").write_text("Alpha statement one. Beta statement two.\n")
    (corpus / "B.txt").write_text("Gamma only sentence.\n")
    ann = tmp_path / "ann.jsonl"
    ann.write_text("\n".join([
        json.dumps({"doc_id": "A", "sent_index": 0,
                    "concepts": [{"cui": "C1", "semtype": "dsyn"}]}),
        json.dumps({"doc_id": "A", "sent_index": 1,
                    "concepts": [{"cui": "C2", "semtype": "fndg"}]}),
        json.dumps({"doc_id": "B", "sent_index": 0,
                    "concepts": [{"cui": "C3", "semtype": "neop"}]}),
    ]) + "\n")
    summary = tmp_path / "summary.jsonl"
    summary.write_text(json.dumps(
        {"concepts": [{"cui": "C1", "semtype": "dsyn"},
                      {"cui": "C3", "semtype": "neop"}]}) + "\n")
    cfg = tmp_path / "cfg"
    cfg.write_text(f"corpus_dir = {corpus}\n"
                   f"annotations_path = {ann}\n"
                   f"summary_path = {summary}\n")
    return cfg


def test_filter_splits_sentences(mini_corpus, tmp_path):
    out = tmp_path / "out"
    code = run(["filter", "--config", mini_corpus, "--mode", "any-statement",
                "--out", out])
    assert code == 0
    assert (out / "related" / "A.txt").read_text() == "Alpha statement one.\n"
    assert (out / "unrelated" / "A.txt").read_text() == "Beta statement two.\n"
    assert (out / "related" / "B.txt").read_text() == "Gamma only sentence.\n"
    assert (out / "unrelated" / "B.txt").read_text() == ""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "any-statement"
    assert manifest["min_mutual"] == 1
    assert manifest["documents"] == {
        "A": {"related": 1, "unrelated": 1},
        "B": {"related": 1, "unrelated": 0}}


def test_filter_high_threshold_warns(mini_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["filter", "--config", mini_corpus, "--mode", "whole-summary",
                "--min-mutual", "3", "--out", out])
    assert code == 0
    err = capsys.readouterr().err
    assert "no related sentences" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(v["related"] == 0 for v in manifest["documents"].values())


def test_filter_requires_mode(mini_corpus, tmp_path, capsys):
    code = run(["filter", "--config", mini_corpus, "--out", tmp_path])
    assert code == 2
    assert "mode" in capsys.readouterr().err


def test_filter_deterministic(mini_corpus, tmp_path):
    payloads = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert run(["filter", "--config", mini_corpus, "--mode", "any-statement",
                    "--out", out]) == 0
        payloads.append((out / "manifest.json").read_bytes())
    assert payloads[0] == payloads[1]


def test_filter_malformed_annotation_is_data_error(mini_corpus, tmp_path, capsys):
    (tmp_path / "ann.jsonl").write_text(
        json.dumps({"doc_id": "A", "sent_index": 0, "concepts": 5}) + "\n")
    code = run(["filter", "--config", mini_corpus, "--mode", "any-statement",
                "--out", tmp_path / "out"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ann.jsonl:1" in err
    assert "Traceback" not in err


# -- pipeline command --------------------------------------------------------------------

def test_pipeline_end_to_end(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "run"
    code = run(["pipeline", "--config", "data/toy_config.toml", "--out", out])
    assert code == 0
    matrix = load_distance_matrix(out / "distances.csv")
    assert matrix.labels == ("AAFP", "ACOG", "ACP", "ACR", "ACS", "IARC", "USPSTF")
    report = json.loads((out / "report.json").read_text())
    assert report["permutation_count"] == 5040
    dot = (out / "graph.dot").read_text()
    assert dot.count(" -- ") == 21


def test_pipeline_runs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run(["pipeline", "--config", "data/toy_config.toml",
                    "--out", out]) == 0
        blobs.append(tuple((out / f).read_bytes()
                           for f in ("distances.csv", "report.json", "graph.dot")))
    assert blobs[0] == blobs[1]


def test_pipeline_keyword_filter_keeps_annotations(tmp_path, monkeypatch):
    # annotations address sentences by their index before keyword filtering
    monkeypatch.chdir(REPO_ROOT)
    config = tmp_path / "cfg"
    config.write_text((REPO_ROOT / "data" / "toy_config.toml").read_text()
                      + "keyword_filter = AAFP:dense tissue\n")
    assert run(["pipeline", "--config", config, "--out", tmp_path / "run"]) == 0
    args = make_parser().parse_args(["pipeline", "--config", str(config)])
    (kept,) = _load_pipeline_corpus(build_config(args)).document("AAFP").sentences
    assert kept.text == "Dense tissue may call for additional imaging."
    assert "C0205082" in kept.cuis()


def test_pipeline_keyword_filter_repeated_document_is_config_error(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    config = tmp_path / "cfg"
    config.write_text((REPO_ROOT / "data" / "toy_config.toml").read_text()
                      + "keyword_filter = AAFP:dense tissue;ACS:annual;AAFP:mammograph\n")
    assert run(["pipeline", "--config", config, "--out", tmp_path / "run"]) == 2
    assert "'AAFP'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
