"""Command-line pipeline: distances, permutation tests, sentence filtering,
and graph export, driven by a flat key=value config file with flag overrides.

Exit codes: 0 success, 2 configuration error, 3 data mismatch, 4 numeric
failure. All randomness flows from the single configured seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .core import (
    LabeledDistanceMatrix,
    load_distance_matrix,
    load_embeddings,
    load_feature_table,
    save_distance_matrix,
    Corpus,
    Document,
    FLOAT_FMT,
)
from .distortion import permutation_stats
from .errors import CliqueDistError, ConfigError, CorpusError, EXIT_OK
from .metrics import (
    SimilarityTransform,
    cosine_model,
    feature_difference_counts,
    normalize_matrix,
    pairwise_distances,
)
from .textprep import (
    DEFAULT_FILTER,
    RelatednessConfig,
    RelatednessMode,
    SemanticTypeFilter,
    filter_sentences_by_keyword,
    load_concept_annotations,
    load_concept_lexicon,
    load_corpus,
    load_summary_statements,
    split_related,
)
from .wmd import WmdConfig, wmd_model

MODELS = ("feature-table", "cosine", "wmd")


@dataclass(frozen=True)
class PipelineConfig:
    corpus_dir: str | None = None
    embeddings_path: str | None = None
    model: str = "cosine"
    transform: str = "one-minus-sim"
    relatedness_mode: str | None = None
    min_mutual: int = 1
    lexicon_path: str | None = None
    annotations_path: str | None = None
    summary_path: str | None = None
    feature_table_path: str | None = None
    expert_matrix_path: str | None = None
    output_dir: str = "."
    seed: int = 0
    max_exact_n: int = 9
    mc_samples: int = 10000
    ground_metric: str = "euclidean"
    remove_stopwords: bool = True
    unique_pooling: bool = False
    semantic_types: str | None = None  # comma-separated; None = built-in list
    keyword_filter: str | None = None  # DOC:phrase[;DOC:phrase...]
    histogram_path: str | None = None


_INT_KEYS = {"min_mutual", "seed", "max_exact_n", "mc_samples"}
_BOOL_KEYS = {"remove_stopwords", "unique_pooling"}
_CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}


def _coerce(key: str, raw: str):
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} needs an integer, got {raw!r}") from None
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"config key {key!r} needs a boolean, got {raw!r}")
    return raw


def parse_config_file(path) -> dict:
    """Flat `key = value` text; blank lines and # comments ignored."""
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            raw = raw.strip()
            if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
                raw = raw[1:-1]
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _coerce(key, raw)
    return out


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults <- config file <- command-line flags (flags win)."""
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **parse_config_file(args.config))
    overrides = {}
    for flag, key in [("model", "model"), ("transform", "transform"),
                      ("mode", "relatedness_mode"), ("min_mutual", "min_mutual"),
                      ("seed", "seed"), ("samples", "mc_samples"),
                      ("max_exact_n", "max_exact_n"), ("out", "output_dir"),
                      ("histogram", "histogram_path")]:
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    if overrides:
        cfg = replace(cfg, **overrides)
    if cfg.min_mutual < 1:
        raise ConfigError(f"min_mutual must be >= 1, got {cfg.min_mutual}")
    if cfg.mc_samples < 1:
        raise ConfigError(f"mc_samples must be >= 1, got {cfg.mc_samples}")
    if cfg.max_exact_n < 0:
        raise ConfigError(f"max_exact_n must be >= 0, got {cfg.max_exact_n}")
    return cfg


def _canon(value: str) -> str:
    return value.strip().lower().replace("_", "-")


def _parse_model(cfg) -> str:
    model = _canon(cfg.model)
    if model == "featuretable":
        model = "feature-table"
    if model not in MODELS:
        raise ConfigError(f"unknown model {cfg.model!r}; choose from {MODELS}")
    return model


def _parse_transform(cfg) -> SimilarityTransform:
    name = _canon(cfg.transform)
    for t in SimilarityTransform:
        if t.value == name:
            return t
    raise ConfigError(
        f"unknown transform {cfg.transform!r}; choose from "
        f"{[t.value for t in SimilarityTransform]}")


def _parse_relatedness(cfg) -> RelatednessConfig | None:
    if cfg.relatedness_mode is None:
        return None
    name = _canon(cfg.relatedness_mode)
    for mode in RelatednessMode:
        if mode.value == name:
            try:
                return RelatednessConfig(mode, cfg.min_mutual)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
    raise ConfigError(
        f"unknown relatedness mode {cfg.relatedness_mode!r}; choose from "
        f"{[m.value for m in RelatednessMode]}")


def _parse_semfilter(cfg) -> SemanticTypeFilter:
    if cfg.semantic_types is None:
        return DEFAULT_FILTER
    codes = [c.strip() for c in cfg.semantic_types.split(",") if c.strip()]
    try:
        return SemanticTypeFilter(frozenset(codes))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _require_path(cfg_value, key: str):
    if cfg_value is None:
        raise ConfigError(f"config key {key!r} is required for this command")
    if not Path(cfg_value).exists():
        raise ConfigError(f"{key} does not exist: {cfg_value}")
    return cfg_value


def _parse_keyword_filter(rules_text: str) -> list[tuple[str, str]]:
    rules = []
    for entry in rules_text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        doc_id, sep, phrase = entry.partition(":")
        if not sep or not doc_id.strip() or not phrase.strip():
            raise ConfigError(
                f"keyword_filter entry {entry!r} must look like DOC:phrase")
        rules.append((doc_id.strip(), phrase.strip()))
    return rules


def _load_annotated_corpus(cfg: PipelineConfig, semfilter: SemanticTypeFilter) -> Corpus:
    """Corpus with lexicon merging and, when configured, concept annotations.

    Annotations address sentences by their index in the unfiltered document,
    so they attach before any sentence is filtered out.
    """
    _require_path(cfg.corpus_dir, "corpus_dir")
    lexicon = None
    if cfg.lexicon_path is not None:
        lexicon = load_concept_lexicon(_require_path(cfg.lexicon_path, "lexicon_path"))
    corpus = load_corpus(cfg.corpus_dir, lexicon)
    if cfg.annotations_path is not None:
        corpus = load_concept_annotations(
            _require_path(cfg.annotations_path, "annotations_path"), corpus, semfilter)
    return corpus


def _load_pipeline_corpus(cfg: PipelineConfig) -> Corpus:
    """Corpus with lexicon merging, annotations, keyword filtering, and the
    optional related-sentences restriction applied."""
    semfilter = _parse_semfilter(cfg)
    corpus = _load_annotated_corpus(cfg, semfilter)

    if cfg.keyword_filter:
        rules = dict(_parse_keyword_filter(cfg.keyword_filter))
        unknown = set(rules) - set(corpus.ids)
        if unknown:
            raise CorpusError(f"keyword_filter names unknown documents: {sorted(unknown)}")
        corpus = Corpus(tuple(
            filter_sentences_by_keyword(d, rules[d.id]) if d.id in rules else d
            for d in corpus.documents))

    relatedness = _parse_relatedness(cfg)
    if relatedness is not None:
        _require_path(cfg.summary_path, "summary_path")
        if cfg.annotations_path is None:
            raise ConfigError("relatedness filtering requires annotations_path")
        statements = load_summary_statements(cfg.summary_path, semfilter)
        docs = []
        for doc in corpus.documents:
            related, _ = split_related(doc, statements, relatedness)
            if not related:
                raise CorpusError(
                    f"document {doc.id!r} has no sentences related to the summary")
            docs.append(Document(doc.id, related))
        corpus = Corpus(tuple(docs))
    return corpus


def _build_model_matrix(cfg: PipelineConfig) -> LabeledDistanceMatrix:
    model = _parse_model(cfg)
    if model == "feature-table":
        path = _require_path(cfg.feature_table_path, "feature_table_path")
        return feature_difference_counts(load_feature_table(path))
    corpus = _load_pipeline_corpus(cfg)
    store = load_embeddings(_require_path(cfg.embeddings_path, "embeddings_path"))
    if model == "cosine":
        fn = cosine_model(store, _parse_transform(cfg), cfg.unique_pooling)
    else:
        try:
            wmd_cfg = WmdConfig(remove_stopwords=cfg.remove_stopwords,
                                ground_metric=_canon(cfg.ground_metric))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        fn = wmd_model(store, wmd_cfg)
    return pairwise_distances(corpus, fn)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_distances(cfg: PipelineConfig) -> Path:
    matrix = _build_model_matrix(cfg)
    out = Path(cfg.output_dir) / "distances.csv"
    save_distance_matrix(matrix, out)
    return out


def cmd_permtest(cfg: PipelineConfig, path_a, path_b) -> Path:
    reference = load_distance_matrix(path_a)
    comparison = load_distance_matrix(path_b)
    report = permutation_stats(
        reference, comparison,
        max_exact_n=cfg.max_exact_n, samples=cfg.mc_samples, seed=cfg.seed,
        keep_distortions=cfg.histogram_path is not None)
    out = Path(cfg.output_dir) / "report.json"
    _write_text(out, report.to_json())
    if cfg.histogram_path is not None:
        lines = ["index,distortion"]
        lines += [f"{i},{FLOAT_FMT % v}" for i, v in enumerate(report.distortions)]
        _write_text(Path(cfg.histogram_path), "\n".join(lines) + "\n")
    return out


def cmd_filter(cfg: PipelineConfig) -> Path:
    relatedness = _parse_relatedness(cfg)
    if relatedness is None:
        raise ConfigError("filter requires relatedness_mode (--mode)")
    _require_path(cfg.annotations_path, "annotations_path")
    _require_path(cfg.summary_path, "summary_path")
    semfilter = _parse_semfilter(cfg)
    corpus = _load_annotated_corpus(cfg, semfilter)
    statements = load_summary_statements(cfg.summary_path, semfilter)

    out_dir = Path(cfg.output_dir)
    manifest = {}
    for doc in corpus.documents:
        related, unrelated = split_related(doc, statements, relatedness)
        if not related:
            print(f"warning: document {doc.id!r} has no related sentences",
                  file=sys.stderr)
        _write_text(out_dir / "related" / f"{doc.id}.txt",
                    "".join(s.text + "\n" for s in related))
        _write_text(out_dir / "unrelated" / f"{doc.id}.txt",
                    "".join(s.text + "\n" for s in unrelated))
        manifest[doc.id] = {"related": len(related), "unrelated": len(unrelated)}
    payload = {
        "documents": manifest,
        "min_mutual": relatedness.min_mutual,
        "mode": relatedness.mode.value,
    }
    out = out_dir / "manifest.json"
    _write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def cmd_export_graph(matrix_path, fmt: str, out_path) -> Path:
    """Complete graph with unordered-edge weights (2x the normalized cells)."""
    m = load_distance_matrix(matrix_path)
    norm = normalize_matrix(m).values
    labels = m.labels
    edges = [(labels[i], labels[j], 2.0 * norm[i, j])
             for i in range(m.n) for j in range(i + 1, m.n)]
    fmt = _canon(fmt)
    out = Path(out_path)
    if fmt == "dot":
        lines = ["graph distances {"]
        lines += [f'  "{lab}";' for lab in labels]
        lines += [f'  "{a}" -- "{b}" [label="{w:.4f}"];' for a, b, w in edges]
        lines.append("}")
        _write_text(out, "\n".join(lines) + "\n")
    elif fmt == "json":
        payload = {
            "nodes": list(labels),
            "edges": [{"source": a, "target": b, "weight": round(w, 4)}
                      for a, b, w in edges],
        }
        _write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        raise ConfigError(f"unknown graph format {fmt!r}; choose dot or json")
    return out


def cmd_pipeline(cfg: PipelineConfig) -> list[Path]:
    """distances -> permtest against the expert matrix -> DOT export."""
    expert_path = _require_path(cfg.expert_matrix_path, "expert_matrix_path")
    distances_path = cmd_distances(cfg)
    report_path = cmd_permtest(cfg, expert_path, distances_path)
    graph_path = cmd_export_graph(distances_path, "dot",
                                  Path(cfg.output_dir) / "graph.dot")
    return [distances_path, report_path, graph_path]


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--model", choices=MODELS)
    common.add_argument("--transform",
                        choices=[t.value for t in SimilarityTransform])
    common.add_argument("--mode", choices=[m.value for m in RelatednessMode],
                        help="relatedness mode for sentence filtering")
    common.add_argument("--min-mutual", dest="min_mutual", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--samples", type=int, help="Monte Carlo permutation count")
    common.add_argument("--max-exact-n", dest="max_exact_n", type=int)
    common.add_argument("--out", help="output directory (or file for export-graph)")

    p = argparse.ArgumentParser(
        prog="cliquedist",
        description="Document-collection distances and clique distortion statistics")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("distances", parents=[common],
                   help="compute the pairwise document distance matrix")
    pt = sub.add_parser("permtest", parents=[common],
                        help="distortion + permutation statistics for two matrices")
    pt.add_argument("matrix_a", help="reference matrix CSV")
    pt.add_argument("matrix_b", help="comparison matrix CSV (gets relabeled)")
    pt.add_argument("--histogram", help="also write per-permutation distortions CSV")
    sub.add_parser("filter", parents=[common],
                   help="split corpus sentences into related/unrelated")
    eg = sub.add_parser("export-graph", parents=[common],
                        help="export a matrix as a weighted complete graph")
    eg.add_argument("matrix", help="distance matrix CSV")
    eg.add_argument("--format", default="dot", choices=["dot", "json"])
    sub.add_parser("pipeline", parents=[common],
                   help="distances, then permtest vs the expert matrix, then export")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "distances":
            written = [cmd_distances(cfg)]
        elif args.command == "permtest":
            written = [cmd_permtest(cfg, args.matrix_a, args.matrix_b)]
        elif args.command == "filter":
            written = [cmd_filter(cfg)]
        elif args.command == "export-graph":
            out = Path(args.out) if args.out else Path(cfg.output_dir) / "graph.dot"
            if out.is_dir():
                out = out / f"graph.{args.format}"
            written = [cmd_export_graph(args.matrix, args.format, out)]
        else:
            written = cmd_pipeline(cfg)
    except CliqueDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(type(exc), "exit_code", 1)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
